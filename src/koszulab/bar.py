"""Weight-graded bar complexes, Koszul modules C[k], the small Koszul complex
with its last-face differential, and Tor/Ext profiles.

Everything past the bar complex of one weight reads a :class:`KoszulData`,
the one context a command builds for its algebra: every function of the
chain (bar homology, C[k], the Koszul complex, Tor and Ext) takes it as its
first argument, so each piece is built once per command."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import NamedTuple, Optional

from .padic import (PAdicMatrix, InconsistentSystemError, _EMPTY, _wrap,
                    kernel_basis, solve)
from .complexes import (ChainComplex, HomologyProfile, HOMOLOGICAL,
                        dualize_complex, homology, make_complex, verify_complex)
from .algebra import (Bimodule, GradedAugmentedAlgebra, IteratedTensor,
                      LeftModule, TensorTable, identity_tensor,
                      tensor_over_coeff, tensor_step)


class NotKoszulError(Exception):
    """Bar homology not concentrated in top degree at some weight."""


class ImageEscapesError(Exception):
    """A last-face image left the span of the Koszul submodule."""


# ---------------------------------------------------------------------------
# Complexes indexed by compositions
#
# The bar, module-bar and subgroup (isogeny) complexes share one shape: the
# degree-s term sums tensor quotients, one block per composition with s
# parts, and the differential sums faces I (x) m (x) I on the ambient
# (Kronecker, left-major) products, read in the blocks' quotient
# coordinates.  In lex order the degree-s compositions of a level L (a
# weight, a bound or an order) group by first part a; group a is
# A_a (x) (degree s - 1 of level L - a), on which the ambient differential
# is -(I_{r_a} (x) d_{L-a}) - (the faces on the first part) (Priddy,
# "Koszul resolutions", Trans. AMS 152, 1970; Polishchuk and Positselski,
# "Quadratic Algebras", 2005, ch. 1).  An AmbientTable builds each level
# so, and composition_complex reads it in the blocks' quotient coordinates.
# ---------------------------------------------------------------------------

class Block(NamedTuple):
    """One composition's summand in one degree: its first coordinate, rank
    and tensor quotient (None over E0 of rank 1, in all three families)."""
    composition: tuple
    start: int
    rank: int
    tensor: Optional[IteratedTensor]


def _block_diagonal(ring, mats) -> PAdicMatrix:
    """The block-diagonal matrix of ``mats``: their rows, shifted, with no
    entry reduced again."""
    rows, cols = [], 0
    for m in mats:
        rows += [{j + cols: x for j, x in r.items()} if r and cols else r
                 for r in m.nonzeros]
        cols += m.cols
    return _wrap(ring, tuple(rows), len(rows), cols)


class AmbientLevel(NamedTuple):
    """Level L of an AmbientTable: per degree s = 0..L the compositions in
    lex order, their first ambient coordinates and ambient ranks, the first
    coordinate of each first part's group and the degree's ambient rank;
    diffs[s - 1] is the ambient differential between degrees s - 1 and s."""
    comps: tuple
    starts: tuple
    dims: tuple
    groups: tuple
    sizes: tuple
    diffs: tuple


def _copies(level: AmbientLevel, s: int, r: int, off: int):
    """Per coordinate x of degree s of ``level``: (x0, step) with copy i of x
    in A (x) (that degree), rank A = r, laid out from ``off``, at x0 + i*step."""
    out = []
    for st, dm in zip(level.starts[s], level.dims[s]):
        out += [(off + (r - 1) * st + x, dm) for x in range(st, st + dm)]
    return out


class AmbientTable:
    """The ambient complexes of one family of compositions, level by level,
    each built on first use from the lower ones (see the comment above).
    ``rank(a)`` is the rank of a part a; ``pair(x, y)`` the face between the
    parts (x, y) and (x + y): a product A_x (x) A_y -> A_{x+y} (homological)
    or a refinement S_{x+y} -> S_x (x) S_y (cohomological).  Level 0 is the
    empty composition, of ambient rank ``empty``, level L the compositions
    of L.  With ``action`` (a -> A_a (x) M -> M) it is the bar complex with
    coefficients in M: level L holds the compositions of total <= L, and M
    (the empty composition) in degree 0, on which degree 1 acts."""

    def __init__(self, ring, rank, pair, cohomological=False, empty=1,
                 action=None):
        self.ring, self.rank, self.pair = ring, rank, pair
        self.cohomological, self.empty, self.action = cohomological, empty, action
        self._levels = []
        self._terms = {}      # (x, y) -> the nonzeros (t, j, -m[t, j]) of pair(x, y)

    def level(self, L: int) -> AmbientLevel:
        while len(self._levels) <= L:
            self._levels.append(self._build(len(self._levels)))
        return self._levels[L]

    def _build(self, L: int) -> AmbientLevel:
        # per degree: compositions, starts, ranks, groups and total rank
        degrees = [(((),), (0,), (self.empty,), {}, self.empty)
                   if L == 0 or self.action is not None else ((), (), (), {}, 0)]
        for s in range(1, L + 1):
            cs, st, dm, gr, off = [], [], [], {}, 0
            for a in range(1, L - s + 2):
                low, r = self._levels[L - a], self.rank(a)
                gr[a] = off
                cs += [(a,) + c for c in low.comps[s - 1]]
                st += [off + r * x for x in low.starts[s - 1]]
                dm += [r * x for x in low.dims[s - 1]]
                off += r * low.sizes[s - 1]
            degrees.append((tuple(cs), tuple(st), tuple(dm), gr, off))
        lv = AmbientLevel(*zip(*degrees), ())
        return lv._replace(diffs=tuple([self._differential(L, lv, s)
                                        for s in range(1, L + 1)]))

    def _differential(self, L: int, lv: AmbientLevel, s: int) -> PAdicMatrix:
        """The differential of level L between degrees s - 1 and s.  Each
        nonzero comes from one face and is written once, negated: every
        face, and the copy of d_{L-a}, has the sign -1."""
        mod, rank, levels = self.ring.modulus, self.rank, self._levels
        hom = not self.cohomological
        tgt, src = (s - 1, s) if hom else (s, s - 1)
        rows = [{} for _ in range(lv.sizes[tgt])]
        if s == 1:      # no lower differential and no head of two parts
            for a, g in lv.groups[1].items() if self.action else ():
                for t, mrow in enumerate(self.action[a].nonzeros):
                    for j, v in mrow.items():
                        rows[t][g + j] = mod - v
            return _wrap(self.ring, tuple([r or _EMPTY for r in rows]),
                         lv.sizes[tgt], lv.sizes[src])
        for a, g_hi in lv.groups[s].items():
            # -(I_{r_a} (x) d_{L-a}) on group a
            low, r, g_lo = levels[L - a], rank(a), lv.groups[s - 1][a]
            g_row, g_col = (g_lo, g_hi) if hom else (g_hi, g_lo)
            d = low.diffs[s - 2].nonzeros
            if r == 1:
                for y, row in enumerate(d, g_row):
                    if row:
                        rows[y] = {g_col + x: mod - v for x, v in row.items()}
                continue
            xs = _copies(low, src - 1, r, g_col)
            for (y0, ystep), row in zip(_copies(low, tgt - 1, r, g_row), d):
                if row:
                    moved = [(xs[x], mod - v) for x, v in row.items()]
                    for i in range(r):
                        rows[y0 + i * ystep] = {x0 + i * step: w for (x0, step), w in moved}
        for x in range(1, L - s + 2):
            # the faces between (x, y) + tail and (x + y) + tail
            low, rx = levels[L - x], rank(x)
            for y in range(1, L - x - s + 3):
                tail, rxy, terms = levels[L - x - y], rank(x + y), self._face(x, y)
                g_long = lv.groups[s][x] + rx * low.groups[s - 1][y]
                g_short, r_long = lv.groups[s - 1][x + y], rx * rank(y)
                for st, post in zip(tail.starts[s - 2], tail.dims[s - 2]):
                    i0, j0 = g_long + r_long * st, g_short + rxy * st
                    if hom:
                        i0, j0 = j0, i0
                    for t, j, w in terms:
                        for c in range(post):
                            rows[i0 + t * post + c][j0 + j * post + c] = w
        return _wrap(self.ring, tuple([r or _EMPTY for r in rows]),
                     lv.sizes[tgt], lv.sizes[src])

    def _face(self, x: int, y: int):
        if (x, y) not in self._terms:
            mod = self.ring.modulus
            self._terms[(x, y)] = [(t, j, mod - v) for t, row in
                                   enumerate(self.pair(x, y).nonzeros)
                                   for j, v in row.items()]
        return self._terms[(x, y)]


def composition_complex(coeff, level: AmbientLevel, orientation: str,
                        degrees: range, tensor_of, proved: bool):
    """The complex of ``level`` in ``degrees`` and its blocks per degree.
    Over E0 of rank > 1 block c holds ``tensor_of(c)``, and the ambient
    differential d is read in the blocks' quotient coordinates:
    blockdiag(proj_full) @ d @ blockdiag(sect_full), two products.  Over
    rank 1, where tensor_over_coeff returns identity maps, the blocks are
    the level's compositions with their ambient starts and ranks, hold no
    tensor, and d is the differential.

    With ``proved`` (the caller's structure maps satisfy the identities its
    docstring names) the complex is marked checked; otherwise it is left
    unmarked, and :func:`homology` checks d o d when it reads it."""
    ring = coeff.ring
    diffs = level.diffs[degrees.start:degrees.stop - 1]
    if coeff.rank == 1:
        blocks = [tuple(map(Block, level.comps[s], level.starts[s],
                            level.dims[s], repeat(None))) for s in degrees]
        ranks = [level.sizes[s] for s in degrees]
    else:
        blocks, ranks = [], []
        for s in degrees:
            tensors = [tensor_of(c) for c in level.comps[s]]
            dims = [t.bimodule.rank for t in tensors]
            blocks.append(tuple(map(Block, level.comps[s],
                                    accumulate(dims, initial=0), dims, tensors)))
            ranks.append(sum(dims))
        pairs = zip(blocks, blocks[1:])       # (degree s - 1, degree s)
        if orientation != HOMOLOGICAL:
            pairs = ((hi, lo) for lo, hi in pairs)
        diffs = [_block_diagonal(ring, [b.tensor.proj_full for b in tgt]) @ d
                 @ _block_diagonal(ring, [b.tensor.sect_full for b in src])
                 for (tgt, src), d in zip(pairs, diffs)]
    return (make_complex(ring, orientation, degrees.start, ranks, diffs, proved),
            tuple(blocks))


class CompositionTable(TensorTable):
    """A TensorTable with ``ambient``, its family's AmbientTable."""

    def __init__(self, factor, empty: IteratedTensor, ambient: AmbientTable):
        super().__init__(factor, empty)
        self.ambient = ambient


# ---------------------------------------------------------------------------
# Bar complexes
# ---------------------------------------------------------------------------

class BarComplex(NamedTuple):
    weight: Optional[int]          # None for the module-coefficient complex
    complex: ChainComplex
    blocks: tuple                  # per degree, tuple of Block

    def degree_blocks(self, s: int):
        return self.blocks[s - self.complex.min_degree]


def weight_tensors(A: GradedAugmentedAlgebra) -> CompositionTable:
    """The table of tensors of weight components, one factor per part of a
    composition (the empty composition is the coefficient algebra), with
    the ambient bar complexes of every weight."""
    return CompositionTable(
        A.component, identity_tensor(A.coeff.as_bimodule()),
        AmbientTable(A.coeff.ring, A.rank, lambda x, y: A.mult[(x, y)]))


def bar_complex(A: GradedAugmentedAlgebra, k: int,
                tensors: CompositionTable, validated: bool) -> BarComplex:
    """The weight-k piece of the normalized two-sided bar complex with
    trivial outer coefficients: degree-s term the sum over compositions of k
    into s positive parts of the tensor product of the corresponding weight
    components; faces 0 and s vanish and the differential is the alternating
    sum of the merge faces.  Its tensors and its ambient differentials,
    built on those of the lower weights, come from ``tensors`` (see
    :func:`weight_tensors`).

    With ``validated`` (A passed :func:`algebra.validate_algebra`) it is
    marked checked with no product, as weight k is a complex if the lower
    weights are.  On the group of first part a, d_k o d_k is
    I (x) (d_{k-a} o d_{k-a}), which vanishes, plus cross terms, plus m o m
    on the first parts.  A cross term of a face on the first part with a
    face on disjoint slots of the tail comes twice, with opposite signs, and
    cancels.  The overlapping cross terms and m o m cancel by "mult
    associativity", checked on the ambient products.  Over E0 of rank > 1,
    "mult balance" and "mult left/right linearity" make each face well
    defined on the quotient (x)_{E0}, so read in quotient coordinates it is
    still a complex.  Otherwise it is left unmarked."""
    if not 0 <= k <= A.max_weight:
        raise ValueError(f"weight {k} outside 0..max_weight={A.max_weight}")
    return BarComplex(k, *composition_complex(
        A.coeff, tensors.ambient.level(k), HOMOLOGICAL, range(k + 1),
        tensors.__getitem__, validated))


def bar_complex_with_module(data: KoszulData, M: LeftModule,
                            smax: int) -> BarComplex:
    """Normalized bar complex with trivial left and module right coefficients,
    truncated to compositions of total weight <= max_weight (a subcomplex,
    since the differential never raises total slot weight), in degrees
    0..min(smax, max_weight): no composition has more parts.  Its
    differential is the alternating sum of the merge faces and of the face
    acting the last slot on ``M``.  The ambient
    differentials come from the module's own :class:`AmbientTable`, whose
    bound-B complex is built on those of the bounds below B; the blocks
    T(c) (x) M, laid out as in it, tensor the weight tensors of ``data``
    with M over E0 of rank > 1 and hold none over rank 1 (see
    :func:`composition_complex`).

    When ``data.validated`` (M is a module of that dataset) it is marked
    checked with no product, by the argument of :func:`bar_complex` with
    the action as one more face: bound B is a complex if the bounds below
    it are.  The action and a merge on disjoint slots cancel by sign; a
    merge of the last two parts followed by the action, and two actions in
    turn, cancel by "module associativity" (:func:`algebra.validate_module`),
    and "module action balance" and "linearity" make the action well defined
    on (x)_{E0}.  Otherwise it is left unmarked."""
    A = data.algebra
    ring, top = A.coeff.ring, A.max_weight
    actions = {k: M.weight_action(k, A.rank(k)) for k in range(1, top + 1)}
    level = AmbientTable(ring, A.rank, lambda x, y: A.mult[(x, y)],
                         empty=M.base_rank, action=actions).level(top)
    Mb = M.as_bimodule()

    def tensor_of(comp):
        return tensor_step(data.tensors[comp], Mb) if comp else identity_tensor(Mb)
    return BarComplex(None, *composition_complex(
        A.coeff, level, HOMOLOGICAL, range(min(smax, top) + 1), tensor_of,
        data.validated))


# ---------------------------------------------------------------------------
# Koszul modules and the Koszul complex
# ---------------------------------------------------------------------------

class KoszulModuleData(NamedTuple):
    weight: int
    inclusion: PAdicMatrix   # columns: generators of C[k] inside Delta[1]^{(x)k}
    rank: int
    top_tensor: IteratedTensor


def koszul_module(data: KoszulData, k: int) -> KoszulModuleData:
    """C[k] as the kernel of the top bar differential at weight k.

    Requires the weight-k bar homology to be concentrated in degree k with a
    free top class; otherwise raises NotKoszulError with the witnessing degree.
    The bar complex, its homology and the top tensor (of the composition
    (1, ..., 1)) come from ``data``.
    """
    A = data.algebra
    if k == 0:
        return KoszulModuleData(0, PAdicMatrix.identity(A.coeff.ring, A.coeff.rank),
                                A.coeff.rank, identity_tensor(A.coeff.as_bimodule()))
    bc, prof = data.bar(k), data.bar_homology(k)
    for s in bc.complex.degrees:
        if s != k and (prof.free_rank(s) or prof.torsion_at(s)):
            raise NotKoszulError(
                f"not Koszul at weight {k}: homology nonzero in degree {s} "
                f"(free rank {prof.free_rank(s)}, torsion {prof.torsion_at(s)})")
    if prof.torsion_at(k):
        raise NotKoszulError(
            f"not Koszul at weight {k}: top homology has torsion {prof.torsion_at(k)}")
    d_top = bc.complex.differentials[k - 1]
    inc = kernel_basis(d_top)
    if inc.cols != prof.free_rank(k):
        raise NotKoszulError(
            f"not Koszul at weight {k}: kernel generators ({inc.cols}) do not "
            f"match top free rank ({prof.free_rank(k)})")
    return KoszulModuleData(k, inc, inc.cols, data.tensors[(1,) * k])


def _induced_bimodule(A: GradedAugmentedAlgebra, kd: KoszulModuleData) -> Bimodule:
    """C[k] with the coefficient actions restricted from Delta[1]^{(x)k}."""
    T = kd.top_tensor.bimodule
    ring = A.coeff.ring
    lefts, rights = [], []
    for a in range(A.coeff.rank):
        try:
            lefts.append(solve(kd.inclusion, T.left[a] @ kd.inclusion))
            rights.append(solve(kd.inclusion, T.right[a] @ kd.inclusion))
        except InconsistentSystemError:
            raise ImageEscapesError(
                f"coefficient action does not preserve C[{kd.weight}]")
    return Bimodule(ring, A.coeff, kd.rank, tuple(lefts), tuple(rights))


class KoszulComplexData(NamedTuple):
    complex: ChainComplex
    c_ranks: tuple                  # rank of C[k] per degree k
    term_ranks: tuple               # rank of C[k] (x) M per degree k
    ambient_inclusions: tuple       # C[k] (x) M -> full ambient Delta[1]^{(x)k} (x) M


def koszul_complex(data: KoszulData, M: LeftModule) -> KoszulComplexData:
    """The complex C[k] (x) M with the (signed) last-face differential.

    delta_k embeds C[k+1] (x) M into Delta[1]^{(x)(k+1)} (x) M, applies
    (-1)^{k+1} times the action of the last weight-1 slot on M, and solves the
    result back into the C[k] (x) M basis, failing loudly if the image escapes.
    Per degree k it builds the inclusions iota of C[k] (x) M into T_k (x) M
    (quotient coordinates) and into the full ambient Delta[1]^{(x)k} (x) M,
    and the maps proj_full and sect_full between that ambient and T_k (x) M;
    the degree-0 term E0 (x)_{E0} M is M itself, with identity maps.  The
    Koszul modules C[k] and their coefficient actions come from ``data``.
    """
    A = data.algebra
    ring = A.coeff.ring
    d1 = A.rank(1)
    Mb = M.as_bimodule()
    eye_m = PAdicMatrix.identity(ring, Mb.rank)
    kos = [data.koszul_module(k) for k in range(A.max_weight + 1)]
    iotas, amb_incs, proj_full, sect_full = [eye_m], [eye_m], [eye_m], [eye_m]
    term_ranks = [Mb.rank]

    def maps(B):    # proj, sect of B (x) M: identities over E0 of rank 1
        if A.coeff.rank > 1:
            return tensor_over_coeff(B, Mb)[1:]
        return (PAdicMatrix.identity(ring, B.rank * Mb.rank),) * 2
    for kd in kos[1:]:
        T = kd.top_tensor
        cm_proj, cm_sect = maps(data.koszul_bimodule(kd.weight))
        tm_proj, tm_sect = maps(T.bimodule)
        proj_full.append(tm_proj @ T.proj_full.kron(eye_m))
        sect_full.append(T.sect_full.kron(eye_m) @ tm_sect)
        iotas.append(tm_proj @ kd.inclusion.kron(eye_m) @ cm_sect)
        amb_incs.append((T.sect_full @ kd.inclusion).kron(eye_m) @ cm_sect)
        term_ranks.append(cm_proj.rows)
    act1 = M.weight_action(1, d1)
    diffs = []
    for k in range(A.max_weight):
        amb_face = PAdicMatrix.identity(ring, d1 ** k).kron(act1)
        F = proj_full[k] @ amb_face @ sect_full[k + 1]
        F = F.scale((-1) ** (k + 1) % ring.modulus)
        rhs = F @ iotas[k + 1]
        try:
            delta = solve(iotas[k], rhs)
        except InconsistentSystemError as exc:
            raise ImageEscapesError(
                f"image escapes C[{k}] (x) M at weight {k + 1}: {exc}")
        diffs.append(delta)
    cx = make_complex(ring, HOMOLOGICAL, 0, term_ranks, diffs)
    ok, deg = verify_complex(cx)
    if not ok:
        raise ImageEscapesError(f"Koszul differential fails d o d = 0 at degree {deg}")
    return KoszulComplexData(cx, tuple(kd.rank for kd in kos),
                             tuple(term_ranks), tuple(amb_incs))


def ext_groups(data: KoszulData, M: LeftModule) -> HomologyProfile:
    """Ext(M, trivial), computed as cohomology of the dual of the Koszul
    complex of M in ``data``.

    M is free over the coefficient algebra by construction of the dataset
    format, which is exactly the projectivity this dualization needs.
    """
    return homology(dualize_complex(data.koszul_complex(M).complex))


def tor_groups_via_bar(data: KoszulData, M: LeftModule) -> HomologyProfile:
    """Tor in degrees 0..max_weight by the route independent of the Koszul
    complex (whose Tor is ``data.tor(M)``): the homology of the module bar
    complex, whose blocks and merge faces come from ``data``."""
    return homology(bar_complex_with_module(data, M, data.algebra.max_weight).complex)


class KoszulData:
    """The context of one command: the tensors of the weight components
    over every composition with the ambient bar complex of every weight
    (``tensors``, see :func:`weight_tensors`), the weight-k bar complexes of
    one algebra with their homology, its Koszul modules C[k] with their
    coefficient actions (:meth:`koszul_bimodule`), and per module the Koszul
    complex and its Tor profile, each built on first use and then shared.
    What one weight fixes is built once however many modules read it; a
    module's bar and Koszul complexes build their own blocks and maps.

    One command builds one of these and hands it to every function of the
    chain, each of which requires it, so no complex is built or checked
    twice.  A fresh build is a fresh ``KoszulData(A)``.  Failures are not
    kept: asking again rebuilds and raises again.

    ``validated`` is the command's verdict: the dataset of A passed
    ``Dataset.validate()``, so its algebra, modules and package satisfy
    their identities, and the bar, module-bar and subgroup builders mark
    their complexes checked with no product (see each).  Left False (a
    caller that never validated), they leave them unmarked, and
    :func:`homology` checks each one it reads.
    """

    def __init__(self, A: GradedAugmentedAlgebra, validated: bool = False):
        self.algebra = A
        self.validated = validated
        self.tensors = weight_tensors(A)
        self._bars = {}
        self._bar_profiles = {}
        self._modules = {}
        self._bimodules = {}
        self._complexes = {}   # id(M) -> (M, KoszulComplexData)
        self._tors = {}        # id(M) -> (M, HomologyProfile)

    def bar(self, k: int) -> BarComplex:
        if k not in self._bars:
            self._bars[k] = bar_complex(self.algebra, k, self.tensors,
                                        self.validated)
        return self._bars[k]

    def bar_homology(self, k: int) -> HomologyProfile:
        if k not in self._bar_profiles:
            self._bar_profiles[k] = homology(self.bar(k).complex)
        return self._bar_profiles[k]

    def koszul_module(self, k: int) -> KoszulModuleData:
        if k not in self._modules:
            self._modules[k] = koszul_module(self, k)
        return self._modules[k]

    def koszul_bimodule(self, k: int) -> Bimodule:
        """C[k] with its coefficient actions, for k >= 1.  Not part of
        :meth:`koszul_module`: a command that reads only C[k]'s rank and
        inclusion does not fail where an action escapes C[k]."""
        if k not in self._bimodules:
            self._bimodules[k] = _induced_bimodule(self.algebra, self.koszul_module(k))
        return self._bimodules[k]

    def koszul_complex(self, M: LeftModule) -> KoszulComplexData:
        # keyed on the module object, which the entry keeps alive
        if id(M) not in self._complexes:
            self._complexes[id(M)] = (M, koszul_complex(self, M))
        return self._complexes[id(M)][1]

    def tor(self, M: LeftModule) -> HomologyProfile:
        if id(M) not in self._tors:
            self._tors[id(M)] = (M, homology(self.koszul_complex(M).complex))
        return self._tors[id(M)][1]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class KoszulnessReport:
    entries: list  # (weight, profile, concentrated, c_rank or None)

    @property
    def passed(self) -> bool:
        return all(c for _, _, c, _ in self.entries)

    @property
    def c_ranks(self):
        return tuple(r if r is not None else 0 for _, _, _, r in self.entries)

    def __str__(self):
        lines = []
        for k, prof, conc, r in self.entries:
            status = "pass" if conc else "FAIL"
            lines.append(f"weight {k}: {status}; nonzero degrees "
                         f"{prof.nonzero_degrees()}; C-rank {r}")
        return "\n".join(lines)


def verify_koszulness(data: KoszulData) -> KoszulnessReport:
    """Per weight k <= max_weight: full bar homology profile and a
    concentration flag.  Bar complexes and profiles come from ``data``."""
    entries = []
    for k in range(data.algebra.max_weight + 1):
        prof = data.bar_homology(k)
        conc = prof.concentrated_in(k)
        entries.append((k, prof, conc, prof.free_rank(k) if conc else None))
    return KoszulnessReport(entries)
