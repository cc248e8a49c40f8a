"""Weight-graded bar complexes, Koszul modules C[k], the small Koszul complex
with its last-face differential, and Tor/Ext profiles.

Everything past the bar complex of one weight reads a :class:`KoszulData`,
the one context a command builds for its algebra: every function of the
chain (bar homology, C[k], the Koszul complex, Tor and Ext) takes it as its
first argument, so each piece is built once per command."""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Optional

from .padic import (PAdicMatrix, InconsistentSystemError, ShapeError,
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


def compositions(total: int, parts: int):
    """All compositions of ``total`` into exactly ``parts`` positive parts, lex order."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)] if total > 0 else []
    out = []
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def bounded_compositions(parts: int, max_total: int):
    """Compositions of any total <= max_total into exactly ``parts`` positive
    parts, lex order."""
    out = []
    if parts == 0:
        return [()]
    for total in range(parts, max_total + 1):
        out.extend(compositions(total, parts))
    return sorted(out)


# ---------------------------------------------------------------------------
# Complexes indexed by compositions
#
# The bar complexes and the subgroup (isogeny) complex share one shape: the
# degree-s term is a sum of tensor quotients, one block per composition with
# s parts, and every face is a block proj_full @ (I_pre (x) m (x) I_post) @
# sect_full between the ambient tensor products of two compositions.  The
# tensor quotients come from a TensorTable, so compositions sharing a prefix
# share its tensor, and the identity factors of a face are never built.
# ---------------------------------------------------------------------------

class Block(NamedTuple):
    """One composition's summand in one degree: its tensor quotient and the
    first coordinate it occupies."""
    composition: tuple
    start: int
    tensor: IteratedTensor


def composition_blocks(comps, tensor_of):
    """The blocks of ``comps``, laid end to end, and their total rank."""
    blocks = []
    start = 0
    for comp in comps:
        t = tensor_of(comp)
        blocks.append(Block(comp, start, t))
        start += t.bimodule.rank
    return tuple(blocks), start


def place_blocks(ring, rows: int, cols: int, placed) -> PAdicMatrix:
    """The rows x cols matrix summing sign * block at (row0, col0) for each
    (row0, col0, sign, block) in ``placed``."""
    nonzeros = [{} for _ in range(rows)]
    for row0, col0, sign, block in placed:
        for i, row in enumerate(block.nonzeros, row0):
            out = nonzeros[i]
            for j, x in row.items():
                j += col0
                out[j] = out.get(j, 0) + sign * x
    return PAdicMatrix.from_sparse_rows(ring, rows, cols, nonzeros)


def _column_nonzeros(M: PAdicMatrix):
    """Per column of ``M``, the (row, entry) pairs of its nonzero entries."""
    cols = [[] for _ in range(M.cols)]
    for i, row in enumerate(M.nonzeros):
        for j, x in row.items():
            cols[j].append((i, x))
    return cols


def assemble(ring, src, tgt, rows: int, cols: int, faces) -> PAdicMatrix:
    """The rows x cols differential from the blocks ``src`` to the blocks
    ``tgt``.  ``faces(composition)`` yields each face of a source block as
    (target composition, sign, lo, hi, m): the ambient map
    I_pre (x) m (x) I_post with m on the source's tensor factors lo..hi-1,
    read in the quotient coordinates of both blocks."""
    return PAdicMatrix.from_sparse_rows(
        ring, rows, cols, _add_faces([{} for _ in range(rows)], src, tgt, faces))


def _add_faces(nonzeros, src, tgt, faces):
    """Add the faces of :func:`assemble` to ``nonzeros``, one dict of
    column -> entry per target coordinate, and return it.

    Each face's block proj_full(target) @ (I_pre (x) m (x) I_post) @
    sect_full(source) is summed straight into the rows, one term per
    nonzero of m, of the source's sect_full and of the target's proj_full,
    so no matrix is built per face.  Each of those matrices is read for its
    nonzeros once per call."""
    by_comp = {b.composition: b for b in tgt}
    m_cols = {}        # id(m) -> (m, its column nonzeros); m kept alive
    proj_cols = {}     # target composition -> per ambient coordinate, (row dict, entry)
    for b in src:
        ranks = b.tensor.factor_ranks
        pre = list(accumulate(ranks, mul, initial=1))
        post = list(accumulate(reversed(ranks), mul, initial=1))[::-1]
        sect = [[(b.start + j, x) for j, x in r.items()]
                for r in b.tensor.sect_full.nonzeros]
        for comp, sign, lo, hi, m in faces(b.composition):
            known = m_cols.get(id(m))
            if known is None:
                known = m_cols[id(m)] = (m, _column_nonzeros(m))
            m_col = known[1]
            p_col = proj_cols.get(comp)
            if p_col is None:
                tb = by_comp[comp]
                p_col = proj_cols[comp] = [
                    [(nonzeros[tb.start + i], x) for i, x in col]
                    for col in _column_nonzeros(tb.tensor.proj_full)]
            a_in, a_out, c_out = m.cols * post[hi], m.rows * post[hi], post[hi]
            if pre[lo] * a_in != len(sect) or pre[lo] * a_out != len(p_col):
                raise ShapeError(f"face {m.shape} on factors {lo}..{hi - 1} of "
                                 f"{b.composition} does not reach {comp}")
            for v, s_row in enumerate(sect):
                if not s_row:
                    continue
                a, rest = divmod(v, a_in)
                jj, c = divmod(rest, c_out)
                for r, x in m_col[jj]:
                    for out, p in p_col[a * a_out + r * c_out + c]:
                        coef = sign * x * p
                        for j, y in s_row:
                            out[j] = out.get(j, 0) + coef * y
    return nonzeros


# ---------------------------------------------------------------------------
# Bar complexes
# ---------------------------------------------------------------------------

class BarComplex(NamedTuple):
    weight: Optional[int]          # None for the module-coefficient complex
    complex: ChainComplex
    blocks: tuple                  # per degree, tuple of Block
    module_name: Optional[str] = None

    def degree_blocks(self, s: int):
        return self.blocks[s - self.complex.min_degree]


def weight_tensors(A: GradedAugmentedAlgebra) -> TensorTable:
    """The table of tensors of weight components, one factor per part of a
    composition; the empty composition is the coefficient algebra."""
    return TensorTable(A.component, identity_tensor(A.coeff.as_bimodule()))


def _merge_faces(A: GradedAugmentedAlgebra, comp):
    """The faces of ``comp`` multiplying two neighbouring slots."""
    for i in range(1, len(comp)):
        yield (comp[:i - 1] + (comp[i - 1] + comp[i],) + comp[i + 1:],
               (-1) ** i, i - 1, i + 1, A.mult[(comp[i - 1], comp[i])])


def _checked_bar(ring, ranks, diffs) -> ChainComplex:
    """The bar complex with these ranks and differentials; d o d is checked."""
    cx = make_complex(ring, HOMOLOGICAL, 0, ranks, diffs)
    ok, deg = verify_complex(cx)
    if not ok:
        raise NotKoszulError(f"bar differential fails d o d = 0 at degree {deg} "
                             f"(invalid dataset)")
    return cx


def bar_complex(A: GradedAugmentedAlgebra, k: int,
                tensors: TensorTable) -> BarComplex:
    """The weight-k piece of the normalized two-sided bar complex with
    trivial outer coefficients: degree-s term the sum over compositions of k
    into s positive parts of the tensor product of the corresponding weight
    components; faces 0 and s vanish and the differential is the alternating
    sum of the merge faces.  Its tensors come from ``tensors`` (see
    :func:`weight_tensors`).
    """
    if not 0 <= k <= A.max_weight:
        raise ValueError(f"weight {k} outside 0..max_weight={A.max_weight}")
    ring = A.coeff.ring
    tensor_of = tensors.__getitem__
    blocks, ranks = zip(*(composition_blocks(compositions(k, s), tensor_of)
                          for s in range(k + 1)))
    faces = partial(_merge_faces, A)
    diffs = [assemble(ring, blocks[s], blocks[s - 1], ranks[s - 1], ranks[s], faces)
             for s in range(1, k + 1)]
    return BarComplex(k, _checked_bar(ring, ranks, diffs), blocks)


def _module_bar_skeleton(data: KoszulData, Mb: Bimodule, smax: int) -> tuple:
    """What the bar complex with coefficients in a module of bimodule ``Mb``
    builds in degrees 0..smax without reading the module's action, so every
    such module shares it: (blocks, ranks, merged), per degree the blocks
    T(c) (x) M and their total rank, and per differential the sum of its
    merge faces as rows of column -> entry.  Tensors of the weight
    components come from ``data.tensors``."""
    A = data.algebra

    def tensor_of(comp):
        return tensor_step(data.tensors[comp], Mb) if comp else identity_tensor(Mb)

    blocks, ranks = zip(*(composition_blocks(bounded_compositions(s, A.max_weight),
                                             tensor_of) for s in range(smax + 1)))
    faces = partial(_merge_faces, A)
    merged = tuple(_add_faces([{} for _ in range(ranks[s - 1])],
                              blocks[s], blocks[s - 1], faces)
                   for s in range(1, smax + 1))
    return blocks, ranks, merged


def bar_complex_with_module(data: KoszulData, M: LeftModule,
                            smax: int) -> BarComplex:
    """Normalized bar complex with trivial left and module right coefficients,
    truncated to compositions of total weight <= max_weight (a subcomplex,
    since the differential never raises total slot weight).  Its
    differential is the alternating sum of the merge faces and of the face
    acting the last slot on ``M``; d o d is checked.  The blocks and the
    merge faces come from ``data`` (see
    :meth:`KoszulData.module_bar_skeleton`), so only the action face is
    added here."""
    A = data.algebra
    ring = A.coeff.ring
    actions = {k: M.weight_action(k, A.rank(k)) for k in range(1, A.max_weight + 1)}
    blocks, ranks, merged = data.module_bar_skeleton(M.as_bimodule(), smax)

    def action_face(comp):
        s = len(comp)
        yield comp[:-1], (-1) ** s, s - 1, s + 1, actions[comp[-1]]

    diffs = [PAdicMatrix.from_sparse_rows(
                 ring, ranks[s - 1], ranks[s],
                 _add_faces([dict(row) for row in merged[s - 1]],
                            blocks[s], blocks[s - 1], action_face))
             for s in range(1, smax + 1)]
    return BarComplex(None, _checked_bar(ring, ranks, diffs), blocks, M.name)


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
    The bar complex and its homology come from ``data``.
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
    top = bc.degree_blocks(k)[0].tensor  # single composition (1,...,1)
    return KoszulModuleData(k, inc, inc.cols, top)


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
    module_name: str
    complex: ChainComplex
    c_ranks: tuple                  # rank of C[k] per degree k
    term_ranks: tuple               # rank of C[k] (x) M per degree k
    ambient_inclusions: tuple       # C[k] (x) M -> full ambient Delta[1]^{(x)k} (x) M


def _koszul_skeleton(data: KoszulData, Mb: Bimodule) -> tuple:
    """What the Koszul complex C[k] (x) M builds without reading the action
    of a module M of bimodule ``Mb``, so every such module shares it; the
    Koszul modules C[k] come from ``data``.  Per degree k: the ranks of C[k]
    and of C[k] (x) M, the inclusions iota of C[k] (x) M into T_k (x) M
    (quotient coordinates) and into the full ambient Delta[1]^{(x)k} (x) M,
    and the maps proj_full and sect_full between that ambient and T_k (x) M.
    The degree-0 term E0 (x)_{E0} M is M itself, with identity maps."""
    A = data.algebra
    eye_m = PAdicMatrix.identity(A.coeff.ring, Mb.rank)
    kos = [data.koszul_module(k) for k in range(A.max_weight + 1)]
    iotas, amb_incs, proj_full, sect_full = [eye_m], [eye_m], [eye_m], [eye_m]
    term_ranks = [Mb.rank]
    for kd in kos[1:]:
        T = kd.top_tensor
        cm = tensor_over_coeff(_induced_bimodule(A, kd), Mb)
        tm = tensor_over_coeff(T.bimodule, Mb)
        proj_full.append(tm.proj @ T.proj_full.kron(eye_m))
        sect_full.append(T.sect_full.kron(eye_m) @ tm.sect)
        iotas.append(tm.proj @ kd.inclusion.kron(eye_m) @ cm.sect)
        amb_incs.append((T.sect_full @ kd.inclusion).kron(eye_m) @ cm.sect)
        term_ranks.append(cm.bimodule.rank)
    return ([kd.rank for kd in kos], term_ranks, iotas, amb_incs, proj_full,
            sect_full)


def koszul_complex(data: KoszulData, M: LeftModule) -> KoszulComplexData:
    """The complex C[k] (x) M with the (signed) last-face differential.

    delta_k embeds C[k+1] (x) M into Delta[1]^{(x)(k+1)} (x) M, applies
    (-1)^{k+1} times the action of the last weight-1 slot on M, and solves the
    result back into the C[k] (x) M basis, failing loudly if the image escapes.
    Everything but the face and the solve comes from ``data`` (see
    :meth:`KoszulData.koszul_skeleton`).
    """
    A = data.algebra
    ring = A.coeff.ring
    d1 = A.rank(1)
    c_ranks, term_ranks, iotas, amb_incs, proj_full, sect_full = \
        data.koszul_skeleton(M.as_bimodule())
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
    return KoszulComplexData(M.name, cx, tuple(c_ranks), tuple(term_ranks),
                             tuple(amb_incs))


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
    over every composition, the weight-k bar complexes of one algebra with
    their homology, its Koszul modules C[k], and per module the Koszul
    complex and its Tor profile, each built on first use and then shared.

    What a module's two Tor routes build without reading its action, the
    skeletons, is shared by every module with the same bimodule
    ``M.as_bimodule()`` (the coefficient algebra and the module's rank fix
    it): the module bar complex's blocks and merge faces, keyed on that
    bimodule and the top degree (:meth:`module_bar_skeleton`), and the
    Koszul complex's terms and maps (:meth:`koszul_skeleton`), keyed on the
    bimodule.  Each module then adds only its own action.

    One command builds one of these and hands it to every function of the
    chain, each of which requires it, so no complex is built or checked
    twice.  A fresh build is a fresh ``KoszulData(A)``.  Failures are not
    kept: asking again rebuilds and raises again.
    """

    def __init__(self, A: GradedAugmentedAlgebra):
        self.algebra = A
        self.tensors = weight_tensors(A)
        self._bars = {}
        self._bar_profiles = {}
        self._modules = {}
        self._module_bar_skeletons = {}   # (bimodule, smax) -> skeleton
        self._koszul_skeletons = {}       # bimodule -> skeleton
        self._complexes = {}   # id(M) -> (M, KoszulComplexData)
        self._tors = {}        # id(M) -> (M, HomologyProfile)

    def bar(self, k: int) -> BarComplex:
        if k not in self._bars:
            self._bars[k] = bar_complex(self.algebra, k, self.tensors)
        return self._bars[k]

    def bar_homology(self, k: int) -> HomologyProfile:
        if k not in self._bar_profiles:
            self._bar_profiles[k] = homology(self.bar(k).complex)
        return self._bar_profiles[k]

    def koszul_module(self, k: int) -> KoszulModuleData:
        if k not in self._modules:
            self._modules[k] = koszul_module(self, k)
        return self._modules[k]

    def module_bar_skeleton(self, Mb: Bimodule, smax: int) -> tuple:
        key = (Mb, smax)
        if key not in self._module_bar_skeletons:
            self._module_bar_skeletons[key] = _module_bar_skeleton(self, Mb, smax)
        return self._module_bar_skeletons[key]

    def koszul_skeleton(self, Mb: Bimodule) -> tuple:
        if Mb not in self._koszul_skeletons:
            self._koszul_skeletons[Mb] = _koszul_skeleton(self, Mb)
        return self._koszul_skeletons[Mb]

    def drop_skeletons(self):
        """Forget the module skeletons; they are built again if asked for."""
        self._module_bar_skeletons.clear()
        self._koszul_skeletons.clear()

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
        conc = all((prof.free_rank(s) == 0 and not prof.torsion_at(s))
                   for s in prof.degrees if s != k) and not prof.torsion_at(k)
        entries.append((k, prof, conc, prof.free_rank(k) if conc else None))
    return KoszulnessReport(entries)
