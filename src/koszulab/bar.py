"""Weight-graded bar complexes, Koszul modules C[k], the small Koszul complex
with its last-face differential, and Tor/Ext profiles."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .padic import (PAdicMatrix, InconsistentSystemError, kernel_basis,
                    smith_normal_form, solve)
from .complexes import (ChainComplex, HomologyProfile, HOMOLOGICAL,
                        dualize_complex, homology, make_complex, verify_complex)
from .algebra import (Bimodule, GradedAugmentedAlgebra, IteratedTensor,
                      LeftModule, ValidationReport, iterated_tensor,
                      tensor_over_coeff)


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


@dataclass(frozen=True)
class BarBlock:
    composition: tuple
    start: int
    tensor: IteratedTensor


@dataclass(frozen=True)
class BarComplex:
    weight: Optional[int]          # None for the module-coefficient complex
    complex: ChainComplex
    blocks: tuple                  # per degree, tuple of BarBlock
    module_name: Optional[str] = None

    def degree_blocks(self, s: int):
        return self.blocks[s - self.complex.min_degree]


def _coeff_tensor(A: GradedAugmentedAlgebra):
    ring = A.coeff.ring
    c = A.coeff.rank
    eye = PAdicMatrix.identity(ring, c)
    return IteratedTensor(A.coeff.as_bimodule(), eye, eye, (c,))


def _module_tensor(M: LeftModule):
    ring = M.coeff.ring
    eye = PAdicMatrix.identity(ring, M.base_rank)
    return IteratedTensor(M.as_bimodule(), eye, eye, (M.base_rank,))


def _blocks_for(A, comps_list, module: Optional[LeftModule]):
    ring = A.coeff.ring
    blocks = []
    start = 0
    for comp in comps_list:
        factors = [A.component(k) for k in comp]
        if module is not None:
            factors.append(module.as_bimodule())
        if factors:
            t = iterated_tensor(factors)
        elif module is not None:
            t = _module_tensor(module)
        else:
            t = _coeff_tensor(A)
        blocks.append(BarBlock(comp, start, t))
        start += t.bimodule.rank
    return tuple(blocks), start


def _face_matrix_mult(A, comp, i):
    """Ambient matrix of the face merging slots i, i+1 (1-based) of ``comp``,
    acting on the full Z/p^N tensor product of the components."""
    ring = A.coeff.ring
    pre = 1
    for k in comp[:i - 1]:
        pre *= A.rank(k)
    post = 1
    for k in comp[i + 1:]:
        post *= A.rank(k)
    m = A.mult_matrix(comp[i - 1], comp[i])
    out = PAdicMatrix.identity(ring, pre).kron(m).kron(PAdicMatrix.identity(ring, post))
    return out


def _add_block(dst, row0, col0, mat, sign):
    """Add sign * mat at (row0, col0) to ``dst``, one dict of nonzeros per
    row, as `PAdicMatrix.from_sparse_rows` takes them."""
    for i, row in enumerate(mat.entries):
        drow = dst[row0 + i]
        for j, x in enumerate(row):
            if x:
                drow[col0 + j] = drow.get(col0 + j, 0) + sign * x


def bar_complex(A: GradedAugmentedAlgebra, k: int,
                M: Optional[LeftModule] = None) -> BarComplex:
    """Normalized two-sided bar complex with trivial outer coefficients.

    With ``M`` None this is the weight-k graded piece: degree-s term the sum
    over compositions of k into s positive parts of the tensor product of the
    corresponding weight components; faces 0 and s vanish and the differential
    is the alternating sum of the merge faces.  With a module ``M`` see
    :func:`bar_complex_with_module` (this front-end dispatches).
    """
    if M is not None:
        return bar_complex_with_module(A, M, k)
    if not 0 <= k <= A.max_weight:
        raise ValueError(f"weight {k} outside 0..max_weight={A.max_weight}")
    ring = A.coeff.ring
    if k == 0:
        blocks, rank0 = _blocks_for(A, [()], None)
        cx = make_complex(ring, HOMOLOGICAL, 0, [rank0], [])
        return BarComplex(0, cx, (blocks,))
    degree_comps = [[]] + [compositions(k, s) for s in range(1, k + 1)]
    all_blocks = []
    ranks = []
    for s in range(0, k + 1):
        blocks, total = _blocks_for(A, degree_comps[s], None)
        all_blocks.append(blocks)
        ranks.append(total)
    diffs = []
    for s in range(1, k + 1):
        src_blocks = all_blocks[s]
        tgt_blocks = {b.composition: b for b in all_blocks[s - 1]}
        dst = [{} for _ in range(ranks[s - 1])]
        for b in src_blocks:
            comp = b.composition
            for i in range(1, s):
                tgt_comp = comp[:i - 1] + (comp[i - 1] + comp[i],) + comp[i + 1:]
                tb = tgt_blocks[tgt_comp]
                amb = _face_matrix_mult(A, comp, i)
                m = tb.tensor.proj_full @ amb @ b.tensor.sect_full
                _add_block(dst, tb.start, b.start, m, (-1) ** i)
        diffs.append(PAdicMatrix.from_sparse_rows(ring, ranks[s - 1], ranks[s], dst))
    cx = make_complex(ring, HOMOLOGICAL, 0, ranks, diffs)
    ok, deg = verify_complex(cx)
    if not ok:
        raise NotKoszulError(f"bar differential fails d o d = 0 at degree {deg} "
                             f"(invalid dataset)")
    return BarComplex(k, cx, tuple(all_blocks))


def bar_complex_with_module(A: GradedAugmentedAlgebra, M: LeftModule,
                            smax: int) -> BarComplex:
    """Normalized bar complex with trivial left and module right coefficients,
    truncated to compositions of total weight <= max_weight (a subcomplex,
    since the differential never raises total slot weight)."""
    ring = A.coeff.ring
    W = A.max_weight
    all_blocks = []
    ranks = []
    for s in range(0, smax + 1):
        comps_list = bounded_compositions(s, W)
        blocks, total = _blocks_for(A, comps_list, M)
        all_blocks.append(blocks)
        ranks.append(total)
    diffs = []
    for s in range(1, smax + 1):
        src_blocks = all_blocks[s]
        tgt_blocks = {b.composition: b for b in all_blocks[s - 1]}
        dst = [{} for _ in range(ranks[s - 1])]
        for b in src_blocks:
            comp = b.composition
            mb = M.base_rank
            for i in range(1, s):
                tgt_comp = comp[:i - 1] + (comp[i - 1] + comp[i],) + comp[i + 1:]
                tb = tgt_blocks[tgt_comp]
                amb = _face_matrix_mult(A, comp, i).kron(
                    PAdicMatrix.identity(ring, mb))
                m = tb.tensor.proj_full @ amb @ b.tensor.sect_full
                _add_block(dst, tb.start, b.start, m, (-1) ** i)
            # face s: act the last slot on the module
            tgt_comp = comp[:-1]
            tb = tgt_blocks[tgt_comp]
            pre = 1
            for kk in comp[:-1]:
                pre *= A.rank(kk)
            act = M.weight_action(comp[-1], A.rank(comp[-1]))
            amb = PAdicMatrix.identity(ring, pre).kron(act)
            m = tb.tensor.proj_full @ amb @ b.tensor.sect_full
            _add_block(dst, tb.start, b.start, m, (-1) ** s)
        diffs.append(PAdicMatrix.from_sparse_rows(ring, ranks[s - 1], ranks[s], dst))
    cx = make_complex(ring, HOMOLOGICAL, 0, ranks, diffs)
    ok, deg = verify_complex(cx)
    if not ok:
        raise NotKoszulError(f"bar differential fails d o d = 0 at degree {deg} "
                             f"(invalid dataset)")
    return BarComplex(None, cx, tuple(all_blocks), M.name)


# ---------------------------------------------------------------------------
# Koszul modules and the Koszul complex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KoszulModuleData:
    weight: int
    inclusion: PAdicMatrix   # columns: generators of C[k] inside Delta[1]^{(x)k}
    rank: int
    top_tensor: IteratedTensor


def koszul_module(A: GradedAugmentedAlgebra, k: int,
                  data: Optional[KoszulData] = None) -> KoszulModuleData:
    """C[k] as the kernel of the top bar differential at weight k.

    Requires the weight-k bar homology to be concentrated in degree k with a
    free top class; otherwise raises NotKoszulError with the witnessing degree.
    The bar complex and its homology come from ``data`` when given.
    """
    if k == 0:
        t = _coeff_tensor(A)
        return KoszulModuleData(0, PAdicMatrix.identity(A.coeff.ring, A.coeff.rank),
                                A.coeff.rank, t)
    data = data or KoszulData(A)
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


@dataclass(frozen=True)
class KoszulComplexData:
    module_name: str
    complex: ChainComplex
    c_ranks: tuple                  # rank of C[k] per degree k
    term_ranks: tuple               # rank of C[k] (x) M per degree k
    ambient_inclusions: tuple       # C[k] (x) M -> full ambient Delta[1]^{(x)k} (x) M
    module_base_rank: int


def koszul_complex(A: GradedAugmentedAlgebra, M: LeftModule,
                   data: Optional[KoszulData] = None) -> KoszulComplexData:
    """The complex C[k] (x) M with the (signed) last-face differential.

    delta_k embeds C[k+1] (x) M into Delta[1]^{(x)(k+1)} (x) M, applies
    (-1)^{k+1} times the action of the last weight-1 slot on M, and solves the
    result back into the C[k] (x) M basis, failing loudly if the image escapes.
    The Koszul modules C[k] come from ``data`` when given.
    """
    ring = A.coeff.ring
    kmax = A.max_weight
    mb = M.base_rank
    eye_m = PAdicMatrix.identity(ring, mb)
    d1 = A.rank(1)
    data = data or KoszulData(A)
    kos = [data.koszul_module(k) for k in range(kmax + 1)]
    tensors = [_coeff_tensor(A)] + [iterated_tensor([A.component(1)] * k)
                                    for k in range(1, kmax + 1)]
    iotas = []          # C[k] (x) M -> T_k (x) M, quotient coordinates
    amb_incs = []       # C[k] (x) M -> full ambient
    tm_proj_full = []
    tm_sect_full = []
    term_ranks = []
    cm_data = []
    for k in range(kmax + 1):
        Ck = _induced_bimodule(A, kos[k]) if k > 0 else A.coeff.as_bimodule()
        cm = tensor_over_coeff(Ck, M.as_bimodule())
        tm = tensor_over_coeff(tensors[k].bimodule, M.as_bimodule())
        P_full = tm.proj @ tensors[k].proj_full.kron(eye_m)
        S_full = tensors[k].sect_full.kron(eye_m) @ tm.sect
        iota = tm.proj @ kos[k].inclusion.kron(eye_m) @ cm.sect
        amb_inc = (tensors[k].sect_full @ kos[k].inclusion).kron(eye_m) @ cm.sect
        cm_data.append(cm)
        iotas.append(iota)
        amb_incs.append(amb_inc)
        tm_proj_full.append(P_full)
        tm_sect_full.append(S_full)
        term_ranks.append(cm.bimodule.rank)
    act1 = M.weight_action(1, d1)
    diffs = []
    for k in range(kmax):
        pre = d1 ** k
        amb_face = PAdicMatrix.identity(ring, pre).kron(act1)
        F = tm_proj_full[k] @ amb_face @ tm_sect_full[k + 1]
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
    return KoszulComplexData(M.name, cx, tuple(kd.rank for kd in kos),
                             tuple(term_ranks), tuple(amb_incs), mb)


def tor_groups(A: GradedAugmentedAlgebra, M: LeftModule,
               data: Optional[KoszulData] = None) -> HomologyProfile:
    """Tor against the trivial bimodule, computed from the Koszul complex
    (taken from ``data`` when given)."""
    return (data or KoszulData(A)).tor(M)


def ext_groups(A: GradedAugmentedAlgebra, M: LeftModule,
               data: Optional[KoszulData] = None) -> HomologyProfile:
    """Ext(M, trivial), computed as cohomology of the dual Koszul complex
    (taken from ``data`` when given).

    M is free over the coefficient algebra by construction of the dataset
    format, which is exactly the projectivity this dualization needs.
    """
    kc = (data or KoszulData(A)).koszul_complex(M)
    return homology(dualize_complex(kc.complex))


def tor_groups_via_bar(A: GradedAugmentedAlgebra, M: LeftModule,
                       smax: Optional[int] = None) -> HomologyProfile:
    """Independent Tor route through the module bar complex."""
    if smax is None:
        smax = A.max_weight
    return homology(bar_complex_with_module(A, M, smax).complex)


class KoszulData:
    """The weight-k bar complexes of one algebra with their homology, its
    Koszul modules C[k], and per module the Koszul complex and its Tor
    profile, each built on first use and then shared.

    One command builds one of these and hands it to every function that
    takes a ``data`` argument, so no complex is built or checked twice; the
    functions build a fresh one when called without it.  Failures are not
    kept: asking again rebuilds and raises again.
    """

    def __init__(self, A: GradedAugmentedAlgebra):
        self.algebra = A
        self._bars = {}
        self._bar_profiles = {}
        self._modules = {}
        self._complexes = {}   # id(M) -> (M, KoszulComplexData)
        self._tors = {}        # id(M) -> (M, HomologyProfile)

    def bar(self, k: int) -> BarComplex:
        if k not in self._bars:
            self._bars[k] = bar_complex(self.algebra, k)
        return self._bars[k]

    def bar_homology(self, k: int) -> HomologyProfile:
        if k not in self._bar_profiles:
            self._bar_profiles[k] = homology(self.bar(k).complex)
        return self._bar_profiles[k]

    def koszul_module(self, k: int) -> KoszulModuleData:
        if k not in self._modules:
            self._modules[k] = koszul_module(self.algebra, k, self)
        return self._modules[k]

    def koszul_complex(self, M: LeftModule) -> KoszulComplexData:
        # keyed on the module object, which the entry keeps alive
        if id(M) not in self._complexes:
            self._complexes[id(M)] = (M, koszul_complex(self.algebra, M, self))
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


def verify_koszulness(A: GradedAugmentedAlgebra, kmax: int,
                      data: Optional[KoszulData] = None) -> KoszulnessReport:
    """Per weight k <= kmax: full bar homology profile and a concentration
    flag.  Bar complexes and profiles come from ``data`` when given."""
    if kmax > A.max_weight:
        raise ValueError(f"kmax {kmax} exceeds max_weight {A.max_weight}")
    data = data or KoszulData(A)
    entries = []
    for k in range(kmax + 1):
        prof = data.bar_homology(k)
        conc = all((prof.free_rank(s) == 0 and not prof.torsion_at(s))
                   for s in prof.degrees if s != k) and not prof.torsion_at(k)
        entries.append((k, prof, conc, prof.free_rank(k) if conc else None))
    return KoszulnessReport(entries)


def suspension_inclusion_check(A_q: GradedAugmentedAlgebra,
                               A_1: GradedAugmentedAlgebra,
                               inc_weight1: PAdicMatrix,
                               inc_weight2: PAdicMatrix) -> ValidationReport:
    """Check a user-supplied inclusion of one graded algebra into another in
    weights 1 and 2, and that the induced maps of Koszul submodules are
    well-defined and injective (all Smith invariants nonzero mod p^N).
    """
    rep = ValidationReport()
    ring = A_q.coeff.ring
    if inc_weight1.shape != (A_1.rank(1), A_q.rank(1)):
        rep.fail("weight-1 inclusion shape",
                 f"expected {(A_1.rank(1), A_q.rank(1))}, got {inc_weight1.shape}")
        return rep
    if inc_weight2.shape != (A_1.rank(2), A_q.rank(2)):
        rep.fail("weight-2 inclusion shape",
                 f"expected {(A_1.rank(2), A_q.rank(2))}, got {inc_weight2.shape}")
        return rep
    if inc_weight2 @ A_q.mult[(1, 1)] != A_1.mult[(1, 1)] @ inc_weight1.kron(inc_weight1):
        rep.fail("multiplication compatibility",
                 "weight (1,1) products disagree under the inclusion")
    kmax = min(A_q.max_weight, A_1.max_weight)
    for k in range(kmax + 1):
        kq = koszul_module(A_q, k)
        k1 = koszul_module(A_1, k)
        if k == 0:
            phi_full = PAdicMatrix.identity(ring, A_q.coeff.rank)
        else:
            phi_full = inc_weight1
            for _ in range(k - 1):
                phi_full = phi_full.kron(inc_weight1)
        mapped = k1.top_tensor.proj_full @ phi_full @ kq.top_tensor.sect_full @ kq.inclusion
        try:
            induced = solve(k1.inclusion, mapped)
        except InconsistentSystemError:
            rep.fail("well-definedness",
                     f"weight {k}: image of C[{k}] misses the target kernel")
            continue
        snf = smith_normal_form(induced)
        vals = [ring.valuation(d) for d in snf.invariants]
        if any(v >= ring.N for v in vals) or len(vals) < kq.rank:
            rep.fail("injectivity", f"weight {k}: Smith valuations {vals}")
    return rep
