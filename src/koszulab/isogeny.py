"""The modular isogeny complex built from subgroup-algebra packages, the
degreewise dualization against the bar complex, and the shift-square check
relating the flag refinement maps to the Koszul differential.

A :class:`SubgroupAlgebraPackage` holds what every command shares about its
package (the flag modules and the pairing inverses); the bar and Koszul
complexes come from the command's :class:`bar.KoszulData`, which the
comparison, duality and shift-square functions take as their first
argument."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from typing import NamedTuple, Optional

from .padic import ExactLinalgError, PAdicMatrix, inverse_mod
from .complexes import ChainComplex, COHOMOLOGICAL, dualize_complex, homology
from .algebra import (Bimodule, CoefficientAlgebra, Dataset, DatasetError,
                      IteratedTensor, LeftModule, ValidationReport,
                      identity_tensor, iterated_tensor, validate_commutative_algebra,
                      _e, _actions_to_json, _bimodule_from_json,
                      _coefficient_algebra_from_json, _first,
                      _matrix_from_json, _need)
from .bar import (AmbientTable, CompositionTable, KoszulData, _block_diagonal,
                  composition_complex)


class MICError(Exception):
    pass


class SubgroupAlgebra(NamedTuple):
    """One ring of functions on order-p^k subgroup flags: its own ring
    structure plus the two coefficient-module structures (structural on the
    left, deformation-twisted on the right)."""

    order_exponent: int
    algebra: CoefficientAlgebra       # ring structure over the base ring
    bimodule: Bimodule                # (E0, E0)-module structure

    @property
    def rank(self) -> int:
        return self.algebra.rank


@dataclass
class SubgroupAlgebraPackage:
    """The subgroup algebras and their structure maps, with what is derived
    from them once per package and then shared: ``flags``, the table of flag
    modules and subgroup complexes (see :func:`flag_tensors`), filled on use
    and read by loading, validation and every command; the inverses of the
    pairings (:meth:`pairing_inverse`) and their Kronecker products per
    composition (:meth:`pairing_inverses_of`).  Failures are not kept: a
    singular pairing raises each time it is asked for."""

    coeff: CoefficientAlgebra
    orders: dict                      # k >= 1 -> SubgroupAlgebra
    t_maps: dict                      # k -> matrix coeff -> S_{p^k}
    u1: dict                          # (k1, k2) -> matrix S_{p^{k1+k2}} -> ambient tensor
    shift: dict                       # k >= 1 -> matrix on flag quotient coordinates
    pairing: dict                     # k -> matrix (algebra weight-k rank x S rank)
    flags: CompositionTable = field(init=False, repr=False, compare=False)
    _pairing_inverses: dict = field(init=False, repr=False, compare=False,
                                    default_factory=dict)
    _inverse_krons: dict = field(init=False, repr=False, compare=False,
                                 default_factory=dict)

    def __post_init__(self):
        self.flags = flag_tensors(self)

    @property
    def max_order(self) -> int:
        return max(self.orders) if self.orders else 0

    def rank(self, k: int) -> int:
        return self.orders[k].rank

    def pairing_inverse(self, k: int) -> PAdicMatrix:
        if k not in self._pairing_inverses:
            try:
                self._pairing_inverses[k] = inverse_mod(self.pairing[k])
            except ExactLinalgError:
                raise MICError(f"pairing for weight {k} is singular mod p^N")
        return self._pairing_inverses[k]

    def pairing_inverses_of(self, composition) -> PAdicMatrix:
        """The Kronecker product of the pairing inverses of the parts of a
        nonempty ``composition``, built on that of its prefix, which the
        package keeps: a composition of two or more parts costs one
        Kronecker product.  A composition of the top order is a prefix of
        none, and is not kept."""
        inv = self._inverse_krons.get(composition)
        if inv is None:
            inv = self.pairing_inverse(composition[-1])
            if len(composition) > 1:
                inv = self.pairing_inverses_of(composition[:-1]).kron(inv)
            if sum(composition) < self.max_order:
                self._inverse_krons[composition] = inv
        return inv


def _flag_factor(orders: dict, k: int) -> Bimodule:
    if k not in orders:
        raise MICError(f"package has no subgroup algebra of order p^{k}")
    return orders[k].bimodule


def flag_tensor(pkg: SubgroupAlgebraPackage, composition) -> IteratedTensor:
    """The flag module S_{p^{k_1}} (x)_{E0} ... (x)_{E0} S_{p^{k_s}}."""
    if not composition:
        return identity_tensor(pkg.coeff.as_bimodule())
    return iterated_tensor([_flag_factor(pkg.orders, k) for k in composition])


def _refinement(u1: dict, k1: int, k2: int) -> PAdicMatrix:
    if (k1, k2) not in u1:
        raise MICError(f"package missing u1 for ({k1},{k2})")
    return u1[(k1, k2)]


def flag_tensors(pkg: SubgroupAlgebraPackage) -> CompositionTable:
    """The table of flag modules of every composition: entry c equals
    ``flag_tensor(pkg, c)``, and compositions sharing a prefix share its
    tensor; ``ambient`` holds the ambient subgroup complex of every order.
    The table holds the package's orders and u1, not the package, which
    holds the table."""
    factor = partial(_flag_factor, pkg.orders)
    return CompositionTable(
        factor, identity_tensor(pkg.coeff.as_bimodule()),
        AmbientTable(pkg.coeff.ring, lambda k: factor(k).rank,
                     partial(_refinement, pkg.u1), cohomological=True))


# ---------------------------------------------------------------------------
# The complex
# ---------------------------------------------------------------------------

class ModularIsogenyComplex(NamedTuple):
    k: int
    complex: ChainComplex
    blocks: tuple   # per degree, tuple of bar.Block


def build_mic(pkg: SubgroupAlgebraPackage, k: int,
              validated: bool = False) -> ModularIsogenyComplex:
    """Cochain complex with degree-s term the sum over compositions of k into
    s positive parts of the flag module, and differential the alternating sum
    of the refinement maps applied in each slot.  The flag modules and the
    ambient complex, built on the lower orders', come from ``pkg.flags``; a
    missing order or u1 raises MICError before the complex is built.

    With ``validated`` (the package passed :func:`validate_package`, as the
    command's ``KoszulData.validated`` says) over E0 of rank 1, it is marked
    checked with no product: it is the argument of :func:`bar.bar_complex`
    with the refinements u1 in place of m, arrows reversed.  Order k is a
    complex if the lower orders are; faces on disjoint slots cancel by sign,
    and overlapping ones by "u1 coassociativity", checked on the ambient
    products.  Over rank > 1 validation checks coassociativity only in the
    quotient and not that u1 is E0-linear, which the quotient coordinates
    need, so d o d is checked with products, as it is without ``validated``."""
    if k < 0:
        raise MICError("negative order exponent")
    if k > pkg.max_order:
        raise MICError(f"package covers orders up to p^{pkg.max_order}, need p^{k}")
    low = 1 if k else 0     # order p^0 is the coefficient ring in degree 0
    cx, blocks, deg = composition_complex(pkg.coeff, pkg.flags.ambient.level(k),
                                          COHOMOLOGICAL, range(low, k + 1),
                                          pkg.flags.__getitem__,
                                          validated and pkg.coeff.rank == 1)
    if deg is not None:
        comps = [b.composition for b in blocks[deg - low]]
        raise MICError(f"refinement maps fail d o d = 0 between degrees "
                       f"{deg} and {deg + 2}; source compositions {comps} "
                       "(coassociativity violation in the package)")
    return ModularIsogenyComplex(k, cx, blocks)


def mic_cohomology(data: KoszulData, mic: ModularIsogenyComplex):
    """Cohomology profile of the order-p^k complex ``mic``, and whether it is
    concentrated in degree k with the rank of the Koszul module C[k] of
    ``data``'s algebra."""
    k = mic.k
    prof = homology(mic.complex)
    ck = data.koszul_module(k).rank
    return prof, {"koszul_rank": ck,
                  "matches": prof.concentrated_in(k) and prof.free_rank(k) == ck}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_package(pkg: SubgroupAlgebraPackage) -> ValidationReport:
    rep = ValidationReport()
    ring = pkg.coeff.ring
    for k, S in sorted(pkg.orders.items()):
        a = S.algebra
        validate_commutative_algebra(rep, a, "subgroup algebra", f"order p^{k}, ")
        t = pkg.t_maps.get(k)
        if t is None:
            rep.fail("missing t map", f"order p^{k}")
            continue
        # t is a ring map: unit to unit, products to products
        unit_img = t @ PAdicMatrix(ring, [[x] for x in pkg.coeff.unit],
                                   pkg.coeff.rank, 1)
        if _apply_col(unit_img, 0) != a.unit:
            rep.fail("t unitality", f"order p^{k}")
        for i in range(pkg.coeff.rank):
            for j in range(pkg.coeff.rank):
                prod = pkg.coeff.multiply(_e(pkg.coeff.rank, i), _e(pkg.coeff.rank, j))
                lhs = _apply(t, prod)
                rhs = a.multiply(_apply_col(t, i), _apply_col(t, j))
                if lhs != rhs:
                    rep.fail("t multiplicativity", f"order p^{k}, pair ({i},{j})")
    # coassociativity of the refinement maps
    for total in range(3, pkg.max_order + 1):
        for a_ in range(1, total - 1):
            for b_ in range(1, total - a_):
                c_ = total - a_ - b_
                if not all(key in pkg.u1 for key in
                           [(a_, b_ + c_), (b_, c_), (a_ + b_, c_), (a_, b_)]):
                    continue
                ra, rc = pkg.rank(a_), pkg.rank(c_)
                route1 = (PAdicMatrix.identity(pkg.coeff.ring, ra)
                          .kron(pkg.u1[(b_, c_)]) @ pkg.u1[(a_, b_ + c_)])
                route2 = (pkg.u1[(a_, b_)]
                          .kron(PAdicMatrix.identity(pkg.coeff.ring, rc))
                          @ pkg.u1[(a_ + b_, c_)])
                if pkg.coeff.rank > 1:   # over rank 1 proj_full is the identity
                    proj = pkg.flags[(a_, b_, c_)].proj_full
                    route1, route2 = proj @ route1, proj @ route2
                if route1 != route2:
                    rep.fail("u1 coassociativity",
                             f"decomposition ({a_},{b_},{c_})")
    return rep


def _apply(mat: PAdicMatrix, vec):
    col = PAdicMatrix(mat.ring, [[x] for x in vec], len(vec), 1)
    return _apply_col(mat @ col, 0)


def _apply_col(mat: PAdicMatrix, j):
    return tuple(r.get(j, 0) for r in mat.nonzeros)


# ---------------------------------------------------------------------------
# Duality with the bar complex
# ---------------------------------------------------------------------------

@dataclass
class MICDualityResult:
    k: int
    maps: list                 # per degree s = 1..k, the matrix on dual coordinates
    commutes: bool
    witness: Optional[str]


def dualize_bar_to_mic(data: KoszulData, pkg: SubgroupAlgebraPackage,
                       k: int) -> MICDualityResult:
    """Construct the degreewise isomorphisms from the dual weight-k bar
    complex to the order-p^k complex through the pairing matrices, and assert
    they intertwine the two differentials exactly.  The bar complex comes
    from ``data``, and the pairing inverses and their Kronecker products
    from the package (:meth:`SubgroupAlgebraPackage.pairing_inverses_of`).
    Both complexes list the same compositions in the same order, so each
    map is block-diagonal, one block per composition.

    Block c is the one X with PK @ sect_mic @ X = proj_bar^T (PK the tensor
    product of c's pairings, unimodular; proj_mic @ sect_mic = 1): X = proj_mic
    @ Q for Q = PK^-1 @ proj_bar^T, if sect_mic @ X = Q.  Else the pairing does
    not descend: MICError names the first entry of Q outside sect_mic's image.
    Over E0 of rank 1 the blocks hold no tensor and block c is PK^-1, the
    Kronecker product of the pairing inverses: there tensor_over_coeff
    returns identity maps, so proj_bar = proj_mic = sect_mic = I, Q = PK^-1,
    X = Q and sect_mic @ X - Q = 0.  The descent check cannot fail there;
    over rank > 1 it stays."""
    A = data.algebra
    ring = A.coeff.ring
    for kk in range(1, k + 1):
        P = pkg.pairing.get(kk)
        if P is None:
            raise MICError(f"package missing pairing for weight {kk}")
        if P.shape != (A.rank(kk), pkg.rank(kk)):
            raise MICError(f"pairing shape mismatch at weight {kk}: "
                           f"{P.shape} vs {(A.rank(kk), pkg.rank(kk))}")
        pkg.pairing_inverse(kk)  # unimodular, for the components to be dual
    if k == 0:
        return MICDualityResult(0, [PAdicMatrix.identity(ring, A.coeff.rank)],
                                True, None)
    bc = data.bar(k)
    mic = build_mic(pkg, k, data.validated)
    dual = dualize_complex(bc.complex)

    def blocks(s):
        for bb, mb in zip(bc.degree_blocks(s), mic.blocks[s - 1]):
            inv = pkg.pairing_inverses_of(bb.composition)
            if bb.tensor is None:
                yield inv
                continue
            Q = inv @ bb.tensor.proj_full.transpose()
            block = mb.tensor.proj_full @ Q
            miss = mb.tensor.sect_full @ block - Q
            if not miss.is_zero():
                i, j = next((i, min(r)) for i, r in enumerate(miss.nonzeros) if r)
                raise MICError(f"pairing does not descend at degree {s}, "
                               f"composition {bb.composition}: entry ({i},{j}) "
                               f"lies outside the image of the flag module")
            yield block

    maps = []
    for s in range(1, k + 1):
        if [b.composition for b in bc.degree_blocks(s)] != \
                [b.composition for b in mic.blocks[s - 1]]:
            raise MICError(f"bar and subgroup blocks index different "
                           f"compositions at degree {s}")
        maps.append(_block_diagonal(ring, blocks(s)))
    for s in range(1, k):
        lhs = maps[s] @ dual.differentials[s]      # dual d: degree s -> s+1
        rhs = mic.complex.differentials[s - 1] @ maps[s - 1]
        if lhs != rhs:
            diff = lhs - rhs
            witness = next((f"degree {s}->{s + 1}, entry ({i},{j})")
                           for i, row in enumerate(diff.nonzeros) for j in sorted(row))
            return MICDualityResult(k, maps, False, witness)
    return MICDualityResult(k, maps, True, None)


# ---------------------------------------------------------------------------
# The shift-square check (flag refinement vs dual Koszul differential)
# ---------------------------------------------------------------------------

@dataclass
class ShiftSquareResult:
    commutes: bool
    route_top: PAdicMatrix
    route_bottom: PAdicMatrix
    witness: Optional[str]


def verify_theorem_10_2(data: KoszulData, pkg: SubgroupAlgebraPackage,
                        M: LeftModule, k: int) -> ShiftSquareResult:
    """Square number k (k >= 1): the shift map from the (k-1)-fold flag module
    to the k-fold one, followed by the quotient onto the dual of the Koszul
    term, must agree with the quotient followed by the transposed Koszul
    differential.

    The quotient maps are computed, not supplied: the inclusion of the Koszul
    term into the ambient weight-1 tensor power is dualized through the
    pairings, with the sign (-1)^{j(j+1)/2} in homological degree j coming
    from dualizing a chain complex.  The Koszul complex of M comes from
    ``data``, and the flag modules from the package's table.
    """
    if k < 1:
        raise MICError("square index must be >= 1")
    A = data.algebra
    ring = A.coeff.ring
    mod = ring.modulus
    j = k - 1
    if j + 1 > A.max_weight:
        raise MICError(f"square {k} needs weight {j + 1} <= max_weight")
    kc = data.koszul_complex(M)
    if M.rank != 1:
        raise MICError("the shift square needs a module free of rank 1 "
                       "over the coefficient algebra")
    unitcol = PAdicMatrix(ring, [[x] for x in A.coeff.unit], A.coeff.rank, 1)

    def quotient_map(jj):
        flag = pkg.flags[(1,) * jj]
        sign = (-1) ** (jj * (jj + 1) // 2) % mod
        if jj and pkg.pairing.get(1) is None:
            raise MICError("package missing pairing for weight 1")
        PKm = reduce(PAdicMatrix.kron, [pkg.pairing.get(1)] * jj + [unitcol])
        q = kc.ambient_inclusions[jj].transpose() @ PKm @ flag.sect_full
        return q.scale(sign), flag

    q_j, flag_j = quotient_map(j)
    q_j1, flag_j1 = quotient_map(j + 1)
    if j == 0:
        shift = pkg.t_maps.get(1)
        if shift is None:
            raise MICError("package missing the t map for order p")
    else:
        shift = pkg.shift.get(j)
        if shift is None:
            raise MICError(f"package missing the shift map at {j} flag slots")
    if shift.shape != (flag_j1.bimodule.rank, flag_j.bimodule.rank):
        raise MICError(f"shift map at {j} slots has shape {shift.shape}, "
                       f"expected {(flag_j1.bimodule.rank, flag_j.bimodule.rank)}")
    top = q_j1 @ shift
    bottom = kc.complex.differentials[j].transpose() @ q_j
    if top == bottom:
        return ShiftSquareResult(True, top, bottom, None)
    diff = top - bottom
    witness = next(f"basis vector {c0} of the {j}-fold flag module: "
                   f"images differ in coordinate {r}"
                   for r, row in enumerate(diff.nonzeros) for c0 in sorted(row))
    return ShiftSquareResult(False, top, bottom, witness)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def package_to_json(pkg: SubgroupAlgebraPackage) -> dict:
    return {
        "orders": [
            {"k": k,
             "algebra": {
                 "rank": S.rank,
                 "mult_constants": [[[x for x in row] for row in plane]
                                    for plane in S.algebra.mult_constants],
                 "unit": list(S.algebra.unit),
                 # written only when given, so that files without it keep
                 # their canonical JSON and fingerprint
                 **({"maximal_ideal": [list(g) for g in S.algebra.maximal_ideal]}
                    if S.algebra.maximal_ideal else {}),
                 **_actions_to_json(S.bimodule),
             },
             "t": pkg.t_maps[k].tolist()}
            for k, S in sorted(pkg.orders.items())
        ],
        "u1": [{"k1": k1, "k2": k2, "matrix": m.tolist()}
               for (k1, k2), m in sorted(pkg.u1.items())],
        "shift": [{"k": k, "matrix": m.tolist()} for k, m in sorted(pkg.shift.items())],
        "pairing": [{"k": k, "matrix": m.tolist()} for k, m in sorted(pkg.pairing.items())],
    }


def package_from_json(ds: Dataset, doc: dict) -> SubgroupAlgebraPackage:
    coeff = ds.algebra.coeff
    ring = coeff.ring
    top = "subgroup_package"

    def mat(data, rows, cols, where):
        return _matrix_from_json(ring, data, rows, cols, where)

    orders = {}
    t_maps = {}
    for i, ent in enumerate(_need(doc, "orders", top, list, [])):
        k = _need(ent, "k", f"{top}.orders[{i}]", int)
        where = f"{top}.orders[k={k}]"
        _first(orders, k, where)
        if k < 1:
            raise DatasetError(f"{where}: k must be at least 1")
        a = _need(ent, "algebra", where, dict)
        alg = _coefficient_algebra_from_json(ring, a, f"{where}.algebra")
        orders[k] = SubgroupAlgebra(
            k, alg, _bimodule_from_json(coeff, alg.rank, a, f"{where}.algebra"))
        t_maps[k] = mat(_need(ent, "t", where, list), alg.rank, coeff.rank,
                        f"{where}.t")
    u1 = {}
    for i, ent in enumerate(_need(doc, "u1", top, list, [])):
        k1 = _need(ent, "k1", f"{top}.u1[{i}]", int)
        k2 = _need(ent, "k2", f"{top}.u1[{i}]", int)
        where = f"{top}.u1[k1={k1},k2={k2}]"
        _first(u1, (k1, k2), where)
        if not {k1, k2, k1 + k2} <= orders.keys():
            raise DatasetError(f"{where}: needs the subgroup algebras of orders "
                               f"p^{k1}, p^{k2} and p^{k1 + k2}")
        u1[(k1, k2)] = mat(_need(ent, "matrix", where, list),
                           orders[k1].rank * orders[k2].rank,
                           orders[k1 + k2].rank, f"{where}.matrix")
    pkg = SubgroupAlgebraPackage(coeff, orders, t_maps, u1, {}, {})
    shift = {}
    for i, ent in enumerate(_need(doc, "shift", top, list, [])):
        k = _need(ent, "k", f"{top}.shift[{i}]", int)
        where = f"{top}.shift[k={k}]"
        _first(shift, k, where)
        if k < 1:
            raise DatasetError(f"{where}: k must be at least 1")
        fr = pkg.flags[(1,) * k].bimodule.rank
        fr1 = pkg.flags[(1,) * (k + 1)].bimodule.rank
        shift[k] = mat(_need(ent, "matrix", where, list), fr1, fr,
                       f"{where}.matrix")
    pairing = {}
    for i, ent in enumerate(_need(doc, "pairing", top, list, [])):
        k = _need(ent, "k", f"{top}.pairing[{i}]", int)
        where = f"{top}.pairing[k={k}]"
        _first(pairing, k, where)
        if k not in orders or k not in ds.algebra.components:
            raise DatasetError(f"{where}: needs a weight-{k} component and "
                               f"the subgroup algebra of order p^{k}")
        pairing[k] = mat(_need(ent, "matrix", where, list),
                         ds.algebra.rank(k), orders[k].rank, f"{where}.matrix")
    pkg.shift = shift
    pkg.pairing = pairing
    return pkg
