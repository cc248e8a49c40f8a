"""Coefficient algebras, bimodules, the weight-graded augmented algebra, and
the dataset file format (schema "koszulab-1").

Everything is presented by structure constants over the base ring Z/p^N and
stored in base-ring coordinates.  Tensor products over the coefficient algebra
are computed as explicit quotients with retained projection/section data so
that complex differentials can be written as honest matrices.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .padic import (BaseRing, PAdicMatrix,
                    inverse_mod, smith_normal_form)


class DatasetError(Exception):
    pass


class NonFreeQuotientError(DatasetError):
    """A tensor product over the coefficient algebra failed to be free."""


# ---------------------------------------------------------------------------
# Coefficient algebras and bimodules
# ---------------------------------------------------------------------------

class CoefficientAlgebra(NamedTuple):
    """Commutative unital algebra over Z/p^N given by structure constants.

    ``mult_constants[i][j][k]`` is the e_k-coordinate of e_i * e_j.
    """

    ring: BaseRing
    rank: int
    mult_constants: tuple  # rank x rank x rank
    unit: tuple
    maximal_ideal: tuple = ()

    def multiply(self, x, y):
        m = self.ring.modulus
        out = [0] * self.rank
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                cij = self.mult_constants[i][j]
                for k in range(self.rank):
                    out[k] = (out[k] + xi * yj * cij[k]) % m
        return tuple(out)

    def regular_left(self, i: int) -> PAdicMatrix:
        """Matrix of multiplication by basis element e_i."""
        return PAdicMatrix(self.ring,
                           [[self.mult_constants[i][j][k] for j in range(self.rank)]
                            for k in range(self.rank)], self.rank, self.rank)

    def as_bimodule(self) -> "Bimodule":
        acts = tuple(self.regular_left(i) for i in range(self.rank))
        return Bimodule(self.ring, self, self.rank, acts, acts)


class Bimodule(NamedTuple):
    """Finite free Z/p^N-module with commuting left/right coefficient actions."""

    ring: BaseRing
    coeff: CoefficientAlgebra
    rank: int
    left: tuple   # one rank x rank matrix per coefficient basis element
    right: tuple

    def left_of(self, x) -> PAdicMatrix:
        out = PAdicMatrix.zeros(self.ring, self.rank, self.rank)
        for i, xi in enumerate(x):
            if xi:
                out = out + self.left[i].scale(xi)
        return out

    def right_of(self, x) -> PAdicMatrix:
        out = PAdicMatrix.zeros(self.ring, self.rank, self.rank)
        for i, xi in enumerate(x):
            if xi:
                out = out + self.right[i].scale(xi)
        return out


class TensorData(NamedTuple):
    """M (x)_{E0} N presented on a free basis.

    ``proj``/``sect`` relate the ambient Z/p^N tensor product (kron index
    order: left factor major) to the chosen free basis: proj @ sect = I, and
    sect @ proj is the projection of the ambient module onto a complement of
    the balancing relations.
    """

    bimodule: Bimodule
    proj: PAdicMatrix
    sect: PAdicMatrix


def tensor_over_coeff(M: Bimodule, N: Bimodule) -> TensorData:
    """Quotient of the ambient tensor product by (m.a) (x) n - m (x) (a.n).

    Raises NonFreeQuotientError when the Smith form of the relation matrix
    shows torsion; valid datasets always produce free quotients.
    """
    ring = M.ring
    coeff = M.coeff
    if coeff is not N.coeff and coeff != N.coeff:
        raise DatasetError("tensor factors over different coefficient algebras")
    mn = M.rank * N.rank
    if coeff.rank == 1:
        # e_0 is a unit multiple of 1 and acts by the same scalar on both
        # sides; the balancing relations vanish identically.
        ident = PAdicMatrix.identity(ring, mn)
        bm = _tensor_bimodule(M, N, ident, ident)
        return TensorData(bm, ident, ident)
    eyeN = PAdicMatrix.identity(ring, N.rank)
    eyeM = PAdicMatrix.identity(ring, M.rank)
    relmat = functools.reduce(PAdicMatrix.hstack, (
        M.right[a].kron(eyeN) - eyeM.kron(N.left[a]) for a in range(coeff.rank)))
    snf = smith_normal_form(relmat)
    free_rows = []
    for i in range(mn):
        inv = snf.invariants[i] if i < len(snf.invariants) else 0
        v = ring.valuation(inv)
        if v == 0:
            continue
        if v < ring.N:
            raise NonFreeQuotientError(
                f"tensor quotient has torsion p^{v} (invalid dataset)")
        free_rows.append(i)
    left_inv = inverse_mod(snf.left)
    proj = snf.left.select_rows(free_rows)
    sect = left_inv.select_cols(free_rows)
    bm = _tensor_bimodule(M, N, proj, sect)
    return TensorData(bm, proj, sect)


def _tensor_bimodule(M: Bimodule, N: Bimodule, proj, sect) -> Bimodule:
    left = tuple(proj @ M.left[a].kron_apply(1, N.rank, sect)
                 for a in range(M.coeff.rank))
    right = tuple(proj @ N.right[a].kron_apply(M.rank, 1, sect)
                  for a in range(M.coeff.rank))
    return Bimodule(M.ring, M.coeff, proj.rows, left, right)


class IteratedTensor(NamedTuple):
    """An s-fold tensor over E0 with cumulative maps from the full ambient
    Z/p^N tensor product (product of the factor ranks, left-major order)."""

    bimodule: Bimodule
    proj_full: PAdicMatrix
    sect_full: PAdicMatrix
    factor_ranks: tuple


def identity_tensor(B: Bimodule) -> IteratedTensor:
    """``B`` as a tensor of one factor, with identity maps to its ambient."""
    eye = PAdicMatrix.identity(B.ring, B.rank)
    return IteratedTensor(B, eye, eye, (B.rank,))


def tensor_step(T: IteratedTensor, B: Bimodule) -> IteratedTensor:
    """``T`` with ``B`` appended as one more tensor factor."""
    step = tensor_over_coeff(T.bimodule, B)
    eyeB = PAdicMatrix.identity(B.ring, B.rank)
    return IteratedTensor(step.bimodule, step.proj @ T.proj_full.kron(eyeB),
                          T.sect_full.kron_apply(1, B.rank, step.sect),
                          T.factor_ranks + (B.rank,))


def iterated_tensor(factors) -> IteratedTensor:
    if not factors:
        raise ValueError("iterated_tensor needs at least one factor")
    T = identity_tensor(factors[0])
    for B in factors[1:]:
        T = tensor_step(T, B)
    return T


class TensorTable:
    """The iterated tensors of compositions, built by prefix recursion: the
    tensor of (c_1, ..., c_s) is ``tensor_step`` of the tensor of
    (c_1, ..., c_{s-1}) and ``factor(c_s)``, so each composition costs one
    step and every entry is built once and then shared.  The empty
    composition maps to ``empty``.  Entries equal ``iterated_tensor`` of the
    factors field by field."""

    def __init__(self, factor, empty: IteratedTensor):
        self.factor = factor
        self._tensors = {(): empty}

    def __getitem__(self, composition) -> IteratedTensor:
        comp = tuple(composition)
        known = len(comp)
        while comp[:known] not in self._tensors:
            known -= 1
        T = self._tensors[comp[:known]]
        for i in range(known, len(comp)):
            B = self.factor(comp[i])
            T = tensor_step(T, B) if i else identity_tensor(B)
            self._tensors[comp[:i + 1]] = T
        return T


# ---------------------------------------------------------------------------
# The weight-graded augmented algebra
# ---------------------------------------------------------------------------

class GradedAugmentedAlgebra(NamedTuple):
    """Weight components with two-sided coefficient actions and structure maps.

    ``components[k]`` (k >= 1) is the weight-k bimodule; weight 0 is the
    coefficient algebra itself.  ``mult[(k, l)]`` (k, l >= 1) is the matrix of
    the structure map on the ambient tensor basis, with shape
    (rank(k+l), rank(k) * rank(l)).  The augmentation kills every positive
    weight and is the identity on weight 0.
    """

    coeff: CoefficientAlgebra
    q_label: int
    max_weight: int
    components: dict
    mult: dict

    def rank(self, k: int) -> int:
        if k == 0:
            return self.coeff.rank
        return self.components[k].rank

    def component(self, k: int) -> Bimodule:
        if k == 0:
            return self.coeff.as_bimodule()
        return self.components[k]


class LeftModule(NamedTuple):
    """Left module over the graded algebra, free over the coefficient algebra.

    ``rank`` counts generators over E0; base coordinates are pairs
    (generator, coefficient basis element), generator-major.  ``action[k]``
    (k >= 1) is the matrix of Delta[k] (x) M -> M on the ambient tensor basis,
    with shape (base_rank, rank(Delta[k]) * base_rank).  A missing weight acts
    by zero (the trivial-module convention).
    """

    name: str
    coeff: CoefficientAlgebra
    rank: int
    action: dict

    @property
    def base_rank(self) -> int:
        return self.rank * self.coeff.rank

    def coeff_action(self, a: int) -> PAdicMatrix:
        eye = PAdicMatrix.identity(self.coeff.ring, self.rank)
        return eye.kron(self.coeff.regular_left(a))

    def weight_action(self, k: int, algebra_rank_k: int) -> PAdicMatrix:
        if k in self.action:
            return self.action[k]
        return PAdicMatrix.zeros(self.coeff.ring, self.base_rank,
                                 algebra_rank_k * self.base_rank)

    def as_bimodule(self) -> Bimodule:
        """M as an (E0, E0)-bimodule with both actions the coefficient action
        (the coefficient algebra is commutative)."""
        acts = tuple(self.coeff_action(a) for a in range(self.coeff.rank))
        return Bimodule(self.coeff.ring, self.coeff, self.base_rank, acts, acts)


def trivial_module(coeff: CoefficientAlgebra, name: str = "triv") -> LeftModule:
    return LeftModule(name, coeff, 1, {})


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, check: str, witness: str):
        self.failures.append((check, witness))

    def __str__(self):
        if self.passed:
            return "all checks passed"
        return "\n".join(f"FAIL {c}: {w}" for c, w in self.failures)


def validate_commutative_algebra(rep: ValidationReport, c: CoefficientAlgebra,
                                 name: str, where: str) -> None:
    """Check that ``c`` is commutative, associative and unital.  Failures go
    to ``rep`` as "<name> commutativity", "<name> associativity" and
    "<name> unitality", each witness a basis tuple after the prefix
    ``where``."""
    e = [_e(c.rank, i) for i in range(c.rank)]
    for i in range(c.rank):
        for j in range(c.rank):
            eij = c.multiply(e[i], e[j])
            if eij != c.multiply(e[j], e[i]):
                rep.fail(f"{name} commutativity", f"{where}basis pair ({i},{j})")
            for k in range(c.rank):
                if c.multiply(eij, e[k]) != c.multiply(e[i], c.multiply(e[j], e[k])):
                    rep.fail(f"{name} associativity",
                             f"{where}basis triple ({i},{j},{k})")
    for j in range(c.rank):
        if c.multiply(c.unit, e[j]) != e[j]:
            rep.fail(f"{name} unitality", f"{where}basis element {j}")


def validate_algebra(A: GradedAugmentedAlgebra) -> ValidationReport:
    """Check associativity, unitality, bimodule compatibility and the
    augmentation axioms; every failure names a witnessing basis tuple."""
    rep = ValidationReport()
    c = A.coeff
    ring = c.ring
    validate_commutative_algebra(rep, c, "coeff", "")
    eyes = {k: PAdicMatrix.identity(ring, A.rank(k)) for k in range(1, A.max_weight + 1)}
    # components: unital, associative, commuting bimodule actions
    for k in range(1, A.max_weight + 1):
        B = A.component(k)
        eye = eyes[k]
        if B.left_of(c.unit) != eye:
            rep.fail("left unitality", f"weight {k}")
        if B.right_of(c.unit) != eye:
            rep.fail("right unitality", f"weight {k}")
        for i in range(c.rank):
            for j in range(c.rank):
                prod = c.multiply(_e(c.rank, i), _e(c.rank, j))
                if B.left[i] @ B.left[j] != B.left_of(prod):
                    rep.fail("left associativity", f"weight {k}, pair ({i},{j})")
                if B.right[j] @ B.right[i] != B.right_of(prod):
                    rep.fail("right associativity", f"weight {k}, pair ({i},{j})")
                if B.left[i] @ B.right[j] != B.right[j] @ B.left[i]:
                    rep.fail("left/right commutation", f"weight {k}, pair ({i},{j})")
    # structure maps: coefficient bilinearity, balance, associativity
    for (k, l), m in sorted(A.mult.items()):
        Bk, Bl, Bkl = A.component(k), A.component(l), A.component(k + l)
        eye_k, eye_l = eyes[k], eyes[l]
        for a in range(c.rank):
            if (m @ (Bk.right[a].kron(eye_l) - eye_k.kron(Bl.left[a]))).is_zero() is False:
                rep.fail("mult balance", f"weights ({k},{l}), coeff basis {a}")
            if Bkl.left[a] @ m != m @ Bk.left[a].kron(eye_l):
                rep.fail("mult left linearity", f"weights ({k},{l}), coeff basis {a}")
            if Bkl.right[a] @ m != m @ eye_k.kron(Bl.right[a]):
                rep.fail("mult right linearity", f"weights ({k},{l}), coeff basis {a}")
    for k in range(1, A.max_weight + 1):
        for l in range(1, A.max_weight + 1):
            for mm in range(1, A.max_weight + 1):
                if k + l + mm > A.max_weight:
                    continue
                lhs = A.mult[(k + l, mm)] @ A.mult[(k, l)].kron(eyes[mm])
                rhs = A.mult[(k, l + mm)] @ eyes[k].kron(A.mult[(l, mm)])
                if lhs != rhs:
                    rep.fail("mult associativity", f"weight triple ({k},{l},{mm})")
    return rep


def validate_module(A: GradedAugmentedAlgebra, M: LeftModule) -> ValidationReport:
    rep = ValidationReport()
    ring = A.coeff.ring
    eye_m = PAdicMatrix.identity(ring, M.base_rank)
    coeff_acts = [M.coeff_action(a) for a in range(A.coeff.rank)]
    weights = range(1, A.max_weight + 1)
    acts = {k: M.weight_action(k, A.rank(k)) for k in weights}
    for k in weights:
        act_k = acts[k]
        Bk = A.component(k)
        eye_k = PAdicMatrix.identity(ring, Bk.rank)
        for a, act_a in enumerate(coeff_acts):
            if not (act_k @ (Bk.right[a].kron(eye_m) - eye_k.kron(act_a))).is_zero():
                rep.fail("module action balance", f"weight {k}, coeff basis {a}")
            if act_a @ act_k != act_k @ Bk.left[a].kron(eye_m):
                rep.fail("module action linearity", f"weight {k}, coeff basis {a}")
        for l in range(1, A.max_weight + 1 - k):
            lhs = acts[k + l] @ A.mult[(k, l)].kron(eye_m)
            rhs = act_k @ eye_k.kron(acts[l])
            if lhs != rhs:
                rep.fail("module associativity",
                         f"module {M.name!r}, weight pair ({k},{l})")
    return rep


def _e(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass
class Dataset:
    p: int
    N: int
    height_label: str
    q_label: int
    provenance: str
    algebra: GradedAugmentedAlgebra
    modules: dict
    subgroup_package: Optional[object] = None

    @property
    def ring(self) -> BaseRing:
        return self.algebra.coeff.ring

    def module(self, name: str) -> LeftModule:
        try:
            return self.modules[name]
        except KeyError:
            raise DatasetError(f"no module named {name!r}; have {sorted(self.modules)}")

    def validate(self) -> ValidationReport:
        rep = validate_algebra(self.algebra)
        for M in self.modules.values():
            sub = validate_module(self.algebra, M)
            rep.failures.extend(sub.failures)
        pkg = self.subgroup_package
        if pkg is not None:
            from .isogeny import validate_package
            rep.failures.extend(validate_package(pkg).failures)
            top = min(pkg.max_order, self.algebra.max_weight)
            rep.failures += [("missing pairing", f"subgroup_package.pairing[k={k}]")
                             for k in range(1, top + 1) if k not in pkg.pairing]
            rep.failures += [("singular pairing", f"subgroup_package.pairing[k={k}]")
                             for k, P in sorted(pkg.pairing.items()) if P.rows != P.cols
                             or set(smith_normal_form(P).invariants) - {1}]
        return rep


def builtin_height1(p: int, N: int, kmax: int) -> Dataset:
    """The fully forced height-1 dataset: the synthetic coboundary dataset
    with f = g = 1.

    Every weight component has rank 1 with unit structure constants; the
    sphere module has each positive weight acting by the scalar 1 and the
    trivial module has zero positive-weight action.  Every subgroup algebra
    is the base ring and every structure map of the package is the
    identity scalar.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    from .synthetic import _height1_dataset
    ones = dict.fromkeys(range(kmax + 1), 1)
    return _height1_dataset(BaseRing(p, N), ones, ones, "built-in height-1 "
                            "dataset (rank-1 components, unit structure "
                            "constants, generator basis)")



# ---------------------------------------------------------------------------
# Serialization (file format "koszulab-1")
# ---------------------------------------------------------------------------

FORMAT = "koszulab-1"
_TOP = "top level"
_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()


def _int_array(data, depth, where):
    """Check that ``data`` is ``depth`` levels of nested lists whose leaves
    are ints; bool, float and string leaves are rejected.  The DatasetError
    names the JSON path of the first offending value."""
    if depth == 0:
        if type(data) is not int:
            raise DatasetError(f"{where}: expected an integer, got "
                               f"{type(data).__name__}")
    elif not isinstance(data, list):
        raise DatasetError(f"{where}: expected a list, got {type(data).__name__}")
    else:
        for i, x in enumerate(data):
            if depth > 1 or type(x) is not int:    # a valid leaf costs one test
                _int_array(x, depth - 1, f"{where}[{i}]")
    return data


def _matrix_from_json(ring, data, rows, cols, where):
    if not isinstance(data, list) or len(data) != rows or \
            any(not isinstance(r, list) or len(r) != cols for r in data):
        raise DatasetError(f"{where}: expected a {rows}x{cols} matrix")
    return PAdicMatrix(ring, _int_array(data, 2, where), rows, cols)


def _reduced(x, depth, m):
    return tuple(_reduced(y, depth - 1, m) for y in x) if depth else x % m


def _lists(x, depth):
    return [_lists(y, depth - 1) for y in x] if depth else x


# The layout is a tree of fields, each of kind int, str or one of the four
# below.  An object's fields are read in the order given, into a copy of the
# values ``v`` read in the objects around it; shapes and checks read ``v``.

class _Ints(NamedTuple):
    """Nested lists of ints ``depth`` deep, read as nested tuples mod p^N."""
    depth: int


class _Matrix(NamedTuple):
    """A matrix of shape ``shape(v)``; with ``each``, a list of them, one per
    basis element of the coefficient algebra."""
    shape: object
    each: bool = False


class _Object(NamedTuple):
    """``build(v)`` makes the object of the values of its fields, and
    ``parts`` maps it back to them."""
    fields: tuple
    build: object
    parts: object


class _List(NamedTuple):
    """Entries named by their first fields, ``keys``, which no two share,
    read as a dict from the names (a tuple of several keys) and written in
    their order, sorted unless not ``sort``.  ``check(v)`` is what is wrong
    with an entry once its name is read, or None."""
    entry: _Object
    keys: tuple
    check: object = None
    sort: bool = True


class _Field(NamedTuple):
    """An absent key reads as the JSON value ``default`` unless the field is
    required, and a default value is written only when ``written``.  An int
    below ``low`` is refused; ``then(v, where)`` runs once the field is read."""
    key: str
    kind: object
    default: object = _REQUIRED
    written: bool = True
    low: Optional[int] = None
    then: object = None


_JSON = {_Ints: list, _Matrix: list, _List: list, _Object: dict}


def _format(v, where):
    if v["format"] != FORMAT:
        raise DatasetError(f"{where}: unsupported format {v['format']!r}")


def _ring(v, where):
    try:
        v["ring"] = BaseRing(v["p"], v["N"])
    except ValueError as exc:
        raise DatasetError(f"{where}: {exc}")


def _algebra_shape(v, where):
    r, mc = v["rank"], v["mult_constants"]
    if len(mc) != r or any(len(pl) != r or any(len(row) != r for row in pl)
                           for pl in mc):
        raise DatasetError(f"{where}.mult_constants: expected "
                           f"rank^3 = {r}^3 entries")
    if len(v["unit"]) != r:
        raise DatasetError(f"{where}.unit: wrong length")
    for i, g in enumerate(v["maximal_ideal"]):
        if len(g) != r:
            raise DatasetError(f"{where}.maximal_ideal[{i}]: wrong length")


def _weights(v, where):
    # distinct weights, so this checks 1..max_weight without building it
    top = v["max_weight"]
    if len(v["components"]) != top or not all(1 <= k <= top for k in v["components"]):
        raise DatasetError(f"{where}.components: weights must be exactly "
                           "1..max_weight")


def _pairs(v, where):
    # distinct pairs, each checked to have k, l >= 1 and k + l <= max_weight
    if len(v["mult"]) != v["max_weight"] * (v["max_weight"] - 1) // 2:
        raise DatasetError(f"{where}.mult: need exactly the pairs (k,l) "
                           "with k+l <= max_weight")


def _shift_check(v):
    # shift k maps the k-fold flag module of order p to the (k+1)-fold one,
    # which loading builds; no command reads a shift above max_weight
    if v["k"] < 1:
        return "k must be at least 1"
    if 1 not in v["orders"]:
        return "needs the subgroup algebra of order p^1"
    if v["k"] > max(v["orders"]):
        return f"k must be at most {max(v['orders'])}, the top order"
    if v["k"] > v["algebra"].max_weight:
        return f"k must be at most {v['algebra'].max_weight}, the algebra's max_weight"


def _order_rank(v, k):
    return v["orders"][k][0].rank


def _package(v, where):
    """The package of the orders and u1, whose flag modules shape the shifts."""
    from .isogeny import SubgroupAlgebraPackage
    orders = v["orders"]
    v["package"] = SubgroupAlgebraPackage(
        v["coefficient_algebra"], {k: S for k, (S, t) in orders.items()},
        {k: t for k, (S, t) in orders.items()}, v["u1"], {}, {})


def _package_maps(v):
    pkg = v["package"]
    pkg.shift, pkg.pairing = v["shift"], v["pairing"]
    return pkg


def _coefficient_algebra(v):
    return CoefficientAlgebra(v["ring"], v["rank"], v["mult_constants"],
                              v["unit"], v["maximal_ideal"])


def _bimodule(v):
    return Bimodule(v["ring"], v["coefficient_algebra"], v["rank"],
                    v["left_action"], v["right_action"])


def _bimodule_parts(B):
    return {"rank": B.rank, "left_action": B.left, "right_action": B.right}


def _subgroup_algebra(v):
    from .isogeny import SubgroupAlgebra
    return SubgroupAlgebra(v["k"], _coefficient_algebra(v), _bimodule(v))


def _algebra_fields(ideal_written):
    """A commutative algebra: rank, rank^3 structure constants, a unit and
    the generators of its maximal ideal, none when absent."""
    return (_Field("rank", int, low=0), _Field("mult_constants", _Ints(3)),
            _Field("unit", _Ints(1)), _Field("maximal_ideal", _Ints(2), [],
                                             ideal_written, then=_algebra_shape))


def _matrices(keys, shape, check):
    """Entries that are their int ``keys`` and a "matrix"."""
    return _List(_Object(tuple(_Field(k, int) for k in keys)
                         + (_Field("matrix", _Matrix(shape)),),
                         lambda v: v["matrix"], lambda m: {"matrix": m}), keys, check)


_SQUARE = _Matrix(lambda v: (v["rank"], v["rank"]), each=True)
_ACTIONS = (_Field("left_action", _SQUARE), _Field("right_action", _SQUARE))

_LAYOUT = _Object((
    _Field("format", str, then=_format),
    _Field("p", int),
    _Field("N", int, then=_ring),
    _Field("coefficient_algebra", _Object(_algebra_fields(True), _coefficient_algebra,
                                          CoefficientAlgebra._asdict)),
    _Field("q_label", int, 1),
    _Field("algebra", _Object((
        _Field("max_weight", int, low=1),
        _Field("components", _List(_Object(
            (_Field("k", int), _Field("rank", int, low=0)) + _ACTIONS,
            _bimodule, _bimodule_parts), ("k",)), then=_weights),
        _Field("mult", _matrices(
            ("k", "l"), lambda v: (v["components"][v["k"] + v["l"]].rank,
                                   v["components"][v["k"]].rank
                                   * v["components"][v["l"]].rank),
            lambda v: "weights must be positive" if v["k"] < 1 or v["l"] < 1 else
            f"weight {v['k'] + v['l']} exceeds max_weight"
            if v["k"] + v["l"] > v["max_weight"] else None), then=_pairs)),
        lambda v: GradedAugmentedAlgebra(v["coefficient_algebra"], v["q_label"],
                                         v["max_weight"], v["components"], v["mult"]),
        GradedAugmentedAlgebra._asdict)),
    _Field("modules", _List(_Object(
        (_Field("name", str), _Field("rank", int, low=0),
         _Field("action", _matrices(
             ("k",), lambda v: (v["rank"] * v["coefficient_algebra"].rank,
                                v["algebra"].rank(v["k"]) * v["rank"]
                                * v["coefficient_algebra"].rank),
             lambda v: None if 1 <= v["k"] <= v["algebra"].max_weight
             else f"weight {v['k']} out of range"), [])),
        lambda v: LeftModule(v["name"], v["coefficient_algebra"], v["rank"], v["action"]),
        LeftModule._asdict), ("name",), sort=False), []),
    _Field("height_label", str, "?"),
    _Field("provenance", str, ""),
    _Field("subgroup_package", _Object((
        _Field("orders", _List(_Object(
            (_Field("k", int),
             _Field("algebra", _Object(
                 _algebra_fields(False) + _ACTIONS, _subgroup_algebra,
                 lambda S: {**S.algebra._asdict(), **_bimodule_parts(S.bimodule)})),
             _Field("t", _Matrix(lambda v: (v["algebra"].rank,
                                            v["coefficient_algebra"].rank)))),
            lambda v: (v["algebra"], v["t"]), lambda St: {"algebra": St[0], "t": St[1]}),
            ("k",), lambda v: "k must be at least 1" if v["k"] < 1 else None), []),
        _Field("u1", _matrices(
            ("k1", "k2"), lambda v: (_order_rank(v, v["k1"]) * _order_rank(v, v["k2"]),
                                     _order_rank(v, v["k1"] + v["k2"])),
            lambda v: None if {v["k1"], v["k2"], v["k1"] + v["k2"]} <= v["orders"].keys()
            else f"needs the subgroup algebras of orders p^{v['k1']}, p^{v['k2']} "
                 f"and p^{v['k1'] + v['k2']}"), [], then=_package),
        _Field("shift", _matrices(("k",), lambda v: tuple(
            v["package"].flags[(1,) * n].bimodule.rank for n in (v["k"] + 1, v["k"])),
            _shift_check), []),
        _Field("pairing", _matrices(
            ("k",), lambda v: (v["algebra"].rank(v["k"]), _order_rank(v, v["k"])),
            lambda v: None if v["k"] in v["orders"] and v["k"] in v["algebra"].components
            else f"needs a weight-{v['k']} component and the subgroup algebra of "
                 f"order p^{v['k']}"), [])),
        _package_maps,
        lambda pkg: {**vars(pkg), "orders": {k: (S, pkg.t_maps[k])
                                             for k, S in pkg.orders.items()}}),
        None, written=False)),
    lambda v: Dataset(v["p"], v["N"], v["height_label"], v["q_label"],
                      v["provenance"], v["algebra"], v["modules"],
                      v["subgroup_package"]),
    lambda ds: {**vars(ds), "format": FORMAT, "coefficient_algebra": ds.algebra.coeff,
                "modules": {M.name: M for M in ds.modules.values()}})


def _read(kind, x, where, at, v):
    """What the JSON value ``x`` at path ``at``, in the object at ``where``,
    reads as by ``kind``, given the values ``v`` read before it."""
    if type(kind) is _Matrix:
        rows, cols = kind.shape(v)
        if not kind.each:
            return _matrix_from_json(v["ring"], x, rows, cols, at)
        if len(x) != v["coefficient_algebra"].rank:
            raise DatasetError(f"{where}: need one action matrix "
                               "per coefficient basis element")
        return tuple(_matrix_from_json(v["ring"], m, rows, cols, f"{at}[{i}]")
                     for i, m in enumerate(x))
    if type(kind) is _Ints:
        return _reduced(_int_array(x, kind.depth, at), kind.depth, v["ring"].modulus)
    if type(kind) is _Object:
        v = dict(v)
        _read_fields(kind.fields, x, at, v)
        return kind.build(v)
    keys, check, build = kind.keys, kind.check, kind.entry.build
    named, rest = kind.entry.fields[:len(keys)], kind.entry.fields[len(keys):]
    out, e = {}, dict(v)
    for i, d in enumerate(x):
        _read_fields(named, d, f"{at}[{i}]", e)
        if len(keys) > 1:
            name = tuple(e[k] for k in keys)
            entry = f"{at}[{','.join(f'{k}={e[k]}' for k in keys)}]"
        else:
            name = e[keys[0]]
            entry = f"{at}[{name!r}]" if type(name) is str else f"{at}[{keys[0]}={name}]"
        if name in out:
            raise DatasetError(f"{entry}: appears more than once")
        problem = check and check(e)
        if problem:
            raise DatasetError(f"{entry}: {problem}")
        _read_fields(rest, d, entry, e)
        out[name] = build(e)
    return out


def _read_fields(fields, d, where, v):
    """Read ``fields`` of the JSON object ``d`` at path ``where`` into ``v``."""
    if type(d) is not dict:
        raise DatasetError(f"{where}: expected an object, got {type(d).__name__}")
    for key, kind, default, written, low, then in fields:
        if key in d:
            x, json_type = d[key], _JSON.get(type(kind), kind)
            if type(x) is not json_type:
                raise DatasetError(f"{where}: field {key!r}: expected "
                                   f"{_KINDS[json_type]}, got {type(x).__name__}")
            if low is not None and x < low:
                raise DatasetError(f"{where}: field {key!r}: expected a "
                                   f"{'positive' if low else 'nonnegative'} "
                                   f"integer, got {x}")
        elif default is _REQUIRED:
            raise DatasetError(f"{where}: missing field {key!r}")
        else:
            x = default
        if kind is not int and kind is not str and x is not None:
            x = _read(kind, x, where, key if where == _TOP else f"{where}.{key}", v)
        v[key] = x
        if then is not None:
            then(v, where)


def _write(kind, x):
    """The JSON of the value ``x`` by a kind other than int and str."""
    if type(kind) is _Matrix:
        return [m.tolist() for m in x] if kind.each else x.tolist()
    if type(kind) is _Ints:
        return _lists(x, kind.depth)
    if type(kind) is _Object:
        return _write_fields(kind.fields, kind.parts(x), {})
    keys, rest, parts = kind.keys, kind.entry.fields[len(kind.keys):], kind.entry.parts
    return [_write_fields(rest, parts(value),
                          dict(zip(keys, name)) if len(keys) > 1 else {keys[0]: name})
            for name, value in (sorted(x.items()) if kind.sort else x.items())]


def _write_fields(fields, parts, out):
    """``out`` with the JSON of the values ``parts`` of ``fields``."""
    for key, kind, default, written, _, _ in fields:
        x = parts[key]
        if kind is not int and kind is not str and x is not None:
            x = _write(kind, x)
        if written or x != default:
            out[key] = x
    return out


def dataset_to_json(ds: Dataset) -> dict:
    """The koszulab-1 JSON object of ``ds``, laid out by ``_LAYOUT``."""
    return _write(_LAYOUT, ds)


def dataset_from_json(doc: dict, validate: bool = True) -> Dataset:
    """The dataset of the koszulab-1 JSON object ``doc``, read by
    ``_LAYOUT``; an error names the JSON path it was found at.  With
    ``validate``, a dataset that fails ``Dataset.validate`` is a DatasetError."""
    ds = _read(_LAYOUT, doc, None, _TOP, {})
    if validate:
        rep = ds.validate()
        if not rep.passed:
            raise DatasetError(f"dataset failed validation:\n{rep}")
    return ds


def canonical_json(ds: Dataset) -> str:
    return json.dumps(dataset_to_json(ds), sort_keys=True, separators=(",", ":"))


def save_dataset(ds: Dataset, path) -> None:
    """Write the canonical JSON of ``ds``, which the fingerprint hashes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(ds) + "\n")


def load_dataset(path, validate: bool = True) -> Dataset:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return dataset_from_json(doc, validate=validate)
