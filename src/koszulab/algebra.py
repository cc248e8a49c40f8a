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


_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}
_REQUIRED = object()


def _need(d, key, where, kind, default=_REQUIRED):
    """``d[key]``, which must have the JSON type ``kind`` (an int is never a
    bool or a float); ``default`` when the key is absent and one is given.
    Anything else is a DatasetError naming the JSON path ``where``."""
    if type(d) is not dict:
        raise DatasetError(f"{where}: expected an object, got {type(d).__name__}")
    if key not in d:
        if default is _REQUIRED:
            raise DatasetError(f"{where}: missing field {key!r}")
        return default
    value = d[key]
    if type(value) is not kind:
        raise DatasetError(f"{where}: field {key!r}: expected {_KINDS[kind]}, "
                           f"got {type(value).__name__}")
    return value


def _rank(d, where):
    """``d["rank"]``, which must be an int >= 0; a DatasetError names the
    JSON path ``where`` otherwise."""
    r = _need(d, "rank", where, int)
    if r < 0:
        raise DatasetError(f"{where}: field 'rank': expected a nonnegative "
                           f"integer, got {r}")
    return r


def _first(table, key, where):
    """Check that ``key`` is not yet in ``table``: a keyed entry that
    appears twice in a JSON list is a DatasetError naming ``where``."""
    if key in table:
        raise DatasetError(f"{where}: appears more than once")


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


def _actions_to_json(B: Bimodule) -> dict:
    return {"left_action": [m.tolist() for m in B.left],
            "right_action": [m.tolist() for m in B.right]}


def _bimodule_from_json(coeff, r, d, where) -> Bimodule:
    """The rank-r bimodule whose actions are the ``left_action`` and
    ``right_action`` lists of ``d``: one r x r matrix per coefficient basis
    element.  A DatasetError names the JSON path under ``where``."""
    sides = [_need(d, side, where, list) for side in ("left_action", "right_action")]
    if any(len(ms) != coeff.rank for ms in sides):
        raise DatasetError(f"{where}: need one action "
                           "matrix per coefficient basis element")
    return Bimodule(coeff.ring, coeff, r, *[
        tuple(_matrix_from_json(coeff.ring, m, r, r, f"{where}.{side}[{i}]")
              for i, m in enumerate(ms))
        for side, ms in zip(("left_action", "right_action"), sides)])


def dataset_to_json(ds: Dataset) -> dict:
    A = ds.algebra
    c = A.coeff
    out = {
        "format": FORMAT,
        "p": ds.p,
        "N": ds.N,
        "height_label": ds.height_label,
        "q_label": ds.q_label,
        "provenance": ds.provenance,
        "coefficient_algebra": {
            "rank": c.rank,
            "mult_constants": [[[x for x in row] for row in plane]
                               for plane in c.mult_constants],
            "unit": list(c.unit),
            "maximal_ideal": [list(g) for g in c.maximal_ideal],
        },
        "algebra": {
            "max_weight": A.max_weight,
            "components": [
                {"k": k, "rank": A.rank(k), **_actions_to_json(A.components[k])}
                for k in sorted(A.components)
            ],
            "mult": [{"k": k, "l": l, "matrix": m.tolist()}
                     for (k, l), m in sorted(A.mult.items())],
        },
        "modules": [
            {"name": M.name, "rank": M.rank,
             "action": [{"k": k, "matrix": m.tolist()}
                        for k, m in sorted(M.action.items())]}
            for M in ds.modules.values()
        ],
    }
    if ds.subgroup_package is not None:
        from .isogeny import package_to_json
        out["subgroup_package"] = package_to_json(ds.subgroup_package)
    return out


def _coefficient_algebra_from_json(ring, d, where) -> CoefficientAlgebra:
    """A commutative algebra given by rank, rank^3 structure constants, a
    unit and optionally generators of its maximal ideal."""
    r = _rank(d, where)
    mc = _int_array(_need(d, "mult_constants", where, list), 3,
                    f"{where}.mult_constants")
    unit = _int_array(_need(d, "unit", where, list), 1, f"{where}.unit")
    ideal = _int_array(_need(d, "maximal_ideal", where, list, []), 2,
                       f"{where}.maximal_ideal")
    if len(mc) != r or any(len(pl) != r for pl in mc) or \
            any(len(row) != r for pl in mc for row in pl):
        raise DatasetError(f"{where}.mult_constants: expected "
                           f"rank^3 = {r}^3 entries")
    if len(unit) != r:
        raise DatasetError(f"{where}.unit: wrong length")
    for i, g in enumerate(ideal):
        if len(g) != r:
            raise DatasetError(f"{where}.maximal_ideal[{i}]: wrong length")
    m = ring.modulus
    return CoefficientAlgebra(
        ring, r,
        tuple(tuple(tuple(x % m for x in row) for row in pl) for pl in mc),
        tuple(x % m for x in unit),
        tuple(tuple(x % m for x in g) for g in ideal))


def dataset_from_json(doc: dict, validate: bool = True) -> Dataset:
    top = "top level"
    if _need(doc, "format", top, str) != FORMAT:
        raise DatasetError(f"top level: unsupported format {doc.get('format')!r}")
    p = _need(doc, "p", top, int)
    N = _need(doc, "N", top, int)
    try:
        ring = BaseRing(p, N)
    except ValueError as exc:
        raise DatasetError(f"top level: {exc}")
    coeff = _coefficient_algebra_from_json(
        ring, _need(doc, "coefficient_algebra", top, dict), "coefficient_algebra")
    alg = _need(doc, "algebra", top, dict)
    max_weight = _need(alg, "max_weight", "algebra", int)
    if max_weight < 1:
        raise DatasetError(f"algebra: field 'max_weight': expected a positive "
                           f"integer, got {max_weight}")
    comps = {}
    for i, ent in enumerate(_need(alg, "components", "algebra", list)):
        k = _need(ent, "k", f"algebra.components[{i}]", int)
        where = f"algebra.components[k={k}]"
        _first(comps, k, where)
        comps[k] = _bimodule_from_json(coeff, _rank(ent, where), ent, where)
    if set(comps) != set(range(1, max_weight + 1)):
        raise DatasetError("algebra.components: weights must be exactly 1..max_weight")
    mult = {}
    for i, ent in enumerate(_need(alg, "mult", "algebra", list)):
        k = _need(ent, "k", f"algebra.mult[{i}]", int)
        l = _need(ent, "l", f"algebra.mult[{i}]", int)
        where = f"algebra.mult[k={k},l={l}]"
        _first(mult, (k, l), where)
        if k < 1 or l < 1:
            raise DatasetError(f"{where}: weights must be positive")
        if k + l > max_weight:
            raise DatasetError(f"{where}: weight {k+l} exceeds max_weight")
        mult[(k, l)] = _matrix_from_json(
            ring, _need(ent, "matrix", where, list),
            comps[k + l].rank, comps[k].rank * comps[l].rank, f"{where}.matrix")
    want = {(k, l) for k in range(1, max_weight) for l in range(1, max_weight + 1 - k)}
    if set(mult) != want:
        raise DatasetError("algebra.mult: need exactly the pairs (k,l) with k+l <= max_weight")
    q_label = _need(doc, "q_label", top, int, 1)
    algebra = GradedAugmentedAlgebra(coeff, q_label, max_weight, comps, mult)
    modules = {}
    for i, ent in enumerate(_need(doc, "modules", top, list, [])):
        name = _need(ent, "name", f"modules[{i}]", str)
        where = f"modules[{name!r}]"
        _first(modules, name, where)
        r = _rank(ent, where)
        base = r * coeff.rank
        action = {}
        for j, a in enumerate(_need(ent, "action", where, list, [])):
            k = _need(a, "k", f"{where}.action[{j}]", int)
            if not 1 <= k <= max_weight:
                raise DatasetError(f"{where}.action: weight {k} out of range")
            _first(action, k, f"{where}.action[k={k}]")
            action[k] = _matrix_from_json(
                ring, _need(a, "matrix", f"{where}.action[k={k}]", list),
                base, comps[k].rank * base, f"{where}.action[k={k}].matrix")
        modules[name] = LeftModule(name, coeff, r, action)
    ds = Dataset(p, N, _need(doc, "height_label", top, str, "?"), q_label,
                 _need(doc, "provenance", top, str, ""), algebra, modules)
    if "subgroup_package" in doc:
        from .isogeny import package_from_json
        ds.subgroup_package = package_from_json(
            ds, _need(doc, "subgroup_package", top, dict))
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
