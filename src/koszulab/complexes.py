"""Bounded complexes of finite free Z/p^N-modules and their exact homology.

Homology is computed in three steps: a check of d o d = 0, the
cancellation of every unit entry with its two cells, one differential at a
time on its own cells (which keeps homology exactly and leaves every other
differential as it was, restricted to the cells that remain), and Smith
forms of what is left, whose differentials have no unit entry, in
:func:`_homology_degree`.  The complexes built here are almost empty and
their entries almost all units, so little is left.

A complex is marked ``checked`` once d o d = 0 is known, and
:func:`homology` checks d o d only on unmarked complexes, with the products
of :func:`verify_complex`.  Two things mark a complex.  A builder whose
structure maps satisfy the identities that make its output a complex
passes ``checked=True`` to :func:`make_complex` and forms no product: the
partition complex always (its faces satisfy the simplicial identities),
and the bar, module-bar and subgroup complexes of a dataset that passed
validation (each builder's docstring gives its argument).  Otherwise a
passing :func:`verify_complex` marks it: the Koszul complex, built by
solving, checks itself, and :func:`homology` checks every other complex it
reads unmarked.  :func:`dualize_complex` carries the mark to the dual.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .padic import (BaseRing, PAdicMatrix, ExactLinalgError, ShapeError,
                    _EMPTY, _eliminate, _wrap, inverse_mod)

HOMOLOGICAL = "homological"
COHOMOLOGICAL = "cohomological"


class ComplexError(ExactLinalgError):
    pass


@dataclass(frozen=True)
class ChainComplex:
    """A bounded complex of free modules over Z/p^N.

    ``ranks[i]`` is the rank in degree ``min_degree + i``.  ``differentials[j]``
    is the map between degrees min_degree+j and min_degree+j+1: for the
    homological orientation it goes downward, C_{j+1} -> C_j, with shape
    (ranks[j], ranks[j+1]); for the cohomological orientation it goes upward
    with the transposed shape.  Zero-rank degrees are represented explicitly.

    ``checked`` means d o d = 0 is known: set by a passing
    :func:`verify_complex`, or by a builder that proves it (see
    :func:`make_complex`).  It is not a constructor argument and takes no
    part in equality or hashing.
    """

    ring: BaseRing
    orientation: str
    min_degree: int
    ranks: tuple
    differentials: tuple
    checked: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.orientation not in (HOMOLOGICAL, COHOMOLOGICAL):
            raise ValueError(f"bad orientation {self.orientation!r}")
        if len(self.differentials) != max(len(self.ranks) - 1, 0):
            raise ShapeError("differential count does not match degree range")
        for j, d in enumerate(self.differentials):
            want = ((self.ranks[j], self.ranks[j + 1])
                    if self.orientation == HOMOLOGICAL
                    else (self.ranks[j + 1], self.ranks[j]))
            if d.shape != want:
                raise ShapeError(
                    f"differential between degrees {self.min_degree + j} and "
                    f"{self.min_degree + j + 1} has shape {d.shape}, expected {want}")

    @property
    def degrees(self):
        return range(self.min_degree, self.min_degree + len(self.ranks))

    def rank(self, degree: int) -> int:
        return self.ranks[degree - self.min_degree]


def make_complex(ring: BaseRing, orientation: str, min_degree: int,
                 ranks: Sequence[int], differentials: Sequence[PAdicMatrix],
                 checked: bool = False) -> ChainComplex:
    """The complex of these differentials.  ``checked=True`` marks it with
    no product: only for a builder whose docstring proves d o d = 0."""
    C = ChainComplex(ring, orientation, min_degree, tuple(ranks),
                     tuple(differentials))
    if checked:
        object.__setattr__(C, "checked", True)
    return C


def _pairs(C: ChainComplex):
    """(degree, i, j) for each consecutive pair of differentials, in
    ascending order: ``differentials[j] @ differentials[i]`` is the
    composite, and degree is the lower degree of the pair."""
    for i in range(len(C.differentials) - 1):
        if C.orientation == HOMOLOGICAL:
            yield C.min_degree + i, i + 1, i
        else:
            yield C.min_degree + i, i, i + 1


def verify_complex(C: ChainComplex):
    """(True, None) if every consecutive composite vanishes, else (False, degree).

    The reported degree is the lower degree of the failing pair, the degree
    :func:`homology` names for the same complex.  A pass marks ``C`` as
    checked, so :func:`homology` does not check it again.
    """
    ds = C.differentials
    for deg, i, j in _pairs(C):
        if not (ds[j] @ ds[i]).is_zero():
            return False, deg
    object.__setattr__(C, "checked", True)
    return True, None


class HomologyProfile(NamedTuple):
    """Per degree: rank of the free part and a multiset of torsion exponents.

    Torsion is recorded as a sorted tuple of exponents a with 0 < a < N,
    one per elementary divisor p^a.
    """

    ring: BaseRing
    min_degree: int
    free_ranks: tuple
    torsion: tuple  # tuple of tuples of exponents

    @property
    def degrees(self):
        return range(self.min_degree, self.min_degree + len(self.free_ranks))

    def free_rank(self, degree: int) -> int:
        i = degree - self.min_degree
        return self.free_ranks[i] if 0 <= i < len(self.free_ranks) else 0

    def torsion_at(self, degree: int):
        i = degree - self.min_degree
        return self.torsion[i] if 0 <= i < len(self.torsion) else ()

    def is_zero(self) -> bool:
        return all(f == 0 for f in self.free_ranks) and all(not t for t in self.torsion)

    def nonzero_degrees(self):
        return [d for d in self.degrees
                if self.free_rank(d) or self.torsion_at(d)]

    def concentrated_in(self, degree: int) -> bool:
        """Zero in every degree but ``degree``, and free there."""
        return (set(self.nonzero_degrees()) <= {degree}
                and not self.torsion_at(degree))

    def summary(self) -> dict:
        return {str(d): {"free_rank": self.free_rank(d),
                         "torsion_exponents": list(self.torsion_at(d))}
                for d in self.degrees}


def _homology_degree(ring: BaseRing, rank: int,
                     d_out: Optional[PAdicMatrix],
                     d_in: Optional[PAdicMatrix], degree: int = 1):
    """(free rank, torsion exponents) of ker(d_out)/im(d_in) in one degree.

    The Smith form left @ d_out @ R of d_out changes coordinates on this
    degree by R, and R^-1 @ d_in writes the image in them.  A coordinate
    whose invariant is p^a contributes p^(N-a) Z/p^N, cyclic of order p^a,
    to the kernel (a = N for invariant 0 and for trailing columns).
    Dividing each row of R^-1 @ d_in by p^(N-a) writes the image in those
    generators, and the Smith form of [those rows | diag(p^a)] presents the
    quotient.

    A row that p^(N-a) does not divide is exactly a nonzero row of
    diag(p^a) @ R^-1 @ d_in, that is of d_out @ d_in up to invertible row
    operations, so the division step certifies d_out @ d_in = 0.  Otherwise
    ComplexError names ``degree - 1``, the lower end of the failing pair.
    """
    p, N = ring.p, ring.N
    vals, carried = [], d_in
    if d_out is not None:
        vals, _, right = _eliminate(d_out)
        if d_in is not None:
            carried = inverse_mod(right) @ d_in
    orders = vals + [N] * (rank - len(vals))
    rows = carried.nonzeros if carried is not None else (_EMPTY,) * rank
    ncarried = carried.cols if carried is not None else 0
    pres = []
    for row, a in zip(rows, orders):
        s = p ** (N - a)
        if any(x % s for x in row.values()):
            raise ComplexError(
                f"not a complex: d o d != 0 at degree {degree - 1}")
        if a:
            row = {j: x // s for j, x in row.items()}
            if a < N:
                row[ncarried + len(pres)] = p ** a
            pres.append(row)
    gens = len(pres)
    invariants = _eliminate(_wrap(ring, tuple(pres), gens, ncarried + gens))[0]
    return gens - len(invariants), tuple(v for v in invariants if v)


def _reduce(d: PAdicMatrix, gone_src: set, gone_tgt: set, p: int, mod: int):
    """Cancel unit entries of d: X -> Y until none is left, on the cells
    of X not in ``gone_src`` and of Y not in ``gone_tgt`` (those the maps
    reduced before d cancelled), by the Gaussian elimination lemma: for a
    unit u = d[a, b], subtract d[a, x] u^-1 d(b) from every other column x
    and delete column b and row a.  In the bases these operations give, the
    complex is the sum of b -u-> a and the reduced complex, so both have
    the same homology.  The lemma changes no other map: the entries it
    would give the row of b in the map into X and the column of a in the
    map out of Y are entries of composites with d, which vanish as
    d o d = 0, so those maps are only restricted to the cells that remain.
    Columns are swept once, in index order (a coreduction sweep: Mrozek
    and Batko, Discrete Comput. Geom. 41, 2009); a column's pivot row is
    its unit row with the fewest nonzeros, ties by index.  One pass is
    enough: a cancellation changes only columns that are still to come or
    that had no unit, and those keep none, since all they gain is a
    multiple of their own entry in the pivot row, a non-unit.

    Adds the cancelled cells to ``gone_src`` and ``gone_tgt`` and returns
    the columns: ``cols[x]`` maps each row y to a nonzero d[y, x] of the
    reduced map, or is None for a cell of X cancelled by then.
    """
    cols = [{} for _ in range(d.cols)]
    rows = []
    for y, row in enumerate(d.nonzeros):
        if y in gone_tgt:
            row = _EMPTY
        for x, v in row.items():
            cols[x][y] = v
        rows.append(set(row) - gone_src)
    for x in gone_src:
        cols[x] = None
    for b, colb in enumerate(cols):
        if not colb:
            continue
        units = [y for y, v in colb.items() if v % p]
        if not units:
            continue
        a = min(units, key=lambda y: (len(rows[y]), y))
        cols[b] = None
        for y in colb:
            rows[y].discard(b)
        u_inv = pow(colb.pop(a), -1, mod)
        for x in rows[a]:
            colx = cols[x]
            q = colx.pop(a) * u_inv
            for y, v in colb.items():
                w = (colx.get(y, 0) - q * v) % mod
                if w:
                    if y not in colx:
                        rows[y].add(x)
                    colx[y] = w
                elif y in colx:
                    del colx[y]
                    rows[y].discard(x)
        rows[a] = set()
        gone_src.add(b)
        gone_tgt.add(a)
    return cols


def homology(C: ChainComplex) -> HomologyProfile:
    """Exact homology (or cohomology) profile of a bounded complex.

    Three steps.  First, unless ``C`` is marked checked (see the module
    docstring), :func:`verify_complex` certifies d o d = 0 and
    marks ``C``; a non-complex raises ComplexError naming the degree that
    :func:`verify_complex` reports, the lower end of its first failing pair.
    Then every unit entry of every differential is cancelled with its two
    cells, one differential at a time in list order, each in one sweep of
    its columns in index order on the cells the differentials before it
    left (see :func:`_reduce`; Kaczynski, Mrozek and Slusarek, "Homology
    computation by reduction of chain complexes", 1998), which preserves
    homology exactly over Z/p^N.  Last, each degree of the much smaller
    complex that remains (each differential restricted to the cells no
    sweep cancelled, with no unit entry left) goes through the sparse Smith
    forms of :func:`_homology_degree`; a degree whose remaining
    differentials are zero is free of its remaining rank.
    """
    ring = C.ring
    p, mod = ring.p, ring.modulus
    if not C.checked:
        ok, deg = verify_complex(C)
        if not ok:
            raise ComplexError(f"not a complex: d o d != 0 at degree {deg}")
    gone = [set() for _ in C.ranks]
    homological = C.orientation == HOMOLOGICAL
    # per map: (source, target) positions; per position: (map out, map in)
    ends = [(j + 1, j) if homological else (j, j + 1)
            for j in range(len(C.differentials))]
    around = [(i - 1, i) if homological else (i, i - 1) for i in range(len(C.ranks))]
    reduced = [_reduce(d, gone[src], gone[tgt], p, mod)
               for d, (src, tgt) in zip(C.differentials, ends)]
    alive = [[x for x in range(r) if x not in g] for r, g in zip(C.ranks, gone)]
    res = []
    for cols, (src, tgt) in zip(reduced, ends):
        at = {y: i for i, y in enumerate(alive[tgt])}
        # the residual's transpose: one row per surviving cell of the source
        rows = tuple({at[y]: v for y, v in cols[x].items() if y in at}
                     for x in alive[src])
        res.append(_wrap(ring, rows, len(rows), len(at)).transpose()
                   if any(rows) else None)
    free = []
    tors = []
    for i, d in enumerate(C.degrees):
        d_out, d_in = (res[j] if 0 <= j < len(res) else None for j in around[i])
        if d_out is None and d_in is None:
            f, t = len(alive[i]), ()
        else:
            f, t = _homology_degree(ring, len(alive[i]), d_out, d_in, d)
        free.append(f)
        tors.append(t)
    return HomologyProfile(ring, C.min_degree, tuple(free), tuple(tors))


def dualize_complex(C: ChainComplex) -> ChainComplex:
    """Degreewise dual: transposed differentials, flipped orientation.

    All modules are free, so dualization is literally transposition; ranks and
    degree labels are preserved and the double dual is the original complex.
    The dual of a checked complex is checked: its composites are the
    transposes of the original's.
    """
    flipped = COHOMOLOGICAL if C.orientation == HOMOLOGICAL else HOMOLOGICAL
    return make_complex(C.ring, flipped, C.min_degree, C.ranks,
                        [d.transpose() for d in C.differentials], C.checked)
