"""Bounded complexes of finite free Z/p^N-modules and their exact homology."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .padic import (BaseRing, PAdicMatrix, ExactLinalgError, ShapeError,
                    _eliminate)

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
    """

    ring: BaseRing
    orientation: str
    min_degree: int
    ranks: tuple
    differentials: tuple

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

    def boundary_maps(self, degree: int):
        """(d_out, d_in) for the given degree; None where the complex ends."""
        i = degree - self.min_degree
        if not (0 <= i < len(self.ranks)):
            raise IndexError(f"degree {degree} outside complex")
        if self.orientation == HOMOLOGICAL:
            d_out = self.differentials[i - 1] if i > 0 else None
            d_in = self.differentials[i] if i < len(self.differentials) else None
        else:
            d_out = self.differentials[i] if i < len(self.differentials) else None
            d_in = self.differentials[i - 1] if i > 0 else None
        return d_out, d_in

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * self.rank(d) for d in self.degrees)


def make_complex(ring: BaseRing, orientation: str, min_degree: int,
                 ranks: Sequence[int],
                 differentials: Sequence[PAdicMatrix]) -> ChainComplex:
    return ChainComplex(ring, orientation, min_degree, tuple(ranks),
                        tuple(differentials))


def verify_complex(C: ChainComplex):
    """(True, None) if every consecutive composite vanishes, else (False, degree).

    The reported degree is the lower degree of the failing pair.
    """
    for j in range(len(C.differentials) - 1):
        if C.orientation == HOMOLOGICAL:
            comp = C.differentials[j] @ C.differentials[j + 1]
            deg = C.min_degree + j
        else:
            comp = C.differentials[j + 1] @ C.differentials[j]
            deg = C.min_degree + j
        if not comp.is_zero():
            return False, deg
    return True, None


@dataclass(frozen=True)
class HomologyProfile:
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

    def summary(self) -> dict:
        return {str(d): {"free_rank": self.free_rank(d),
                         "torsion_exponents": list(self.torsion_at(d))}
                for d in self.degrees}


def _homology_degree(ring: BaseRing, rank: int,
                     d_out: Optional[PAdicMatrix],
                     d_in: Optional[PAdicMatrix], degree: int = 1):
    """(free rank, torsion exponents) of ker(d_out)/im(d_in) in one degree.

    Eliminating d_out changes coordinates on this degree by some R; d_in is
    carried along as R^-1 @ d_in.  A coordinate whose invariant is p^a
    contributes p^(N-a) Z/p^N, cyclic of order p^a, to the kernel (a = N for
    invariant 0 and for trailing columns).  Dividing each carried row by
    p^(N-a) writes the image in those generators, and a second elimination
    of [carried rows | diag(p^a)] presents the quotient.

    A carried row that p^(N-a) does not divide is exactly a nonzero row of
    diag(p^a) @ R^-1 @ d_in, that is of d_out @ d_in up to invertible row
    operations, so the division step certifies d_out @ d_in = 0.  Otherwise
    ComplexError names ``degree - 1``, the lower end of the failing pair.
    """
    p, N, mod = ring.p, ring.N, ring.modulus
    rows = [list(r) for r in d_out.entries] if d_out is not None else []
    carried = ([list(r) for r in d_in.entries] if d_in is not None
               else [[] for _ in range(rank)])
    vals = _eliminate(rows, rank, ring, companion=carried)
    orders = vals + [N] * (rank - len(vals))
    gens = sum(1 for a in orders if a)
    pres = []
    for row, a in zip(carried, orders):
        s = p ** (N - a)
        if any(x % s for x in row):
            raise ComplexError(
                f"not a complex: d o d != 0 at degree {degree - 1}")
        if a:
            rel = [0] * gens
            rel[len(pres)] = p ** a % mod
            pres.append([x // s for x in row] + rel)
    ncarried = d_in.cols if d_in is not None else 0
    invariants = _eliminate(pres, ncarried + gens, ring)
    return gens - len(invariants), tuple(v for v in invariants if v)


def homology(C: ChainComplex) -> HomologyProfile:
    """Exact homology (or cohomology) profile of a bounded complex.

    d o d = 0 is checked here, for free, by each degree's elimination, which
    certifies its own pair exactly (see :func:`_homology_degree`), and not
    again with :func:`verify_complex`; the builders of bar, Koszul and
    subgroup complexes run that once, when they build.  Degrees are scanned
    in ascending order, so a non-complex raises ComplexError naming the lower
    degree of its first failing pair, the degree :func:`verify_complex`
    reports.
    """
    free = []
    tors = []
    for d in C.degrees:
        d_out, d_in = C.boundary_maps(d)
        f, t = _homology_degree(C.ring, C.rank(d), d_out, d_in, d)
        free.append(f)
        tors.append(t)
    return HomologyProfile(C.ring, C.min_degree, tuple(free), tuple(tors))


def dualize_complex(C: ChainComplex) -> ChainComplex:
    """Degreewise dual: transposed differentials, flipped orientation.

    All modules are free, so dualization is literally transposition; ranks and
    degree labels are preserved and the double dual is the original complex.
    """
    flipped = COHOMOLOGICAL if C.orientation == HOMOLOGICAL else HOMOLOGICAL
    return ChainComplex(C.ring, flipped, C.min_degree, C.ranks,
                        tuple(d.transpose() for d in C.differentials))
