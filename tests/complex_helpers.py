"""Reference code on chain complexes that only the tests use: the maps in
and out of one degree, and the Euler characteristic."""
from koszulab.complexes import HOMOLOGICAL


def boundary_maps(C, degree: int):
    """(d_out, d_in) of ``C`` at the given degree; None where it ends."""
    i = degree - C.min_degree
    if not (0 <= i < len(C.ranks)):
        raise IndexError(f"degree {degree} outside complex")
    below = C.differentials[i - 1] if i > 0 else None
    above = C.differentials[i] if i < len(C.differentials) else None
    return (below, above) if C.orientation == HOMOLOGICAL else (above, below)


def euler_characteristic(C) -> int:
    return sum((-1) ** d * C.rank(d) for d in C.degrees)
