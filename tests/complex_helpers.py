"""Reference code on chain complexes that only the tests use: the maps in
and out of one degree, the Euler characteristic, and the compositions that
index the bar, module-bar and subgroup complexes, enumerated apart from the
builders' recursion."""
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


def compositions(total: int, parts: int):
    """All compositions of ``total`` into exactly ``parts`` positive parts, lex order."""
    if parts == 0:
        return [()] if total == 0 else []
    return [(first,) + rest for first in range(1, total + 1)
            for rest in compositions(total - first, parts - 1)]


def bounded_compositions(parts: int, max_total: int):
    """Compositions of any total <= max_total into exactly ``parts`` positive
    parts, lex order."""
    return sorted(c for total in range(max_total + 1)
                  for c in compositions(total, parts))
