"""Reference code on chain complexes that only the tests use: the maps in
and out of one degree, the Euler characteristic, the compositions that
index the bar, module-bar and subgroup complexes, enumerated apart from the
builders' recursion, and a signed sum of placed blocks."""
from koszulab.complexes import HOMOLOGICAL
from koszulab.padic import PAdicMatrix


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
