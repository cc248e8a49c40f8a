"""Reference code on chain complexes that only the tests use: the maps in
and out of one degree, the Euler characteristic, the compositions that
index the bar, module-bar and subgroup complexes, enumerated apart from the
builders' recursion, a signed sum of placed blocks, the flag module of one
composition folded afresh, and a dataset with one pairing perturbed."""
import random

from koszulab.algebra import Dataset, identity_tensor, iterated_tensor
from koszulab.complexes import HOMOLOGICAL
from koszulab.isogeny import SubgroupAlgebraPackage
from koszulab.padic import PAdicMatrix
from koszulab.synthetic import random_unit


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


def flag_tensor(pkg, composition):
    """The flag module S_{p^{k_1}} (x)_{E0} ... (x)_{E0} S_{p^{k_s}},
    folded from scratch, apart from the package's prefix table."""
    if not composition:
        return identity_tensor(pkg.coeff.as_bimodule())
    return iterated_tensor([pkg.orders[k].bimodule for k in composition])


def perturb_pairing(ds, seed: int):
    """Copy of the dataset with one pairing scalar multiplied by a unit != 1.

    Every complex stays a complex, but the bar-dual comparison with the
    subgroup package must now fail (for kmax >= 2).
    """
    pkg = ds.subgroup_package
    rng = random.Random(("koszulab-perturb", seed).__repr__())
    ring = ds.algebra.coeff.ring
    ks = sorted(pkg.pairing)
    k = ks[rng.randrange(len(ks))]
    while True:
        u = random_unit(rng, ring)
        if u != 1:
            break
    new_pairing = dict(pkg.pairing)
    new_pairing[k] = pkg.pairing[k].scale(u)
    new_pkg = SubgroupAlgebraPackage(pkg.coeff, pkg.orders, pkg.t_maps,
                                     pkg.u1, pkg.shift, new_pairing)
    return Dataset(ds.p, ds.N, ds.height_label, ds.q_label,
                   ds.provenance + f" [pairing perturbed at weight {k}]",
                   ds.algebra, ds.modules, new_pkg)
