"""Reference predicates on the pointed partition complex that only the tests
use: the refinement order, degeneracy and the simplicial identities."""
from koszulab.partition import BASEPOINT, degeneracy, face


def refines(mu, lam) -> bool:
    """True when every block of mu lies inside a block of lam."""
    where = {}
    for j, b in enumerate(lam):
        for x in b:
            where[x] = j
    return all(len({where[x] for x in b}) == 1 for b in mu)


def is_degenerate(chain) -> bool:
    if chain == BASEPOINT:
        return True
    return any(chain[i] == chain[i + 1] for i in range(len(chain) - 1))


def verify_simplicial_identities(simplices):
    """Check every simplicial identity on each given simplex.

    Returns (True, None) or (False, witness string).
    """
    for x in simplices:
        if x == BASEPOINT:
            continue
        s = len(x) - 1
        for i in range(s + 1):
            for j in range(i + 1, s + 1):
                if face(face(x, j), i) != face(face(x, i), j - 1):
                    return False, f"d_{i} d_{j} on {x}"
        for i in range(s + 1):
            for j in range(i, s + 1):
                if degeneracy(degeneracy(x, j), i) != \
                        degeneracy(degeneracy(x, i), j + 1):
                    return False, f"s_{i} s_{j} on {x}"
        for j in range(s + 1):
            y = degeneracy(x, j)
            for i in range(s + 2):
                if i < j:
                    want = degeneracy(face(x, i), j - 1)
                elif i in (j, j + 1):
                    want = x
                else:
                    want = degeneracy(face(x, i - 1), j)
                if face(y, i) != want:
                    return False, f"d_{i} s_{j} on {x}"
    return True, None
