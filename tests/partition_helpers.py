"""Reference code on the pointed partition complex that only the tests use:
set partitions and refinements in canonical form, the simplicial structure
(faces, degeneracies and their identities), the refinement order, and
Björner's EL-labelling of the maximal chains."""
import itertools

from koszulab.partition import _partitions_of_range

BASEPOINT = "*"


def canonical(blocks):
    """Canonical form: blocks as sorted tuples, ordered by least element."""
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


def set_partitions(elements):
    """All partitions of a finite iterable, canonical form."""
    elements = sorted(elements)
    m = len(elements)
    result = []
    for part in _partitions_of_range(m):
        result.append(canonical(tuple(e for i, e in enumerate(elements) if b >> i & 1)
                                for b in part))
    return result


def one_block(n: int):
    return canonical([range(1, n + 1)])


def discrete(n: int):
    return canonical([i] for i in range(1, n + 1))


def strict_refinements(lam):
    """All partitions strictly finer than lam, canonical form."""
    choices = [set_partitions(b) for b in lam]
    out = []
    for combo in itertools.product(*choices):
        if all(len(part) == 1 for part in combo):
            continue  # nothing split: lam itself
        out.append(canonical(itertools.chain.from_iterable(combo)))
    return out


def face(chain, i: int):
    """d_i deletes lambda_i.  Deleting an end element breaks the boundary
    conditions (the chain must run from the one-block partition to the
    discrete one), so the result collapses to the basepoint — unless the end
    element is repeated, in which case the conditions survive.  On strict
    chains this is the usual rule "the two end faces hit the basepoint"."""
    if chain == BASEPOINT:
        return BASEPOINT
    s = len(chain) - 1
    if s == 0:
        raise IndexError("no faces in degree 0")
    if not 0 <= i <= s:
        raise IndexError(f"face index {i} outside 0..{s}")
    if i == 0:
        return chain[1:] if chain[0] == chain[1] else BASEPOINT
    if i == s:
        return chain[:-1] if chain[s - 1] == chain[s] else BASEPOINT
    return chain[:i] + chain[i + 1:]


def degeneracy(chain, i: int):
    """s_i repeats lambda_i."""
    if chain == BASEPOINT:
        return BASEPOINT
    s = len(chain) - 1
    if not 0 <= i <= s:
        raise IndexError(f"degeneracy index {i} outside 0..{s}")
    return chain[:i + 1] + chain[i:]


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


def el_labels(chain):
    """Björner's EL-labelling of a maximal chain, read bottom-up: the cover
    that merges blocks B and B' is labelled max(min B, min B')."""
    labels = []
    for coarse, fine in zip(chain[-2::-1], chain[::-1]):
        merged = set(fine) - set(coarse)
        if len(merged) != 2:
            raise ValueError(f"{fine} -> {coarse} is not a cover")
        labels.append(max(b[0] for b in merged))
    return labels


def falling_and_rising(maximal_chains):
    """How many of the maximal chains have strictly falling labels, and how
    many strictly rising.  In an EL-shellable lattice the falling chains
    count the top homology and exactly one chain rises (Björner 1980)."""
    falling = rising = 0
    for chain in maximal_chains:
        labels = el_labels(chain)
        falling += all(a > b for a, b in zip(labels, labels[1:]))
        rising += all(a < b for a, b in zip(labels, labels[1:]))
    return falling, rising
