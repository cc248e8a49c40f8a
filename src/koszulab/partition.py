"""The pointed simplicial set of weak chains in the partition lattice of
{1,...,n} from the one-block partition to the discrete one, its normalized
(reduced) chain complex, and exact homology over Z/p^N."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .padic import BaseRing, PAdicMatrix
from .complexes import (HOMOLOGICAL, ChainComplex, HomologyProfile,
                        homology, make_complex)

BASEPOINT = "*"

#: Hard size guardrail: the number of simplices grows faster than the Bell
#: numbers, so anything past n = 8 is rejected unless forced.
MAX_N = 8


class PartitionSizeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Set partitions
# ---------------------------------------------------------------------------

def canonical(blocks):
    """Canonical form: blocks as sorted tuples, ordered by least element."""
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


@lru_cache(maxsize=None)
def _partitions_of_range(m: int):
    """All set partitions of range(m), canonical, via restricted growth."""
    if m == 0:
        return ((),)
    out = []

    def grow(i, labels, kmax):
        if i == m:
            blocks = [[] for _ in range(kmax + 1)]
            for x, lab in enumerate(labels):
                blocks[lab].append(x)
            out.append(canonical(blocks))
            return
        for lab in range(kmax + 2):
            grow(i + 1, labels + [lab], max(kmax, lab))

    grow(1, [0], 0)
    return tuple(out)


def set_partitions(elements):
    """All partitions of a finite iterable, canonical form."""
    elements = sorted(elements)
    m = len(elements)
    result = []
    for part in _partitions_of_range(m):
        result.append(canonical(tuple(elements[i] for i in b) for b in part))
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


# ---------------------------------------------------------------------------
# The pointed simplicial set
# ---------------------------------------------------------------------------

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


def _check_n(n: int, force: bool):
    if n < 1:
        raise PartitionSizeError("n must be >= 1")
    if n > MAX_N and not force:
        raise PartitionSizeError(
            f"n = {n} exceeds the guardrail {MAX_N}; pass force=True to "
            "attempt it anyway (simplex counts grow super-exponentially)")


def nondegenerate_simplices(n: int, force: bool = False):
    """Strict chains one-block = lambda_0 < ... < lambda_s = discrete,
    grouped by degree s (the basepoint is omitted).  The refinements of each
    partition are computed once per call, however many chains pass it."""
    _check_n(n, force)
    top = one_block(n)
    bottom = discrete(n)
    by_degree = {}
    finer = {}

    def extend(chain):
        lam = chain[-1]
        if lam == bottom:
            by_degree.setdefault(len(chain) - 1, []).append(tuple(chain))
            return
        if lam not in finer:
            finer[lam] = strict_refinements(lam)
        for mu in finer[lam]:
            chain.append(mu)
            extend(chain)
            chain.pop()

    extend([top])
    return by_degree


# ---------------------------------------------------------------------------
# Normalized chains and homology
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionComplexData:
    n: int
    complex: ChainComplex
    simplices: tuple   # per degree (from 0), tuple of chains


def partition_complex(n: int, ring: BaseRing,
                      force: bool = False) -> PartitionComplexData:
    """Normalized reduced chain complex: basis the nondegenerate non-basepoint
    simplices, boundary the alternating sum of the interior faces (the two end
    faces land on the collapsed basepoint)."""
    by_degree = nondegenerate_simplices(n, force)
    top_degree = max(by_degree) if by_degree else 0
    simplices = tuple(tuple(by_degree.get(s, ())) for s in range(top_degree + 1))
    ranks = [len(sx) for sx in simplices]
    index = [{c: i for i, c in enumerate(sx)} for sx in simplices]
    diffs = []
    for s in range(1, top_degree + 1):
        nonzeros = [{} for _ in range(ranks[s - 1])]   # per row: column -> entry
        for col, chain in enumerate(simplices[s]):
            for i in range(1, s):
                row = nonzeros[index[s - 1][face(chain, i)]]
                row[col] = row.get(col, 0) + (-1) ** i
        diffs.append(PAdicMatrix.from_sparse_rows(ring, ranks[s - 1], ranks[s],
                                                  nonzeros))
    cx = make_complex(ring, HOMOLOGICAL, 0, ranks, diffs)
    return PartitionComplexData(n, cx, simplices)


def partition_homology(n: int, ring: BaseRing,
                       force: bool = False) -> HomologyProfile:
    """Reduced homology of the pointed partition complex over Z/p^N."""
    return homology(partition_complex(n, ring, force).complex)
