"""The pointed partition complex: strict chains from the one-block to the
discrete partition of {1,...,n}, their normalized reduced chain complex (end
faces hit the basepoint), and its exact homology over Z/p^N.

Within one call each set partition is a tuple of block bitmasks (bit i-1
for letter i, blocks by least letter) interned to a small int id, and its
refinements are read off per-block split tables.  A chain is coded as one
int whose digits, ``width`` bits each, are its ids, the first id most
significant; an interior face drops one digit with two shifts and a mask,
and chains are decoded to ids and partitions only when read.
Before it enumerates, a build predicts its chain counts and refuses a size
above SIMPLEX_BUDGET unless forced."""
from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .padic import BaseRing, _wrap
from .complexes import (HOMOLOGICAL, ChainComplex, HomologyProfile,
                        homology, make_complex)

#: The most nondegenerate simplices a build makes unless forced.  n = 7 has
#: 262,760 (about 1 s and 100 MB to build); n = 8 would have 10,270,696.
SIMPLEX_BUDGET = 10 ** 6


class PartitionSizeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The partition lattice on ids
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _partitions_of_range(m: int):
    """All set partitions of range(m) as index bitmasks, in restricted-growth
    order: m - 1 joins each block of a partition of range(m - 1), then a new one."""
    if m == 0:
        return ((),)
    bit = 1 << m - 1
    return tuple(part[:j] + (part[j] | bit,) + part[j + 1:]
                 if j < len(part) else part + (bit,)
                 for part in _partitions_of_range(m - 1)
                 for j in range(len(part) + 1))


@lru_cache(maxsize=None)
def _split_keys(b: int):
    """The keys of the set partitions of block b, in restricted-growth order."""
    table = [0]                        # subset x of b's letters -> its letter mask
    for bit in (1 << i for i in range(b.bit_length()) if b >> i & 1):
        table += [t | bit for t in table]
    return tuple(sum(1 << table[x] for x in part)
                 for part in _partitions_of_range(b.bit_count()))


def id_lattice(n: int):
    """(blocks, finer): blocks[i] is partition i of {1,...,n} as bitmasks
    ordered by least letter, id 0 the one-block partition, and finer[i] the
    ids of its strict refinements: one set partition of each block, each in
    restricted-growth order, varied lexicographically over the blocks."""
    blocks = [((1 << n) - 1,)]
    ids = {1 << blocks[0][0]: 0}       # keyed by the sum of 1 << block
    finer = []
    for lam in blocks:                 # blocks grows as partitions are met
        keys = [0]
        for b in lam:
            keys = [k + x for k in keys for x in _split_keys(b)]   # product order
        out = []
        for key in itertools.islice(keys, 1, None):   # keys[0] splits no block
            i = ids.get(key)
            if i is None:
                i = ids[key] = len(blocks)
                new = []
                while key:
                    new.append((key & -key).bit_length() - 1)
                    key &= key - 1
                blocks.append(tuple(sorted(new, key=lambda b: b & -b)))  # by least letter
            out.append(i)
        finer.append(out)
    return blocks, finer


def decode(n: int, blocks, chains):
    """Per degree, the chains of ids as chains of canonical partitions."""
    part = [tuple(tuple(i + 1 for i in range(n) if b >> i & 1) for b in lam)
            for lam in blocks]
    return [[tuple(part[i] for i in c) for c in cs] for cs in chains]


def unpack(width: int, codes):
    """Per degree s, the coded chains of ``codes[s]`` as tuples of their
    s + 1 ids, first id first."""
    mask = (1 << width) - 1
    out = []
    for s, cs in enumerate(codes):
        shifts = [width * k for k in range(s, -1, -1)]
        out.append([tuple(c >> k & mask for k in shifts) for c in cs])
    return out


# ---------------------------------------------------------------------------
# Size prediction and chain enumeration
# ---------------------------------------------------------------------------

def chain_counts():
    """Yield, for n = 1, 2, ..., the strict chain counts of degree 0..n-1
    on n letters, enumerating none.  weak[k][m] counts chains of m weak steps
    on k letters: a first step splits them into blocks that go their own ways,
    so by the block of the least letter weak[k][m] = sum over j of C(k-1, j-1)
    weak[j][m-1] weak[k-j][m]; binomial inversion gives the strict counts."""
    def step(k, m):
        return sum(comb(k - 1, j - 1) * weak[j][m - 1] * weak[k - j][m]
                   for j in range(1, k + 1))

    weak = [[]]                        # weak[0][m] = 1: no letters
    for n in itertools.count(1):
        for k, row in enumerate(weak):     # column m = n - 1 for k < n
            row.append(step(k, n - 1) if k else 1)
        row = [int(n == 1)]
        weak.append(row)
        for m in range(1, n):
            row.append(step(n, m))
        yield tuple(sum((-1) ** (s - m) * comb(s, m) * row[m]
                        for m in range(s + 1)) for s in range(n))


def predicted_size(n: int) -> str:
    """The predicted size of the build on n >= 1 letters, enumerating none."""
    counts = next(itertools.islice(chain_counts(), n - 1, None))
    return f"{sum(counts):,} nondegenerate simplices (per degree {counts})"


def _check_n(n: int, force: bool):
    """Refuse n < 1 and, unless forced, a predicted simplex count above
    SIMPLEX_BUDGET.  Counts grow with n (a chain on n-1 letters, {n} added,
    one-block put first, is one on n), so prediction stops at the first size
    over the budget."""
    if n < 1:
        raise PartitionSizeError("n must be >= 1")
    if force:
        return
    for k, counts in zip(range(1, n + 1), chain_counts()):
        total = sum(counts)
        if total > SIMPLEX_BUDGET:
            size = (predicted_size(n) if k == n
                    else f"more simplices than the {total:,} of n = {k}")
            raise PartitionSizeError(
                f"n = {n} predicts {size}, above the budget of "
                f"{SIMPLEX_BUDGET:,}; pass force=True to attempt it anyway")


def _chains(n: int, force: bool):
    """(blocks, width, chains): the lattice's partitions, the bits of one id,
    and, per degree s from 0, the strict chains one-block = lambda_0 < ... <
    lambda_s = discrete, each coded as the int whose s + 1 digits of
    ``width`` bits are its ids, in lexicographic order of refinement
    position."""
    _check_n(n, force)
    blocks, finer = id_lattice(n)
    width = (len(blocks) - 1).bit_length()
    mask = (1 << width) - 1
    bottom = blocks.index(tuple(1 << i for i in range(n)))
    chains = []
    level = [0]                        # the chain (one-block,), id 0
    while level:
        chains.append([c for c in level if c & mask == bottom])
        level = [c << width | mu for c in level for mu in finer[c & mask]]
    return blocks, width, chains


def nondegenerate_simplices(n: int, force: bool = False):
    """The strict chains as tuples of canonical partitions, grouped by
    degree s (the basepoint is omitted)."""
    blocks, width, codes = _chains(n, force)
    return {s: cs for s, cs in enumerate(decode(n, blocks, unpack(width, codes)))
            if cs}


# ---------------------------------------------------------------------------
# Normalized chains and homology
# ---------------------------------------------------------------------------

class PartitionComplexData(NamedTuple):
    n: int
    complex: ChainComplex
    chains: tuple     # per degree (from 0), tuple of coded chains
    blocks: tuple     # partition id -> blocks as bitmasks
    width: int        # the bits of one id in a coded chain

    @property
    def simplices(self) -> tuple:
        """Per degree, the chains of canonical partitions, decoded when read."""
        return tuple(map(tuple, decode(self.n, self.blocks,
                                       unpack(self.width, self.chains))))


def partition_complex(n: int, ring: BaseRing,
                      force: bool = False) -> PartitionComplexData:
    """Normalized reduced chain complex: basis the nondegenerate non-basepoint
    simplices, boundary the alternating sum of the interior faces (the two end
    faces land on the collapsed basepoint).  Each entry is written once, as
    the residue 1 or p^N - 1, and the rows are wrapped as built.

    It is marked checked with no product, as the simplicial identities make
    it a complex.  Interior face i drops partition i of a chain; what is
    left is a strict chain with the same two ends, so d o d is the signed
    sum of the interior faces taken twice.  For i < j, dropping j and then
    i gives the chain that dropping i and then j - 1 gives (d_i d_j =
    d_(j-1) d_i), with signs (-1)^(i+j) and (-1)^(i+j-1), and these terms
    cancel in pairs."""
    blocks, width, chains = _chains(n, force)
    ranks = [len(cs) for cs in chains]
    minus = ring.modulus - 1
    diffs = []
    for s in range(1, len(chains)):
        index = {c: i for i, c in enumerate(chains[s - 1])}
        nonzeros = [{} for _ in range(ranks[s - 1])]   # per row: column -> entry
        # face i drops digit i: the digits above it shift down onto those below
        faces = [(width * (s - i + 1), width * (s - i), (1 << width * (s - i)) - 1,
                  minus if i & 1 else 1) for i in range(1, s)]
        for col, c in enumerate(chains[s]):
            for hi, lo, low, entry in faces:    # distinct i give distinct faces
                nonzeros[index[c >> hi << lo | c & low]][col] = entry
        diffs.append(_wrap(ring, tuple(nonzeros), ranks[s - 1], ranks[s]))
    cx = make_complex(ring, HOMOLOGICAL, 0, ranks, diffs, checked=True)
    return PartitionComplexData(n, cx, tuple(map(tuple, chains)), tuple(blocks),
                                width)


def partition_homology(n: int, ring: BaseRing,
                       force: bool = False) -> HomologyProfile:
    """Reduced homology of the pointed partition complex over Z/p^N."""
    return homology(partition_complex(n, ring, force).complex)
