"""The pointed partition complex: combinatorics, simplicial identities,
and reduced homology."""
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from koszulab.padic import BaseRing
from koszulab.complexes import verify_complex
from koszulab.partition import (BASEPOINT, PartitionSizeError, canonical,
                                degeneracy, discrete, face,
                                nondegenerate_simplices, one_block,
                                partition_complex, partition_homology,
                                set_partitions, strict_refinements)

from partition_helpers import (is_degenerate, refines,
                               verify_simplicial_identities)
from test_padic import assert_reduced

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_set_partition_counts_are_bell_numbers():
    for n in range(7):
        assert len(set_partitions(range(1, n + 1))) == BELL[n]


def test_canonical_form():
    assert canonical([[3, 1], [2]]) == ((1, 3), (2,))
    assert canonical([{2}, {1, 3}]) == ((1, 3), (2,))


def test_refinement_relation():
    a = canonical([[1], [2], [3]])
    b = canonical([[1, 2], [3]])
    c = canonical([[1, 2, 3]])
    assert refines(a, b) and refines(b, c) and refines(a, c)
    assert not refines(c, a)
    d = canonical([[1, 3], [2]])
    assert not refines(d, b) and not refines(b, d)


def test_strict_refinements():
    top = one_block(3)
    refs = strict_refinements(top)
    assert len(refs) == 4  # every partition of 3 elements except the top
    assert discrete(3) in refs
    assert all(refines(r, top) and r != top for r in refs)


def test_faces_and_degeneracies_basepoint():
    assert face(BASEPOINT, 0) == BASEPOINT
    assert degeneracy(BASEPOINT, 2) == BASEPOINT


def test_end_faces_hit_basepoint():
    chain = (one_block(3), discrete(3))
    assert face(chain, 0) == BASEPOINT
    assert face(chain, 1) == BASEPOINT


def test_interior_face_deletes_entry():
    mid = canonical([[1, 2], [3]])
    chain = (one_block(3), mid, discrete(3))
    assert face(chain, 1) == (one_block(3), discrete(3))


def test_degeneracy_repeats_entry_and_is_degenerate():
    chain = (one_block(3), discrete(3))
    d = degeneracy(chain, 0)
    assert d == (one_block(3), one_block(3), discrete(3))
    assert is_degenerate(d) and not is_degenerate(chain)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=20, deadline=None)
def test_simplicial_identities_on_random_degenerations(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    by_degree = nondegenerate_simplices(n)
    pool = [c for cs in by_degree.values() for c in cs]
    sample = []
    for _ in range(5):
        x = rng.choice(pool)
        for _ in range(rng.randrange(3)):
            x = degeneracy(x, rng.randrange(len(x)))
        sample.append(x)
    ok, witness = verify_simplicial_identities(sample)
    assert ok, witness


def test_nondegenerate_counts_small_n():
    # n = 3: top < bottom, and top < mid < bottom for each of the 3 mid
    # partitions into two blocks
    by3 = nondegenerate_simplices(3)
    assert {s: len(c) for s, c in by3.items()} == {1: 1, 2: 3}
    by4 = nondegenerate_simplices(4)
    assert len(by4[3]) == math.factorial(4) * math.factorial(3) // 2 ** 3


def test_partition_chain_complex_small_values():
    ring = BaseRing(3, 1)
    c2 = partition_complex(2, ring).complex
    assert c2.ranks == (0, 1)
    assert all(d.is_zero() for d in c2.differentials)
    c3 = partition_complex(3, ring).complex
    assert c3.ranks == (0, 1, 3)
    # each 2-simplex maps to plus or minus the unique 1-simplex
    top = c3.differentials[1]
    assert all(top.entries[0][j] % 3 in (1, 2) for j in range(3))
    assert partition_complex(1, ring).complex.ranks == (1,)


def test_partition_complex_is_complex():
    ring = BaseRing(2, 2)
    for n in (1, 2, 3, 4):
        data = partition_complex(n, ring)
        ok, _ = verify_complex(data.complex)
        assert ok


def test_reduced_homology_is_factorial_in_top_degree():
    for n in range(1, 6):
        for p in (2, 3):
            prof = partition_homology(n, BaseRing(p, 2))
            for d in prof.degrees:
                want = math.factorial(n - 1) if d == n - 1 else 0
                assert prof.free_rank(d) == want, (n, p, d)
                assert not prof.torsion_at(d), (n, p, d)


def test_homology_independent_of_truncation_level():
    for N in (1, 2, 3):
        prof = partition_homology(4, BaseRing(2, N))
        assert prof.free_rank(3) == 6
        assert all(not prof.torsion_at(d) for d in prof.degrees)


def test_guardrail():
    with pytest.raises(PartitionSizeError):
        partition_homology(9, BaseRing(2, 1))
    with pytest.raises(PartitionSizeError):
        nondegenerate_simplices(9)
    with pytest.raises(PartitionSizeError):
        partition_homology(0, BaseRing(2, 1))


def test_single_letter_complex():
    prof = partition_homology(1, BaseRing(3, 2))
    assert prof.free_ranks == (1,)
    assert prof.torsion == ((),)


def test_sparse_assembly_matches_dense_assembly():
    """partition_complex collects each row's nonzeros; a dense list-of-lists
    assembly, as the module once did it, gives the same differentials."""
    ring = BaseRing(2, 2)
    data = partition_complex(5, ring)
    simplices = data.simplices
    index = [{c: i for i, c in enumerate(sx)} for sx in simplices]
    for s in range(1, len(simplices)):
        dense = [[0] * len(simplices[s]) for _ in simplices[s - 1]]
        for col, chain in enumerate(simplices[s]):
            for i in range(1, s):
                row = index[s - 1][face(chain, i)]
                dense[row][col] = (dense[row][col] + (-1) ** i) % ring.modulus
        d = data.complex.differentials[s - 1]
        assert d.tolist() == dense
        assert_reduced(d, *d.shape)


def test_the_n6_build_holds_no_dense_row():
    """The n = 6 differentials have 19.8M cells and 27k nonzeros.  Built
    from their nonzeros alone the build allocates at most 32 MB at its
    peak; a dense row per row of the differentials peaked at 154 MB."""
    tracemalloc.start()
    try:
        data = partition_complex(6, BaseRing(2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.complex.ranks == (0, 1, 201, 1865, 4245, 2700)
    assert peak < 32 * 2 ** 20, peak
