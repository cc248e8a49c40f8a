"""The pointed partition complex: combinatorics, simplicial identities,
the size guardrail, and reduced homology."""
import functools
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from koszulab import partition
from koszulab.padic import BaseRing, PAdicMatrix
from koszulab.complexes import verify_complex
from koszulab.partition import (SIMPLEX_BUDGET, PartitionSizeError,
                                chain_counts, decode, id_lattice,
                                nondegenerate_simplices, partition_complex,
                                partition_homology, unpack)

from partition_helpers import (BASEPOINT, canonical, degeneracy, discrete,
                               face, falling_and_rising, is_degenerate,
                               one_block, refines, set_partitions,
                               strict_refinements,
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
    from coded chains and their nonzeros alone the build allocates about
    2.7 MB at its peak, and must stay below 8 MB; chains as tuples of ids
    peaked at 4.4 MB, and a dense row per row of the differentials at
    154 MB."""
    tracemalloc.start()
    try:
        data = partition_complex(6, BaseRing(2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.complex.ranks == (0, 1, 201, 1865, 4245, 2700)
    assert peak < 8 * 2 ** 20, peak


BENCH_RINGS = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2))


def encode(width, ids):
    """The coded chain of ``ids``: one ``width``-bit digit each, first id
    most significant."""
    return functools.reduce(lambda c, i: c << width | i, ids, 0)


@pytest.mark.parametrize("p,N", BENCH_RINGS)
def test_coded_faces_equal_the_faces_of_sliced_id_tuples(p, N):
    """Each differential, whose faces drop a digit of a coded chain by
    shifts, equals the one assembled from faces found by slicing the id
    tuples, over Z/2 too where -1 = 1; its entries, written without a
    second reduction, are residues in [1, p^N) at columns in range."""
    ring = BaseRing(p, N)
    for n in range(1, 6):
        data = partition_complex(n, ring)
        ids = unpack(data.width, data.chains)
        assert [[encode(data.width, c) for c in cs] for cs in ids] == \
            list(map(list, data.chains))
        for s in range(1, len(ids)):
            index = {c: i for i, c in enumerate(ids[s - 1])}
            rows = [{} for _ in ids[s - 1]]
            for col, c in enumerate(ids[s]):
                for i in range(1, s):
                    rows[index[c[:i] + c[i + 1:]]][col] = (-1) ** i
            d = data.complex.differentials[s - 1]
            assert d == PAdicMatrix.from_sparse_rows(ring, len(ids[s - 1]),
                                                     len(ids[s]), rows), (n, s)
            assert_reduced(d, *d.shape)


def test_a_code_wider_than_64_bits_decodes_exactly():
    """At n = 7 an id takes 10 bits and a top chain 7 of them.  A chain
    starts at id 0, so its code has at most 60 significant bits, but
    decoding must not depend on that: a 70-bit code, built here without
    building n = 7, gives back every digit."""
    assert (BELL[7] - 1).bit_length() == 10
    chains = [(0, 1023, 512, 1, 876, 0, 1022), (1023, 0, 876, 1, 512, 1023, 0)]
    codes = [encode(10, c) for c in chains]
    assert codes[1].bit_length() == 70
    assert unpack(10, [[]] * 6 + [codes])[6] == chains


def test_id_lattice_refinements_are_strict_refinements_in_order():
    """Each id's refinement list decodes to strict_refinements' list, in
    the same order, so chains and differentials keep their order."""
    for n in range(1, 7):
        blocks, finer = id_lattice(n)
        assert len(blocks) == BELL[n]
        part = decode(n, blocks, [[tuple(range(len(blocks)))]])[0][0]
        assert part[0] == one_block(n)
        for lam, refs in zip(part, finer):
            assert [part[i] for i in refs] == strict_refinements(lam), (n, lam)


def test_simplices_decode_the_chains_of_nondegenerate_simplices():
    data = partition_complex(5, BaseRing(3, 1))
    by_degree = nondegenerate_simplices(5)
    assert data.simplices == tuple(tuple(by_degree.get(s, ()))
                                   for s in range(5))
    for cs in data.simplices:
        assert len(set(cs)) == len(cs)
        for c in cs:
            assert c[0] == one_block(5) and c[-1] == discrete(5)
            assert all(refines(b, a) and a != b for a, b in zip(c, c[1:]))


N7_COUNTS = (0, 1, 875, 16674, 74165, 114345, 56700)
N8_COUNTS = (0, 1, 4138, 155477, 1208830, 3394790, 3919860, 1587600)


def test_predicted_counts_equal_enumerated_counts():
    for n, counts in zip(range(1, 7), chain_counts()):
        by_degree = nondegenerate_simplices(n)
        assert counts == tuple(len(by_degree.get(s, ())) for s in range(n))


def _refuse_to_enumerate(n):
    raise AssertionError(f"the guardrail let n = {n} through to enumeration")


def test_predicted_counts_at_n7_and_n8_without_enumerating(monkeypatch):
    monkeypatch.setattr(partition, "id_lattice", _refuse_to_enumerate)
    counts = list(itertools.islice(chain_counts(), 8))
    assert counts[6] == N7_COUNTS and sum(N7_COUNTS) == 262760
    assert counts[7] == N8_COUNTS and sum(N8_COUNTS) == 10270696
    # the top degree counts maximal chains: n!(n-1)!/2^(n-1)
    assert all(c[-1] == math.factorial(n) * math.factorial(n - 1) // 2 ** (n - 1)
               for n, c in enumerate(counts, 1))


def test_guardrail_refuses_n8_and_n9_before_enumerating(monkeypatch):
    monkeypatch.setattr(partition, "id_lattice", _refuse_to_enumerate)
    with pytest.raises(PartitionSizeError) as exc:
        partition_complex(8, BaseRing(2, 1))
    assert "10,270,696" in str(exc.value) and str(N8_COUNTS) in str(exc.value)
    assert f"{SIMPLEX_BUDGET:,}" in str(exc.value)
    for n in (9, 10 ** 6):    # prediction stops at the first size over
        with pytest.raises(PartitionSizeError, match="10,270,696 of n = 8"):
            nondegenerate_simplices(n)
        with pytest.raises(PartitionSizeError):
            partition_homology(n, BaseRing(2, 1))


def test_force_passes_the_guardrail(monkeypatch):
    monkeypatch.setattr(partition, "id_lattice", _refuse_to_enumerate)
    with pytest.raises(AssertionError, match="n = 8"):
        partition_complex(8, BaseRing(2, 1), force=True)
    assert sum(N7_COUNTS) <= SIMPLEX_BUDGET < sum(N8_COUNTS)


def test_el_labelling_has_factorial_falling_chains_and_one_rising():
    """Björner's EL-labelling of the partition lattice: (n-1)! falling
    maximal chains, the rank of the top homology, and one rising chain.
    The check reads the enumerated chains only, not the elimination."""
    for n in range(2, 7):
        top = partition_complex(n, BaseRing(2, 1)).simplices[n - 1]
        assert falling_and_rising(top) == (math.factorial(n - 1), 1), n
