"""The prefix tables of iterated tensors: every entry equals the tensor that
`iterated_tensor` (or `flag_tensor`) builds from scratch, the bar blocks hold
the table's own entries over a coefficient algebra of rank > 1 and are read
off the ambient levels over one of rank 1, and a command leaves no tensor
or matrix in a reference cycle."""
import gc

import pytest

from koszulab.algebra import (Bimodule, LeftModule, TensorTable, builtin_height1,
                              identity_tensor, iterated_tensor, save_dataset)
from koszulab.bar import (AmbientTable, KoszulData, bar_complex_with_module,
                          tor_groups_via_bar, weight_tensors)
from koszulab.cli import EXIT_PASS, run
from koszulab.isogeny import build_mic, flag_tensor, flag_tensors
from koszulab.padic import PAdicMatrix

from complex_helpers import bounded_compositions
from test_algebra import dual_numbers
from test_assemble import dual_number_dataset
from test_golden import sym2_dataset

MAX_TOTAL = 4


def all_compositions(max_total):
    return [c for s in range(1, max_total + 1)
            for c in bounded_compositions(s, max_total)]


def assert_same_tensor(got, want):
    assert got.bimodule == want.bimodule
    assert got.proj_full == want.proj_full
    assert got.sect_full == want.sect_full
    assert got.factor_ranks == want.factor_ranks


def sums_of_regular(coeff):
    """Weight k is E0^k, the sum of k copies of the regular bimodule."""
    ring = coeff.ring

    def factor(k):
        acts = tuple(PAdicMatrix.identity(ring, k).kron(coeff.regular_left(a))
                     for a in range(coeff.rank))
        return Bimodule(ring, coeff, k * coeff.rank, acts, acts)
    return factor


def test_table_equals_iterated_tensor_over_a_rank_2_coefficient_algebra():
    coeff = dual_numbers()
    factor = sums_of_regular(coeff)
    empty = identity_tensor(coeff.as_bimodule())
    table = TensorTable(factor, empty)
    assert table[()] is empty
    for comp in all_compositions(MAX_TOTAL):
        assert_same_tensor(table[comp], iterated_tensor([factor(k) for k in comp]))
    # lookups in another order reuse the entries already built
    assert table[(1, 2, 1)] is table[(1, 2, 1)]


def test_weight_table_equals_iterated_tensor_on_sym2():
    A = sym2_dataset().algebra
    table = weight_tensors(A)
    for comp in reversed(all_compositions(MAX_TOTAL)):
        assert_same_tensor(table[comp], iterated_tensor([A.component(k) for k in comp]))


def test_flag_table_equals_flag_tensor():
    for ds in (builtin_height1(3, 2, MAX_TOTAL), sym2_dataset()):
        pkg = ds.subgroup_package
        table = flag_tensors(pkg)
        for comp in [()] + all_compositions(MAX_TOTAL):
            assert_same_tensor(table[comp], flag_tensor(pkg, comp))


def test_bar_blocks_hold_the_table_entries():
    """Over a coefficient algebra of rank > 1 (the dual numbers) each bar
    block holds the table's own tensor."""
    data = KoszulData(dual_number_dataset().algebra)
    bc = data.bar(4)
    for s in bc.complex.degrees:
        for b in bc.degree_blocks(s):
            assert b.tensor is data.tensors[b.composition]


@pytest.mark.parametrize("factory", [lambda: builtin_height1(3, 2, 6), sym2_dataset],
                         ids=["builtin_p3_N2_k6", "sym2_dataset"])
def test_rank_1_blocks_are_read_off_the_ambient_level(factory):
    """Over a coefficient algebra of rank 1 the bar, subgroup and module bar
    blocks hold no tensor: each is (composition, start, rank) of its
    ambient level."""
    ds = factory()
    A, pkg = ds.algebra, ds.subgroup_package
    assert A.coeff.rank == 1
    data = KoszulData(A)
    built = []
    for k in range(A.max_weight + 1):
        built.append((data.bar(k).blocks, data.tensors.ambient.level(k), 0))
    for k in range(1, pkg.max_order + 1):
        built.append((build_mic(pkg, k).blocks, pkg.flags.ambient.level(k), 1))
    for M in ds.modules.values():
        actions = {k: M.weight_action(k, A.rank(k)) for k in range(1, A.max_weight + 1)}
        level = AmbientTable(A.coeff.ring, A.rank, lambda x, y: A.mult[(x, y)],
                             empty=M.base_rank, action=actions).level(A.max_weight)
        built.append((bar_complex_with_module(data, M, A.max_weight).blocks, level, 0))
    for blocks, level, low in built:
        for s, degree in enumerate(blocks, low):
            assert all(b.tensor is None for b in degree)
            assert [b[:3] for b in degree] == \
                list(zip(level.comps[s], level.starts[s], level.dims[s]))


def test_a_module_of_rank_zero_has_zero_tor_by_both_routes():
    A = builtin_height1(3, 2, 4).algebra
    M = LeftModule("zero", A.coeff, 0, {})
    data = KoszulData(A)
    via_bar = tor_groups_via_bar(data, M)
    assert via_bar.summary() == data.tor(M).summary()
    assert not any(via_bar.free_ranks) and not any(via_bar.torsion)


def test_verify_leaves_no_tensor_or_matrix_in_a_cycle(tmp_path):
    path = tmp_path / "h1.json"
    save_dataset(builtin_height1(3, 2, 5), path)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _, code = run(["verify", str(path), "--suite", "all", "--json"])
        gc.collect()
        cyclic = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert code == EXIT_PASS
    assert not cyclic & {"IteratedTensor", "PAdicMatrix", "TensorTable"}
