"""A module's bar complex and Koszul complex are the same whether they are
built through a `KoszulData` that other modules, of the same or another
rank, have used before, or through a fresh one: differentials, ranks,
blocks and Tor are equal both ways.  A module of another rank over the
same algebra gets its own blocks and maps: Tor of M (+) M is twice Tor of
M by both routes."""
import pytest

from koszulab.algebra import LeftModule, builtin_height1, validate_module
from koszulab.bar import (KoszulData, bar_complex_with_module, koszul_complex,
                          tor_groups_via_bar)
from koszulab.complexes import HomologyProfile
from koszulab.padic import PAdicMatrix

from test_assemble import dual_number_dataset
from test_golden import sym2_dataset


def builtin_p3_N2_k5():
    return builtin_height1(3, 2, 5)


def doubled(M: LeftModule, name: str) -> LeftModule:
    """M (+) M: twice the generators, each weight acting block-diagonally.
    Base coordinate g*b + i is coordinate i of copy g (b = M.base_rank), and
    ambient coordinate d*2b + g*b + i pairs component basis d with it."""
    ring, b = M.coeff.ring, M.base_rank
    action = {}
    for k, act in M.action.items():
        r = act.cols // b
        rows = [[0] * (2 * r * b) for _ in range(2 * b)]
        for g in range(2):
            for i in range(b):
                for d in range(r):
                    for c in range(b):
                        rows[g * b + i][d * 2 * b + g * b + c] = act[i, d * b + c]
        action[k] = PAdicMatrix(ring, rows, 2 * b, 2 * r * b)
    return LeftModule(name, M.coeff, 2 * M.rank, action)


def twice(prof: HomologyProfile) -> HomologyProfile:
    return HomologyProfile(prof.ring, prof.min_degree,
                           tuple(2 * f for f in prof.free_ranks),
                           tuple(tuple(sorted(t + t)) for t in prof.torsion))


def with_doubles(ds):
    """``ds`` with M (+) M added for each of its modules M."""
    for name, M in list(ds.modules.items()):
        ds.modules[name + "2"] = doubled(M, name + "2")
    return ds


@pytest.mark.parametrize("factory", [builtin_p3_N2_k5, sym2_dataset,
                                     dual_number_dataset])
def test_shared_and_fresh_builds_agree(factory):
    ds = with_doubles(factory())
    A = ds.algebra
    shared = KoszulData(A)
    for M in ds.modules.values():
        # differentials, ranks, blocks (tensors and offsets) and module name
        assert bar_complex_with_module(shared, M, A.max_weight) == \
            bar_complex_with_module(KoszulData(A), M, A.max_weight)
        assert shared.koszul_complex(M) == koszul_complex(KoszulData(A), M)
        assert shared.tor(M) == KoszulData(A).tor(M)
        assert tor_groups_via_bar(shared, M) == tor_groups_via_bar(KoszulData(A), M)


@pytest.mark.parametrize("factory,name", [(builtin_p3_N2_k5, "sphere"),
                                          (builtin_p3_N2_k5, "triv"),
                                          (dual_number_dataset, "regular"),
                                          (dual_number_dataset, "triv")])
def test_a_module_of_twice_the_rank_has_twice_the_tor(factory, name):
    """sphere (+) sphere in the built-in dataset, whose modules both have
    rank 1, and the same over a coefficient algebra of rank 2; Tor of triv
    is nonzero, Tor of sphere and of regular zero.  Over the dual numbers
    the small complex's degree-0 term is M itself, not E0 (x)_Z M, so both
    routes run there."""
    ds = factory()
    A = ds.algebra
    M = ds.module(name)
    M2 = doubled(M, name + "2")
    assert validate_module(A, M2).passed
    data = KoszulData(A)
    once = data.tor(M)
    assert tor_groups_via_bar(data, M) == once
    assert once.is_zero() == (name != "triv")
    assert data.tor(M2) == twice(once)
    assert tor_groups_via_bar(data, M2) == twice(once)
