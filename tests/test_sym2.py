"""Sym(V) with rank V = 2: the one shipped-shape dataset whose weight
components have rank > 1, so it is the test that pins the index layout of
the face maps I_pre (x) m (x) I_post in the bar, module-bar and subgroup
complexes."""
from koszulab.bar import KoszulData, tor_groups_via_bar, verify_koszulness
from koszulab.isogeny import build_mic, dualize_bar_to_mic

from test_golden import sym2_dataset


def test_sym2_validates_and_c_ranks_are_binomial():
    ds = sym2_dataset()
    assert ds.validate().passed
    rep = verify_koszulness(KoszulData(ds.algebra))
    assert rep.passed, str(rep)
    assert rep.c_ranks == (1, 2, 1, 0, 0, 0)


def test_sym2_c_ranks_at_kmax_8():
    """Weight 8 has a top bar degree of rank 2^8, so C[k] for every k up to
    8 goes through kernels and solves of matrices with hundreds of columns."""
    ds = sym2_dataset(kmax=8)
    rep = verify_koszulness(KoszulData(ds.algebra))
    assert rep.passed, str(rep)
    assert rep.c_ranks == (1, 2, 1) + (0,) * 6


def test_sym2_tor_agrees_by_both_routes():
    ds = sym2_dataset()
    for M in ds.modules.values():
        assert KoszulData(ds.algebra).tor(M).summary() == \
            tor_groups_via_bar(KoszulData(ds.algebra), M).summary(), M.name


def test_sym2_dual_bar_complex_is_the_subgroup_complex():
    ds = sym2_dataset()
    pkg = ds.subgroup_package
    # degree-s rank: sum over compositions of 3 into s parts of prod (k_i + 1)
    assert build_mic(pkg, 3).complex.ranks == (4, 12, 8)
    data = KoszulData(ds.algebra)
    for k in range(6):
        res = dualize_bar_to_mic(data, pkg, k)
        assert res.commutes, (k, res.witness)
