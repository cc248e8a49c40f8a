"""Bar complexes, Koszul submodules, the small Tor complex, Ext, and the
two independent Tor routes."""
import pytest

from koszulab.padic import PAdicMatrix
from koszulab.complexes import homology, verify_complex
from koszulab.algebra import (GradedAugmentedAlgebra, builtin_height1,
                              dataset_from_json, dataset_to_json, trivial_module)
from koszulab.bar import (ImageEscapesError, KoszulData, NotKoszulError,
                          bar_complex_with_module, ext_groups, koszul_complex,
                          koszul_module, tor_groups_via_bar, verify_koszulness,
                          weight_tensors)
from koszulab.isogeny import build_mic, mic_cohomology
from koszulab.synthetic import synthetic_height1_dataset

from complex_helpers import bounded_compositions, compositions
from test_call_counts import record_calls
from test_golden import sym2_dataset


def test_compositions_lex_order_and_count():
    """The weight-k bar complex's degree-s blocks are the compositions of k
    into s parts in lex order, as the first-part recursion lays them out."""
    table = weight_tensors(builtin_height1(3, 2, 5).algebra).ambient
    assert table.level(3).comps[2] == ((1, 2), (2, 1))
    assert table.level(4).comps[2] == ((1, 3), (2, 2), (3, 1))
    assert table.level(0).comps == (((),),)
    assert table.level(3).comps[0] == ()
    # 2^(k-1) compositions of k in total
    assert sum(len(c) for c in table.level(5).comps) == 16
    assert all(list(table.level(k).comps[s]) == compositions(k, s)
               for k in range(6) for s in range(k + 1))


def test_bounded_compositions():
    """The module bar complex's degree-s blocks are the compositions of
    total <= max_weight into s parts in lex order."""
    A = builtin_height1(3, 2, 3).algebra
    bc = bar_complex_with_module(KoszulData(A), trivial_module(A.coeff), 3)
    assert [b.composition for b in bc.degree_blocks(2)] == [(1, 1), (1, 2), (2, 1)]
    assert [b.composition for b in bc.degree_blocks(0)] == [()]
    assert all([b.composition for b in bc.degree_blocks(s)] ==
               bounded_compositions(s, 3) for s in range(4))


def test_bar_weight3_ranks_and_acyclicity():
    ds = builtin_height1(2, 2, 4)
    bc = KoszulData(ds.algebra).bar(3)
    assert bc.complex.ranks == (0, 1, 2, 1)
    assert [b.composition for b in bc.degree_blocks(2)] == [(1, 2), (2, 1)]
    prof = homology(bc.complex)
    assert prof.is_zero()


def test_bar_weight1_has_top_homology_rank_one():
    ds = builtin_height1(3, 1, 4)
    bc = KoszulData(ds.algebra).bar(1)
    prof = homology(bc.complex)
    assert prof.free_rank(1) == 1 and not prof.torsion_at(1)
    assert prof.free_rank(0) == 0


def test_bar_weight0_is_coefficients():
    ds = builtin_height1(3, 2, 4)
    bc = KoszulData(ds.algebra).bar(0)
    assert bc.complex.ranks == (1,)
    prof = homology(bc.complex)
    assert prof.free_rank(0) == 1


def test_bar_differential_squares_to_zero_at_all_weights():
    ds = builtin_height1(5, 3, 4)
    data = KoszulData(ds.algebra)
    for k in range(5):
        bc = data.bar(k)
        ok, _ = verify_complex(bc.complex)
        assert ok


def test_koszul_module_ranks_height1():
    ds = builtin_height1(2, 3, 4)
    data = KoszulData(ds.algebra)
    ranks = [koszul_module(data, k).rank for k in range(5)]
    assert ranks == [1, 1, 0, 0, 0]


def test_koszul_module_inclusion_is_in_kernel():
    ds = builtin_height1(3, 2, 4)
    data = KoszulData(ds.algebra)
    kd = koszul_module(data, 1)
    assert kd.inclusion.shape == (1, 1)
    bc = data.bar(1)
    # the top differential vanishes on the inclusion columns
    top = bc.complex.differentials[0]
    assert (top @ kd.inclusion).is_zero()


def test_verify_koszulness_builtin():
    ds = builtin_height1(3, 2, 4)
    rep = verify_koszulness(KoszulData(ds.algebra))
    assert rep.passed
    assert rep.c_ranks == (1, 1, 0, 0, 0)
    assert "pass" in str(rep)


def test_non_koszul_detection():
    # weight-2 component of rank 1 but multiplication 1x1 -> rank-1 weight-2
    # replaced by the zero map: the weight-2 bar homology acquires a bottom
    # class, so concentration fails
    ds = builtin_height1(3, 2, 2)
    A = ds.algebra
    bad_mult = {(1, 1): PAdicMatrix(ds.ring, [[0]], 1, 1)}
    bad = GradedAugmentedAlgebra(A.coeff, A.q_label, 2, A.components, bad_mult)
    rep = verify_koszulness(KoszulData(bad))
    assert not rep.passed
    with pytest.raises(NotKoszulError):
        koszul_module(KoszulData(bad), 2)


def test_koszul_complex_trivial_module_zero_differential():
    for p, N in [(2, 1), (3, 2), (5, 3)]:
        ds = builtin_height1(p, N, 4)
        kc = koszul_complex(KoszulData(ds.algebra), ds.module("triv"))
        assert all(d.is_zero() for d in kc.complex.differentials)
        prof = homology(kc.complex)
        assert tuple(prof.free_ranks) == kc.c_ranks == (1, 1, 0, 0, 0)
        assert all(not t for t in prof.torsion)


def test_koszul_complex_sphere_is_acyclic():
    ds = builtin_height1(3, 2, 4)
    kc = koszul_complex(KoszulData(ds.algebra), ds.module("sphere"))
    prof = homology(kc.complex)
    assert prof.is_zero()


def test_ext_profiles_height1():
    ds = builtin_height1(2, 2, 4)
    data = KoszulData(ds.algebra)
    ext_triv = ext_groups(data, ds.module("triv"))
    assert ext_triv.free_ranks == (1, 1, 0, 0, 0)
    ext_sphere = ext_groups(data, ds.module("sphere"))
    assert ext_sphere.is_zero()


def test_module_bar_complex_is_complex_and_matches_tor():
    for seed in range(5):
        ds = synthetic_height1_dataset(3, 2, 4, seed)
        for name in ("triv", "sphere"):
            M = ds.module(name)
            bc = bar_complex_with_module(KoszulData(ds.algebra), M, 4)
            ok, _ = verify_complex(bc.complex)
            assert ok
            t1 = KoszulData(ds.algebra).tor(M)
            t2 = tor_groups_via_bar(KoszulData(ds.algebra), M)
            for s in range(5):
                assert t1.free_rank(s) == t2.free_rank(s), (seed, name, s)
                assert t1.torsion_at(s) == t2.torsion_at(s), (seed, name, s)


def test_synthetic_algebras_are_koszul():
    for seed in (0, 1, 2):
        ds = synthetic_height1_dataset(2, 3, 4, seed)
        rep = verify_koszulness(KoszulData(ds.algebra))
        assert rep.passed
        assert rep.c_ranks == (1, 1, 0, 0, 0)


def test_bar_weight_exceeding_max_weight_rejected():
    ds = builtin_height1(2, 2, 3)
    with pytest.raises(Exception):
        KoszulData(ds.algebra).bar(7)


def escaping_action(doc):
    """An off-diagonal entry of 1 in the weight-1 right action: the action
    fails unitality and does not preserve C[2]."""
    weight1 = next(c for c in doc["algebra"]["components"] if c["k"] == 1)
    weight1["right_action"][0][0][1] = 1


def escaping_sym2():
    """Sym^2 with `escaping_action`, read without validation (which it
    fails)."""
    doc = dataset_to_json(sym2_dataset())
    escaping_action(doc)
    return dataset_from_json(doc, validate=False)


@pytest.mark.parametrize("route", [koszul_complex, ext_groups, KoszulData.tor],
                         ids=["koszul_complex", "ext_groups", "tor"])
def test_action_that_escapes_c_raises_with_witness(route):
    """On `escaping_sym2` each route that builds C[2] with its coefficient
    actions (the Koszul complex, and Ext and Tor, which read it) raises
    ImageEscapesError naming C[2]; its bar complexes are still complexes."""
    ds = escaping_sym2()
    data = KoszulData(ds.algebra)
    with pytest.raises(ImageEscapesError) as exc:
        route(data, ds.module("triv"))
    assert str(exc.value) == "coefficient action does not preserve C[2]"


def test_mic_does_not_read_the_actions_of_c(monkeypatch):
    """On the same escaping dataset the order-p^2 comparison reads C[2]'s
    rank only: it builds no coefficient action of C[2], so it does not
    fail, and the subgroup complex is concentrated with that rank."""
    ds = escaping_sym2()
    data = KoszulData(ds.algebra)
    calls = record_calls(monkeypatch)
    _, cmp_ = mic_cohomology(data, build_mic(ds.subgroup_package, 2))
    assert cmp_["matches"]
    assert not [c for c in calls if c[0] == "bar._induced_bimodule"]
