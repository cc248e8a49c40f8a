"""Subgroup-algebra packages: the flag complex, its cohomology, duality with
the bar complex, and the shift square."""
from functools import reduce

import pytest

from koszulab.padic import PAdicMatrix, inverse_mod
from koszulab.complexes import ComplexError, homology, verify_complex
from koszulab.algebra import (CoefficientAlgebra, builtin_height1, canonical_json,
                              dataset_from_json, dataset_to_json)
from koszulab.bar import KoszulData, koszul_module
from koszulab.isogeny import (MICError, SubgroupAlgebra, SubgroupAlgebraPackage,
                              build_mic, dualize_bar_to_mic, mic_cohomology,
                              validate_package, verify_theorem_10_2)
from koszulab.synthetic import synthetic_height1_dataset

from complex_helpers import (compositions, flag_tensor, perturb_pairing,
                             place_blocks)
from test_assemble import dual_number_dataset
from test_golden import sym2_dataset


def test_builtin_package_validates():
    ds = builtin_height1(3, 2, 4)
    rep = validate_package(ds.subgroup_package)
    assert rep.passed, str(rep)


def test_flag_tensor_and_algebra():
    ds = builtin_height1(3, 2, 4)
    pkg = ds.subgroup_package
    t = flag_tensor(pkg, (1, 2, 1))
    assert t.bimodule.rank == 1


def test_mic_ranks_follow_compositions():
    ds = builtin_height1(2, 3, 4)
    pkg = ds.subgroup_package
    # rank-1 orders: the degree-s rank is the number of compositions of k
    # into s parts, i.e. binomial(k-1, s-1)
    assert build_mic(pkg, 0).complex.ranks == (1,)
    assert build_mic(pkg, 1).complex.ranks == (1,)
    assert build_mic(pkg, 2).complex.ranks == (1, 1)
    assert build_mic(pkg, 3).complex.ranks == (1, 2, 1)
    assert build_mic(pkg, 4).complex.ranks == (1, 3, 3, 1)


def test_mic_is_complex_and_cohomology_concentrated():
    for p, N in [(2, 1), (3, 2), (5, 3)]:
        ds = builtin_height1(p, N, 4)
        pkg = ds.subgroup_package
        data = KoszulData(ds.algebra)
        for k in range(5):
            mic = build_mic(pkg, k)
            ok, _ = verify_complex(mic.complex)
            assert ok
            prof, cmp_ = mic_cohomology(data, mic)
            assert cmp_["matches"], (p, N, k, prof.summary())
            assert prof.free_rank(k) == koszul_module(data, k).rank


def test_mic_rejects_order_beyond_package():
    ds = builtin_height1(2, 2, 3)
    with pytest.raises(MICError):
        build_mic(ds.subgroup_package, 9)


def test_broken_coassociativity_surfaces_as_dd_nonzero():
    ds = builtin_height1(3, 2, 3)
    pkg = ds.subgroup_package
    bad_u1 = dict(pkg.u1)
    bad_u1[(1, 2)] = PAdicMatrix(ds.ring, [[2]], 1, 1)
    bad = SubgroupAlgebraPackage(pkg.coeff, pkg.orders, pkg.t_maps, bad_u1,
                                 pkg.shift, pkg.pairing)
    rep = validate_package(bad)
    assert any(c == "u1 coassociativity" for c, _ in rep.failures)
    for k in range(3):
        homology(build_mic(bad, k).complex)
    mic = build_mic(bad, 3)
    assert not mic.complex.checked
    with pytest.raises(ComplexError, match="not a complex: d o d != 0 at degree 1"):
        homology(mic.complex)


def test_duality_builtin_all_orders():
    ds = builtin_height1(3, 2, 4)
    data = KoszulData(ds.algebra)
    for k in range(5):
        res = dualize_bar_to_mic(data, ds.subgroup_package, k)
        assert res.commutes, (k, res.witness)
        # the maps are unimodular squares degreewise
        for m in res.maps:
            assert m.rows == m.cols


def test_duality_synthetic_corpus():
    for seed in range(10):
        for p, N in [(2, 3), (3, 2), (5, 2)]:
            ds = synthetic_height1_dataset(p, N, 4, seed)
            data = KoszulData(ds.algebra)
            for k in range(5):
                res = dualize_bar_to_mic(data, ds.subgroup_package, k)
                assert res.commutes, (p, N, seed, k, res.witness)


@pytest.mark.parametrize("factory, identities", [
    (lambda: builtin_height1(3, 2, 6), True), (sym2_dataset, True),
    (lambda: synthetic_height1_dataset(3, 2, 5, 3), False),
], ids=["builtin_p3_N2_k6", "sym2_dataset", "synthetic_p3_N2_k5_s3"])
def test_rank_1_duality_maps_are_the_dualized_pairing_inverses(factory, identities):
    """Over a coefficient algebra of rank 1 the degree-s duality map is the
    block sum over the compositions c of proj_mic(c) @ (the Kronecker
    product of c's pairing inverses) @ proj_bar(c)^T, with the tensors read
    from the tables (``data.tensors``, ``pkg.flags``) that the blocks no
    longer hold and the inverses taken afresh.  The identity pairings of
    the built-in dataset and Sym2 give identity maps; the synthetic
    dataset's pairings do not."""
    ds = factory()
    A, pkg = ds.algebra, ds.subgroup_package
    assert A.coeff.rank == 1
    data = KoszulData(A)
    all_identities = True
    for k in range(1, min(A.max_weight, pkg.max_order) + 1):
        res = dualize_bar_to_mic(data, pkg, k)
        assert res.commutes, (k, res.witness)
        for s, got in enumerate(res.maps, 1):
            placed, rows, cols = [], 0, 0
            for c in compositions(k, s):
                bar, flag = data.tensors[c], pkg.flags[c]
                inv = reduce(PAdicMatrix.kron, [inverse_mod(pkg.pairing[x]) for x in c])
                placed.append((rows, cols, 1,
                               flag.proj_full @ inv @ bar.proj_full.transpose()))
                rows, cols = rows + flag.bimodule.rank, cols + bar.bimodule.rank
            assert got == place_blocks(A.coeff.ring, rows, cols, placed)
            all_identities &= got == PAdicMatrix.identity(A.coeff.ring, rows)
    assert all_identities == identities


def test_perturbed_pairing_breaks_duality_with_witness():
    ds = perturb_pairing(synthetic_height1_dataset(3, 2, 4, 7), 5)
    bad = []
    data = KoszulData(ds.algebra)
    for k in range(5):
        res = dualize_bar_to_mic(data, ds.subgroup_package, k)
        if not res.commutes:
            assert res.witness is not None
            assert "degree" in res.witness
            bad.append(k)
    assert bad, "perturbation must break commutation somewhere"


def test_dual_number_pairing_fails_to_descend_with_its_location():
    """Over the dual numbers (the rank-2 dataset of test_assemble), the
    identity pairings dualize weight 1, and every k from 2 to 4 fails at
    degree 2, on its first composition (1, k - 1), naming the first entry of
    the dualized projection outside the flag module's image."""
    ds = dual_number_dataset()
    data = KoszulData(ds.algebra)
    for k in range(2):
        assert dualize_bar_to_mic(data, ds.subgroup_package, k).commutes
    for k in range(2, 5):
        with pytest.raises(MICError) as exc:
            dualize_bar_to_mic(data, ds.subgroup_package, k)
        assert str(exc.value) == (
            f"pairing does not descend at degree 2, composition (1, {k - 1}): "
            "entry (1,0) lies outside the image of the flag module")


def test_shift_square_builtin():
    ds = builtin_height1(3, 2, 4)
    M = ds.module("sphere")
    data = KoszulData(ds.algebra)
    for k in (1, 2, 3):
        res = verify_theorem_10_2(data, ds.subgroup_package, M, k)
        assert res.commutes, (k, res.witness)
    # square 1 carries the only nonzero 1x1 routes at height 1
    res = verify_theorem_10_2(data, ds.subgroup_package, M, 1)
    assert res.route_top.shape == (1, 1)
    assert res.route_top == res.route_bottom
    assert not res.route_top.is_zero()


def test_shift_square_synthetic_corpus():
    for seed in range(10):
        ds = synthetic_height1_dataset(3, 2, 4, seed)
        M = ds.module("sphere")
        data = KoszulData(ds.algebra)
        for k in (1, 2, 3, 4):
            res = verify_theorem_10_2(data, ds.subgroup_package, M, k)
            assert res.commutes, (seed, k, res.witness)


def test_shift_square_fails_with_witness_when_action_inconsistent():
    ds = synthetic_height1_dataset(3, 2, 4, 3)
    sphere = ds.module("sphere")
    from koszulab.algebra import LeftModule
    bad_action = dict(sphere.action)
    # scale the weight-1 action by a unit: associativity still holds scaled
    # consistently? no — only weight 1 is changed, so square 1 must fail
    v = bad_action[1].entries[0][0]
    bad_action[1] = PAdicMatrix(ds.ring, [[v * 2 % ds.ring.modulus]], 1, 1)
    bad = LeftModule("bad", sphere.coeff, 1, bad_action)
    res = verify_theorem_10_2(KoszulData(ds.algebra), ds.subgroup_package, bad, 1)
    assert not res.commutes
    assert res.witness is not None


def test_package_json_roundtrip():
    ds = synthetic_height1_dataset(5, 2, 4, 9)
    doc = dataset_to_json(ds)
    assert "subgroup_package" in doc
    ds2 = dataset_from_json(doc)
    assert canonical_json(ds2) == canonical_json(ds)
    pkg2 = ds2.subgroup_package
    data = KoszulData(ds2.algebra)
    for k in range(5):
        assert dualize_bar_to_mic(data, pkg2, k).commutes


def test_missing_pairing_reported():
    ds = builtin_height1(3, 2, 4)
    pkg = ds.subgroup_package
    partial = SubgroupAlgebraPackage(pkg.coeff, pkg.orders, pkg.t_maps,
                                     pkg.u1, pkg.shift,
                                     {1: pkg.pairing[1]})
    with pytest.raises(MICError) as exc:
        dualize_bar_to_mic(KoszulData(ds.algebra), partial, 2)
    assert "pairing" in str(exc.value)


def test_validation_names_each_missing_pairing():
    """Dataset validation needs a pairing for each weight up to the smaller
    of the package's top order and the algebra's max_weight."""
    ds = builtin_height1(3, 2, 4)
    pkg = ds.subgroup_package
    ds.subgroup_package = SubgroupAlgebraPackage(
        pkg.coeff, pkg.orders, pkg.t_maps, pkg.u1, pkg.shift,
        {k: P for k, P in pkg.pairing.items() if k in (1, 3)})
    assert ds.validate().failures == [
        ("missing pairing", f"subgroup_package.pairing[k={k}]") for k in (2, 4)]
    assert validate_package(ds.subgroup_package).passed


def test_bad_pairing_fails_at_the_same_k_when_the_package_is_reused():
    """Pairing inverses are shared across k, on the package, and failures
    are not: a singular or missing pairing at weight 2 fails every k >= 2,
    with the same error from a reused package as from a fresh one.  Both
    are MICErrors, so `verify` reports a witness per k."""
    ds = builtin_height1(3, 2, 4)
    pkg = ds.subgroup_package
    singular = {**pkg.pairing, 2: PAdicMatrix(pkg.coeff.ring, [[3]], 1, 1)}
    missing = {k: P for k, P in pkg.pairing.items() if k != 2}

    def package(pairing):
        return SubgroupAlgebraPackage(pkg.coeff, pkg.orders, pkg.t_maps,
                                      pkg.u1, pkg.shift, pairing)

    for pairing, error in ((singular, MICError), (missing, MICError)):
        bad = package(pairing)
        data = KoszulData(ds.algebra)
        for k in range(5):
            if k < 2:
                assert dualize_bar_to_mic(data, bad, k).commutes
                continue
            messages = []
            for reused in (bad, package(pairing)):
                with pytest.raises(error) as exc:
                    dualize_bar_to_mic(data, reused, k)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]
        assert sorted(bad._pairing_inverses) == [1]


def test_non_associative_subgroup_algebra_fails_validation():
    """A commutative, unital order algebra of rank 3 that is not
    associative: e1 e1 = e2, e1 e2 = 0, e2 e2 = e1, so (e1 e1) e2 = e1 and
    e1 (e1 e2) = 0.  The package check shares the coefficient algebra's
    loops and names the failure."""
    ds = builtin_height1(3, 2, 2)
    pkg = ds.subgroup_package
    ring = pkg.coeff.ring
    # e_i e_j = e_k for (min, max) of (i, j) -> k below, and 0 otherwise
    table = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 2, (2, 2): 1}

    def product(i, j):
        k = table.get((min(i, j), max(i, j)))
        return tuple(int(k == c) for c in range(3))
    mc = tuple(tuple(product(i, j) for j in range(3)) for i in range(3))
    alg = CoefficientAlgebra(ring, 3, mc, (1, 0, 0))
    assert alg.multiply((0, 1, 0), (0, 1, 0)) == (0, 0, 1)
    assert alg.multiply((0, 1, 0), (0, 0, 1)) == (0, 0, 0)
    orders = {**pkg.orders, 1: SubgroupAlgebra(1, alg, pkg.orders[1].bimodule)}
    t_maps = {**pkg.t_maps, 1: PAdicMatrix(ring, [[1], [0], [0]], 3, 1)}
    bad = SubgroupAlgebraPackage(pkg.coeff, orders, t_maps, pkg.u1,
                                 pkg.shift, pkg.pairing)
    rep = validate_package(bad)
    assert {c for c, _ in rep.failures} == {"subgroup algebra associativity"}
    assert ("subgroup algebra associativity",
            "order p^1, basis triple (1,1,2)") in rep.failures
    assert validate_package(pkg).passed


def test_subgroup_maximal_ideal_survives_a_round_trip():
    """A subgroup algebra's maximal ideal is written back when given, so a
    load-and-save round trip keeps it; one given as empty is not written,
    and the canonical JSON of a package without one is unchanged."""
    doc = dataset_to_json(builtin_height1(3, 2, 2))
    plain = canonical_json(dataset_from_json(doc))
    assert "maximal_ideal" not in doc["subgroup_package"]["orders"][0]["algebra"]
    doc["subgroup_package"]["orders"][0]["algebra"]["maximal_ideal"] = []
    assert canonical_json(dataset_from_json(doc)) == plain
    doc["subgroup_package"]["orders"][0]["algebra"]["maximal_ideal"] = [[0]]
    ds = dataset_from_json(doc)
    assert ds.subgroup_package.orders[1].algebra.maximal_ideal == ((0,),)
    again = dataset_to_json(ds)
    assert again["subgroup_package"]["orders"][0]["algebra"]["maximal_ideal"] == [[0]]
    assert dataset_from_json(again) == ds
    assert canonical_json(dataset_from_json(again)) == canonical_json(ds) != plain
