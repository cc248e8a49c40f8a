"""Acceptance gate: seven headline criteria, each with an exact check and a
wall-clock budget, printing one pass/fail line per criterion."""
import itertools
import math
import random
import time

from koszulab.padic import BaseRing, PAdicMatrix
from koszulab.complexes import HOMOLOGICAL, homology, make_complex, verify_complex
from koszulab.algebra import builtin_height1
from koszulab.bar import (KoszulData, bar_complex_with_module, ext_groups,
                          koszul_complex, tor_groups_via_bar, verify_koszulness)
from koszulab.isogeny import (build_mic, dualize_bar_to_mic, mic_cohomology,
                              verify_theorem_10_2)
from koszulab.partition import partition_homology
from koszulab.synthetic import synthetic_height1_dataset

from complex_helpers import boundary_maps

BUILTIN_GRID = [(p, N) for p in (2, 3, 5) for N in (1, 2, 3)]


def report(capsys, number, name, budget, fn):
    t0 = time.monotonic()
    try:
        fn()
        failure = None
    except AssertionError as exc:
        failure = exc
    elapsed = time.monotonic() - t0
    status = "PASS" if failure is None and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"[{status}] acceptance criterion {number} ({name}): "
              f"{elapsed:.2f}s (budget {budget:g}s)")
    if failure is not None:
        raise failure
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def corpus():
    sets = [builtin_height1(p, N, 4) for p, N in BUILTIN_GRID]
    sets += [synthetic_height1_dataset(3, 2, 4, seed) for seed in range(5)]
    sets += [synthetic_height1_dataset(2, 3, 4, seed) for seed in range(5)]
    return sets


def test_criterion_1_koszul_concentration(capsys):
    def check():
        for p, N in BUILTIN_GRID:
            ds = builtin_height1(p, N, 4)
            rep = verify_koszulness(KoszulData(ds.algebra))
            assert rep.passed, (p, N)
            assert rep.c_ranks == (1, 1, 0, 0, 0), (p, N, rep.c_ranks)
    report(capsys, 1, "weight-k bar homology concentrated in degree k", 1.0, check)


def test_criterion_2_trivial_tor_identification(capsys):
    def check():
        for ds in corpus():
            kc = koszul_complex(KoszulData(ds.algebra), ds.module("triv"))
            assert all(d.is_zero() for d in kc.complex.differentials), ds.provenance
            prof = homology(kc.complex)
            assert tuple(prof.free_ranks) == kc.c_ranks, ds.provenance
            assert all(not t for t in prof.torsion), ds.provenance
    report(capsys, 2, "trivial-module small complex has zero differential "
           "and C[k] homology ranks", 1.0, check)


def test_criterion_3_mic_duality(capsys):
    def check():
        packages = [builtin_height1(3, 2, 4)]
        grid = itertools.cycle([(2, 3), (3, 2), (5, 2), (2, 2), (3, 3)])
        packages += [synthetic_height1_dataset(p, N, 4, seed)
                     for seed, (p, N) in zip(range(100), grid)]
        assert len(packages) >= 101
        for ds in packages:
            pkg = ds.subgroup_package
            data = KoszulData(ds.algebra)
            for k in range(5):
                res = dualize_bar_to_mic(data, pkg, k)
                assert res.commutes, (ds.provenance, k, res.witness)
            # consequence: cohomology concentrated in degree k, Koszul rank
            for k in range(5):
                _, cmp_ = mic_cohomology(data, build_mic(pkg, k))
                assert cmp_["matches"], (ds.provenance, k)
    report(capsys, 3, "dual bar complex isomorphic to the subgroup complex, "
           "cohomology concentrated with Koszul ranks", 10.0, check)


def test_criterion_4_shift_square(capsys):
    def check():
        ds = builtin_height1(3, 2, 4)
        data = KoszulData(ds.algebra)
        for k in (1, 2, 3):
            res = verify_theorem_10_2(data, ds.subgroup_package,
                                      ds.module("sphere"), k)
            assert res.commutes, (k, res.witness)
        for seed in range(25):
            syn = synthetic_height1_dataset(3, 2, 4, seed)
            data = KoszulData(syn.algebra)
            for k in (1, 2, 3, 4):
                res = verify_theorem_10_2(data, syn.subgroup_package,
                                          syn.module("sphere"), k)
                assert res.commutes, (seed, k, res.witness)
    report(capsys, 4, "flag shift square commutes with the dual small-complex "
           "differential", 5.0, check)


def test_criterion_5_partition_layer_ranks(capsys):
    def check():
        for n in range(2, 6):
            for p in (2, 3):
                prof = partition_homology(n, BaseRing(p, 2))
                for d in prof.degrees:
                    want = math.factorial(n - 1) if d == n - 1 else 0
                    assert prof.free_rank(d) == want, (n, p, d)
                    assert not prof.torsion_at(d), (n, p, d)
    report(capsys, 5, "partition complex reduced homology free of rank "
           "(n-1)! in degree n-1", 60.0, check)


def test_criterion_6_height1_ext_vanishing(capsys):
    def check():
        for p, N in BUILTIN_GRID:
            ds = builtin_height1(p, N, 4)
            prof = ext_groups(KoszulData(ds.algebra), ds.module("sphere"))
            for s in range(5):
                assert prof.free_rank(s) == 0, (p, N, s)
                assert not prof.torsion_at(s), (p, N, s)
    report(capsys, 6, "Ext of the weight-one-generated rank-one module "
           "vanishes in degrees <= 4", 1.0, check)


def _random_complex_mod4(rng):
    ring = BaseRing(2, 2)
    n0, n1, n2 = (rng.randrange(0, 5) for _ in range(3))
    n1 = max(n1, 1)
    d1 = PAdicMatrix(ring, [[rng.randrange(4) for _ in range(n2)]
                            for _ in range(n1)], n1, n2)
    good = [r for r in itertools.product(range(4), repeat=n1)
            if all(sum(r[i] * d1.entries[i][j] for i in range(n1)) % 4 == 0
                   for j in range(n2))]
    d0 = PAdicMatrix(ring, [list(rng.choice(good)) for _ in range(n0)], n0, n1)
    return ring, make_complex(ring, HOMOLOGICAL, 0, [n0, n1, n2], [d0, d1])


def _brute_degree(ring, C, d):
    rank = C.rank(d)
    d_out, d_in = boundary_maps(C, d)
    kernel = [v for v in itertools.product(range(4), repeat=rank)
              if d_out is None or all(
                  sum(d_out.entries[i][j] * v[j] for j in range(rank)) % 4 == 0
                  for i in range(d_out.rows))]
    image = {(0,) * rank}
    if d_in is not None and d_in.cols:
        cols = [[d_in.entries[i][j] for i in range(rank)]
                for j in range(d_in.cols)]
        image = {tuple(sum(c * col[i] for c, col in zip(cf, cols)) % 4
                       for i in range(rank))
                 for cf in itertools.product(range(4), repeat=len(cols))}
    if rank == 0:
        return 1
    return len(kernel) // len(image)


def test_criterion_7_oracle_suites(capsys):
    def check():
        # (a) homology vs brute-force enumeration, p=2, N=2, ranks <= 4
        rng = random.Random(20260823)
        for _ in range(40):
            ring, C = _random_complex_mod4(rng)
            prof = homology(C)
            for d in C.degrees:
                order = ring.modulus ** prof.free_rank(d)
                for t in prof.torsion_at(d):
                    order *= ring.p ** t
                assert order == _brute_degree(ring, C, d), d
        # (b) Tor through the small complex vs Tor through the bar complex
        for ds in corpus():
            for name in ("triv", "sphere"):
                M = ds.module(name)
                t1 = KoszulData(ds.algebra).tor(M)
                t2 = tor_groups_via_bar(KoszulData(ds.algebra), M)
                for s in range(5):
                    assert t1.free_rank(s) == t2.free_rank(s), (ds.provenance, name, s)
                    assert t1.torsion_at(s) == t2.torsion_at(s), (ds.provenance, name, s)
        # (c) d o d = 0 on 1000 seeded valid datasets
        grid = itertools.cycle([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                (3, 3), (5, 1), (5, 2), (5, 3)])
        for seed, (p, N) in zip(range(1000), grid):
            ds = synthetic_height1_dataset(p, N, 4, seed)
            data = KoszulData(ds.algebra)
            for k in range(5):
                ok, deg = verify_complex(data.bar(k).complex)
                assert ok, (p, N, seed, k, deg)
            ok, deg = verify_complex(
                bar_complex_with_module(data, ds.module("sphere"), 4).complex)
            assert ok, (p, N, seed, deg)
    report(capsys, 7, "oracle suites: brute-force homology, two Tor routes, "
           "d o d = 0 on 1000 seeded datasets", 120.0, check)
