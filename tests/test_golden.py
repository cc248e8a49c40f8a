"""Golden `--json` reports: each case re-runs one CLI command and compares the
report byte for byte with the file stored in tests/golden/.

The reports pin the observable behaviour (homology profiles, witnesses,
fingerprints) across rewrites of the linear-algebra internals.  To record
them afresh after an intended change of behaviour:

    PYTHONPATH=src python tests/test_golden.py --write
"""
import json
import sys
from pathlib import Path

import pytest

from koszulab.algebra import (Bimodule, CoefficientAlgebra, Dataset,
                              GradedAugmentedAlgebra, LeftModule,
                              builtin_height1, save_dataset, trivial_module)
from koszulab.cli import run
from koszulab.isogeny import SubgroupAlgebra, SubgroupAlgebraPackage
from koszulab.padic import PAdicMatrix
from koszulab.synthetic import synthetic_height1_dataset

from complex_helpers import perturb_pairing

GOLDEN = Path(__file__).with_name("golden")

# name -> (dataset factory or None, argv after the dataset path)
CASES = {}
for _p in (2, 3, 5):
    for _N in (1, 2, 3):
        CASES[f"verify_builtin_p{_p}_N{_N}_k4"] = (
            lambda p=_p, N=_N: builtin_height1(p, N, 4),
            ["verify", "--suite", "all", "--json"])
# kmax 7: module bar complexes of 128 blocks, d o d rows of several terms
CASES["verify_builtin_p3_N2_k7"] = (lambda: builtin_height1(3, 2, 7),
                                    ["verify", "--suite", "all", "--json"])
for _p, _N, _seed in ((3, 3, 0), (3, 3, 2), (3, 3, 4), (5, 2, 1), (5, 2, 3)):
    CASES[f"verify_synthetic_p{_p}_N{_N}_s{_seed}_k5"] = (
        lambda p=_p, N=_N, s=_seed: synthetic_height1_dataset(p, N, 5, s),
        ["verify", "--suite", "all", "--json"])
for _p, _N in ((2, 1), (2, 2), (3, 1)):
    CASES[f"partition_n4_p{_p}_N{_N}"] = (
        None, ["partition", "--n", "4", "--p", str(_p), "--N-trunc", str(_N),
               "--json"])



def invalid_non_koszul_dataset():
    """Built-in p=3 N=2 kmax 2 with the weight-(1,1) product replaced by zero:
    the weight-2 bar homology gains a bottom class (as in test_bar).  The
    sphere module still acts by units, which fails module associativity."""
    ds = builtin_height1(3, 2, 2)
    A = ds.algebra
    bad = GradedAugmentedAlgebra(A.coeff, A.q_label, 2, A.components,
                                 {(1, 1): PAdicMatrix(ds.ring, [[0]], 1, 1)})
    return Dataset(ds.p, ds.N, ds.height_label, ds.q_label,
                   ds.provenance + " [weight-(1,1) product zeroed]", bad,
                   ds.modules, ds.subgroup_package)


def non_koszul_dataset():
    """:func:`invalid_non_koszul_dataset` with the sphere module's actions
    zeroed too, so that it passes validation and every suite runs."""
    ds = invalid_non_koszul_dataset()
    sphere = ds.module("sphere")
    zero = PAdicMatrix(ds.ring, [[0]], 1, 1)
    ds.modules = {**ds.modules, "sphere": sphere._replace(
        action={k: zero for k in sphere.action})}
    ds.provenance += " [sphere actions zeroed]"
    return ds


def sym2_dataset(kmax=5):
    """Sym(V) with rank V = 2 over Z/9 up to weight ``kmax``, the tensor
    square of the built-in height-1 algebra: weight k has basis x^a y^(k-a)
    (rank k+1) and x^a y^(k-a) * x^b y^(l-b) = x^(a+b) y^(k+l-a-b).  It is Koszul
    with C[k] ranks binomial(2, k) (Polishchuk-Positselski, Quadratic
    Algebras, ch. 3).  Unlike the rank-1 datasets, a face I_pre (x) m (x)
    I_post with pre != post here has a layout that a swap of the identity
    factors changes.

    The package takes S_{p^k} = (Z/9)^(k+1) with componentwise product, t a
    column of ones, u1 the transposed product and identity pairings.  The
    module "ones" lets every basis element act by 1; with no "sphere"
    module the shift-square suite is skipped."""
    coeff = builtin_height1(3, 2, 1).algebra.coeff
    ring = coeff.ring

    def eye(n):
        return PAdicMatrix.identity(ring, n)

    def ones(rows, cols):
        return PAdicMatrix(ring, [[1] * cols] * rows, rows, cols)

    def product(k, l):
        rows = [[0] * ((k + 1) * (l + 1)) for _ in range(k + l + 1)]
        for a in range(k + 1):
            for b in range(l + 1):
                rows[a + b][a * (l + 1) + b] = 1
        return PAdicMatrix(ring, rows, k + l + 1, (k + 1) * (l + 1))

    def componentwise(r):
        consts = tuple(tuple(tuple(int(i == j == m) for m in range(r))
                             for j in range(r)) for i in range(r))
        return CoefficientAlgebra(ring, r, consts, (1,) * r, ())

    weights = range(1, kmax + 1)
    comps = {k: Bimodule(ring, coeff, k + 1, (eye(k + 1),), (eye(k + 1),))
             for k in weights}
    mult = {(k, l): product(k, l)
            for k in range(1, kmax) for l in range(1, kmax + 1 - k)}
    algebra = GradedAugmentedAlgebra(coeff, 1, kmax, comps, mult)
    modules = {"triv": trivial_module(coeff),
               "ones": LeftModule("ones", coeff, 1,
                                  {k: ones(1, k + 1) for k in weights})}
    pkg = SubgroupAlgebraPackage(
        coeff=coeff,
        orders={k: SubgroupAlgebra(k, componentwise(k + 1), comps[k])
                for k in weights},
        t_maps={k: ones(k + 1, 1) for k in weights},
        u1={kl: m.transpose() for kl, m in mult.items()},
        shift={},
        pairing={k: eye(k + 1) for k in weights})
    return Dataset(3, 2, "2", 1, "Sym(V), rank V = 2: tensor square of the "
                   "built-in height-1 dataset", algebra, modules, pkg)


CASES["verify_sym2_p3_N2_k5"] = (sym2_dataset, ["verify", "--suite", "all", "--json"])
CASES["bar_sym2_p3_N2_k5_w4_triv"] = (
    sym2_dataset, ["bar", "--weight", "4", "--module", "triv", "--json"])


# Failure paths and single suites: where witnesses and exceptions surface.
# perturbation seed 5 scales the weight-4 pairing (mic-duality witness),
# seed 4 the weight-1 pairing (mic-duality and shift-square witnesses)
for _pseed in (4, 5):
    CASES[f"verify_perturbed_pairing_p3_N2_s7_u{_pseed}_k4"] = (
        lambda u=_pseed: perturb_pairing(
            synthetic_height1_dataset(3, 2, 4, 7), u),
        ["verify", "--suite", "all", "--json"])
CASES["verify_non_koszul_p3_N2_k2"] = (
    non_koszul_dataset, ["verify", "--suite", "all", "--json"])
CASES["koszul_non_koszul_p3_N2_k2"] = (
    non_koszul_dataset, ["koszul", "--json"])
# the stop report: validation fails, and nothing else is computed
CASES["verify_invalid_non_koszul_p3_N2_k2"] = (
    invalid_non_koszul_dataset, ["verify", "--suite", "all", "--json"])
for _name, _argv in (("verify_thm102", ["verify", "--suite", "thm10.2"]),
                     ("verify_mic_duality", ["verify", "--suite", "mic-duality"]),
                     ("koszul_sphere", ["koszul", "--module", "sphere"]),
                     ("ext_sphere", ["ext", "--module", "sphere"]),
                     ("mic_k3", ["mic", "--k", "3"])):
    CASES[f"{_name}_builtin_p3_N2_k4"] = (
        lambda: builtin_height1(3, 2, 4), _argv + ["--json"])


def report_bytes(name, tmp_dir):
    """The report as `koszulab ... --json` prints it."""
    factory, argv = CASES[name]
    if factory is not None:
        path = Path(tmp_dir) / f"{name}.json"
        save_dataset(factory(), path)
        argv = argv[:1] + [str(path)] + argv[1:]
    report, _ = run(argv)
    return (json.dumps(report.to_json(), sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    want = (GOLDEN / f"{name}.json").read_bytes()
    assert report_bytes(name, tmp_path) == want


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            (GOLDEN / f"{case}.json").write_bytes(report_bytes(case, tmp))
            print(case)
