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

from koszulab.algebra import (Dataset, GradedAugmentedAlgebra, builtin_height1,
                              save_dataset)
from koszulab.cli import run
from koszulab.padic import PAdicMatrix
from koszulab.synthetic import perturb_pairing, synthetic_height1_dataset

GOLDEN = Path(__file__).with_name("golden")

# name -> (dataset factory or None, argv after the dataset path)
CASES = {}
for _p in (2, 3, 5):
    for _N in (1, 2, 3):
        CASES[f"verify_builtin_p{_p}_N{_N}_k4"] = (
            lambda p=_p, N=_N: builtin_height1(p, N, 4),
            ["verify", "--suite", "all", "--json"])
for _p, _N, _seed in ((3, 3, 0), (3, 3, 2), (3, 3, 4), (5, 2, 1), (5, 2, 3)):
    CASES[f"verify_synthetic_p{_p}_N{_N}_s{_seed}_k5"] = (
        lambda p=_p, N=_N, s=_seed: synthetic_height1_dataset(p, N, 5, s),
        ["verify", "--suite", "all", "--json"])
for _p, _N in ((2, 1), (2, 2), (3, 1)):
    CASES[f"partition_n4_p{_p}_N{_N}"] = (
        None, ["partition", "--n", "4", "--p", str(_p), "--N-trunc", str(_N),
               "--json"])



def non_koszul_dataset():
    """Built-in p=3 N=2 kmax 2 with the weight-(1,1) product replaced by zero:
    the weight-2 bar homology gains a bottom class (as in test_bar)."""
    ds = builtin_height1(3, 2, 2)
    A = ds.algebra
    bad = GradedAugmentedAlgebra(A.coeff, A.q_label, 2, A.components,
                                 {(1, 1): PAdicMatrix(ds.ring, [[0]], 1, 1)})
    return Dataset(ds.p, ds.N, ds.height_label, ds.q_label,
                   ds.provenance + " [weight-(1,1) product zeroed]", bad,
                   ds.modules, ds.subgroup_package)


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
