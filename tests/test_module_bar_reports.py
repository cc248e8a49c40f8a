"""`bar --module M --weight w --json` is pinned for every module M and every
weight w <= max_weight, w = max_weight included, on three datasets: the
built-in p=3 N=2 kmax 5, the synthetic p=5 N=2 kmax 4 seed 3 and Sym^2
kmax 4.  Each report is pinned by the first 16 hex digits of the SHA-256
of its bytes, the dataset fingerprint included; no golden report covers
w = max_weight.  To print the digests afresh after an intended change of
behaviour:

    PYTHONPATH=src python tests/test_module_bar_reports.py
"""
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from koszulab.algebra import builtin_height1, save_dataset
from koszulab.cli import EXIT_PASS, run
from koszulab.synthetic import synthetic_height1_dataset

from test_golden import sym2_dataset

DATASETS = {
    "builtin_p3_N2_k5": lambda: builtin_height1(3, 2, 5),
    "synthetic_p5_N2_s3_k4": lambda: synthetic_height1_dataset(5, 2, 4, 3),
    "sym2_p3_N2_k4": lambda: sym2_dataset(4),
}

DIGESTS = {
    'builtin_p3_N2_k5': {
        'sphere w0': 'a7b03744a45b317d',
        'sphere w1': '6c42aaad08311325',
        'sphere w2': '1dcd13591b7d64ca',
        'sphere w3': 'ca52b587c6fb5b20',
        'sphere w4': '43e5235b3d7bc106',
        'sphere w5': 'ef274de0bcfab80b',
        'triv w0': 'df448a2266a7a636',
        'triv w1': 'e975090c8838dfdc',
        'triv w2': 'e7c24f295ab32231',
        'triv w3': '2d571b4b7917bef8',
        'triv w4': 'd44c17bae4166d4e',
        'triv w5': '9822935f1f59f7cc',
    },
    'sym2_p3_N2_k4': {
        'ones w0': '60ce17d53656eac6',
        'ones w1': '1cee28997974c089',
        'ones w2': 'f88116f08c94bbda',
        'ones w3': 'cd4eec0e11042cad',
        'ones w4': '9019b7e6fcfec7e1',
        'triv w0': 'a6dd5f8bdfc890b6',
        'triv w1': 'cb3acb837f6e22cb',
        'triv w2': '39c0d0d2031aaf41',
        'triv w3': 'e157409ab095690d',
        'triv w4': '8f4f126f37ffc65c',
    },
    'synthetic_p5_N2_s3_k4': {
        'sphere w0': 'a29b5d5692d7d1ab',
        'sphere w1': 'cab25a4cd2171546',
        'sphere w2': '65cd3f373dc8eb4f',
        'sphere w3': 'ed4cc78ab90ead0b',
        'sphere w4': 'f4ee98e16eabadf0',
        'triv w0': '68f95e11c1df09a2',
        'triv w1': 'c48a14615f9703ec',
        'triv w2': '626ba3f89220049d',
        'triv w3': '5895889fdd27a765',
        'triv w4': 'e23da4b808c91fc6',
    },
}


def digests(name, tmp_dir):
    """{"<module> w<w>": the pinned digest of the `--json` report} for every
    module and weight of dataset ``name``."""
    ds = DATASETS[name]()
    path = Path(tmp_dir) / f"{name}.json"
    save_dataset(ds, path)
    out = {}
    for module in sorted(ds.modules):
        for w in range(ds.algebra.max_weight + 1):
            report, code = run(["bar", str(path), "--weight", str(w),
                                "--module", module, "--json"])
            assert code == EXIT_PASS
            data = (json.dumps(report.to_json(), sort_keys=True,
                               separators=(",", ":")) + "\n").encode("utf-8")
            out[f"{module} w{w}"] = hashlib.sha256(data).hexdigest()[:16]
    return out


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_module_bar_reports_are_pinned(name, tmp_path):
    assert digests(name, tmp_path) == DIGESTS[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(DATASETS):
            print(f"    {case!r}: {{")
            for key, value in digests(case, tmp).items():
                print(f"        {key!r}: {value!r},")
            print("    },")
