"""Self-test of the benchmark on tiny workloads.

    python3 -m pytest -q bench

Each smoke run is a fresh interpreter, as in a real run.
"""
import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from run import WORKLOADS, record_path, tail  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def smoke(workload, trace, *extra, seed=3, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = smoke(w, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            with open(record_path(w, 3, trace, True)) as fh:
                record = json.load(fh)
            out[w, trace] = (json.loads(proc.stdout.strip().splitlines()[-1]), record)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_benchmark_json(runs, workload, trace, section):
    result, _ = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_reports_agree(runs, workload):
    assert runs[workload, 0][1]["digest"] == runs[workload, 1][1]["digest"]
    assert None not in runs[workload, 0][1]["op_digests"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_span_schema(runs, workload):
    path = record_path(workload, 3, 1, True, "spans.jsonl.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    assert spans
    for i, s in enumerate(spans):
        assert set(s) == {"name", "start", "end", "parent", "op", "sizes"}
        assert isinstance(s["name"], str) and isinstance(s["op"], int)
        assert s["start"] <= s["end"]
        p = s["parent"]
        assert -1 <= p < i
        if p >= 0:
            parent = spans[p]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["op"] == s["op"]
        assert all(isinstance(v, int) for v in s["sizes"].values())
    assert any(s["name"] == "bench.op" and s["parent"] == -1 for s in spans)


@pytest.mark.parametrize("workload", ["corpus", "suite-w9"])
def test_verify_complex_madds_are_its_products(runs, workload):
    path = record_path(workload, 3, 1, True, "spans.jsonl.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    products = {}
    for s in spans:
        if s["name"] == "padic.matmul" and s["parent"] >= 0:
            products[s["parent"]] = products.get(s["parent"], 0) + s["sizes"]["madds"]
    checks = [(s["sizes"]["madds"], products.get(i, 0)) for i, s in enumerate(spans)
              if s["name"] == "complexes.verify_complex"]
    assert checks
    assert all(want == got for want, got in checks)


def test_verify_complex_madds_of_a_cohomological_complex():
    import workloads  # noqa: F401  (imports every module the tracer wraps)
    from koszulab import complexes
    from koszulab.padic import BaseRing, PAdicMatrix
    ring = BaseRing(2, 1)
    d0 = PAdicMatrix(ring, [[0] * 2] * 3)      # C^0 = 2 -> C^1 = 3
    d1 = PAdicMatrix(ring, [[0] * 3] * 4)      # C^1 = 3 -> C^2 = 4
    C = complexes.make_complex(ring, complexes.COHOMOLOGICAL, 0, (2, 3, 4), (d0, d1))
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        assert complexes.verify_complex(C) == (True, None)
    finally:
        tracer.uninstall()
    metrics = tracer.per_module()
    assert metrics["complexes.verify_complex.madds"] == 4 * 3 * 2
    assert metrics["padic.matmul.madds"] == 4 * 3 * 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_module_self_times_fit_in_traced_wall(runs, workload):
    metrics = {k: v["value"] for k, v in runs[workload, 1][0]["metrics"].items()}
    # the dataset generator runs during set-up, outside the traced pass
    self_s = [v for k, v in metrics.items() if k.endswith(".self_s")
              and not k.startswith("synthetic.")]
    assert all(v >= 0 for v in self_s)
    assert sum(self_s) <= metrics["bench.traced_wall_s"]


@pytest.mark.parametrize("trace", [0, 1])
def test_missed_deadlines_are_failures_named_by_dataset(trace):
    proc = smoke("corpus", trace, "--deadline", "0.000001", seed=4)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == result["attempted"]
    assert "# failed: synthetic p=3 N=3 seed=0: missed the" in proc.stdout
    if trace:
        with gzip.open(record_path("corpus", 4, 1, True, "spans.jsonl.gz"), "rt") as fh:
            assert all(s["start"] <= s["end"] for s in map(json.loads, fh))


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tail(list(range(50))) == (39, 80.0)
    assert tail([3, 1, 2]) == (3, 100.0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = smoke("corpus", 0, cwd=str(tmp_path), env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
