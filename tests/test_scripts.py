"""The scripts under scripts/ run to exit 0 at small sizes, so a change to
a signature they call cannot break them silently."""
import argparse
import importlib.util
import os
import py_compile
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from koszulab.complexes import make_complex
from koszulab.padic import PAdicMatrix

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["demo_height1.py", "--kmax", "3"],
    ["synthetic_sweep.py", "--count", "2", "--kmax", "3"],
    ["partition_table.py", "--nmax", "4"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    run_script(argv)


def test_partition_table_counts_a_failing_check_as_a_mismatch(monkeypatch, capsys):
    """A partition complex whose d o d check fails (here one face of the
    top differential dropped, the complex still marked checked) is
    reported, gets no homology, and makes the script exit 1."""
    table = load_script("partition_table.py")
    build = table.partition_complex

    def dropped_face(n, ring, force=False):
        data = build(n, ring, force)
        C = data.complex
        if len(C.differentials) < 3:
            return data
        top = C.differentials[-1]
        rows = top.tolist()
        rows[next(i for i, r in enumerate(rows) if r[0])][0] = 0
        diffs = C.differentials[:-1] + (PAdicMatrix(C.ring, rows, top.rows, top.cols),)
        return data._replace(complex=make_complex(
            C.ring, C.orientation, C.min_degree, C.ranks, diffs, checked=True))
    monkeypatch.setattr(table, "partition_complex", dropped_face)
    monkeypatch.setattr(sys, "argv", ["partition_table.py", "--nmax", "4"])
    assert table.main() == 1
    out = capsys.readouterr().out
    assert out.count("d o d != 0 at degree 1 [NOT A COMPLEX]") == 2
    assert "free ranks (0, 0, 2) [ok]" in out
    assert "free ranks (0, 0, 0, 6)" not in out


def test_ab_inproc_times_setups_of_the_repo_against_itself():
    out = run_script(["ab_inproc.py", str(ROOT), str(ROOT), "--workload",
                      "corpus", "--setup", "--rounds", "2"])
    assert "# corpus set-up: change/parent median" in out


def test_ab_inproc_prints_operation_latencies_of_the_repo_against_itself():
    out = run_script(["ab_inproc.py", str(ROOT), str(ROOT), "--workload",
                      "partition", "--rounds", "2"])
    assert "# partition: change/parent median" in out
    assert "# per-operation median latency over 2 rounds" in out
    assert "partition_complex n=6 p=2 N=2: " in out
    assert "# pooled median operation latency: parent" in out


def test_ab_inproc_times_suite_w9_passes_of_the_repo_against_itself():
    out = run_script(["ab_inproc.py", str(ROOT), str(ROOT), "--workload",
                      "suite-w9", "--rounds", "1"])
    assert "# 1 of 1 operations, reports identical on both trees" in out
    assert re.search(r"^# tracemalloc peak of the checking pass: "
                     r"parent \d+\.\d{3} MB, change \d+\.\d{3} MB$", out, re.M)
    assert "# suite-w9: change/parent median" in out
    assert "builtin p=3 N=2 kmax=9: " in out
    assert "# pooled median operation latency: parent" in out


def test_ab_inproc_setups_compile_from_source_whatever_caches_hold(tmp_path, monkeypatch):
    """A set-up round imports each tree from source: a stale bytecode file
    in the tree's __pycache__, which a plain import reads, is not read, and
    the interpreter's bytecode settings are restored after the rounds."""
    ab = load_script("ab_inproc.py")
    tree = tmp_path / "tree"
    init = tree / "src" / "koszulab" / "__init__.py"
    shutil.copytree(ROOT / "src" / "koszulab", init.parent,
                    ignore=shutil.ignore_patterns("__pycache__"))
    stale = tmp_path / "stale.py"
    stale.write_text(init.read_text() + "STALE = True\n")
    py_compile.compile(str(stale), cfile=importlib.util.cache_from_source(str(init)),
                       invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
    try:
        assert ab.load_tree(tree, "ab_stale_probe").STALE
    finally:
        for k in [k for k in sys.modules if k.startswith("ab_stale_probe")]:
            del sys.modules[k]

    loaded, load_tree = [], ab.load_tree

    def recording_load_tree(root, name):
        package = load_tree(root, name)
        loaded.append(hasattr(package, "STALE"))
        return package
    monkeypatch.setattr(ab, "load_tree", recording_load_tree)
    before = sys.dont_write_bytecode, sys.pycache_prefix
    workloads = types.SimpleNamespace(MAKE={"corpus": lambda seed, out: None})
    rounds = list(ab.time_setups(argparse.Namespace(workload="corpus", rounds=2),
                                 {"parent": tree, "change": tree}, workloads,
                                 str(tmp_path)))
    assert len(rounds) == 2 and loaded == [False] * 4
    assert (sys.dont_write_bytecode, sys.pycache_prefix) == before


def load_script(name):
    """scripts/<name> imported as a module, its main() not run."""
    spec = importlib.util.spec_from_file_location(name[:-3], ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(argv):
    """The stdout of scripts/<argv[0]> run with ``argv[1:]``, which must exit
    0 and print something."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    return proc.stdout
