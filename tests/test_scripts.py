"""The scripts under scripts/ run to exit 0 at small sizes, so a change to
a signature they call cannot break them silently."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["demo_height1.py", "--kmax", "3"],
    ["synthetic_sweep.py", "--count", "2", "--kmax", "3"],
    ["partition_table.py", "--nmax", "4"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    run_script(argv)


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
    assert "# suite-w9: change/parent median" in out
    assert "builtin p=3 N=2 kmax=9: " in out
    assert "# pooled median operation latency: parent" in out


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
