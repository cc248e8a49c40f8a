#!/usr/bin/env python3
"""Sweep seeded synthetic datasets through every verification suite.

Generates rank-1 coboundary datasets and runs `koszulab verify --suite all`
on each: validation, Koszulness, the two Tor routes, bar/subgroup-complex
duality, and the shift squares.  Exits nonzero on the first failure.
"""
import argparse
import itertools
import sys
import tempfile
import time
from pathlib import Path

from koszulab.algebra import save_dataset
from koszulab.cli import run
from koszulab.synthetic import synthetic_height1_dataset


def first_failure(report):
    """The first failing check of a verify report, worded for the sweep."""
    for c in report.checks:
        if c.status != "fail":
            continue
        if c.name == "dataset-validation":
            return "dataset validation failed"
        if c.name == "suite-koszul":
            return "not Koszul"
        if c.name == "suite-tor-two-routes":
            module = c.payload["witness"].split(",")[0].removeprefix("module ")
            return f"Tor routes disagree for {module}"
        if c.name == "suite-mic-duality":
            return f"duality fails at {c.payload['witnesses'][0]}"
        if c.name == "suite-shift-square":
            square, witness = c.payload["witnesses"][0].split(": ", 1)
            return f"shift {square} fails: {witness}"
        return f"{c.name} fails: {c.payload.get('witness', c.payload)}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--kmax", type=int, default=4)
    ap.add_argument("--seed0", type=int, default=0)
    args = ap.parse_args()

    grid = itertools.cycle([(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "dataset.json")
        for seed, (p, N) in zip(range(args.seed0, args.seed0 + args.count),
                                grid):
            save_dataset(synthetic_height1_dataset(p, N, args.kmax, seed), path)
            tag = f"seed={seed} p={p} N={N}"
            report, code = run(["verify", path, "--suite", "all", "--json"])
            if report is None:
                sys.exit(f"{tag}: verify exited with code {code}")
            failure = first_failure(report)
            if failure is not None:
                sys.exit(f"{tag}: {failure}")
    print(f"{args.count} datasets, all suites pass "
          f"({time.monotonic() - t0:.2f}s)")


if __name__ == "__main__":
    main()
