"""The benchmark's three workloads.

Each workload turns a seed into inputs (dataset files written during set-up)
and a list of operations.  An operation calls one public entry point of
koszulab; its answer is checked against a closed form afterwards, outside the
timed region.  Why each workload exists is recorded in README.md.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# Module attributes, not names imported from them: a traced run replaces the
# functions in these namespaces.
from koszulab import algebra, cli, synthetic
from koszulab import partition as kpartition
from koszulab.padic import BaseRing

CORPUS_KMAX = 5
BUILTIN_PN = tuple((p, N) for p in (2, 3, 5) for N in (1, 2, 3))
# p^N = 27 and 25.  Their verify time depends on the synthetic seed (0.1 s
# to over 200 s, the integer-Smith coefficient growth), so these sub-seeds
# are the same for every workload seed: each run measures the same tail and
# the same stall, and the seed cannot move wall_s by choosing easier data.
WIDE_PN = ((3, 3), (5, 2))
WIDE_SEEDS = tuple(range(10))
# p^N = 4, 8 and 9 verify in 0.08-0.16 s whatever the sub-seed, so the
# workload seed chooses these.
NARROW_PN = ((2, 2), (2, 3), (3, 2))
NARROW_PER_PAIR = 7

SUITE_PN, SUITE_KMAX = (3, 2), 9

PARTITION_N = 5
PARTITION_PN = ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2))
BUILD_N, BUILD_PN = 6, (2, 2)
# ranks of the normalized reduced chain complex, degrees 0..n-1
BUILD_RANKS = {4: (0, 1, 13, 18), 6: (0, 1, 201, 1865, 4245, 2700)}


class WrongAnswer(Exception):
    """An operation returned, but not the answer the closed form predicts."""


@dataclass
class Op:
    label: str                    # names the input, e.g. "synthetic p=3 N=3 seed=9"
    call: Callable[[], object]    # the timed part
    check: Callable[[object], str]  # returns the answer's digest or raises WrongAnswer


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli(argv):
    """Run one CLI command in-process and encode its report as `--json` does."""
    def call():
        report, code = cli.run(argv)
        text = None if report is None else json.dumps(
            report.to_json(), sort_keys=True, separators=(",", ":"))
        return code, text
    return call


def _checked_report(out, closed_form) -> str:
    code, text = out
    if code != 0 or text is None:
        raise WrongAnswer(f"exit code {code}")
    report = json.loads(text)
    failing = [c["name"] for c in report["checks"] if c["status"] != "pass"]
    if failing:
        raise WrongAnswer(f"checks not passing: {failing}")
    closed_form({c["name"]: c["payload"] for c in report["checks"]})
    return _sha(text)


def _height1_c_ranks(kmax):
    want = [1, 1] + [0] * (kmax - 1)

    def closed_form(payloads):
        got = payloads["suite-koszul"]["c_ranks"]
        if got != want:
            raise WrongAnswer(f"C[k] ranks {got}, expected {want}")
    return lambda out: _checked_report(out, closed_form)


def _partition_homology(n):
    want = {str(d): {"free_rank": math.factorial(n - 1) if d == n - 1 else 0,
                     "torsion_exponents": []} for d in range(n)}

    def closed_form(payloads):
        got = payloads["partition-homology"]["profile"]
        if got != want:
            raise WrongAnswer(f"partition homology {got}, expected {want}")
    return lambda out: _checked_report(out, closed_form)


def _verify(path, kmax, label):
    return Op(label, _cli(["verify", path, "--suite", "all", "--json"]),
              _height1_c_ranks(kmax))


def _write(ds, workdir, name):
    path = os.path.join(workdir, name)
    algebra.save_dataset(ds, path)
    return path


def corpus(seed, workdir, smoke=False):
    """verify --suite all on built-in and synthetic height-1 datasets."""
    kmax = 2 if smoke else CORPUS_KMAX
    builtin = BUILTIN_PN[:1] if smoke else BUILTIN_PN
    rng = random.Random(f"koszulab-bench-corpus-{seed}")
    specs = [(p, N, s) for p, N in (WIDE_PN[:1] if smoke else WIDE_PN)
             for s in (WIDE_SEEDS[:1] if smoke else WIDE_SEEDS)]
    specs += [(p, N, rng.randrange(10 ** 6)) for p, N in NARROW_PN
              for _ in range(1 if smoke else NARROW_PER_PAIR)]
    ops = []
    for p, N in builtin:
        path = _write(algebra.builtin_height1(p, N, kmax), workdir, f"builtin-{p}-{N}.json")
        ops.append(_verify(path, kmax, f"builtin p={p} N={N}"))
    for p, N, s in specs:
        path = _write(synthetic.synthetic_height1_dataset(p, N, kmax, s), workdir,
                      f"synthetic-{p}-{N}-{s}.json")
        ops.append(_verify(path, kmax, f"synthetic p={p} N={N} seed={s}"))
    return ops


def suite_w9(seed, workdir, smoke=False):
    """One verify --suite all on a single algebra at high weight; the seed
    does not change it."""
    p, N = SUITE_PN
    kmax = 3 if smoke else SUITE_KMAX
    path = _write(algebra.builtin_height1(p, N, kmax), workdir, f"builtin-{p}-{N}-k{kmax}.json")
    return [_verify(path, kmax, f"builtin p={p} N={N} kmax={kmax}")]


def _build(n, p, N):
    want = BUILD_RANKS[n]

    def check(data):
        cx = data.complex
        if cx.ranks != want:
            raise WrongAnswer(f"ranks {cx.ranks}, expected {want}")
        nnz = [sum(len(r) - r.count(0) for r in d.entries) for d in cx.differentials]
        return _sha(json.dumps([list(cx.ranks), nnz]))
    return Op(f"partition_complex n={n} p={p} N={N}",
              lambda: kpartition.partition_complex(n, BaseRing(p, N)), check)


def partition(seed, workdir, smoke=False):
    """partition --n 5 over six rings and one n=6 chain-complex build; the
    seed does not change it."""
    n = 3 if smoke else PARTITION_N
    ops = [Op(f"partition n={n} p={p} N={N}",
              _cli(["partition", "--n", str(n), "--p", str(p),
                    "--N-trunc", str(N), "--json"]),
              _partition_homology(n))
           for p, N in (PARTITION_PN[:2] if smoke else PARTITION_PN)]
    ops.append(_build(4, *BUILD_PN) if smoke else _build(BUILD_N, *BUILD_PN))
    return ops


MAKE = {"corpus": corpus, "suite-w9": suite_w9, "partition": partition}
