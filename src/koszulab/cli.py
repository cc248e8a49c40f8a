"""Command-line front end: load datasets, run computations and verification
suites, emit human-readable and machine-readable (JSON) reports.

Exit codes: 0 all checks pass, 1 I/O error, 2 usage error, 3 mathematical
failure.  With ``--json`` the report is byte-deterministic for a fixed dataset
and flags (wall time is printed only in text mode and never serialized).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from .padic import BaseRing, ExactLinalgError
from .complexes import ComplexError, HomologyProfile, homology
from .algebra import (Dataset, DatasetError, builtin_height1, canonical_json,
                      load_dataset, save_dataset, trivial_module)
from .bar import (ImageEscapesError, KoszulData, NotKoszulError,
                  bar_complex_with_module, ext_groups, tor_groups_via_bar,
                  verify_koszulness)
from .isogeny import (MICError, build_mic, dualize_bar_to_mic,
                      mic_cohomology, verify_theorem_10_2)
from .partition import PartitionSizeError, partition_homology, predicted_size
from .synthetic import synthetic_height1_dataset

REPORT_SCHEMA = "koszulab-report-1"
EXIT_PASS, EXIT_IO, EXIT_USAGE, EXIT_MATH = 0, 1, 2, 3


class UsageError(Exception):
    pass


@dataclass
class Check:
    name: str
    anchor: str          # one-line statement of the property being checked
    status: str          # "pass" | "fail" | "skip"
    payload: dict = field(default_factory=dict)


@dataclass
class Report:
    command: list
    fingerprint: Optional[str]
    checks: list
    wall_time: Optional[float] = None

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_json(self) -> dict:
        # wall time deliberately excluded: the JSON report must be
        # byte-identical across runs with the same dataset and flags
        return {
            "schema": REPORT_SCHEMA,
            "command": list(self.command),
            "dataset_fingerprint": self.fingerprint,
            "checks": [{"name": c.name, "anchor": c.anchor,
                        "status": c.status, "payload": c.payload}
                       for c in self.checks],
        }

    def render_text(self) -> str:
        lines = []
        if self.fingerprint:
            lines.append(f"dataset fingerprint: {self.fingerprint}")
        for c in self.checks:
            lines.append(f"[{c.status.upper()}] {c.name}: {c.anchor}")
            for key in sorted(c.payload):
                lines.append(f"    {key}: {json.dumps(c.payload[key], sort_keys=True)}")
        if self.wall_time is not None:
            lines.append(f"wall-time: {self.wall_time:.3f}s")
        return "\n".join(lines)


def fingerprint(ds: Dataset) -> str:
    return hashlib.sha256(canonical_json(ds).encode("utf-8")).hexdigest()


def _profile_payload(prof: HomologyProfile, N: int) -> dict:
    # torsion claims are N-dependent artifacts of the truncation, so the
    # truncation level is always reported next to them
    return {"N": N, "profile": prof.summary()}


def _load(path, checks):
    """The dataset at ``path`` and the command's :class:`KoszulData`, which
    carries whether the dataset passed validation (the check this adds)."""
    try:
        ds = load_dataset(path, validate=False)
    except FileNotFoundError:
        raise IOFailure(f"dataset file not found: {path}")
    except OSError as exc:
        raise IOFailure(f"cannot read {path}: {exc}")
    except DatasetError as exc:
        raise IOFailure(f"{path}: {exc}")
    rep = ds.validate()
    payload = {} if rep.passed else {"witnesses": [f"{c}: {w}" for c, w in rep.failures]}
    checks.append(Check("dataset-validation",
                        "structure constants satisfy every ring and module identity",
                        "pass" if rep.passed else "fail", payload))
    return ds, KoszulData(ds.algebra, rep.passed)


class IOFailure(Exception):
    pass


def _ring(p, N) -> BaseRing:
    """Z/p^N for a --p and an --N-trunc or --N given on the command line."""
    try:
        return BaseRing(p, N)
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_bar(args, checks) -> Dataset:
    ds, data = _load(args.dataset, checks)
    k = args.weight
    if k < 0 or k > ds.algebra.max_weight:
        raise UsageError(f"--weight must be in 0..{ds.algebra.max_weight}")
    if args.module is not None:
        # degrees 0..k of the module bar complex: it is built one degree
        # further (it has none above max_weight), so that degree k's
        # homology is Tor_k and not the kernel of a truncated top degree
        bc = bar_complex_with_module(data, ds.module(args.module), k + 1)
    else:
        bc = data.bar(k)
    prof = homology(bc.complex)
    prof = HomologyProfile(prof.ring, 0, prof.free_ranks[:k + 1],
                           prof.torsion[:k + 1])
    comp_ranks = {str(s): [[list(b.composition), b.rank]
                           for b in bc.degree_blocks(s)]
                  for s in range(k + 1)}
    checks.append(Check(
        "bar-complex",
        f"normalized bar complex at weight {k} is a complex; homology reported",
        "pass",
        {"ranks": list(bc.complex.ranks[:k + 1]),
         "compositions": comp_ranks,
         **_profile_payload(prof, ds.N)}))
    return ds


def cmd_koszul(args, checks) -> Dataset:
    ds, data = _load(args.dataset, checks)
    rep = verify_koszulness(data)
    checks.append(Check(
        "koszulness",
        "weight-k bar homology is free and concentrated in degree k",
        "pass" if rep.passed else "fail",
        {"c_ranks": list(rep.c_ranks),
         "per_weight": [{"k": k, "concentrated": conc,
                         **_profile_payload(prof, ds.N)}
                        for k, prof, conc, _ in rep.entries]}))
    if not rep.passed:
        return ds
    M = ds.module(args.module)
    kc = data.koszul_complex(M)
    tor = data.tor(M)
    checks.append(Check(
        "koszul-complex",
        f"small complex C[k] (x) {M.name} with the last-face differential",
        "pass",
        {"c_ranks": list(kc.c_ranks), "term_ranks": list(kc.term_ranks),
         **_profile_payload(tor, ds.N)}))
    return ds


def cmd_ext(args, checks) -> Dataset:
    ds, data = _load(args.dataset, checks)
    rep = verify_koszulness(data)
    if not rep.passed:
        checks.append(Check(
            "koszulness",
            "weight-k bar homology is free and concentrated in degree k",
            "fail",
            {"per_weight": [{"k": k, "concentrated": conc}
                            for k, _, conc, _ in rep.entries]}))
        return ds
    M = ds.module(args.module)
    prof = ext_groups(data, M)
    checks.append(Check(
        "ext-profile",
        f"Ext against the trivial module from the dual small complex, module {M.name}",
        "pass",
        _profile_payload(prof, ds.N)))
    return ds


def cmd_mic(args, checks) -> Dataset:
    ds, data = _load(args.dataset, checks)
    pkg = ds.subgroup_package
    if pkg is None:
        raise UsageError("dataset carries no subgroup package")
    # the comparison reads the weight-k Koszul module, as verify does
    kmax = min(pkg.max_order, ds.algebra.max_weight)
    if args.k < 0 or args.k > kmax:
        raise UsageError(f"--k must be in 0..{kmax}")
    mic = build_mic(pkg, args.k, data.validated)
    prof, cmp_ = mic_cohomology(data, mic)
    checks.append(Check(
        "mic-cohomology",
        f"order-p^{args.k} subgroup complex: cohomology concentrated in "
        f"degree {args.k} with the weight-{args.k} Koszul rank",
        "pass" if cmp_["matches"] else "fail",
        {"ranks": list(mic.complex.ranks), **_profile_payload(prof, ds.N),
         "koszul_rank": cmp_["koszul_rank"],
         "concentrated_with_koszul_rank": cmp_["matches"]}))
    return ds


def _suite_koszul(ds, checks, data):
    A = ds.algebra
    rep = verify_koszulness(data)
    checks.append(Check(
        "suite-koszul",
        "weight-k bar homology is free and concentrated in degree k",
        "pass" if rep.passed else "fail",
        {"c_ranks": list(rep.c_ranks),
         "failures": [k for k, _, conc, _ in rep.entries if not conc]}))
    if rep.passed:
        M = ds.module("triv") if "triv" in ds.modules else trivial_module(A.coeff)
        kc = data.koszul_complex(M)
        zero = all(d.is_zero() for d in kc.complex.differentials)
        tor = data.tor(M)
        ok = zero and tuple(tor.free_ranks) == kc.c_ranks and \
            all(not t for t in tor.torsion)
        checks.append(Check(
            "suite-koszul-trivial-differential",
            "against the trivial module the small complex has zero "
            "differential and homology ranks equal to the C[k] ranks",
            "pass" if ok else "fail",
            {"differentials_zero": zero, "c_ranks": list(kc.c_ranks),
             **_profile_payload(tor, ds.N)}))
        agree = True
        witness = None
        for M in ds.modules.values():
            t1 = data.tor(M)
            t2 = tor_groups_via_bar(data, M)
            for s in range(A.max_weight + 1):
                if t1.free_rank(s) != t2.free_rank(s) or \
                        t1.torsion_at(s) != t2.torsion_at(s):
                    agree = False
                    witness = f"module {M.name}, degree {s}"
        checks.append(Check(
            "suite-tor-two-routes",
            "Tor from the small complex equals Tor from the module bar complex",
            "pass" if agree else "fail",
            {} if agree else {"witness": witness}))


def _suite_mic_duality(ds, checks, data):
    pkg = ds.subgroup_package
    if pkg is None:
        checks.append(Check("suite-mic-duality",
                            "dual bar complex matches the subgroup complex",
                            "skip", {"reason": "no subgroup package"}))
        return
    kmax = min(pkg.max_order, ds.algebra.max_weight)

    def one(k):
        try:
            res = dualize_bar_to_mic(data, pkg, k)
            return k, res.commutes, res.witness
        except MICError as exc:
            return k, False, str(exc)

    results = [one(k) for k in range(kmax + 1)]
    bad = [(k, w) for k, ok, w in results if not ok]
    checks.append(Check(
        "suite-mic-duality",
        "the pairing-induced map from the dual bar complex to the subgroup "
        "complex intertwines the differentials exactly",
        "pass" if not bad else "fail",
        {"k_checked": [k for k, _, _ in results],
         "witnesses": [f"k={k}: {w}" for k, w in bad]}))


def _suite_thm_square(ds, checks, data):
    pkg = ds.subgroup_package
    if pkg is None:
        checks.append(Check("suite-shift-square",
                            "flag shift against the dual small-complex differential",
                            "skip", {"reason": "no subgroup package"}))
        return
    if "sphere" not in ds.modules:
        checks.append(Check("suite-shift-square",
                            "flag shift against the dual small-complex differential",
                            "skip", {"reason": "no rank-1 'sphere' module"}))
        return
    M = ds.module("sphere")
    kmax = min(pkg.max_order, ds.algebra.max_weight)

    def one(k):
        try:
            res = verify_theorem_10_2(data, pkg, M, k)
            payload = {"top": res.route_top.tolist(),
                       "bottom": res.route_bottom.tolist()}
            return k, res.commutes, res.witness, payload
        except (MICError, NotKoszulError) as exc:
            return k, False, str(exc), {}

    results = [one(k) for k in range(1, kmax + 1)]
    bad = [(k, w) for k, ok, w, _ in results if not ok]
    checks.append(Check(
        "suite-shift-square",
        "quotienting the flag shift map through the pairings agrees with the "
        "transposed small-complex differential in every square",
        "pass" if not bad else "fail",
        {"squares": [{"k": k, "top": pl.get("top"), "bottom": pl.get("bottom")}
                     for k, _, _, pl in results],
         "witnesses": [f"square {k}: {w}" for k, w in bad]}))


def cmd_verify(args, checks) -> Dataset:
    # every suite reads tensors, bar and Koszul complexes from this one
    # object, and flag tensors and pairing inverses from the package, so
    # each is built and checked once per run
    ds, data = _load(args.dataset, checks)
    suites = ([args.suite] if args.suite != "all"
              else ["koszul", "mic-duality", "thm-square"])
    for s in suites:
        if s == "koszul":
            _suite_koszul(ds, checks, data)
        elif s == "mic-duality":
            _suite_mic_duality(ds, checks, data)
        else:
            _suite_thm_square(ds, checks, data)
    return ds


def cmd_partition(args, checks) -> None:
    if args.force and args.n >= 1:
        print(f"partition: n = {args.n} predicts {predicted_size(args.n)}",
              file=sys.stderr)
    try:
        prof = partition_homology(args.n, _ring(args.p, args.N_trunc),
                                  force=args.force)
    except PartitionSizeError as exc:
        raise UsageError(str(exc).replace("pass force=True", "pass --force"))
    want_deg = args.n - 1
    import math
    want_rank = math.factorial(args.n - 1)
    ok = prof.concentrated_in(want_deg) and prof.free_rank(want_deg) == want_rank
    checks.append(Check(
        "partition-homology",
        f"reduced homology of the pointed partition complex on {args.n} "
        f"letters is free of rank ({args.n}-1)! concentrated in degree {args.n}-1",
        "pass" if ok else "fail",
        {"n": args.n, "expected_rank": want_rank,
         **_profile_payload(prof, args.N_trunc)}))


def cmd_gen_height1(args, checks) -> Dataset:
    if args.kmax < 1:
        raise UsageError("--kmax must be >= 1")
    _ring(args.p, args.N)
    if args.seed is not None:
        ds = synthetic_height1_dataset(args.p, args.N, args.kmax, args.seed)
    else:
        ds = builtin_height1(args.p, args.N, args.kmax)
    try:
        save_dataset(ds, args.out)
    except OSError as exc:
        raise IOFailure(f"cannot write {args.out}: {exc}")
    checks.append(Check(
        "gen-height1",
        "height-1 dataset written and validated",
        "pass", {"path": args.out, "p": args.p, "N": args.N, "kmax": args.kmax}))
    return ds


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser.  It depends on nothing and parsing leaves it
    unchanged, so a process builds it once, on first use."""
    ap = argparse.ArgumentParser(
        prog="koszulab",
        description="Exact weight-graded homological algebra over Z/p^N")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, help_, dataset=True):
        sp = sub.add_parser(name, help=help_)
        if dataset:
            sp.add_argument("dataset", help="path to a koszulab-1 JSON dataset")
        sp.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
        return sp

    sp = add("bar", "weight-graded bar complex and its homology")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--module", default=None,
                    help="coefficient module (omit for the trivial two-sided piece)")

    sp = add("koszul", "Koszul submodules and the small Tor complex")
    sp.add_argument("--module", default="triv")

    sp = add("ext", "Ext profile from the dual small complex")
    sp.add_argument("--module", default="triv")

    sp = add("mic", "subgroup-algebra complex and its cohomology")
    sp.add_argument("--k", type=int, required=True)

    sp = add("verify", "named verification suites")
    sp.add_argument("--suite", choices=["koszul", "mic-duality", "thm10.2", "all"],
                    default="all")

    sp = add("partition", "partition complex homology", dataset=False)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N-trunc", dest="N_trunc", type=int, default=1)
    sp.add_argument("--force", action="store_true",
                    help="override the size guardrail")

    sp = add("gen-height1", "write a height-1 dataset", dataset=False)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--kmax", type=int, default=4)
    sp.add_argument("--seed", type=int, default=None,
                    help="generate a seeded synthetic variant instead of the built-in")
    sp.add_argument("--out", required=True)
    return ap


_DISPATCH = {
    "bar": cmd_bar,
    "koszul": cmd_koszul,
    "ext": cmd_ext,
    "mic": cmd_mic,
    "verify": cmd_verify,
    "partition": cmd_partition,
    "gen-height1": cmd_gen_height1,
}


def run(argv=None):
    args = _parser().parse_args(argv)
    if args.cmd == "verify" and args.suite == "thm10.2":
        args.suite = "thm-square"
    checks = []
    t0 = time.monotonic()
    ds = None
    code = EXIT_PASS
    try:
        ds = _DISPATCH[args.cmd](args, checks)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return None, EXIT_USAGE
    except IOFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_IO
    except (NotKoszulError, ImageEscapesError, MICError, ComplexError,
            DatasetError, ExactLinalgError) as exc:
        checks.append(Check("computation", "requested computation completes",
                            "fail", {"witness": str(exc)}))
        code = EXIT_MATH
    report = Report(
        command=[args.cmd] + _echo_flags(args),
        fingerprint=fingerprint(ds) if ds is not None else None,
        checks=checks,
        wall_time=time.monotonic() - t0)
    if not report.passed:
        code = EXIT_MATH
    return report, code


def _echo_flags(args):
    skip = {"cmd", "json", "dataset"}
    out = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        val = getattr(args, key)
        if val is None or val is False:
            continue
        flag = "--" + key.replace("_", "-")
        out.append(flag if val is True else f"{flag}={val}")
    return out


def main(argv=None) -> int:
    report, code = run(argv)
    if report is not None:
        args_json = "--json" in (argv if argv is not None else sys.argv[1:])
        if args_json:
            print(json.dumps(report.to_json(), sort_keys=True,
                             separators=(",", ":")))
        else:
            print(report.render_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
