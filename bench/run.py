#!/usr/bin/env python3
"""koszulab's benchmark: three workloads, every answer checked.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

runs one workload in this process: set-up (the import of koszulab, then
dataset generation and file writes), then passes over the workload's
operations, one operation at a time, until --seconds have elapsed and at
least MIN_PASSES passes are done.  Between operations, SETUP_REPEATS - 1 more
set-ups are made, each importing koszulab afresh; setup_s is the median of
all of them.  Each operation has a deadline enforced with SIGALRM in this
single worker.  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-module metrics with --trace 1.  A --trace 1 run measures
like --trace 0, then installs spans (tracing.py) and makes one traced set-up
and one traced pass; tracing overhead is the traced pass minus the untraced
median.

Without --workload, every workload runs in a fresh interpreter, untraced and
then traced, and the report digests of the two runs are compared.

A full record of each run (provenance, failures by name, digests, every
metric) goes to .bench_out/.  The exit code is nonzero on any wrong answer.
"""
import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")

RUN_SECONDS = 20
# Completing corpus operations take at most about 3 s; the stalled ones run
# for over 200 s.  15 s sits far from both.
DEADLINE_S = 15.0
# Set-up takes 0.1-0.2 s, and the machine's speed wanders over seconds; a
# median of this many, spread over the measurement, steadies it.
SETUP_REPEATS = 15
TAIL_BEYOND = 10
# A corpus pass takes about 29 s; op_tail_s needs two of them (end_to_end).
MIN_PASSES = 2

END_TO_END = (("wall_s", "s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
TRACE_EXTRA = (("bench.traced_wall_s", "s"), ("bench.trace_overhead_s", "s"))
WORKLOADS = ("corpus", "suite-w9", "partition")


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside the running operation."""


def _alarm(signum, frame):
    raise DeadlineExceeded()


def import_workloads():
    """Import workloads.py, and with it koszulab from this checkout's src/
    and nowhere else."""
    try:
        workloads = importlib.import_module("workloads")
    except ImportError as exc:
        sys.exit(f"cannot import koszulab from {SRC}: {exc}")
    path = os.path.abspath(sys.modules["koszulab"].__file__)
    if not path.startswith(SRC + os.sep):
        sys.exit(f"koszulab was imported from {path}, not {SRC}")
    return workloads


def git_commit():
    # GIT_CEILING_DIRECTORIES: outside a repository, do not report the
    # commit of some repository that happens to enclose this checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        out = ""
    return out or "unknown"


def clean_env():
    """This environment without KOSZULAB_THREADS, for fresh interpreters."""
    return {k: v for k, v in os.environ.items() if k != "KOSZULAB_THREADS"}


def record_path(workload, seed, trace, smoke, suffix="json"):
    tag = "-smoke" if smoke else ""
    return os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}{tag}.{suffix}")


# ---------------------------------------------------------------------------
# One workload in this process
# ---------------------------------------------------------------------------

def run_pass(ops, deadline, call, tracer=None, between=None):
    """One closed-loop pass.  Returns (wall, latencies, outcomes), where an
    outcome is ("ok", digest), ("deadline", why) or ("wrong", why).
    `between`, if given, is called after each operation; its time is not
    part of the pass's wall time."""
    from workloads import WrongAnswer
    latencies, outcomes = [], []
    paused = 0.0
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        t = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            out = call(op.call)
            err = None
        except DeadlineExceeded:
            err = ("deadline", f"missed the {deadline:g} s deadline")
        except Exception as exc:   # a traceback from the program is a wrong answer
            err = ("wrong", f"raised {type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        latencies.append(time.perf_counter() - t)
        if err is not None and tracer is not None:
            tracer.end_op()
        if err is None:
            try:
                err = ("ok", op.check(out))
            except WrongAnswer as exc:
                err = ("wrong", str(exc))
            del out
        outcomes.append(err)
        if between is not None:
            t = time.perf_counter()
            between()
            paused += time.perf_counter() - t
    return time.perf_counter() - t_pass - paused, latencies, outcomes


def setup(workload, seed, workdir, smoke):
    """One set-up: import workloads.py, and with it koszulab, then generate
    and write the workload's datasets.  Returns the workloads module, its ops
    and the seconds taken."""
    d = tempfile.mkdtemp(prefix="setup-", dir=workdir)
    t = time.perf_counter()
    workloads = import_workloads()
    ops = workloads.MAKE[workload](seed, d, smoke)
    return workloads, ops, time.perf_counter() - t


def _own_module(name):
    return name == "workloads" or name == "koszulab" or name.startswith("koszulab.")


class SetupSampler:
    """Repeats set-up between operations, at evenly spaced moments of the
    measurement, so that its median sees the machine the passes see.

    A repeat imports koszulab and workloads.py afresh (the standard-library
    modules they use stay loaded), generates and writes the datasets, and
    then puts back the modules the passes run on.
    """

    def __init__(self, setup_args, first_s, seconds):
        self.setup_args = setup_args
        self.own = {k: m for k, m in sys.modules.items() if _own_module(k)}
        self.times = [first_s]
        self.every = seconds / SETUP_REPEATS
        self.t0 = time.perf_counter()

    def _repeat(self):
        try:
            for k in [k for k in sys.modules if _own_module(k)]:
                del sys.modules[k]
            self.times.append(setup(*self.setup_args)[2])
        finally:
            for k in [k for k in sys.modules if _own_module(k)]:
                del sys.modules[k]
            sys.modules.update(self.own)
            gc.collect()

    def __call__(self):
        """Make every repeat that is due by now."""
        while (len(self.times) < SETUP_REPEATS and
               time.perf_counter() - self.t0 >= len(self.times) * self.every):
            self._repeat()

    def median(self):
        """The median set-up time, after any repeats not yet made."""
        while len(self.times) < SETUP_REPEATS:
            self._repeat()
        return statistics.median(self.times)


def tail(latencies):
    """Highest percentile with TAIL_BEYOND operations beyond it; with fewer
    operations than that, the slowest one.  Returns (value, percentile)."""
    xs = sorted(latencies)
    i = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[i], 100.0 * (i + 1) / len(xs)


def check_answers(ops, passes):
    """Failures of every pass, and one report digest per operation, which
    must be the same in every pass.  Returns (failures, digests, attempted)."""
    failures = []
    digests = [None] * len(ops)
    for _, _, outcomes in passes:
        for i, (op, (kind, val)) in enumerate(zip(ops, outcomes)):
            if kind == "ok":
                if digests[i] is None:
                    digests[i] = val
                elif digests[i] != val:
                    kind, val = "wrong", "report digest differs between passes"
            if kind != "ok":
                failures.append({"op": op.label, "kind": kind, "why": val})
    return failures, digests, len(ops) * len(passes)


def end_to_end(passes, setup_s, peak_rss_mb):
    """The END_TO_END metrics of untraced passes, and how op_tail_s was taken.

    wall_s and op_p50_s are taken per pass, then the median over passes, so
    that a stretch of slow passes moves them no more than it moves wall_s.
    Where a pass has more than TAIL_BEYOND operations (corpus), op_tail_s
    pools the operations of every pass.  The operations beyond it are then
    each pass's slowest five, the same wide-modulus datasets whatever the
    seed; one pass's p80 falls where those meet the seed-chosen ones, and
    its spread over ten seeds was 28%.  With fewer (suite-w9, partition) it
    is each pass's slowest operation, median over passes."""
    if len(passes[0][1]) > TAIL_BEYOND:
        pooled = [x for _, lat, _ in passes for x in lat]
        tails, tail_samples = [tail(pooled)], len(pooled)
    else:
        tails, tail_samples = [tail(lat) for _, lat, _ in passes], len(passes[0][1])
    e2e = {
        "wall_s": statistics.median(w for w, _, _ in passes),
        "op_p50_s": statistics.median(statistics.median(lat) for _, lat, _ in passes),
        "op_tail_s": statistics.median(v for v, _ in tails),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"op_tail_percentile": tails[0][1], "op_tail_samples": tail_samples,
            "ops_per_pass": len(passes[0][1]), "passes": len(passes)}
    return e2e, info


def run_workload(args):
    os.environ.pop("KOSZULAB_THREADS", None)
    sys.path.insert(0, SRC)
    import tracing

    signal.signal(signal.SIGALRM, _alarm)
    os.makedirs(WORK_DIR, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        setup_args = (args.workload, args.seed, workdir, args.smoke)
        workloads, ops, t_setup = setup(*setup_args)
        make = workloads.MAKE[args.workload]
        direct = lambda f: f()  # noqa: E731
        passes = []
        sampler = SetupSampler(setup_args, t_setup, args.seconds)
        t_measure = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - t_measure < args.seconds:
            passes.append(run_pass(ops, args.deadline, direct, between=sampler))
        setup_s = sampler.median()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                os.mkdir(os.path.join(workdir, "traced"))
                traced_ops = make(args.seed, os.path.join(workdir, "traced"), args.smoke)
                traced = run_pass(traced_ops, args.deadline,
                                  tracer.span("bench.op"), tracer)
            finally:
                tracer.uninstall()
            passes.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures, digests, attempted = check_answers(ops, passes)
    untraced = passes[:-1] if args.trace else passes
    e2e, info = end_to_end(untraced, setup_s, peak_rss_mb)
    info.update(error_rate=len(failures) / attempted, setup_times=sampler.times)
    combined = hashlib.sha256(json.dumps(digests).encode("utf-8")).hexdigest()
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "deadline_s": args.deadline,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "commit": git_commit(),
    }
    if args.trace:
        metrics = tracer.per_module()
        metrics["bench.traced_wall_s"] = passes[-1][0]
        metrics["bench.trace_overhead_s"] = passes[-1][0] - e2e["wall_s"]
        units = dict(tracing.PER_MODULE + list(TRACE_EXTRA))
    else:
        metrics, units = e2e, dict(END_TO_END)

    result = {
        "correct": all(f["kind"] != "wrong" for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {"provenance": provenance, "end_to_end": e2e, "info": info,
              "failures": failures, "digest": combined, "op_digests": digests,
              "ops": [op.label for op in ops],
              "latencies": [lat for _, lat, _ in passes], "result": result}
    with open(record_path(args.workload, args.seed, args.trace, args.smoke), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(record_path(args.workload, args.seed, args.trace, args.smoke,
                                 "spans.jsonl.gz"))

    print(f"# workload {args.workload}: provenance {json.dumps(provenance, sort_keys=True)}")
    for k, u in END_TO_END:
        print(f"# {args.workload} {k} {e2e[k]:.6g} {u}")
    print(f"# {args.workload} op_tail_s is p{info['op_tail_percentile']:.0f} of "
          f"{info['op_tail_samples']} operations; {info['passes']} passes of "
          f"{info['ops_per_pass']}")
    print(f"# {args.workload} error_rate {info['error_rate']:.6g} "
          f"({len(failures)}/{attempted})")
    for f in failures:
        print(f"# failed: {f['op']}: {f['why']}")
    if args.trace:
        for k, u in units.items():
            print(f"# {args.workload} {k} {metrics[k]:.6g} {u}")
    print(f"# {args.workload} report digest {combined}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# Every workload, each in a fresh interpreter
# ---------------------------------------------------------------------------

def run_all(args):
    code = 0
    for w in WORKLOADS:
        digests = []
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--deadline", str(args.deadline)]
            if args.smoke:
                cmd.append("--smoke")
            rc = subprocess.run(cmd, env=clean_env()).returncode
            path = record_path(w, args.seed, trace, args.smoke)
            if rc != 0 or not os.path.exists(path):
                print(f"# {w} trace {trace}: exit code {rc}")
                code = 1
                continue
            with open(path) as fh:
                digests.append(json.load(fh)["digest"])
        if len(digests) == 2 and digests[0] != digests[1]:
            print(f"# {w}: report digests differ between untraced and traced runs")
            code = 1
    print("# all workloads: " + ("every answer checked" if code == 0 else "FAILED"))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--deadline", type=float, default=DEADLINE_S,
                    help="seconds one operation may take before it counts as failed")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
