#!/usr/bin/env python3
"""Compare two checkouts of koszulab on one benchmark workload, pass against
pass, in one interpreter.

    python3 scripts/ab_inproc.py PARENT CHANGE --workload corpus --rounds 30
    python3 scripts/ab_inproc.py PARENT CHANGE --workload corpus --setup

PARENT and CHANGE are repository roots; the workload is corpus, suite-w9
or partition.  Each tree's src/koszulab is loaded under its own package
name, so both run in this process.  The workload's inputs (workload seed 1)
are written once, by CHANGE's bench/workloads.py with CHANGE's koszulab.
Before each pass, the names bench/workloads.py calls through (`algebra`,
`synthetic`, `cli`, `kpartition` and `BaseRing`) are pointed at the tree
that runs it.  Passes are run by CHANGE's bench/run.py (`run_pass`, with
its per-operation deadline DEADLINE_S).  A first pass of each tree, untimed
and traced by `tracemalloc`, checks every answer and requires the two
trees' `--json` reports to be identical; the peak of the memory each tree
allocated during it is printed, in MB.  An operation that misses the
deadline on either tree is left out of the timed rounds and named, and the
number kept is printed as `# N of M operations`.  Each round then times
one pass of each tree, the tree that goes first alternating from round to
round, and takes the ratio change / parent.
The median and quartiles of the ratios and the number of rounds the change
won are printed.  Then each operation's median latency over the rounds is
printed for each tree, with their ratio, and the pooled median of each
tree, the median of all its operation latencies over all rounds, with its
ratio: the quantity the bench's `op_p50_s` reports.  A pass ratio can hide
an operation ratio: on `partition` the bench's own answer check of the n=6
build takes most of a pass.

With --setup, each round times one set-up of each tree instead, the tree
that goes first alternating as for passes.  A set-up is what the bench's
`setup_s` times of koszulab: a fresh import of the tree's src/koszulab
(`load_tree` under a package name not used before), then writing the
workload's inputs with CHANGE's bench/workloads.py pointed at that tree, so
they are generated and saved by the tree's own `save_dataset`.  Bytecode is
neither written nor read: during the set-up rounds `sys.pycache_prefix`
points at a fresh empty temporary directory, so each import compiles from
source whatever `__pycache__` the trees hold, as the bench's runs of a
fresh checkout under PYTHONDONTWRITEBYTECODE=1 do.  Both bytecode settings
are restored afterwards.  The same summary line is printed.

The machine's speed can drift by a factor of two within minutes, so one
process per side cannot resolve a 10% change; alternating passes in one
process see the same machine.
"""
import argparse
import gc
import importlib
import importlib.util
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
import tracemalloc

SEED = 1


def load_tree(root, name):
    """src/koszulab of the checkout ``root``, every module of it imported
    under the package name ``name`` (its modules import each other
    relatively)."""
    pkg_dir = os.path.join(os.path.abspath(root), "src", "koszulab")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"),
        submodule_search_locations=[pkg_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for fname in sorted(os.listdir(pkg_dir)):
        if fname.endswith(".py") and fname != "__init__.py":
            importlib.import_module(f"{name}.{fname[:-3]}")
    return package


def import_bench(root, package):
    """bench/workloads.py and bench/run.py of the checkout ``root``, with
    ``package`` standing in for koszulab while they are imported."""
    prefix = package.__name__
    aliases = {"koszulab" + k[len(prefix):]: m for k, m in list(sys.modules.items())
               if k == prefix or k.startswith(prefix + ".")}
    sys.modules.update(aliases)
    sys.path.insert(0, os.path.join(os.path.abspath(root), "bench"))
    try:
        return importlib.import_module("workloads"), importlib.import_module("run")
    finally:
        sys.path.pop(0)
        for k in aliases:
            del sys.modules[k]


def point_workloads(workloads, name):
    """Point the names bench/workloads.py calls through at the tree loaded
    as ``name``."""
    workloads.algebra = sys.modules[f"{name}.algebra"]
    workloads.synthetic = sys.modules[f"{name}.synthetic"]
    workloads.cli = sys.modules[f"{name}.cli"]
    workloads.kpartition = sys.modules[f"{name}.partition"]
    workloads.BaseRing = sys.modules[f"{name}.padic"].BaseRing


def sides(r):
    """The order of the trees in round ``r``: the first alternates."""
    return ("parent", "change") if r % 2 == 0 else ("change", "parent")


def time_passes(args, trees, workloads, run, workdir):
    """Per round, the seconds of one pass of each tree and that pass's
    operation latencies as (label, seconds) pairs, each by side."""
    signal.signal(signal.SIGALRM, run._alarm)

    def one_pass(side, ops):
        point_workloads(workloads, trees[side].__name__)
        gc.collect()
        return run.run_pass(ops, run.DEADLINE_S, lambda c: c())

    ops = workloads.MAKE[args.workload](SEED, workdir)
    first, peaks = {}, {}
    for side in trees:
        tracemalloc.start()
        first[side] = one_pass(side, ops)[2]
        peaks[side] = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
    print(f"# tracemalloc peak of the checking pass: parent {peaks['parent']:.3f} MB, "
          f"change {peaks['change']:.3f} MB")
    kept, digests = [], []
    for op, a, b in zip(ops, first["parent"], first["change"]):
        if "wrong" in (a[0], b[0]):
            sys.exit(f"wrong answer on {op.label}: parent {a}, change {b}")
        if "deadline" in (a[0], b[0]):
            print(f"# left out, missed the {run.DEADLINE_S:g} s deadline: {op.label}")
            continue
        if a != b:
            sys.exit(f"reports differ between the trees: {op.label}")
        kept.append(op)
        digests.append(a)
    print(f"# {len(kept)} of {len(ops)} operations, reports identical on both trees")
    labels = [op.label for op in kept]

    for r in range(args.rounds):
        seconds, latencies = {}, {}
        for side in sides(r):
            seconds[side], lat, outcomes = one_pass(side, kept)
            if outcomes != digests:
                sys.exit(f"round {r + 1}: {side} answered differently "
                         f"from its first pass")
            latencies[side] = list(zip(labels, lat))
        yield seconds, latencies


def time_setups(args, roots, workloads, workdir):
    """Per round, the seconds of one set-up of each tree, by side, and
    None: a set-up has no operations.  Bytecode is neither written nor read
    (an empty ``sys.pycache_prefix``) until the rounds end."""
    saved = sys.dont_write_bytecode, sys.pycache_prefix
    sys.dont_write_bytecode = True
    sys.pycache_prefix = tempfile.mkdtemp(prefix="pycache-", dir=workdir)
    print(f"# set-ups: a fresh import of the tree, then the {args.workload} inputs")
    try:
        for r in range(args.rounds):
            seconds = {}
            for side in sides(r):
                name = f"ab_{side}_{r}"
                out = tempfile.mkdtemp(prefix=f"setup-{side}-", dir=workdir)
                gc.collect()
                t = time.perf_counter()
                load_tree(roots[side], name)
                point_workloads(workloads, name)
                workloads.MAKE[args.workload](SEED, out)
                seconds[side] = time.perf_counter() - t
                for k in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
                    del sys.modules[k]
                shutil.rmtree(out)
            yield seconds, None
    finally:
        sys.dont_write_bytecode, sys.pycache_prefix = saved


def report_ops(latencies):
    """Print each operation's median latency per tree and the pooled median
    of each tree's operation latencies, with the ratios change / parent;
    ``latencies`` holds the rounds of :func:`time_passes`."""
    print(f"# per-operation median latency over {len(latencies)} rounds: "
          "parent, change, change/parent")
    for i, (label, _) in enumerate(latencies[0]["parent"]):
        med = {side: statistics.median(rnd[side][i][1] for rnd in latencies)
               for side in ("parent", "change")}
        print(f"{label}: {med['parent'] * 1e3:.3f} ms, "
              f"{med['change'] * 1e3:.3f} ms, ratio {med['change'] / med['parent']:.3f}")
    pooled = {side: statistics.median(x for rnd in latencies for _, x in rnd[side])
              for side in ("parent", "change")}
    print(f"# pooled median operation latency: parent {pooled['parent'] * 1e3:.3f} ms, "
          f"change {pooled['change'] * 1e3:.3f} ms, "
          f"change/parent {pooled['change'] / pooled['parent']:.3f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of the parent checkout")
    ap.add_argument("change", help="root of the changed checkout")
    ap.add_argument("--workload", choices=("corpus", "suite-w9", "partition"),
                    required=True)
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--setup", action="store_true",
                    help="time set-ups (import and input writes), not passes")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    roots = {"parent": args.parent, "change": args.change}
    trees = {side: load_tree(root, f"ab_{side}") for side, root in roots.items()}
    workloads, run = import_bench(args.change, trees["change"])
    workdir = tempfile.mkdtemp(prefix="ab-inproc-")
    try:
        rounds = (time_setups(args, roots, workloads, workdir) if args.setup
                  else time_passes(args, trees, workloads, run, workdir))
        ratios, latencies = [], []
        for r, (seconds, lat) in enumerate(rounds):
            ratios.append(seconds["change"] / seconds["parent"])
            latencies.append(lat)
            print(f"round {r + 1}: parent {seconds['parent']:.4f} s, "
                  f"change {seconds['change']:.4f} s, ratio {ratios[-1]:.3f}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # one round is its own median and quartiles
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(x < 1 for x in ratios)
    what = f"{args.workload} set-up" if args.setup else args.workload
    print(f"# {what}: change/parent median {median:.3f} "
          f"(quartiles {q1:.3f}, {q3:.3f}), change won {wins} of {len(ratios)} rounds")
    if not args.setup:
        report_ops(latencies)
    return 0


if __name__ == "__main__":
    sys.exit(main())
