#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out FILE
    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --against FILE

Runs run.py once per (workload, seed), each in a fresh interpreter with
--trace 0, and prints for every end-to-end metric its median, quartiles and
spread, (Q3 - Q1) / median with `statistics.quantiles(values, n=4)`.  A spread
above the metric's bound in BENCHMARK.json fails; one above a third of it is
flagged.  --out writes every run and the summary as JSON.
--against compares with such a file: each median may be worse by at most the
bound, and for every seed both ran, the report digest and the names of the
failed operations must be the same.  The exit code is nonzero on any failure.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH, ROOT, WORKLOADS, clean_env, record_path

RUN = os.path.join(BENCH, "run.py")


def run_one(workload, seed, seconds):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, env=clean_env(), cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(record_path(workload, seed, 0, False)) as fh:
        record = json.load(fh)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "failed_ops": sorted({f["op"] for f in record["failures"]}),
            "digest": record["digest"], "provenance": record["provenance"]}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)

    ok = True
    runs, summary = {}, {}
    for w in args.workloads:
        runs[w] = {}
        for seed in args.seeds:
            r = run_one(w, seed, bench["run_seconds"])
            runs[w][str(seed)] = r
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in r["metrics"].items())
                + f" failed={r['failed_ops']}", flush=True)
        summary[w] = {}
        for name, m in metrics.items():
            s = summarize([runs[w][str(seed)]["metrics"][name] for seed in args.seeds])
            summary[w][name] = s
            flag = ""
            if s["spread"] > m["bound"]:
                flag, ok = "  SPREAD ABOVE BOUND", False
            elif s["spread"] > m["bound"] / 3:
                flag = "  spread above a third of the bound"
            if earlier is not None:
                old = earlier["summary"][w][name]["median"]
                worse = (s["median"] - old) / old
                if m["better"] == "higher":
                    worse = -worse
                flag += f"  vs earlier median {old:.6g} ({worse:+.1%})"
                if worse > m["bound"]:
                    flag, ok = flag + " WORSE THAN BOUND", False
            print(f"{w} {name}: median {s['median']:.6g} {m['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.2%}"
                  f" (bound {m['bound']:.0%}){flag}", flush=True)
        if earlier is not None:
            for seed, r in runs[w].items():
                old = earlier["runs"].get(w, {}).get(seed)
                if old is None:
                    continue
                if (old["digest"], old["failed_ops"]) != (r["digest"], r["failed_ops"]):
                    print(f"{w} seed {seed}: digest or failed operations differ "
                          "from the earlier run")
                    ok = False
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": runs, "summary": summary}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("spread check: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
