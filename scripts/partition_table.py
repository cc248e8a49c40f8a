#!/usr/bin/env python3
"""Tabulate the partition complex: nondegenerate simplex counts per degree,
reduced homology, and wall time, for a range of n and primes.

The top-degree rank should be (n-1)!; everything else should vanish.
"""
import argparse
import math
import time

from koszulab.padic import BaseRing
from koszulab.partition import nondegenerate_simplices, partition_homology


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=6,
                    help="largest n (default 6)")
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--N-trunc", dest="N", type=int, default=2)
    ap.add_argument("--force", action="store_true")
    args = ap.parse_args()

    for n in range(1, args.nmax + 1):
        counts = {s: len(c) for s, c in
                  sorted(nondegenerate_simplices(n, args.force).items())}
        print(f"n={n}: nondegenerate simplices per degree {counts}")
        for p in args.primes:
            t0 = time.monotonic()
            prof = partition_homology(n, BaseRing(p, args.N), force=args.force)
            dt = time.monotonic() - t0
            ok = (prof.free_rank(n - 1) == math.factorial(n - 1)
                  and all(not prof.torsion_at(d) for d in prof.degrees)
                  and all(prof.free_rank(d) == 0
                          for d in prof.degrees if d != n - 1))
            print(f"  p={p}, N={args.N}: free ranks {prof.free_ranks} "
                  f"[{'ok' if ok else 'UNEXPECTED'}] ({dt:.2f}s)")


if __name__ == "__main__":
    main()
