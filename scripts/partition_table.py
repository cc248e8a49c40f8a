#!/usr/bin/env python3
"""Tabulate the partition complex: predicted simplex counts per degree for
every n up to --nmax, and, where the size guardrail admits n (or --force is
given), the enumerated counts, reduced homology and the wall time of the
build, of the partition lattice it starts from (timed in a call of its own),
of the d o d check and of the homology, for a range of primes.  The
complex comes out of its builder marked checked, so the homology time is
the reduction alone; the d o d check here is an independent oracle run
with products.

The enumerated counts must equal the predicted ones, and d o d must
vanish, or the script exits 1 (a complex that fails the check gets no
homology); the top-degree rank should be (n-1)!; everything else should
vanish.
"""
import argparse
import math
import time

from koszulab.complexes import homology, verify_complex
from koszulab.padic import BaseRing
from koszulab.partition import (SIMPLEX_BUDGET, chain_counts, id_lattice,
                                partition_complex)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=6,
                    help="largest n (default 6)")
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--N-trunc", dest="N", type=int, default=2)
    ap.add_argument("--force", action="store_true")
    args = ap.parse_args()

    mismatches = 0
    for n, predicted in zip(range(1, args.nmax + 1), chain_counts()):
        total = sum(predicted)
        print(f"n={n}: predicted simplices per degree {predicted} "
              f"({total:,} in all)")
        if total > SIMPLEX_BUDGET and not args.force:
            print(f"  above the budget of {SIMPLEX_BUDGET:,}: not built "
                  "(--force to build it)")
            continue
        for k, p in enumerate(args.primes):
            t0 = time.monotonic()
            id_lattice(n)
            tl = time.monotonic() - t0
            t0 = time.monotonic()
            data = partition_complex(n, BaseRing(p, args.N), force=args.force)
            t1 = time.monotonic()
            complex_ok, degree = verify_complex(data.complex)
            t2 = time.monotonic()
            if k == 0:
                counts = data.complex.ranks
                same = counts == predicted
                mismatches += not same
                print(f"  enumerated {'equal the prediction' if same else counts}")
            if not complex_ok:
                mismatches += 1
                print(f"  p={p}, N={args.N}: d o d != 0 at degree {degree} "
                      f"[NOT A COMPLEX] (build {t1 - t0:.3f}s; "
                      f"d o d check {t2 - t1:.3f}s)")
                continue
            prof = homology(data.complex)
            t3 = time.monotonic()
            ok = (prof.concentrated_in(n - 1)
                  and prof.free_rank(n - 1) == math.factorial(n - 1))
            print(f"  p={p}, N={args.N}: free ranks {prof.free_ranks} "
                  f"[{'ok' if ok else 'UNEXPECTED'}] "
                  f"(build {t1 - t0:.3f}s, of which lattice {tl:.3f}s; "
                  f"d o d check {t2 - t1:.3f}s; homology {t3 - t2:.3f}s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
