#!/usr/bin/env python3
"""Certify the roots of every univariate family on every graph with n <= N.

Runs ``root_report`` on each nonzero family polynomial and prints the number
of reports, the RootFindingError count per (family, message) and the wall
time.  A clean sweep prints no error lines.

Usage: python scripts/root_sweep.py --nmax 8
"""

import argparse
import time
from collections import Counter

from grpoly.catalog import FAMILY_ARITY, FAMILY_NAMES, family_polynomial
from grpoly.graphs import enumerate_graphs
from grpoly.roots import RootFindingError, root_report


def main() -> int:
    families = [f for f in FAMILY_NAMES if FAMILY_ARITY[f] == 1]
    parser = argparse.ArgumentParser()
    parser.add_argument("--nmax", type=int, required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    reports, errors = 0, Counter()
    for n in range(1, args.nmax + 1):
        for g in enumerate_graphs(n):
            for family in families:
                p = family_polynomial(family, g)
                if p.is_zero():
                    continue
                reports += 1
                try:
                    root_report(p)
                except RootFindingError as e:
                    errors[family, str(e)] += 1
    print(f"reports: {reports}")
    print(f"RootFindingError: {sum(errors.values())}")
    for (family, message), count in sorted(errors.items()):
        print(f"  {family}: {message}: {count}")
    print(f"wall: {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
