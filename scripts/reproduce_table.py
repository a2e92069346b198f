#!/usr/bin/env python3
"""Recompute the savings table and check it against the embedded values.

Adds a per-row timing column and, with --eps, extrapolated rows beyond the
five reference slacks.
"""

import argparse
import sys
import time

from ellplan.costs import (
    check_against_expected,
    format_eps,
    reproduce_table,
)
from ellplan.planner import EpsSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--eps", action="append", default=None,
        help="extra slack, repeatable (e.g. --eps 1e-5 --eps 1/300000)",
    )
    ap.add_argument(
        "--skip-check", action="store_true",
        help="skip the comparison against the embedded reference values",
    )
    args = ap.parse_args()

    t0 = time.perf_counter()
    reference = reproduce_table()
    reference_seconds = time.perf_counter() - t0

    print(f"{'eps':>10}  {'ell_bf':>7}  {'ell_ps':>7}  {'ell_star':>8}  "
          f"{'factor_ps':>10}  {'factor_star':>11}")
    for row in reference:
        print(
            f"{format_eps(row.eps.eps):>10}  {row.ell_bf:>7}  {row.ell_ps:>7}  "
            f"{row.ell_star:>8}  {row.factor_ps.sci:>10}  {row.factor_star.sci:>11}"
        )
    print(f"# five reference rows in {reference_seconds:.3f}s")

    if not args.skip_check:
        result = check_against_expected(reference)
        if result.ok:
            print("# check: every cell matches the embedded expected values")
        else:
            for mismatch in result.mismatches:
                print(f"# check MISMATCH: {mismatch}")
            return 1

    for text in args.eps or ():
        spec = EpsSpec.parse(text)
        t0 = time.perf_counter()
        (row,) = reproduce_table([spec])
        seconds = time.perf_counter() - t0
        print(
            f"{format_eps(row.eps.eps):>10}  {row.ell_bf:>7}  {row.ell_ps:>7}  "
            f"{row.ell_star:>8}  {row.factor_ps.sci:>10}  {row.factor_star.sci:>11}"
            f"  # extrapolated in {seconds:.3f}s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
