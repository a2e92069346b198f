#!/usr/bin/env python3
"""Certify the bound family, its ordering, and the 1/e floor over a range.

Prints one line per sweep with timing; exits nonzero on any failure or
unresolved comparison so it can gate CI jobs.
"""

import argparse
import sys
import time

from ellplan.bounds import (
    BoundKind,
    ordering_exception_at_one,
    phi_floor_sweep,
    verify_bound_ordering,
    verify_bounds,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lmax", type=int, default=10**4)
    args = ap.parse_args()

    bad = 0

    t0 = time.perf_counter()
    reports = verify_bounds(list(BoundKind), 1, args.lmax)
    print(f"# four upper bounds, {time.perf_counter() - t0:.2f}s")
    for kind in BoundKind:
        report = reports[kind]
        print(("ok   " if report.all_ok else "FAIL ") + report.summary())
        bad += len(report.failures) + len(report.inconclusive)

    if args.lmax >= 2:
        t0 = time.perf_counter()
        ordering = verify_bound_ordering(2, args.lmax)
        print(f"# ordering chain, {time.perf_counter() - t0:.2f}s")
        for report in ordering.values():
            print(("ok   " if report.all_ok else "FAIL ") + report.summary())
            bad += len(report.failures) + len(report.inconclusive)
        exc = ordering_exception_at_one()
        print(
            f"note the chain starts at 2: at ell = 1 sharp exceeds polya-szego "
            f"(certified {exc.verdict.name.lower()}, {exc.bits_used} bits)"
        )

    t0 = time.perf_counter()
    floor = phi_floor_sweep(1, args.lmax)
    print(f"# 1/e floor, {time.perf_counter() - t0:.2f}s")
    print(("ok   " if floor.all_ok else "FAIL ") + floor.summary())
    bad += len(floor.failures) + len(floor.inconclusive)

    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
