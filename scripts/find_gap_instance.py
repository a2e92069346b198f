#!/usr/bin/env python3
"""Search seeded random instances for ones where greedy lands below OPT.

This is the search that produced the bundled greedy_gap instance: partition
matroids where greedy's first pick exhausts a block that the optimum spends
differently. Prints the worst ratio found and its instance as JSON.
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from ellplan.cli import EXIT_USAGE, _stdout_to_devnull
from ellplan.testbed import (
    brute_force_opt,
    generate_random_instance,
    greedy,
    instance_to_jsonable,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--max-n", type=int, default=8, help="largest ground set to try"
    )
    args = ap.parse_args()

    rng = random.Random(args.seed)
    worst_ratio = Fraction(1)
    worst = None
    gaps = 0
    for index in range(args.count):
        instance = generate_random_instance(rng, max_n=args.max_n)
        _, opt_value = brute_force_opt(instance)
        if opt_value == 0:
            continue
        _, greedy_value = greedy(instance)
        ratio = greedy_value / opt_value
        if ratio < 1:
            gaps += 1
        if ratio < worst_ratio:
            worst_ratio = ratio
            worst = (index, instance, greedy_value, opt_value)

    print(f"# {args.count} instances, {gaps} with greedy < opt")
    if worst is None:
        print("# greedy was optimal everywhere; raise --count or --max-n")
        return 0
    index, instance, greedy_value, opt_value = worst
    print(
        f"# worst ratio {worst_ratio} (= {float(worst_ratio):.4f}) at "
        f"instance {index}: greedy {greedy_value}, opt {opt_value}"
    )
    print(json.dumps(instance_to_jsonable(instance), indent=2))
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # a closed output pipe (`| head -1`) is reported as the CLI reports it
        _stdout_to_devnull()
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    sys.exit(code)
