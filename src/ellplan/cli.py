"""Command-line surface over planning, verification, tables, and the testbed.

Exit codes are part of the contract:

    0  everything requested was certified / rendered
    1  a certified failure (a bound fails, a table cell mismatches,
       a depth is certifiably too small, a property witness exists)
    2  inconclusive: the precision ladder hit its cap without a verdict
    3  usage, parse, or validation error

Structured output is one schema-tagged line per object (see records).
Every setting comes from the command line; no environment variable is
read.  The parser is the one place a setting is declared, and each
subcommand takes only the options its command reads: `--precision-cap` on
all five, `--format csv` on `table` alone and `--seed` on `testbed` alone.
Any other option, like any unknown argument, exits 3.  The cap is the one
precision setting: every ladder starts at 32 bits, or at the cap if that is
lower.  Every command runs on one thread.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

# modules, not names: a module runs at its first use here (see ellplan),
# and a function replaced in its defining module is the one called
from ellplan import bounds, certified, costs, planner, records, testbed

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

_EXPANSION_ELLS = (100, 1000, 10000)

# option limits for about 10 s a command, from the costs in README.md
LMAX_LIMIT, RANDOM_LIMIT, ELL_DIGITS = 100_000, 5_000, 20_000
# --grid: points, and the digits and decimal exponent of each number
GRID_POINTS, GRID_DIGITS, GRID_EXPONENT = 40_000, 30, 30
# --eps: the digits of each side of p/q and the decimal exponent, and table rows
EPS_DIGITS, EPS_EXPONENT, TABLE_ROWS = 20_000, 20_000, 100
# --seed: Python's own default digit limit for int(text), which main lifts
# for its exact rationals; --precision-cap: the highest rung
INT_DIGITS, CAP_BITS = 4_300, 65_536


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the exit-code contract reserves 2 for
    # inconclusive verdicts, so route usage errors to 3
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def exit(self, status=0, message=None):
        # --help has written to stdout: flush it while a reader that has
        # gone can still end in exit 3 rather than at the exit-time flush
        try:
            sys.stdout.flush()
        except BrokenPipeError as exc:
            _stdout_to_devnull()
            status, message = EXIT_USAGE, f"error: {exc}\n"
        super().exit(status, message)


class _BundledNames:
    """The ``--bundled`` choices.  argparse reads them only to check a given
    name or to print help, so building the parser does not load testbed."""

    def __contains__(self, name) -> bool:
        return name in testbed.BUNDLED_INSTANCES

    def __iter__(self):
        return iter(testbed.BUNDLED_INSTANCES)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of the process, built at the first main call (not at
    import, which would load certified for its defaults) and shared by every
    later call.  A parse leaves the tree as it found it, and a tree rebuilt
    per call is cyclic garbage that stays until a full collection."""
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument(
        "--precision-cap", type=_bounded_int(CAP_BITS),
        default=certified.DEFAULT_POLICY.cap_bits, metavar="BITS",
        help="last rung of the precision ladder, which starts at 32 bits or at the "
        f"cap if lower (default %(default)s; from 8 to {CAP_BITS})",
    )

    parser = _Parser(
        prog="ellplan",
        description="Certified local-search depth planning and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser(
        "plan", parents=[precision], help="compute depth rules for a slack"
    )
    _add_format(p_plan)
    p_plan.add_argument(
        "--eps", type=_eps, required=True, help=f"slack, e.g. 1e-2 or 3/1000; {_EPS_HELP}"
    )
    p_plan.add_argument(
        "--rule", choices=("bf", "ps", "star", "all"), default="all"
    )

    p_verify = sub.add_parser(
        "verify", parents=[precision], help="run a certified verification suite"
    )
    _add_format(p_verify)
    p_verify.add_argument(
        "--suite", choices=("bounds", "logs", "ordering", "expansion"), required=True,
        help="bounds: phi under the four upper bounds and above the 1/e floor; "
        "ordering: the chain between the bounds; logs: three log(1+x) lower "
        "bounds on --grid; expansion: the cubic expansion at 10^2..10^4",
    )
    p_verify.add_argument(
        "--lmax", type=_bounded_int(LMAX_LIMIT), default=1000,
        help=f"largest depth to sweep (at most {LMAX_LIMIT})",
    )
    p_verify.add_argument(
        "--grid", type=_bounded_grid, default="0:10:0.125", metavar="START:STOP:STEP",
        help=f"inclusive rational grid for the logs suite (at most {GRID_POINTS} "
        f"points; each number at most {GRID_DIGITS} digits and a decimal exponent "
        f"of at most {GRID_EXPONENT} in size)",
    )

    p_table = sub.add_parser(
        "table", parents=[precision], help="reproduce the savings table"
    )
    _add_format(p_table, "csv")
    p_table.add_argument(
        "--eps", type=_eps, action=_Rows, default=None,
        help=f"slack for one row; repeatable, at most {TABLE_ROWS} rows (default: the "
        f"five reference slacks); {_EPS_HELP}",
    )
    p_table.add_argument(
        "--check", action="store_true",
        help="compare against the embedded expected values",
    )

    p_certify = sub.add_parser(
        "certify", parents=[precision], help="check one depth against one slack"
    )
    _add_format(p_certify)
    p_certify.add_argument(
        "--ell", type=_bounded_int(max_digits=ELL_DIGITS), required=True,
        help=f"depth to check (at most {ELL_DIGITS} digits)",
    )
    p_certify.add_argument("--eps", type=_eps, required=True, help=_EPS_HELP)

    p_testbed = sub.add_parser(
        "testbed", parents=[precision], help="ground the targets on instances"
    )
    _add_format(p_testbed)
    p_testbed.add_argument(
        "--seed", type=_bounded_int(max_digits=INT_DIGITS), default=None,
        help=f"seed for --random (0 if not given), recorded in each report (at most "
        f"{INT_DIGITS} digits)",
    )
    source = p_testbed.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance", metavar="PATH", help="instance file")
    source.add_argument(
        "--bundled", choices=_BundledNames(), metavar="NAME",
        help="shipped instance: %(choices)s",
    )
    source.add_argument(
        "--random", type=_bounded_int(RANDOM_LIMIT), metavar="N",
        help=f"N seeded random instances (at most {RANDOM_LIMIT})",
    )
    p_testbed.add_argument(
        "--eps", type=_eps, default="1e-1", help=f"slack for the target; {_EPS_HELP}"
    )

    return parser


def _bounded_int(most: Optional[int] = None, max_digits: Optional[int] = None):
    """An option type: an int no larger than most, or one of at most
    max_digits digits.  The digits are counted before int() reads them."""
    max_digits = max_digits or len(str(most))
    limit = f"must be at most {most}" if most else f"has more than {max_digits} digits"

    def read(text: str) -> int:
        digits = text.strip().lstrip("+-").replace("_", "").lstrip("0")
        if len(digits) > max_digits or most and int(text) > most:
            raise argparse.ArgumentTypeError(limit)
        return int(text)

    read.__name__ = "int"  # argparse names the type in its own messages
    return read


_EPS_HELP = (
    f"each side of p/q at most {EPS_DIGITS} digits, and a decimal exponent of at most "
    f"{EPS_EXPONENT} in size"
)


def _sized(parts, digits: int, exponent: int) -> None:
    """Refuse a number past digits or a decimal exponent past exponent in
    size, read from each part's text before any number exists."""
    for part in parts:
        mantissa, _, power = part.lower().partition("e")
        power = power.strip().lstrip("+-").replace("_", "").lstrip("0")
        if sum(c.isdecimal() for c in mantissa) > digits:
            raise argparse.ArgumentTypeError(f"a number has more than {digits} digits")
        if power.isdecimal() and (len(power) > len(str(exponent)) or int(power) > exponent):
            raise argparse.ArgumentTypeError(f"a decimal exponent exceeds {exponent} in size")


def _eps(text: str) -> planner.EpsSpec:
    """The --eps type: the slack, refused past a limit of its text."""
    _sized(text.split("/"), EPS_DIGITS, EPS_EXPONENT)
    try:
        return planner.EpsSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Rows(argparse.Action):
    """table's --eps: one row a use, at most TABLE_ROWS of them."""

    def __call__(self, parser, namespace, value, option_string=None):
        rows = getattr(namespace, self.dest) or []
        if len(rows) == TABLE_ROWS:
            raise argparse.ArgumentError(self, f"more than {TABLE_ROWS} rows")
        setattr(namespace, self.dest, [*rows, value])


def _add_format(subparser: argparse.ArgumentParser, *extra: str) -> None:
    subparser.add_argument(
        "--format", choices=("text", "structured", *extra), default="text",
        help="output format (default %(default)s)",
    )


# ---------------------------------------------------------------------------
# plan


def _cmd_plan(args, policy: certified.RefinementPolicy, out) -> int:
    spec = args.eps
    if args.rule != "all":
        if args.rule == "bf":
            value = planner.ell_bf(spec)
        elif args.rule == "ps":
            value = planner.ell_ps(spec, policy)
        else:
            value = planner.ell_star(spec, policy)
        if args.format == "structured":
            print(records.render_record(records.Depth(spec, args.rule, value)), file=out)
        else:
            print(value, file=out)
        return EXIT_OK

    result = planner.plan(spec, policy)
    if args.format == "structured":
        print(records.render_record(result), file=out)
        return EXIT_OK
    print(f"eps        = {spec}", file=out)
    print(f"ell_bf     = {result.ell_bf}", file=out)
    print(f"ell_ps     = {result.ell_ps}", file=out)
    print(f"ell_star   = {result.ell_star}  (certified minimal)", file=out)
    print(f"rho_star   = {result.rho_star}", file=out)
    certificate = "holds" if result.certificate_holds_at_star else "does not hold"
    print(f"certificate at ell_star: {certificate} (sufficient only)", file=out)
    print(f"precision  = {result.precision_used} bits", file=out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _sweep_lines(report, output_format: str, out) -> None:
    if output_format == "structured":
        print(records.render_record(records.SweepSummary.from_report(report)), file=out)
    else:
        status = "pass" if report.all_ok else "FAIL"
        print(f"{status}  {report.summary()}", file=out)


def _sweep_exit(reports) -> int:
    if any(report.failures for report in reports):
        return EXIT_FAILURE
    if any(report.inconclusive for report in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _grid_ends(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad grid value in {text!r}") from exc
    if step <= 0 or stop < start:
        raise ValueError(f"grid must increase, got {text!r}")
    return start, stop, step


def _parse_grid(text: str) -> list[Fraction]:
    start, stop, step = _grid_ends(text)
    return [start + k * step for k in range((stop - start) // step + 1)]


def _bounded_grid(text: str) -> str:
    """The --grid type: refuses a grid past a limit.  Each number's digits
    and exponent are read from its text before any Fraction exists, and the
    point count from the bounded ends.  A malformed grid passes, for the
    logs suite to name."""
    _sized(text.split(":"), GRID_DIGITS, GRID_EXPONENT)
    try:
        start, stop, step = _grid_ends(text)
    except ValueError:
        return text
    if (stop - start) // step >= GRID_POINTS:
        raise argparse.ArgumentTypeError(f"has more than {GRID_POINTS} points")
    return text


def _cmd_verify(args, policy: certified.RefinementPolicy, out) -> int:
    if args.suite == "bounds":
        if args.lmax < 1:
            raise ValueError("--lmax must be at least 1")
        kinds = list(bounds.BoundKind)
        reports = bounds.verify_bounds(kinds, 1, args.lmax, policy)
        ordered = [reports[kind] for kind in kinds]
        ordered.append(bounds.phi_floor_sweep(1, args.lmax, policy))
        for report in ordered:
            _sweep_lines(report, args.format, out)
        return _sweep_exit(ordered)

    if args.suite == "ordering":
        if args.lmax < 2:
            raise ValueError("--lmax must be at least 2 for the ordering chain")
        reports = bounds.verify_bound_ordering(2, args.lmax, policy)
        for report in reports.values():
            _sweep_lines(report, args.format, out)
        exception = bounds.ordering_exception_at_one(policy)
        note = (
            "at ell = 1 the chain genuinely breaks: sharp > polya-szego "
            f"(certified {exception.verdict.word}, {exception.bits_used} bits)"
        )
        if args.format == "structured":
            print(records.render_record(records.Note(note)), file=out)
        else:
            print(f"note  {note}", file=out)
        return _sweep_exit(list(reports.values()))

    if args.suite == "logs":
        points = _parse_grid(args.grid)
        failures = 0
        unresolved = 0
        for name, check in (
            ("log_weak", bounds.check_log_weak),
            ("log_pade", bounds.check_log_pade),
            ("log_tail4", bounds.check_log_tail4),
        ):
            bad = []
            unres = []
            for point in points:
                res = check(point, policy)
                if res.verdict is certified.Verdict.UNRESOLVED:
                    unres.append(point)
                elif not res.holds:
                    bad.append(point)
            failures += len(bad)
            unresolved += len(unres)
            if args.format == "structured":
                summary = records.LogCheckSummary.from_points(name, len(points), bad, unres)
                print(records.render_record(summary), file=out)
            else:
                status = "pass" if not bad and not unres else "FAIL"
                detail = f"{len(points) - len(bad) - len(unres)}/{len(points)} certified"
                print(f"{status}  {name} on grid: {detail}", file=out)
        if failures:
            return EXIT_FAILURE
        return EXIT_INCONCLUSIVE if unresolved else EXIT_OK

    # expansion
    ells = [ell for ell in _EXPANSION_ELLS if ell <= args.lmax]
    if not ells:
        raise ValueError(
            f"--lmax below {_EXPANSION_ELLS[0]}; nothing to check for expansion"
        )
    report = bounds.check_expansion_agreement(ells)
    if args.format == "structured":
        for entry in report.entries:
            point = records.ExpansionPoint.from_entry(entry, report.envelope)
            print(records.render_record(point), file=out)
    else:
        for entry, line in zip(report.entries, report.summary().splitlines()):
            print(f"{'pass' if entry.ok else 'FAIL'}  {line}", file=out)
    return EXIT_OK if report.all_ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# table


def _cmd_table(args, policy: certified.RefinementPolicy, out) -> int:
    rows = costs.reproduce_table(args.eps, policy)
    # before any output: a row at a slack the check has no values for is a
    # usage error, and stdout stays empty
    result = costs.check_against_expected(rows) if args.check else None

    if args.format == "structured":
        for row in rows:
            print(records.render_record(row), file=out)
    elif args.format == "csv":
        out.write(costs.render_table_csv(rows))
    else:
        out.write(costs.render_table_text(rows))

    if result is None:
        return EXIT_OK
    if args.format == "structured":
        print(records.render_record(result), file=out)
    else:
        lines = [f"check: MISMATCH {m}" for m in result.mismatches] or [
            f"check: all {len(rows)} rows match the embedded values"
        ]
        # csv stdout holds the header and the rows alone
        print(*lines, sep="\n", file=sys.stderr if args.format == "csv" else out)
    return EXIT_OK if result.ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# certify


def _cmd_certify(args, policy: certified.RefinementPolicy, out) -> int:
    if args.ell < 1:
        raise ValueError("--ell must be at least 1")
    spec = args.eps
    holds = planner.certificate_sharp(args.ell, spec, policy)
    direct = planner.depth_comparison(args.ell, spec, policy)
    if args.format == "structured":
        outcome = records.Certification.from_comparison(args.ell, spec, holds, direct)
        print(records.render_record(outcome), file=out)
    else:
        print(
            f"certificate (sufficient only): {'holds' if holds else 'does not hold'}",
            file=out,
        )
        meaning = {
            certified.Verdict.LESS: "depth suffices",
            certified.Verdict.GREATER: "depth is certifiably too small",
            certified.Verdict.UNRESOLVED: "no verdict at the precision cap",
        }[direct.verdict]
        print(
            f"direct comparison phi({args.ell}) vs 1/e + {spec}: "
            f"{direct.verdict.word} ({meaning}; {direct.bits_used} bits)",
            file=out,
        )
    if direct.verdict is certified.Verdict.LESS:
        return EXIT_OK
    if direct.verdict is certified.Verdict.GREATER:
        return EXIT_FAILURE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# testbed


def _named_instances(args) -> list[tuple[str, testbed.CoverageInstance]]:
    if args.instance is not None:
        return [(args.instance, testbed.load_instance(args.instance))]
    if args.bundled is not None:
        return [(args.bundled, testbed.bundled_instance(args.bundled))]
    if args.random < 1:
        raise ValueError("--random needs a positive count")
    rng = random.Random(args.seed if args.seed is not None else 0)
    return [
        (f"random-{i}", testbed.generate_random_instance(rng))
        for i in range(args.random)
    ]


def _cmd_testbed(args, policy: certified.RefinementPolicy, out) -> int:
    spec = args.eps
    instances = _named_instances(args)
    for _, instance in instances:
        testbed._require_brute_size(instance)
    depth_plan = planner.plan(spec, policy)
    structured = args.format == "structured"
    worst = EXIT_OK
    for label, instance in instances:
        if not structured:
            print(
                f"instance {label}: n={instance.n}, rank={instance.rank}, "
                f"{len(instance.universe)} items",
                file=out,
            )
        if instance.n <= testbed.CHECK_LIMIT:
            check = testbed.check_monotone_submodular(instance)
            if structured:
                record = records.InstanceCheck.from_check(label, check)
                print(records.render_record(record), file=out)
            else:
                print(
                    f"  monotone submodular: {'pass' if check.ok else 'FAIL'}",
                    file=out,
                )
                if check.monotone_witness is not None:
                    s, t = check.monotone_witness
                    print(
                        f"  monotonicity witness: f({sorted(s)}) > f({sorted(t)})",
                        file=out,
                    )
                if check.submodular_witness is not None:
                    s, t, x = check.submodular_witness
                    print(
                        f"  submodularity witness: marginal of {x!r} grows "
                        f"from {sorted(s)} to {sorted(t)}",
                        file=out,
                    )
            if not check.ok:
                worst = max(worst, EXIT_FAILURE)
        elif not structured:
            print(
                f"  monotone submodular: skipped (n > {testbed.CHECK_LIMIT})", file=out
            )

        report = testbed.ratio_report(instance, depth_plan, seed=args.seed)
        if structured:
            print(records.render_record(report), file=out)
        else:
            print(
                f"  opt      = {report.f_opt} via {{{', '.join(report.opt_set)}}} "
                f"({report.oracle_calls_brute} oracle calls)",
                file=out,
            )
            print(
                f"  greedy   = {report.greedy_value} via "
                f"{{{', '.join(report.greedy_set)}}} "
                f"({report.oracle_calls_greedy} oracle calls)",
                file=out,
            )
            print(
                f"  ell_star = {report.ell_star} for eps = {spec}; "
                f"rho_star = {report.rho_star} "
                "(certified >= 1 - 1/e - eps)",
                file=out,
            )
            print(f"  target   = rho_star * opt = {report.target_value}", file=out)
            print(f"  greedy/opt = {report.empirical_ratio}", file=out)
            print(f"  {report.algorithm_output}", file=out)
    return worst


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "plan": _cmd_plan,
    "verify": _cmd_verify,
    "table": _cmd_table,
    "certify": _cmd_certify,
    "testbed": _cmd_testbed,
}


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at the null device.

    Called once stdout's reader has gone.  Python flushes sys.stdout again
    at exit; without this, whatever is still buffered fails a second time,
    Python prints "Exception ignored" and the process exits 120.  A stdout
    without a descriptor is left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    # exact rationals at depth 10^4+ have six-figure digit counts
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(20_000_000)
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        policy = certified.RefinementPolicy(cap_bits=args.precision_cap)
        code = _COMMANDS[args.command](args, policy, out)
        # a reader that has gone shows up here, not at the exit-time flush
        out.flush()
        return code
    except BrokenPipeError as exc:
        if out is sys.stdout:
            _stdout_to_devnull()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except certified.PrecisionExhausted as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
