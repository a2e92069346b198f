"""Command-line surface over planning, verification, tables, and the testbed.

Exit codes are part of the contract:

    0  everything requested was certified / rendered
    1  a certified failure (a bound fails, a table cell mismatches,
       a depth is certifiably too small, a property witness exists)
    2  inconclusive: the precision ladder hit its cap without a verdict
    3  usage, parse, or validation error

Structured output is one schema-tagged line per object (see records).
Every setting comes from the command line; no environment variable is
read.  Every command runs on one thread; the former `--worker-count` option
is gone and, like any unknown argument, exits 3.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from ellplan._value import Frozen
from ellplan.bounds import (
    BoundKind,
    check_expansion_agreement,
    check_log_pade,
    check_log_tail4,
    check_log_weak,
    ordering_exception_at_one,
    phi_floor_sweep,
    verify_bound_ordering,
    verify_bounds,
)
from ellplan.certified import (
    DEFAULT_POLICY,
    PrecisionExhausted,
    RefinementPolicy,
    Verdict,
)
from ellplan.costs import (
    check_against_expected,
    render_table_csv,
    render_table_text,
    reproduce_table,
)
from ellplan.planner import (
    EpsSpec,
    certificate_sharp,
    depth_comparison,
    ell_bf,
    ell_ps,
    ell_star,
    plan,
)
from ellplan.records import InstanceCheck, render_line, render_record
from ellplan.testbed import (
    BUNDLED_INSTANCES,
    CHECK_LIMIT,
    CoverageInstance,
    InstanceFormatError,
    bundled_instance,
    check_monotone_submodular,
    generate_random_instance,
    load_instance,
    ratio_report,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3

_EXPANSION_ELLS = (100, 1000, 10000)


class RunConfig(Frozen):
    """Settings shared by every subcommand."""

    precision_start_bits: int = DEFAULT_POLICY.start_bits
    precision_cap_bits: int = DEFAULT_POLICY.cap_bits
    output_format: str = "text"
    seed: Optional[int] = None

    def __post_init__(self):
        if not 8 <= self.precision_start_bits <= self.precision_cap_bits <= 65536:
            raise ValueError(
                "need 8 <= precision start <= precision cap <= 65536, got "
                f"start={self.precision_start_bits} cap={self.precision_cap_bits}"
            )
        if self.output_format not in ("text", "structured", "csv"):
            raise ValueError(f"unknown output format {self.output_format!r}")

    @property
    def policy(self) -> RefinementPolicy:
        return RefinementPolicy(
            start_bits=self.precision_start_bits, cap_bits=self.precision_cap_bits
        )


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


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--precision-start", type=int, default=RunConfig.precision_start_bits,
        metavar="BITS", help="first rung of the precision ladder (default %(default)s)",
    )
    common.add_argument(
        "--precision-cap", type=int, default=RunConfig.precision_cap_bits,
        metavar="BITS", help="last rung of the ladder (default %(default)s)",
    )
    common.add_argument(
        "--format", choices=("text", "structured", "csv"), default="text",
        help="output format (csv applies to `table` only)",
    )
    common.add_argument("--seed", type=int, default=None)

    parser = _Parser(
        prog="ellplan",
        description="Certified local-search depth planning and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser(
        "plan", parents=[common], help="compute depth rules for a slack"
    )
    p_plan.add_argument("--eps", required=True, help="slack, e.g. 1e-2 or 3/1000")
    p_plan.add_argument(
        "--rule", choices=("bf", "ps", "star", "all"), default="all"
    )

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a certified verification suite"
    )
    p_verify.add_argument(
        "--suite", choices=("bounds", "logs", "ordering", "expansion"), required=True,
        help="bounds: phi under the four upper bounds and above the 1/e floor; "
        "ordering: the chain between the bounds; logs: three log(1+x) lower "
        "bounds on --grid; expansion: the cubic expansion at 10^2..10^4",
    )
    p_verify.add_argument(
        "--lmax", type=int, default=1000, help="largest depth to sweep"
    )
    p_verify.add_argument(
        "--grid", default="0:10:0.125", metavar="START:STOP:STEP",
        help="inclusive rational grid for the logs suite",
    )

    p_table = sub.add_parser(
        "table", parents=[common], help="reproduce the savings table"
    )
    p_table.add_argument(
        "--eps", action="append", default=None,
        help="slack for one row; repeatable (default: the five reference slacks)",
    )
    p_table.add_argument(
        "--check", action="store_true",
        help="compare against the embedded expected values",
    )

    p_certify = sub.add_parser(
        "certify", parents=[common], help="check one depth against one slack"
    )
    p_certify.add_argument("--ell", type=int, required=True)
    p_certify.add_argument("--eps", required=True)

    p_testbed = sub.add_parser(
        "testbed", parents=[common], help="ground the targets on instances"
    )
    source = p_testbed.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance", metavar="PATH", help="instance file")
    source.add_argument(
        "--bundled", choices=BUNDLED_INSTANCES, help="shipped instance"
    )
    source.add_argument(
        "--random", type=int, metavar="N", help="N seeded random instances"
    )
    p_testbed.add_argument("--eps", default="1e-1", help="slack for the target")

    return parser


def _resolve_config(args) -> RunConfig:
    return RunConfig(
        precision_start_bits=args.precision_start,
        precision_cap_bits=args.precision_cap,
        output_format=args.format,
        seed=args.seed,
    )


def _require_text_or_structured(config: RunConfig) -> None:
    if config.output_format == "csv":
        raise ValueError("csv output applies to `table` only")


def _verdict_word(verdict: Verdict) -> str:
    return verdict.name.lower()


# ---------------------------------------------------------------------------
# plan


def _cmd_plan(args, config: RunConfig, out) -> int:
    _require_text_or_structured(config)
    spec = EpsSpec.parse(args.eps)
    if args.rule != "all":
        if args.rule == "bf":
            value = ell_bf(spec)
        elif args.rule == "ps":
            value = ell_ps(spec, config.policy)
        else:
            value = ell_star(spec, config.policy)
        if config.output_format == "structured":
            print(
                render_line(
                    "depth", {"eps": str(spec), "rule": args.rule, "ell": value}
                ),
                file=out,
            )
        else:
            print(value, file=out)
        return EXIT_OK

    result = plan(spec, config.policy)
    if config.output_format == "structured":
        print(render_record(result), file=out)
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


def _sweep_lines(report, config: RunConfig, out) -> None:
    if config.output_format == "structured":
        print(
            render_line(
                "sweep",
                {
                    "label": report.label,
                    "checked": len(report.entries),
                    "all_ok": report.all_ok,
                    "failures": [e.ell for e in report.failures],
                    "inconclusive": [e.ell for e in report.inconclusive],
                    "max_bits": max((e.bits_used for e in report.entries), default=0),
                },
            ),
            file=out,
        )
    else:
        status = "pass" if report.all_ok else "FAIL"
        print(f"{status}  {report.summary()}", file=out)


def _sweep_exit(reports) -> int:
    if any(report.failures for report in reports):
        return EXIT_FAILURE
    if any(report.inconclusive for report in reports):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _parse_grid(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad grid value in {text!r}") from exc
    if step <= 0 or stop < start:
        raise ValueError(f"grid must increase, got {text!r}")
    points = []
    k = 0
    while start + k * step <= stop:
        points.append(start + k * step)
        k += 1
    return points


def _cmd_verify(args, config: RunConfig, out) -> int:
    _require_text_or_structured(config)
    if args.suite == "bounds":
        if args.lmax < 1:
            raise ValueError("--lmax must be at least 1")
        reports = verify_bounds(list(BoundKind), 1, args.lmax, config.policy)
        ordered = [reports[kind] for kind in BoundKind]
        ordered.append(phi_floor_sweep(1, args.lmax, config.policy))
        for report in ordered:
            _sweep_lines(report, config, out)
        return _sweep_exit(ordered)

    if args.suite == "ordering":
        if args.lmax < 2:
            raise ValueError("--lmax must be at least 2 for the ordering chain")
        reports = verify_bound_ordering(2, args.lmax, config.policy)
        for report in reports.values():
            _sweep_lines(report, config, out)
        exception = ordering_exception_at_one(config.policy)
        note = (
            "at ell = 1 the chain genuinely breaks: sharp > polya-szego "
            f"(certified {_verdict_word(exception.verdict)}, {exception.bits_used} bits)"
        )
        if config.output_format == "structured":
            print(render_line("note", {"text": note}), file=out)
        else:
            print(f"note  {note}", file=out)
        return _sweep_exit(list(reports.values()))

    if args.suite == "logs":
        points = _parse_grid(args.grid)
        failures = 0
        unresolved = 0
        for name, check in (
            ("log_weak", check_log_weak),
            ("log_pade", check_log_pade),
            ("log_tail4", check_log_tail4),
        ):
            bad = []
            unres = []
            for point in points:
                res = check(point, config.policy)
                if res.verdict is Verdict.UNRESOLVED:
                    unres.append(point)
                elif not res.holds:
                    bad.append(point)
            failures += len(bad)
            unresolved += len(unres)
            if config.output_format == "structured":
                print(
                    render_line(
                        "log-check",
                        {
                            "name": name,
                            "points": len(points),
                            "all_ok": not bad and not unres,
                            "failures": [str(p) for p in bad],
                            "inconclusive": [str(p) for p in unres],
                        },
                    ),
                    file=out,
                )
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
    report = check_expansion_agreement(ells)
    if config.output_format == "structured":
        for entry in report.entries:
            print(
                render_line(
                    "expansion",
                    {
                        "ell": entry.ell,
                        "scaled_lo": str(entry.scaled.lo),
                        "scaled_hi": str(entry.scaled.hi),
                        "envelope": str(report.envelope),
                        "ok": entry.ok,
                    },
                ),
                file=out,
            )
    else:
        for entry, line in zip(report.entries, report.summary().splitlines()):
            print(f"{'pass' if entry.ok else 'FAIL'}  {line}", file=out)
    return EXIT_OK if report.all_ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# table


def _cmd_table(args, config: RunConfig, out) -> int:
    specs = None
    if args.eps is not None:
        specs = [EpsSpec.parse(text) for text in args.eps]
    rows = reproduce_table(specs, config.policy)

    if config.output_format == "structured":
        for row in rows:
            print(render_record(row), file=out)
    elif config.output_format == "csv":
        out.write(render_table_csv(rows))
    else:
        out.write(render_table_text(rows))

    if not args.check:
        return EXIT_OK
    result = check_against_expected(rows, policy=config.policy)
    if result.ok:
        print(f"check: all {len(rows)} rows match the embedded values", file=out)
        return EXIT_OK
    for mismatch in result.mismatches:
        print(f"check: MISMATCH {mismatch}", file=out)
    return EXIT_FAILURE


# ---------------------------------------------------------------------------
# certify


def _cmd_certify(args, config: RunConfig, out) -> int:
    _require_text_or_structured(config)
    if args.ell < 1:
        raise ValueError("--ell must be at least 1")
    spec = EpsSpec.parse(args.eps)
    holds = certificate_sharp(args.ell, spec, config.policy)
    direct = depth_comparison(args.ell, spec, config.policy)
    if config.output_format == "structured":
        print(
            render_line(
                "certify",
                {
                    "ell": args.ell,
                    "eps": str(spec),
                    "certificate_holds": holds,
                    "direct": _verdict_word(direct.verdict),
                    "bits": direct.bits_used,
                },
            ),
            file=out,
        )
    else:
        print(
            f"certificate (sufficient only): {'holds' if holds else 'does not hold'}",
            file=out,
        )
        meaning = {
            Verdict.LESS: "depth suffices",
            Verdict.GREATER: "depth is certifiably too small",
            Verdict.UNRESOLVED: "no verdict at the precision cap",
        }[direct.verdict]
        print(
            f"direct comparison phi({args.ell}) vs 1/e + {spec}: "
            f"{_verdict_word(direct.verdict)} ({meaning}; {direct.bits_used} bits)",
            file=out,
        )
    if direct.verdict is Verdict.LESS:
        return EXIT_OK
    if direct.verdict is Verdict.GREATER:
        return EXIT_FAILURE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# testbed


def _named_instances(args, config: RunConfig) -> list[tuple[str, CoverageInstance]]:
    if args.instance is not None:
        return [(args.instance, load_instance(args.instance))]
    if args.bundled is not None:
        return [(args.bundled, bundled_instance(args.bundled))]
    if args.random < 1:
        raise ValueError("--random needs a positive count")
    rng = random.Random(config.seed if config.seed is not None else 0)
    return [
        (f"random-{i}", generate_random_instance(rng)) for i in range(args.random)
    ]


def _cmd_testbed(args, config: RunConfig, out) -> int:
    _require_text_or_structured(config)
    spec = EpsSpec.parse(args.eps)
    instances = _named_instances(args, config)
    structured = config.output_format == "structured"
    worst = EXIT_OK
    for label, instance in instances:
        if not structured:
            print(
                f"instance {label}: n={instance.n}, rank={instance.rank}, "
                f"{len(instance.universe)} items",
                file=out,
            )
        if instance.n <= CHECK_LIMIT:
            check = check_monotone_submodular(instance)
            if structured:
                print(render_record(InstanceCheck.from_check(label, check)), file=out)
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
            print(f"  monotone submodular: skipped (n > {CHECK_LIMIT})", file=out)

        report = ratio_report(instance, spec, seed=config.seed, policy=config.policy)
        if structured:
            print(render_record(report), file=out)
        else:
            certified = "certified" if report.rho_certified else "NOT CERTIFIED"
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
                f"({certified} >= 1 - 1/e - eps)",
                file=out,
            )
            print(f"  target   = rho_star * opt = {report.target_value}", file=out)
            print(f"  greedy/opt = {report.empirical_ratio}", file=out)
            print(f"  {report.algorithm_output}", file=out)
        if not report.rho_certified:
            worst = max(worst, EXIT_FAILURE)
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
        config = _resolve_config(args)
        code = _COMMANDS[args.command](args, config, out)
        # a reader that has gone shows up here, not at the exit-time flush
        out.flush()
        return code
    except BrokenPipeError as exc:
        if out is sys.stdout:
            _stdout_to_devnull()
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionExhausted as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except (InstanceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
