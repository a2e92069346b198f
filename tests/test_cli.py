import gc
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from io import StringIO

import pytest

from ellplan.cli import (
    CAP_BITS,
    ELL_DIGITS,
    EPS_DIGITS,
    EPS_EXPONENT,
    EXIT_FAILURE,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    GRID_DIGITS,
    GRID_EXPONENT,
    GRID_POINTS,
    INT_DIGITS,
    LMAX_LIMIT,
    RANDOM_LIMIT,
    TABLE_ROWS,
    _Parser,
    _build_parser,
    _parse_grid,
    main,
)
from ellplan import costs, planner, testbed
from ellplan.certified import RefinementPolicy
from ellplan.costs import EXPECTED_TABLE, ExpectedRow
from ellplan.planner import EllPlan, EpsSpec
from ellplan.records import (
    SCHEMA_VERSION,
    InstanceCheck,
    parse_record,
    parse_records,
)
from ellplan.testbed import BUNDLED_INSTANCES, RatioReport

from conftest import GOLDEN_DIR


def run(*argv):
    out = StringIO()
    code = main(list(argv), out)
    return code, out.getvalue()


class TestRunConfig:
    """The run's policy as main builds it from --precision-cap: a cap below
    8 bits passes the parser and is refused by the policy, exit 3."""

    @pytest.mark.parametrize(
        "kwargs", [{"--precision-cap": 7}, {"--precision-cap": 0}, {"--precision-cap": -8}]
    )
    def test_invalid(self, kwargs, capsys):
        (flag, cap), = kwargs.items()
        assert run("plan", "--eps", "1e-2", flag, str(cap)) == (EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err == f"error: precision cap must be at least 8 bits, got {cap}\n"


# a small valid argv of each subcommand
_MINIMAL_ARGV = {
    "plan": ["plan", "--eps", "1e-2", "--rule", "bf"],
    "verify": ["verify", "--suite", "bounds", "--lmax", "2"],
    "table": ["table", "--eps", "1e-1"],
    "certify": ["certify", "--ell", "2", "--eps", "0.2"],
    "testbed": ["testbed", "--bundled", "three_cover"],
}


class TestOptionsPerSubcommand:
    @pytest.mark.parametrize("command", sorted(_MINIMAL_ARGV))
    def test_seed_only_on_testbed(self, command, capsys):
        argv = [*_MINIMAL_ARGV[command], "--seed", "1"]
        out = StringIO()
        if command == "testbed":
            assert main(argv, out) == EXIT_OK
            return
        with pytest.raises(SystemExit) as err:
            main(argv, out)
        assert err.value.code == EXIT_USAGE
        assert out.getvalue() == ""
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_MINIMAL_ARGV))
    def test_csv_only_on_table(self, command, capsys):
        argv = [*_MINIMAL_ARGV[command], "--format", "csv"]
        out = StringIO()
        if command == "table":
            assert main(argv, out) == EXIT_OK
            return
        with pytest.raises(SystemExit) as err:
            main(argv, out)
        assert err.value.code == EXIT_USAGE
        assert out.getvalue() == ""
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(_MINIMAL_ARGV))
    def test_precision_start_is_gone(self, command, capsys):
        # every ladder starts at 32 bits, or at the cap if that is lower
        argv = [*_MINIMAL_ARGV[command], "--precision-start", "8"]
        out = StringIO()
        with pytest.raises(SystemExit) as err:
            main(argv, out)
        assert err.value.code == EXIT_USAGE
        assert out.getvalue() == ""
        assert "unrecognized arguments: --precision-start 8" in capsys.readouterr().err


class TestPlanCommand:
    def test_all_rule_text(self):
        code, text = run("plan", "--eps", "1e-2")
        assert code == EXIT_OK
        assert "ell_bf     = 101" in text
        assert "ell_ps     = 19" in text
        assert "ell_star   = 18" in text
        assert "certificate at ell_star: holds" in text

    @pytest.mark.parametrize(
        "rule,expected", [("bf", "101"), ("ps", "19"), ("star", "18")]
    )
    def test_single_rules_print_bare_value(self, rule, expected):
        code, text = run("plan", "--eps", "1e-2", "--rule", rule)
        assert code == EXIT_OK
        assert text.strip() == expected

    def test_generous_slack(self):
        code, text = run("plan", "--eps", "0.2", "--rule", "star")
        assert code == EXIT_OK
        assert text.strip() == "1"

    def test_structured_round_trips(self):
        code, text = run("plan", "--eps", "1e-2", "--format", "structured")
        assert code == EXIT_OK
        obj = parse_record(text.strip())
        assert isinstance(obj, EllPlan)
        assert (obj.ell_bf, obj.ell_ps, obj.ell_star) == (101, 19, 18)

    def test_structured_single_rule(self):
        code, text = run("plan", "--eps", "1e-3", "--rule", "ps", "--format", "structured")
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["kind"] == "depth"
        assert doc["ell"] == 184

    # the slack is read by its option's parser type, so a bad one exits 3
    # from the parse, with empty stdout
    def test_zero_eps_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("plan", "--eps", "0")
        assert err.value.code == EXIT_USAGE
        assert capsys.readouterr().err.endswith(
            "error: argument --eps: eps must be positive, got 0\n"
        )

    def test_unparseable_eps_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            run("plan", "--eps", "abc")
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --eps: cannot parse eps from 'abc'\n")

    def test_csv_not_available(self):
        with pytest.raises(SystemExit) as err:
            main(["plan", "--eps", "1e-2", "--format", "csv"])
        assert err.value.code == EXIT_USAGE

    def test_precision_cap_reached_is_exit_two(self):
        code, _ = run("plan", "--eps", "1e-4", "--precision-cap", "8")
        assert code == EXIT_INCONCLUSIVE

    def test_environment_does_not_set_cap(self, monkeypatch):
        # the variable --precision-cap used to fall back to, spelled in two
        # parts so that a search for the removed name finds no live use
        monkeypatch.setenv("ELLPLAN_" "PRECISION_CAP", "8")
        code, _ = run("plan", "--eps", "1e-4")
        assert code == EXIT_OK


class TestVerifyCommand:
    def test_bounds_suite(self):
        code, text = run("verify", "--suite", "bounds", "--lmax", "60")
        assert code == EXIT_OK
        assert text.count("pass") == 5
        assert "phi <= sharp" in text
        assert "pass  phi > 1/e on [1, 60]: 60/60 certified" in text.splitlines()

    def test_ordering_suite_notes_the_exception(self):
        code, text = run("verify", "--suite", "ordering", "--lmax", "50")
        assert code == EXIT_OK
        assert text.count("pass") == 3
        assert "ell = 1" in text and "sharp > polya-szego" in text

    def test_logs_suite(self):
        code, text = run("verify", "--suite", "logs", "--grid", "0:2:0.25")
        assert code == EXIT_OK
        assert "log_weak" in text and "log_pade" in text and "log_tail4" in text
        assert "9/9 certified" in text

    def test_expansion_suite(self):
        code, text = run("verify", "--suite", "expansion", "--lmax", "1000")
        assert code == EXIT_OK
        assert "ell=100" in text and "ell=1000" in text
        assert "ell=10000" not in text

    def test_structured_expansion_lines_match_text(self):
        code, text = run("verify", "--suite", "expansion")
        assert code == EXIT_OK
        code, structured = run(
            "verify", "--suite", "expansion", "--format", "structured"
        )
        assert code == EXIT_OK
        docs = [json.loads(line) for line in structured.splitlines()]
        assert [doc["ell"] for doc in docs] == [100, 1000]
        for doc, line in zip(docs, text.splitlines(), strict=True):
            assert doc["schema"] == SCHEMA_VERSION and doc["kind"] == "expansion"
            lo, hi = Fraction(doc["scaled_lo"]), Fraction(doc["scaled_hi"])
            envelope = Fraction(doc["envelope"])
            assert doc["ok"] and -envelope < lo < hi < envelope
            assert f"[{float(lo):.9f}, {float(hi):.9f}]" in line

    def test_structured_sweep_lines(self):
        code, text = run(
            "verify", "--suite", "bounds", "--lmax", "40", "--format", "structured"
        )
        assert code == EXIT_OK
        docs = [json.loads(line) for line in text.splitlines()]
        assert len(docs) == 5
        assert all(doc["kind"] == "sweep" and doc["all_ok"] for doc in docs)
        assert docs[-1]["label"] == "phi > 1/e on [1, 40]"
        assert docs[-1]["checked"] == 40

    def test_worker_count_is_an_unknown_argument(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "bounds", "--worker-count", "2"])
        assert err.value.code == EXIT_USAGE

    def test_bad_grid_is_usage_error(self):
        assert run("verify", "--suite", "logs", "--grid", "1:0:1")[0] == EXIT_USAGE
        assert run("verify", "--suite", "logs", "--grid", "0:1")[0] == EXIT_USAGE
        assert run("verify", "--suite", "logs", "--grid", "0:1:x")[0] == EXIT_USAGE

    def test_lmax_too_small_is_usage_error(self):
        assert run("verify", "--suite", "bounds", "--lmax", "0")[0] == EXIT_USAGE
        assert run("verify", "--suite", "ordering", "--lmax", "1")[0] == EXIT_USAGE
        assert run("verify", "--suite", "expansion", "--lmax", "99")[0] == EXIT_USAGE


class TestGrid:
    def test_inclusive_endpoints(self):
        points = _parse_grid("0:10:0.125")
        assert len(points) == 81
        assert points[0] == 0
        assert points[-1] == 10
        assert points[1] == Fraction(1, 8)

    def test_rational_step_text(self):
        assert _parse_grid("1/2:5/2:1/2") == [
            Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2),
        ]

    def test_stop_not_on_step_excluded(self):
        assert _parse_grid("0:1:0.3") == [0, Fraction(3, 10), Fraction(3, 5), Fraction(9, 10)]


class TestTableCommand:
    def test_text_matches_golden(self):
        code, text = run("table")
        assert code == EXIT_OK
        assert text == (GOLDEN_DIR / "table.txt").read_text()

    def test_csv_matches_golden(self):
        code, text = run("table", "--format", "csv")
        assert code == EXIT_OK
        assert text == (GOLDEN_DIR / "table.csv").read_text()

    def test_check_passes_on_reference_slacks(self):
        code, text = run("table", "--check")
        assert code == EXIT_OK
        assert "all 5 rows match" in text

    def test_custom_row(self):
        code, text = run("table", "--eps", "1e-5")
        assert code == EXIT_OK
        assert "100001" in text and "18394" in text

    def test_check_with_wrong_row_count_is_usage_error(self, capsys):
        for output_format in ("text", "csv", "structured"):
            argv = ("table", "--eps", "1e-5", "--check", "--format", output_format)
            assert run(*argv) == (EXIT_USAGE, "")
            assert capsys.readouterr().err == "error: 1 rows against 5 expectations\n"

    @pytest.mark.parametrize("output_format", ["text", "csv", "structured"])
    def test_check_at_other_slacks_is_usage_error(self, output_format, capsys):
        # five rows, but the last is not at the last reference slack: its
        # cells are not compared with that slack's values
        slacks = ["1e-1", "5e-2", "1e-2", "1e-3", "1e-5"]
        argv = [arg for eps in slacks for arg in ("--eps", eps)]
        code, text = run("table", *argv, "--check", "--format", output_format)
        assert (code, text) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == (
            "error: row 1e-5 is not at the expected slack 1e-4\n"
        )

    def test_check_accepts_the_reference_slacks_spelled_otherwise(self):
        slacks = ["0.1", "1/20", "0.01", "1e-3", "0.0001"]
        argv = [arg for eps in slacks for arg in ("--eps", eps)]
        code, text = run("table", *argv, "--check")
        assert code == EXIT_OK
        assert text.endswith("check: all 5 rows match the embedded values\n")

    def test_structured_rows_round_trip(self):
        code, text = run("table", "--format", "structured")
        assert code == EXIT_OK
        rows = parse_records(text)
        assert len(rows) == len(EXPECTED_TABLE)
        assert [r.ell_star for r in rows] == [2, 4, 18, 184, 1839]

    def test_structured_check_is_a_status_line(self):
        code, text = run("table", "--check", "--format", "structured")
        assert code == EXIT_OK
        lines = text.splitlines()
        docs = [json.loads(line) for line in lines]
        assert all(doc["schema"] == SCHEMA_VERSION for doc in docs)
        assert [doc["kind"] for doc in docs] == ["table-row"] * 5 + ["table-check"]
        assert docs[-1]["ok"] is True and docs[-1]["mismatches"] == []
        *rows, check = parse_records(text)
        assert len(rows) == 5 and check == costs.TableCheck(True, ())

    def test_csv_check_keeps_stdout_to_the_table(self, capsys):
        code, text = run("table", "--check", "--format", "csv")
        assert code == EXIT_OK
        assert text == (GOLDEN_DIR / "table.csv").read_text()
        assert capsys.readouterr().err == "check: all 5 rows match the embedded values\n"

    def test_check_mismatch_in_each_format(self, monkeypatch, capsys):
        wrong = (ExpectedRow("1e-1", 12, 2, 2, "5.1", 2, "5.1", 2),)
        check = costs.check_against_expected
        monkeypatch.setattr(
            costs, "check_against_expected", lambda rows: check(rows, wrong)
        )
        argv = ("table", "--eps", "1e-1", "--check")
        line = "check: MISMATCH row 1e-1, column ell_bf: expected 12, got 11\n"

        code, text = run(*argv, "--format", "structured")
        assert code == EXIT_FAILURE
        doc = json.loads(text.splitlines()[-1])
        assert doc["kind"] == "table-check" and doc["ok"] is False
        assert doc["mismatches"] == [
            {"row": "1e-1", "column": "ell_bf", "expected": "12", "got": "11"}
        ]
        code, text = run(*argv, "--format", "csv")
        assert code == EXIT_FAILURE
        assert text.count("\n") == 2
        assert capsys.readouterr().err == line
        code, text = run(*argv)
        assert code == EXIT_FAILURE
        assert text.endswith(line)

    @pytest.mark.parametrize("output_format", ["text", "csv", "structured"])
    @pytest.mark.parametrize("eps", ["1e-9", "1e-12", "1e-20", "1e-300"])
    def test_deep_slack_answers_in_bounded_time(self, eps, output_format):
        # the savings factors are powers of two with up to 2.5 * 10^299
        # digits here; rendering them must not build them
        start = time.perf_counter()
        code, text = run("table", "--eps", eps, "--format", output_format)
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK, text
        assert elapsed < 1.0, f"table took {elapsed:.2f}s"

    def test_structured_row_stays_small(self):
        code, text = run("table", "--eps", "1e-6", "--format", "structured")
        assert code == EXIT_OK
        assert len(text) < 2048


class TestCertifyCommand:
    def test_sufficient_depth(self):
        code, text = run("certify", "--ell", "19", "--eps", "1e-2")
        assert code == EXIT_OK
        assert "certificate (sufficient only): holds" in text
        assert "less" in text

    def test_insufficient_depth(self):
        code, text = run("certify", "--ell", "17", "--eps", "1e-2")
        assert code == EXIT_FAILURE
        assert "greater" in text

    def test_non_necessity_demo(self):
        code, text = run("certify", "--ell", "1", "--eps", "0.15")
        assert code == EXIT_OK
        assert "certificate (sufficient only): does not hold" in text
        assert "less" in text

    def test_structured_fields(self):
        code, text = run(
            "certify", "--ell", "19", "--eps", "1e-2", "--format", "structured"
        )
        assert code == EXIT_OK
        doc = json.loads(text)
        assert doc["kind"] == "certify"
        assert doc["certificate_holds"] is True
        assert doc["direct"] == "less"

    def test_bad_ell_is_usage_error(self):
        assert run("certify", "--ell", "0", "--eps", "1e-2")[0] == EXIT_USAGE

    def test_deep_certify_answers_in_bounded_time(self):
        # ell_star(1e-6) = 183940: the comparison must not cost the
        # million-digit power ell^ell / (ell+1)^ell
        start = time.perf_counter()
        code, text = run("certify", "--ell", "1000000", "--eps", "1e-6")
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK, text
        assert elapsed < 1.0, f"certify took {elapsed:.2f}s"
        assert run("certify", "--ell", "183939", "--eps", "1e-6")[0] == EXIT_FAILURE


class TestTestbedCommand:
    def test_bundled_three_cover(self):
        code, text = run("testbed", "--bundled", "three_cover", "--eps", "1e-1")
        assert code == EXIT_OK
        assert "monotone submodular: pass" in text
        assert "opt      = 3" in text
        assert "target   = rho_star * opt = 5/3" in text
        assert "greedy/opt = 1" in text
        assert "not implemented" in text

    def test_bundled_gap_instance(self):
        code, text = run("testbed", "--bundled", "greedy_gap", "--eps", "1e-1")
        assert code == EXIT_OK
        assert "greedy/opt = 10/19" in text

    def test_structured_report_round_trips(self):
        code, text = run(
            "testbed", "--bundled", "greedy_gap", "--eps", "1e-1",
            "--format", "structured",
        )
        assert code == EXIT_OK
        # every line of the testbed stream must parse back, not just the report
        check, report = parse_records(text)
        assert isinstance(check, InstanceCheck)
        assert check.instance == "greedy_gap"
        assert check.ok
        assert check.monotone_witness is None
        assert isinstance(report, RatioReport)
        assert report.empirical_ratio == Fraction(10, 19)
        assert report.rho_certified

    def test_instance_file(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(
            json.dumps(
                {
                    "universe": {"a": 1.5},
                    "ground": {"e1": ["a"]},
                    "matroid": {"type": "uniform", "rank": 1},
                }
            )
        )
        code, text = run("testbed", "--instance", str(path), "--eps", "1e-1")
        assert code == EXIT_OK
        assert "opt      = 3/2" in text

    def test_wide_universe_answers_in_bounded_time(self, tmp_path):
        # the weight tables must grow with the universe, not with 2^64
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "universe": {f"i{j}": j + 1 for j in range(64)},
                    "ground": {
                        "a": [f"i{j}" for j in range(0, 64, 2)],
                        "b": [f"i{j}" for j in range(40, 64)],
                    },
                    "matroid": {"type": "uniform", "rank": 1},
                }
            )
        )
        start = time.perf_counter()
        code, text = run("testbed", "--instance", str(path))
        elapsed = time.perf_counter() - start
        assert code == EXIT_OK, text
        assert elapsed < 1.0, f"testbed took {elapsed:.2f}s"
        assert "opt      = 1260 via {b}" in text

    def test_malformed_instance_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "universe": {"a": 1},
                    "ground": {"e1": ["a"]},
                    "matroid": {"type": "uniform", "rank": 7},
                }
            )
        )
        code, _ = run("testbed", "--instance", str(path), "--eps", "1e-1")
        assert code == EXIT_USAGE
        assert "exceeds ground size" in capsys.readouterr().err

    def test_missing_file(self):
        assert run("testbed", "--instance", "/nonexistent.json")[0] == EXIT_USAGE

    def test_directory_is_usage_error(self, tmp_path, capsys):
        assert run("testbed", "--instance", str(tmp_path))[0] == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")

    def test_random_is_seed_deterministic(self):
        a = run("testbed", "--random", "3", "--seed", "9", "--eps", "1e-1")
        b = run("testbed", "--random", "3", "--seed", "9", "--eps", "1e-1")
        assert a == b
        assert a[0] == EXIT_OK

    def test_random_structured_includes_seed_and_counts(self):
        code, text = run(
            "testbed", "--random", "2", "--seed", "4", "--eps", "1e-1",
            "--format", "structured",
        )
        assert code == EXIT_OK
        reports = [
            parse_record(line)
            for line in text.splitlines()
            if json.loads(line)["kind"] == "ratio-report"
        ]
        assert len(reports) == 2
        for report in reports:
            assert report.seed == 4
            assert report.oracle_calls_brute >= 1
            assert report.oracle_calls_greedy >= 0

    def test_one_plan_serves_every_instance(self, monkeypatch):
        searches = []
        original = planner._ell_star_search

        def counted(*args, **kwargs):
            searches.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(planner, "_ell_star_search", counted)
        code, text = run("testbed", "--random", "5", "--eps", "1e-2")
        assert code == EXIT_OK
        assert text.count("instance random-") == 5
        assert len(searches) == 1

    def test_inconclusive_slack_prints_no_instance(self, capsys):
        code, text = run("testbed", "--random", "2", "--eps", "1e-2000")
        assert code == EXIT_INCONCLUSIVE
        assert text == ""
        assert capsys.readouterr().err.startswith("inconclusive:")

    @pytest.mark.parametrize("eps", ["1e-1", "1e-2000"])
    def test_oversized_instance_prints_nothing(self, eps, tmp_path, capsys):
        # the size check comes before the plan and before any line
        n = testbed.BRUTE_FORCE_LIMIT + 1
        path = tmp_path / "big.json"
        path.write_text(
            json.dumps(
                {
                    "universe": {"a": 1},
                    "ground": {f"e{j}": ["a"] for j in range(n)},
                    "matroid": {"type": "uniform", "rank": 1},
                }
            )
        )
        code, text = run("testbed", "--instance", str(path), "--eps", eps)
        assert code == EXIT_USAGE
        assert text == ""
        err = capsys.readouterr().err
        assert f"n <= {testbed.BRUTE_FORCE_LIMIT}, got {n}" in err

    def test_source_required(self):
        with pytest.raises(SystemExit) as err:
            main(["testbed", "--eps", "1e-1"])
        assert err.value.code == EXIT_USAGE

    def test_unknown_bundled_name_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["testbed", "--bundled", "nope", "--eps", "1e-1"])
        assert err.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ellplan testbed")
        assert "Traceback" not in captured.err
        last = captured.err.splitlines()[-1]
        assert last.startswith("ellplan testbed: error: argument --bundled: ")
        assert "invalid choice: 'nope'" in last

    def test_help_lists_the_bundled_names(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["testbed", "--help"])
        assert err.value.code == EXIT_OK
        shown = capsys.readouterr().out
        assert all(name in shown for name in BUNDLED_INSTANCES)


def test_ratio_weight_instance_exits_3(tmp_path, capsys):
    # a p/q weight has no terminating decimal form to be written back in
    path = tmp_path / "third.json"
    path.write_text(
        '{"universe": {"a": "1/3"}, "ground": {"e1": ["a"]}, '
        '"matroid": {"type": "uniform", "rank": 1}}'
    )
    assert run("testbed", "--instance", str(path)) == (EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: universe.a: bad weight text '1/3'\n"


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == EXIT_USAGE

    def test_no_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == EXIT_USAGE

    def test_bad_precision_window(self):
        assert run("plan", "--eps", "1e-2", "--precision-cap", "4")[0] == EXIT_USAGE

    def test_default_precision_window(self):
        args = _build_parser().parse_args(["plan", "--eps", "1e-2"])
        assert RefinementPolicy(args.precision_cap) == RefinementPolicy(cap_bits=4096)

    def test_unknown_format(self):
        with pytest.raises(SystemExit) as err:
            main(["plan", "--eps", "1e-2", "--format", "yaml"])
        assert err.value.code == EXIT_USAGE


_NINES = "9" * EPS_DIGITS
_ROWS = [arg for k in range(TABLE_ROWS) for arg in ("--eps", f"1e-{k + 1}")]


def _eps(value) -> EpsSpec:
    return EpsSpec(Fraction(value))


class TestOptionLimits:
    """--lmax, --random, the digits of --ell and of the integer options, the
    grid, the eps texts and the table rows are checked as each option is
    parsed, before any work; nothing here runs a command at its limit."""

    @pytest.mark.parametrize(
        "argv,dest,value",
        [
            (["verify", "--suite", "bounds", "--lmax", str(LMAX_LIMIT)], "lmax", LMAX_LIMIT),
            (["testbed", "--random", str(RANDOM_LIMIT)], "random", RANDOM_LIMIT),
            (["certify", "--ell", "9" * ELL_DIGITS, "--eps", "1e-2"], "ell", 10**ELL_DIGITS - 1),
            (["certify", "--ell", "0" * 30 + "19", "--eps", "1e-2"], "ell", 19),
            *(
                (["verify", "--suite", "logs", "--grid", grid], "grid", grid)
                for grid in (
                    f"0:{GRID_POINTS - 1}:1",
                    f"0:{'9' * GRID_DIGITS}:{'1' * GRID_DIGITS}",
                    f"0:1e{GRID_EXPONENT}:1e{GRID_EXPONENT}",
                    f"0:1e-26:1e-{GRID_EXPONENT}",
                    "0:1:x",
                )
            ),
            (["plan", "--eps", f"1e-{EPS_EXPONENT}"], "eps", _eps(Fraction(1, 10**EPS_EXPONENT))),
            (["certify", "--ell", "2", "--eps", f"1/{_NINES}"], "eps", _eps(Fraction(1, int(_NINES)))),
            (["table", "--eps", f"{_NINES}/{_NINES}"], "eps", [_eps(1)]),
            (["testbed", "--bundled", "three_cover", "--eps", f"0.{_NINES[1:]}e-{EPS_EXPONENT}"],
             "eps", _eps(Fraction(int(_NINES[1:]), 10 ** (EPS_DIGITS - 1 + EPS_EXPONENT)))),
            (["table", *_ROWS], "eps", [_eps(Fraction(1, 10 ** (k + 1))) for k in range(TABLE_ROWS)]),
            (["verify", "--suite", "bounds", "--precision-cap", "0" * 30 + str(CAP_BITS)],
             "precision_cap", CAP_BITS),
            (["testbed", "--random", "1", "--seed", "9" * INT_DIGITS], "seed", 10**INT_DIGITS - 1),
        ],
        ids=[
            "lmax", "random", "ell", "ell-leading-zeros", "grid-points", "grid-digits",
            "grid-exponent", "grid-negative-exponent", "grid-malformed-for-the-suite",
            "eps-exponent", "eps-denominator-digits", "eps-both-sides", "eps-digits-and-exponent",
            "table-rows", "precision-cap", "seed",
        ],
    )
    def test_at_the_limit_parses(self, argv, dest, value):
        assert getattr(_build_parser().parse_args(argv), dest) == value

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--suite", "bounds", "--lmax", str(LMAX_LIMIT + 1)],
             f"argument --lmax: must be at most {LMAX_LIMIT}"),
            (["verify", "--suite", "logs", "--lmax", "1" * 10**6],
             f"argument --lmax: must be at most {LMAX_LIMIT}"),
            (["testbed", "--random", str(RANDOM_LIMIT + 1)],
             f"argument --random: must be at most {RANDOM_LIMIT}"),
            (["certify", "--ell", "1" + "0" * ELL_DIGITS, "--eps", "1e-2"],
             f"argument --ell: has more than {ELL_DIGITS} digits"),
            (["verify", "--suite", "logs", "--grid", f"0:{GRID_POINTS}:1"],
             f"argument --grid: has more than {GRID_POINTS} points"),
            (["verify", "--suite", "logs", "--grid", f"0:1:{'1' * (GRID_DIGITS + 1)}"],
             f"argument --grid: a number has more than {GRID_DIGITS} digits"),
            (["verify", "--suite", "logs", "--grid", f"0:1:1e-{GRID_EXPONENT + 1}"],
             f"argument --grid: a decimal exponent exceeds {GRID_EXPONENT} in size"),
            (["verify", "--suite", "bounds", "--grid", "0:1:1e-" + "1" * 10**6],
             f"argument --grid: a decimal exponent exceeds {GRID_EXPONENT} in size"),
            (["plan", "--eps", f"1e-{EPS_EXPONENT + 1}"],
             f"argument --eps: a decimal exponent exceeds {EPS_EXPONENT} in size"),
            (["certify", "--ell", "2", "--eps", f"1/1{'0' * EPS_DIGITS}"],
             f"argument --eps: a number has more than {EPS_DIGITS} digits"),
            (["testbed", "--bundled", "three_cover", "--eps", f"{_NINES}9/1"],
             f"argument --eps: a number has more than {EPS_DIGITS} digits"),
            (["table", "--eps", f"0.{_NINES}"],
             f"argument --eps: a number has more than {EPS_DIGITS} digits"),
            (["table", *_ROWS, "--eps", "1e-1"], f"argument --eps: more than {TABLE_ROWS} rows"),
            (["table", "--precision-cap", str(CAP_BITS + 1)],
             f"argument --precision-cap: must be at most {CAP_BITS}"),
            (["plan", "--eps", "1e-2", "--precision-cap", "1" * 300_000],
             f"argument --precision-cap: must be at most {CAP_BITS}"),
            (["testbed", "--random", "1", "--seed", "-" + "1" * (INT_DIGITS + 1)],
             f"argument --seed: has more than {INT_DIGITS} digits"),
        ],
        ids=[
            "lmax", "lmax-long", "random", "ell", "grid-points", "grid-digits",
            "grid-exponent", "grid-exponent-long", "eps-exponent", "eps-denominator-digits",
            "eps-numerator-digits", "eps-decimal-digits", "table-rows", "precision-cap",
            "precision-cap-long", "seed",
        ],
    )
    def test_past_the_limit_exits_3(self, argv, message, capsys):
        out = StringIO()
        start = time.perf_counter()
        with pytest.raises(SystemExit) as err:
            main(argv, out)
        assert time.perf_counter() - start < 1.0
        assert err.value.code == EXIT_USAGE
        assert out.getvalue() == ""
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f": error: {message}\n")

    def test_bad_text_keeps_the_int_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "bounds", "--lmax", "abc"])
        assert "argument --lmax: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,limit",
        [("--lmax", LMAX_LIMIT), ("--random", RANDOM_LIMIT), ("--grid", GRID_POINTS)],
    )
    def test_help_states_the_limit(self, flag, limit, capsys):
        command = "testbed" if flag == "--random" else "verify"
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"at most {limit}" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize(
        "argv,text",
        [
            (["plan", "--eps", "1e-2"], f"at most {EPS_DIGITS} digits"),
            (["table"], f"at most {TABLE_ROWS} rows"),
            (["certify", "--ell", "2", "--eps", "1e-2"], f"exponent of at most {EPS_EXPONENT}"),
            (["testbed", "--bundled", "three_cover"], f"at most {INT_DIGITS} digits"),
            (["verify", "--suite", "bounds"], f"from 8 to {CAP_BITS}"),
        ],
        ids=["eps", "table-rows", "certify-eps", "seed", "precision"],
    )
    def test_help_states_the_text_limits(self, argv, text, capsys):
        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        assert text in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("grid", ["0:1:1e-100000", "0:1:1e-100000000"])
    def test_deep_grid_exits_3_at_once(self, grid):
        # each grid has 10^100000 points or more: run it with a timeout
        done = _process("verify", "--suite", "logs", "--grid", grid)
        assert done.returncode == EXIT_USAGE
        assert done.stdout == ""
        assert done.stderr.endswith(
            f"argument --grid: a decimal exponent exceeds {GRID_EXPONENT} in size\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--ell", "5", "--eps", "1e-1000000"],
            ["certify", "--ell", "5", "--eps", "1e-3000000"],
            ["plan", "--eps", "1e-10000000"],
        ],
        ids=["certify-1e-1000000", "certify-1e-3000000", "plan-1e-10000000"],
    )
    def test_deep_eps_exits_3_at_once(self, argv):
        # unbounded, these took 33 s, over 60 s and 10 s: run with a timeout
        done = _process(*argv)
        assert done.returncode == EXIT_USAGE
        assert done.stdout == ""
        assert done.stderr.endswith(
            f"argument --eps: a decimal exponent exceeds {EPS_EXPONENT} in size\n"
        )


    @pytest.mark.parametrize(
        "argv",
        [["plan", "--eps", "1e-2"], ["table", "--eps", "1e-1"]],
        ids=["plan", "table"],
    )
    def test_top_cap_answers_at_once(self, argv):
        # the cap is only the last rung: with a start rung at the cap these
        # took 51 s and 91 s
        start = time.perf_counter()
        done = _process(*argv, "--precision-cap", str(CAP_BITS))
        assert time.perf_counter() - start < 2.0
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout == _process(*argv).stdout


def _process(*argv) -> subprocess.CompletedProcess:
    """The CLI run as a process with a timeout, from this tree's source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
    return subprocess.run(
        [sys.executable, "-m", "ellplan.cli", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=20,
    )


class TestInstanceFileLimit:
    """An instance file is read to at most INSTANCE_BYTES bytes."""

    @staticmethod
    def _file(tmp_path, size: int):
        text = json.dumps(
            {"universe": {"a": 1}, "ground": {"e1": ["a"]}, "matroid": {"type": "uniform", "rank": 1}}
        )
        path = tmp_path / "padded.json"
        path.write_bytes(text.encode().ljust(size))
        return path

    def test_at_the_limit_parses(self, tmp_path):
        path = self._file(tmp_path, testbed.INSTANCE_BYTES)
        assert testbed.load_instance(path).n == 1

    def test_past_the_limit_exits_3(self, tmp_path, capsys):
        path = self._file(tmp_path, testbed.INSTANCE_BYTES + 1)
        assert run("testbed", "--instance", str(path)) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == (
            f"error: {path}: instance file is larger than {testbed.INSTANCE_BYTES} bytes\n"
        )

    def test_past_the_limit_exits_3_at_once(self, tmp_path):
        path = self._file(tmp_path, testbed.INSTANCE_BYTES + 1)
        done = _process("testbed", "--instance", str(path))
        assert (done.returncode, done.stdout) == (EXIT_USAGE, "")
        assert done.stderr.endswith(f"larger than {testbed.INSTANCE_BYTES} bytes\n")


class TestOneParser:
    """main builds its parser once and shares it with every later call."""

    def test_main_calls_share_one_parser(self, monkeypatch):
        parsers = []
        parse_args = _Parser.parse_args

        def recording(self, *args, **kwargs):
            parsers.append(self)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(_Parser, "parse_args", recording)
        assert run("plan", "--eps", "1e-2", "--rule", "bf") == (EXIT_OK, "101\n")
        assert run("verify", "--suite", "bounds", "--lmax", "2")[0] == EXIT_OK
        assert len(parsers) == 2
        assert parsers[0] is parsers[1] is _build_parser()

    def test_plan_leaves_no_cyclic_garbage(self):
        argv = ["plan", "--eps", "1e-2", "--format", "structured"]
        run(*argv)  # builds the parser and fills the caches
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert run(*argv)[0] == EXIT_OK
            # a parser rebuilt per call left 265 objects here
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestPastTheCeilingCap:
    """Below about 2^-(cap + 43) no comparison at the cap can separate
    2 eps k e from 1, so ell_ps refuses before it builds a guess whose size
    grows with 1/eps.  Run as processes with a timeout, so a walk that never
    ends fails the test rather than hanging it."""

    @pytest.mark.parametrize(
        "argv",
        [["plan", "--rule", "ps", "--eps", "1e-2000"], ["table", "--eps", "1e-2000"]],
        ids=["plan-ps", "table"],
    )
    def test_exits_2_at_once(self, argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
        done = subprocess.run(
            [sys.executable, "-m", "ellplan.cli", *argv], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=20,
        )
        assert done.returncode == EXIT_INCONCLUSIVE
        assert done.stdout == ""
        assert done.stderr == (
            "inconclusive: ceiling of 1/(2 e eps) still ambiguous at 4096 bits\n"
        )


class _GoneReader:
    """A stdout that buffers writes and fails at flush, as a block-buffered
    pipe does once its reader has gone; fileno() is a descriptor of ours."""

    def __init__(self, fd):
        self.fd = fd
        self.text = ""

    def write(self, text):
        self.text += text
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


class TestClosedPipe:
    def test_flush_failure_is_usage_error(self, tmp_path, monkeypatch, capsys):
        with open(tmp_path / "stdout", "w") as fh:
            stand_in = _GoneReader(fh.fileno())
            monkeypatch.setattr(sys, "stdout", stand_in)
            code = main(["verify", "--suite", "ordering", "--lmax", "5"])
            monkeypatch.undo()
            # the descriptor now leads to the null device, so the flush at
            # exit has nowhere left to fail
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        assert code == EXIT_USAGE
        assert stand_in.text.startswith("pass  ")
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_help_flush_failure_is_usage_error(self, tmp_path, monkeypatch, capsys):
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", _GoneReader(fh.fileno()))
            with pytest.raises(SystemExit) as err:
                main(["--help"])
            monkeypatch.undo()
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        assert err.value.code == EXIT_USAGE
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_flush_failure_of_given_stream_is_usage_error(self, capsys):
        stand_in = _GoneReader(-1)  # not sys.stdout, so never redirected
        assert main(["verify", "--suite", "ordering", "--lmax", "5"], stand_in) == EXIT_USAGE
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_process_exits_three(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = src
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            done = subprocess.run(
                [sys.executable, "-m", "ellplan.cli", "table"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == EXIT_USAGE
        assert done.stderr == "error: [Errno 32] Broken pipe\n"


def _other_interpreters() -> dict[int, str]:
    """Minor version to path of every python3.1x (x >= 10) on PATH that runs
    and is not this interpreter's version."""
    found = {}
    for minor in range(10, 20):
        path = shutil.which(f"python3.{minor}")
        if path is None or minor == sys.version_info.minor:
            continue
        try:
            done = subprocess.run(
                [path, "-c", "import sys; print(sys.version_info.minor)"],
                capture_output=True, text=True, timeout=30,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        # a version-manager shim for an interpreter that is not installed
        # exits nonzero
        if done.returncode == 0 and done.stdout.strip() == str(minor):
            found[minor] = path
    return found


def test_declared_python_range_prints_the_same_bytes():
    # pyproject.toml declares requires-python >= 3.10
    others = _other_interpreters()
    if not others:
        pytest.skip("no other python3.1x (x >= 10) on PATH")
    src = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (
        ["plan", "--eps", "1e-3", "--format", "structured"],
        ["testbed", "--random", "2", "--seed", "3", "--eps", "1e-2", "--format", "structured"],
    ):
        want = subprocess.run(
            [sys.executable, "-m", "ellplan.cli", *argv],
            capture_output=True, env=env, timeout=60,
        )
        assert want.returncode == EXIT_OK and want.stdout
        for minor, path in others.items():
            got = subprocess.run(
                [path, "-m", "ellplan.cli", *argv], capture_output=True, env=env, timeout=60
            )
            assert (got.returncode, got.stdout) == (EXIT_OK, want.stdout), (minor, argv)
