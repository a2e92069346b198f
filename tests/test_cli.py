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
    EXIT_FAILURE,
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    _parse_grid,
    _policy_of,
    main,
)
from ellplan import costs, planner, testbed
from ellplan.certified import RefinementPolicy
from ellplan.costs import EXPECTED_TABLE, ExpectedRow
from ellplan.planner import EllPlan
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
    """The run's settings as main resolves them from the precision options."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"precision_start_bits": 4},
            {"precision_start_bits": 64, "precision_cap_bits": 32},
            {"precision_cap_bits": 2**17},
        ],
    )
    def test_invalid(self, kwargs, capsys):
        flags = {
            "precision_start_bits": "--precision-start",
            "precision_cap_bits": "--precision-cap",
        }
        window = [arg for key, bits in kwargs.items() for arg in (flags[key], str(bits))]
        assert run("plan", "--eps", "1e-2", *window) == (EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.startswith("error: need 8 <= precision start <= precision cap")


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

    def test_zero_eps_rejected(self, capsys):
        assert run("plan", "--eps", "0")[0] == EXIT_USAGE

    def test_unparseable_eps_rejected(self):
        assert run("plan", "--eps", "abc")[0] == EXIT_USAGE

    def test_csv_not_available(self):
        with pytest.raises(SystemExit) as err:
            main(["plan", "--eps", "1e-2", "--format", "csv"])
        assert err.value.code == EXIT_USAGE

    def test_precision_cap_reached_is_exit_two(self):
        code, _ = run(
            "plan", "--eps", "1e-4", "--precision-start", "8", "--precision-cap", "8"
        )
        assert code == EXIT_INCONCLUSIVE

    def test_environment_does_not_set_cap(self, monkeypatch):
        # the variable --precision-cap used to fall back to, spelled in two
        # parts so that a search for the removed name finds no live use
        monkeypatch.setenv("ELLPLAN_" "PRECISION_CAP", "8")
        code, _ = run("plan", "--eps", "1e-4", "--precision-start", "8")
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
        assert len(rows) == 5 and check.ok and check.mismatches == ()

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
        assert run("plan", "--eps", "1e-2", "--precision-start", "4")[0] == EXIT_USAGE

    def test_default_precision_window(self):
        args = _build_parser().parse_args(["plan", "--eps", "1e-2"])
        assert _policy_of(args) == RefinementPolicy(start_bits=32, cap_bits=4096)

    def test_unknown_format(self):
        with pytest.raises(SystemExit) as err:
            main(["plan", "--eps", "1e-2", "--format", "yaml"])
        assert err.value.code == EXIT_USAGE


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
