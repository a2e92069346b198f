import json
import os
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
    RunConfig,
    _parse_grid,
    main,
)
from ellplan.costs import EXPECTED_TABLE
from ellplan.planner import EllPlan
from ellplan.records import (
    SCHEMA_VERSION,
    InstanceCheck,
    parse_record,
    parse_records,
)
from ellplan.testbed import RatioReport

from conftest import GOLDEN_DIR


def run(*argv):
    out = StringIO()
    code = main(list(argv), out)
    return code, out.getvalue()


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.policy.start_bits == 32
        assert config.policy.cap_bits == 4096

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"precision_start_bits": 4},
            {"precision_start_bits": 64, "precision_cap_bits": 32},
            {"precision_cap_bits": 2**17},
            {"output_format": "yaml"},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)


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
        assert run("plan", "--eps", "1e-2", "--format", "csv")[0] == EXIT_USAGE

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

    def test_check_with_wrong_row_count_is_usage_error(self):
        assert run("table", "--eps", "1e-5", "--check")[0] == EXIT_USAGE

    def test_structured_rows_round_trip(self):
        code, text = run("table", "--format", "structured")
        assert code == EXIT_OK
        rows = parse_records(text)
        assert len(rows) == len(EXPECTED_TABLE)
        assert [r.ell_star for r in rows] == [2, 4, 18, 184, 1839]


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

    def test_source_required(self):
        with pytest.raises(SystemExit) as err:
            main(["testbed", "--eps", "1e-1"])
        assert err.value.code == EXIT_USAGE


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
