import json
from fractions import Fraction

import pytest

from ellplan.costs import reproduce_table
from ellplan.planner import plan
from ellplan.records import (
    SCHEMA_VERSION,
    InstanceCheck,
    RecordError,
    parse_record,
    parse_records,
    render_line,
    render_record,
)
from ellplan.testbed import PropertyCheck, bundled_instance, ratio_report


@pytest.fixture(scope="module")
def sample_plan():
    return plan("1e-2")


@pytest.fixture(scope="module")
def sample_rows():
    return reproduce_table([Fraction(1, 10), Fraction(1, 100)])


@pytest.fixture(scope="module")
def sample_report():
    return ratio_report(bundled_instance("greedy_gap"), "1e-1", seed=11)


class TestRoundTrip:
    def test_plan(self, sample_plan):
        assert parse_record(render_record(sample_plan)) == sample_plan

    def test_table_rows(self, sample_rows):
        for row in sample_rows:
            assert parse_record(render_record(row)) == row

    def test_ratio_report(self, sample_report):
        assert parse_record(render_record(sample_report)) == sample_report

    def test_many_lines(self, sample_plan, sample_rows):
        text = "".join(
            render_record(obj) + "\n" for obj in [sample_plan, *sample_rows]
        )
        assert text.count("\n") == 3
        parsed = parse_records(text)
        assert parsed == [sample_plan, *sample_rows]

    def test_rationals_survive_exactly(self, sample_report):
        again = parse_record(render_record(sample_report))
        assert again.empirical_ratio == Fraction(10, 19)
        assert again.threshold.lo < again.threshold.hi

    def test_none_seed_survives(self):
        report = ratio_report(bundled_instance("three_cover"), "1e-1")
        assert parse_record(render_record(report)).seed is None

    def test_clean_instance_check(self):
        check = InstanceCheck("three_cover", True, None, None)
        assert parse_record(render_record(check)) == check

    def test_instance_check_with_witnesses(self):
        check = InstanceCheck(
            instance="bad-case",
            ok=False,
            monotone_witness=(("a",), ("a", "b")),
            submodular_witness=((), ("e1",), "e2"),
        )
        again = parse_record(render_record(check))
        assert again == check
        assert again.submodular_witness == ((), ("e1",), "e2")

    def test_from_check_sorts_witness_names(self):
        raw = PropertyCheck(
            monotone_witness=(frozenset({"b", "a"}), frozenset({"c", "a", "b"})),
            submodular_witness=(frozenset(), frozenset({"z", "y"}), "x"),
        )
        check = InstanceCheck.from_check("inst", raw)
        assert not check.ok
        assert check.monotone_witness == (("a", "b"), ("a", "b", "c"))
        assert check.submodular_witness == ((), ("y", "z"), "x")
        assert parse_record(render_record(check)) == check


class TestLineShape:
    def test_single_line_with_schema_and_kind(self, sample_plan):
        line = render_record(sample_plan)
        assert "\n" not in line
        doc = json.loads(line)
        assert doc["schema"] == SCHEMA_VERSION
        assert doc["kind"] == "plan"

    def test_deterministic_bytes(self, sample_plan):
        assert render_record(sample_plan) == render_record(sample_plan)

    def test_render_line_sorts_keys(self):
        line = render_line("note", {"b": 1, "a": 2})
        assert line.index('"a"') < line.index('"b"')

    def test_blank_lines_skipped(self, sample_plan):
        text = "\n" + render_record(sample_plan) + "\n\n"
        assert parse_records(text) == [sample_plan]


class TestErrors:
    def test_unsupported_object(self):
        with pytest.raises(RecordError, match="no record form"):
            render_record(object())

    def test_not_json(self):
        with pytest.raises(RecordError, match="not a record"):
            parse_record("nope")

    def test_not_object(self):
        with pytest.raises(RecordError, match="must be an object"):
            parse_record("[1]")

    def test_wrong_schema(self, sample_plan):
        doc = json.loads(render_record(sample_plan))
        doc["schema"] = 999
        with pytest.raises(RecordError, match="unsupported schema"):
            parse_record(json.dumps(doc))

    def test_unknown_kind(self):
        with pytest.raises(RecordError, match="unknown record kind"):
            parse_record(json.dumps({"schema": SCHEMA_VERSION, "kind": "mystery"}))

    def test_missing_field(self, sample_plan):
        doc = json.loads(render_record(sample_plan))
        del doc["ell_star"]
        with pytest.raises(RecordError, match="missing field"):
            parse_record(json.dumps(doc))

    def test_bad_rational_text(self, sample_plan):
        doc = json.loads(render_record(sample_plan))
        doc["rho_star"] = "4/0"
        with pytest.raises(RecordError, match="rho_star"):
            parse_record(json.dumps(doc))

    def test_bad_witness_shape(self):
        check = InstanceCheck("x", False, (("a",), ("a", "b")), None)
        doc = json.loads(render_record(check))
        doc["monotone_witness"] = {"s": ["a"]}
        with pytest.raises(RecordError, match="monotone_witness"):
            parse_record(json.dumps(doc))
        doc["monotone_witness"] = {"s": ["a"], "t": [3]}
        with pytest.raises(RecordError, match="list of names"):
            parse_record(json.dumps(doc))
