import importlib
import json
import sys
import time
from fractions import Fraction

import pytest

from ellplan.certified import Verdict
from ellplan.costs import CellMismatch, reproduce_table
from ellplan.planner import EpsSpec, plan
from ellplan.records import (
    _KINDS,
    SCHEMA_VERSION,
    Certification,
    Depth,
    ExpansionPoint,
    InstanceCheck,
    LogCheckSummary,
    Note,
    RecordError,
    SweepSummary,
    TableCheckResult,
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
    return ratio_report(bundled_instance("greedy_gap"), plan("1e-1"), seed=11)


class TestRoundTrip:
    def test_plan(self, sample_plan):
        assert parse_record(render_record(sample_plan)) == sample_plan

    def test_table_rows(self, sample_rows):
        for row in sample_rows:
            assert parse_record(render_record(row)) == row

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="Python 3.10 has no digit cap"
    )
    def test_table_row_far_below_the_reference_slacks(self):
        # 2^(ell_bf - ell_ps) has about 2.5 * 10^299 digits at 1e-300; the
        # row carries the power alone, so Python's default cap of 4300 digits
        # per int-to-str conversion is enough to render and parse it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            (row,) = reproduce_table(["1e-300"])
            line = render_record(row)
            assert parse_record(line) == row
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(line) < 4096  # seven numbers of about 300 digits
        assert json.loads(line)["factor_ps"]["pow2"] == row.ell_bf - row.ell_ps

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
        report = ratio_report(bundled_instance("three_cover"), plan("1e-1"))
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

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="Python 3.10 has no digit cap"
    )
    def test_int_past_the_digit_cap(self, sample_plan):
        # json.loads raises a plain ValueError, not JSONDecodeError, for an
        # integer literal longer than Python's cap on int-from-str digits
        doc = render_record(sample_plan)
        line = doc.replace('"ell_bf":101', '"ell_bf":' + "1" * 5000)
        assert line != doc
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(RecordError, match="not a record"):
                parse_record(line)
        finally:
            sys.set_int_max_str_digits(limit)

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

    def test_v1_table_line_rejected(self):
        # the form schema 1 wrote, with the decimal 2^d as "exact"
        factor = {"exact": "512", "exponent": 2, "mantissa": "5.1"}
        line = json.dumps(
            {"ell_bf": 11, "ell_ps": 2, "ell_star": 2, "eps": "1/10",
             "factor_ps": factor, "factor_star": factor,
             "kind": "table-row", "schema": 1}
        )
        with pytest.raises(RecordError, match="unsupported schema 1"):
            parse_record(line)

    @pytest.mark.parametrize(
        "field,value",
        [("mantissa", "4.9"), ("exponent", 25), ("pow2", 83), ("pow2", True),
         ("pow2", -1), ("pow2", 82.0), ("pow2", "82")],
    )
    def test_bad_magnitude_rejected(self, sample_rows, field, value):
        doc = json.loads(render_record(sample_rows[1]))
        assert doc["factor_ps"] == {"pow2": 82, "mantissa": "4.8", "exponent": 24}
        doc["factor_ps"][field] = value
        with pytest.raises(RecordError, match="factor_ps"):
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


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_declared_fields_are_the_class_fields(kind):
    # a field added to the class without a codec fails here, rather than
    # dropping out of the record or failing at parse time
    module, name, fields = _KINDS[kind]
    cls = getattr(importlib.import_module(module), name)
    assert list(fields) == list(cls._fields)


@pytest.fixture(scope="module")
def sample_values(sample_plan, sample_rows, sample_report):
    """One value of each kind, every optional and list field non-empty."""
    assert sample_report.seed is not None
    values = [
        sample_plan,
        sample_rows[1],
        sample_report,
        InstanceCheck("bad-case", False, (("a",), ("a", "b")), ((), ("e1",), "e2")),
        Depth(EpsSpec(Fraction(1, 100)), "star", 18),
        SweepSummary("phi <= sharp on [1, 30]", 30, False, (4,), (9, 10), 8),
        Note("at ell = 1 the chain genuinely breaks"),
        LogCheckSummary("log_pade", 5, False, (Fraction(1, 4),), (Fraction(3, 4), Fraction(1))),
        ExpansionPoint(100, Fraction(1, 3), Fraction(1, 2), Fraction(1), True),
        Certification(5, EpsSpec(Fraction(1, 10)), True, Verdict.LESS, 32),
        TableCheckResult(False, (CellMismatch("1e-1", "ell_bf", "12", "11"),)),
    ]
    return {json.loads(render_record(value))["kind"]: value for value in values}


@pytest.fixture(scope="module")
def sample_lines(sample_values):
    return {kind: render_record(value) for kind, value in sample_values.items()}


def test_samples_cover_every_kind(sample_values):
    assert sorted(sample_values) == sorted(_KINDS)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_every_kind_round_trips(sample_values, sample_lines, kind):
    assert parse_record(sample_lines[kind]) == sample_values[kind]
    assert render_record(parse_record(sample_lines[kind])) == sample_lines[kind]


def _fields_of(doc: dict, path: tuple = ()):
    """(path, value) of every payload field of a record, nested ones too."""
    for name, value in doc.items():
        if path or name not in ("schema", "kind"):
            yield path + (name,), value
            if isinstance(value, dict):
                yield from _fields_of(value, path + (name,))


def _with(line: str, path: tuple, value) -> str:
    doc = json.loads(line)
    parent = doc
    for name in path[:-1]:
        parent = parent[name]
    parent[path[-1]] = value
    return json.dumps(doc)


_WRONG = (None, True, 5, 1.5, "x", [], {})
_OPTIONAL = {("seed",), ("monotone_witness",), ("submodular_witness",)}
_FREE_TEXT = {
    ("instance",), ("algorithm_output",), ("submodular_witness", "x"), ("label",),
    ("text",), ("name",),
}


def _may_be_valid(path: tuple, good, value) -> bool:
    """Whether value has the field's one valid type: null for an optional
    field, or the rendered value's JSON type, unless that is an object or
    a text with a form of its own (rational, eps, mantissa)."""
    if value is None:
        return path in _OPTIONAL
    if type(value) is not type(good) or isinstance(value, dict):
        return False
    return not isinstance(value, str) or path in _FREE_TEXT


class TestFieldChecks:
    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_every_field_rejects_a_wrong_type(self, sample_lines, kind):
        line = sample_lines[kind]
        accepted = []
        for path, good in _fields_of(json.loads(line)):
            for value in _WRONG:
                if _may_be_valid(path, good, value):
                    continue
                try:
                    parse_record(_with(line, path, value))
                except RecordError:
                    continue
                accepted.append((path, value))
        assert accepted == []

    @pytest.mark.parametrize("kind", sorted(_KINDS))
    def test_unknown_field_rejected(self, sample_lines, kind):
        with pytest.raises(RecordError, match="unknown field.*'extra'"):
            parse_record(_with(sample_lines[kind], ("extra",), 1))

    @pytest.mark.parametrize(
        "path", [("threshold", "extra"), ("factor_ps", "extra"), ("monotone_witness", "u")]
    )
    def test_unknown_nested_field_rejected(self, sample_lines, path):
        line = next(line for line in sample_lines.values() if f'"{path[0]}"' in line)
        with pytest.raises(RecordError, match=f"{path[0]}: unknown field"):
            parse_record(_with(line, path, []))

    @pytest.mark.parametrize(
        "field,value",
        [("ell_bf", "abc"), ("ell_star", None), ("precision_used", [1]),
         ("certificate_holds_at_star", 1), ("eps", 5), ("eps", "-1/2"), ("eps", "0"),
         ("eps", "1e-2"), ("rho_star", "1e-3000000"), ("rho_star", " 1/2"),
         ("rho_star", "1/-2"), ("rho_star", "1.5"), ("rho_star", "\u0661/2")],
    )
    def test_ill_typed_plan_fields(self, sample_plan, field, value):
        line = _with(render_record(sample_plan), (field,), value)
        with pytest.raises(RecordError, match=field):
            parse_record(line)

    def test_exponent_text_rejected_at_once(self, sample_plan):
        line = _with(render_record(sample_plan), ("rho_star",), "1e-999999999")
        start = time.perf_counter()
        with pytest.raises(RecordError, match="rho_star"):
            parse_record(line)
        assert time.perf_counter() - start < 0.1

    def test_empty_enclosure_rejected_with_its_path(self, sample_report):
        doc = json.loads(render_record(sample_report))
        threshold = doc["threshold"]
        threshold["lo"], threshold["hi"] = threshold["hi"], threshold["lo"]
        with pytest.raises(RecordError, match="threshold: empty enclosure"):
            parse_record(json.dumps(doc))

    def test_unhashable_kind_rejected(self):
        with pytest.raises(RecordError, match="unknown record kind"):
            parse_record(json.dumps({"schema": SCHEMA_VERSION, "kind": []}))

    def test_float_schema_rejected(self, sample_plan):
        line = _with(render_record(sample_plan), ("schema",), 2.0)
        with pytest.raises(RecordError, match="unsupported schema"):
            parse_record(line)

    @pytest.mark.parametrize("kind", ["plan", "ratio-report"])
    def test_duplicate_key_rejected_by_name(self, sample_lines, kind):
        # the second value would silently win in a plain dict
        line = sample_lines[kind]
        with pytest.raises(RecordError, match="duplicate key 'ell_star'"):
            parse_record(line[:-1] + ',"ell_star":999}')

    def test_duplicate_nested_key_rejected_by_name(self, sample_lines):
        line = sample_lines["ratio-report"]
        doubled = line.replace('"threshold":{', '"threshold":{"lo":"0",', 1)
        assert doubled != line
        with pytest.raises(RecordError, match="duplicate key 'lo'"):
            parse_record(doubled)

    @pytest.mark.parametrize(
        "kind,field,items",
        [("sweep", "failures", [True]), ("sweep", "inconclusive", [1, "3"]),
         ("log-check", "failures", ["1e-3"]), ("log-check", "inconclusive", [0.5]),
         ("table-check", "mismatches", [{"row": "1e-1"}]),
         ("table-check", "mismatches", [["1e-1", "ell_bf", "12", "11"]])],
    )
    def test_bad_list_item_rejected_at_its_index(self, sample_lines, kind, field, items):
        index = len(items) - 1
        with pytest.raises(RecordError, match=rf"^{field}\[{index}\]"):
            parse_record(_with(sample_lines[kind], (field,), items))

    @pytest.mark.parametrize(
        "kind,flag,field,items",
        [("sweep", "all_ok", "failures", [4]), ("sweep", "all_ok", "inconclusive", [9]),
         ("log-check", "all_ok", "failures", ["1/4"]),
         ("log-check", "all_ok", "inconclusive", ["3/4"]),
         ("table-check", "ok", "mismatches",
          [{"row": "1e-1", "column": "ell_bf", "expected": "12", "got": "11"}])],
    )
    def test_flag_that_disagrees_with_its_lists_rejected(
        self, sample_lines, kind, flag, field, items
    ):
        # true beside a non-empty list, and false beside all-empty lists
        clean = sample_lines[kind]
        for name in ("failures", "inconclusive", "mismatches"):
            if f'"{name}"' in clean:
                clean = _with(clean, (name,), [])
        agreeing = _with(clean, (flag,), True)
        assert parse_record(agreeing)
        for line in (_with(agreeing, (field,), items), _with(clean, (flag,), False)):
            with pytest.raises(RecordError, match=rf"^{kind}: {flag} disagrees"):
                parse_record(line)

    @pytest.mark.parametrize("verdict", list(Verdict))
    def test_every_verdict_word_round_trips(self, sample_values, verdict):
        outcome = sample_values["certify"]
        again = Certification(outcome.ell, outcome.eps, False, verdict, 0)
        line = render_record(again)
        assert json.loads(line)["direct"] == verdict.name.lower()
        assert parse_record(line) == again

    @pytest.mark.parametrize("word", ["LESS", "equal-as-rationals", "less ", "tie"])
    def test_direct_is_only_a_verdict_word(self, sample_lines, word):
        with pytest.raises(RecordError, match="direct: expected a verdict"):
            parse_record(_with(sample_lines["certify"], ("direct",), word))

    @pytest.mark.parametrize("rule", ["all", "BF", "", "star "])
    def test_depth_rule_is_one_of_three(self, sample_lines, rule):
        with pytest.raises(RecordError, match="rule: expected one of bf, ps, star"):
            parse_record(_with(sample_lines["depth"], ("rule",), rule))
