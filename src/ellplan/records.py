"""Line-delimited structured records with a versioned schema.

One object per line, every line self-describing: a schema version, a kind
tag, then the payload.  ``_KINDS`` declares each kind's payload once: the
fields of its value class, in order, each with a codec, a (render, parse)
pair for one wire type.  Every structured line the CLI writes is one of
these kinds.  Rendering and parsing are one loop over that table, and
parse(render(x)) == x for every kind.  Parsing raises ``RecordError`` on
anything unfamiliar: a key given twice is refused by name; every field's
JSON type is checked (``true`` is not an int); rationals parse only as the
exact "num/den" text ``str(Fraction)`` writes, so exponent text such as
``1e-9`` is refused before any arithmetic; a word field such as a verdict
takes only its words; a missing or unknown field is refused by name; a
value its class refuses, such as ``eps <= 0``, is refused at its path; and
fields that disagree, such as a summary flag that is true beside a
non-empty list of failures, are refused by the record's kind.
"""

from __future__ import annotations

import importlib
import json
import re
from fractions import Fraction
from typing import Optional

# modules, not names: a module runs at its first use here (see ellplan),
# and a function replaced in its defining module is the one called
from ellplan import bounds, certified, costs, planner, testbed
from ellplan._value import Frozen

SCHEMA_VERSION = 2


class RecordError(ValueError):
    """A line that is not a well-formed record of a known kind."""


class InstanceCheck(Frozen):
    """Monotone-submodular check outcome for one named instance.

    Wire form of a testbed ``PropertyCheck``: witnesses are canonicalized
    to sorted name tuples so rendering is deterministic.
    """

    instance: str
    ok: bool
    monotone_witness: Optional[tuple[tuple[str, ...], tuple[str, ...]]]
    submodular_witness: Optional[tuple[tuple[str, ...], tuple[str, ...], str]]

    @classmethod
    def from_check(cls, instance: str, check: testbed.PropertyCheck) -> "InstanceCheck":
        mono = check.monotone_witness
        sub = check.submodular_witness
        return cls(
            instance=instance,
            ok=check.ok,
            monotone_witness=(
                None
                if mono is None
                else (tuple(sorted(mono[0])), tuple(sorted(mono[1])))
            ),
            submodular_witness=(
                None
                if sub is None
                else (tuple(sorted(sub[0])), tuple(sorted(sub[1])), sub[2])
            ),
        )


class Depth(Frozen):
    """The depth one rule gives for one slack, as ``plan --rule`` answers."""

    eps: planner.EpsSpec
    rule: str
    ell: int


class SweepSummary(Frozen):
    """A bound sweep's outcome: the ell that failed and that stayed unresolved."""

    label: str
    checked: int
    all_ok: bool
    failures: tuple[int, ...]
    inconclusive: tuple[int, ...]
    max_bits: int

    def __post_init__(self):
        if self.all_ok != (not self.failures and not self.inconclusive):
            raise ValueError("all_ok disagrees with failures and inconclusive")

    @classmethod
    def from_report(cls, report: bounds.SweepReport) -> "SweepSummary":
        return cls(
            label=report.label,
            checked=len(report.entries),
            all_ok=report.all_ok,
            failures=tuple(e.ell for e in report.failures),
            inconclusive=tuple(e.ell for e in report.inconclusive),
            max_bits=max((e.bits_used for e in report.entries), default=0),
        )


class Note(Frozen):
    """A sentence that qualifies a suite's verdicts."""

    text: str


class LogCheckSummary(Frozen):
    """One lower bound on log(1+x) over a grid: the points that failed and
    that stayed unresolved."""

    name: str
    points: int
    all_ok: bool
    failures: tuple[Fraction, ...]
    inconclusive: tuple[Fraction, ...]

    def __post_init__(self):
        if self.all_ok != (not self.failures and not self.inconclusive):
            raise ValueError("all_ok disagrees with failures and inconclusive")

    @classmethod
    def from_points(cls, name: str, points: int, failures, inconclusive) -> "LogCheckSummary":
        failures, inconclusive = tuple(failures), tuple(inconclusive)
        return cls(name, points, not failures and not inconclusive, failures, inconclusive)


class ExpansionPoint(Frozen):
    """The expansion check at one ell: ell^4 times the defect, enclosed,
    against the envelope."""

    ell: int
    scaled_lo: Fraction
    scaled_hi: Fraction
    envelope: Fraction
    ok: bool

    @classmethod
    def from_entry(cls, entry: bounds.ExpansionEntry, envelope: Fraction) -> "ExpansionPoint":
        return cls(entry.ell, entry.scaled.lo, entry.scaled.hi, envelope, entry.ok)


class Certification(Frozen):
    """One depth against one slack: the sufficient certificate, and the
    direct comparison's verdict and bits."""

    ell: int
    eps: planner.EpsSpec
    certificate_holds: bool
    direct: certified.Verdict
    bits: int

    @classmethod
    def from_comparison(
        cls, ell: int, eps: planner.EpsSpec, certificate_holds: bool,
        direct: certified.Comparison,
    ) -> "Certification":
        return cls(ell, eps, certificate_holds, direct.verdict, direct.bits_used)


class TableCheckResult(Frozen):
    """The table against its embedded values: ok, or the cells that differ."""

    ok: bool
    mismatches: tuple[costs.CellMismatch, ...]

    def __post_init__(self):
        if self.ok != (not self.mismatches):
            raise ValueError("ok disagrees with mismatches")

    @classmethod
    def from_check(cls, check: costs.TableCheck) -> "TableCheckResult":
        return cls(check.ok, check.mismatches)


def _same(value):
    return value


def _exactly(wire_type: type):
    """Codec of a JSON scalar of exactly this type: true is not an int."""

    def parse(value, path: str):
        if type(value) is not wire_type:
            raise RecordError(
                f"{path}: expected {wire_type.__name__}, got {type(value).__name__}"
            )
        return value

    return _same, parse


def _choice(*words: str):
    """Codec of a text that is one of ``words``."""

    def parse(text, path: str):
        if type(text) is not str or text not in words:
            raise RecordError(f"{path}: expected one of {', '.join(words)}")
        return text

    return _same, parse


def _parse_verdict(text, path: str):
    verdicts = {verdict.word: verdict for verdict in certified.Verdict}
    if type(text) is not str or text not in verdicts:
        raise RecordError(f"{path}: expected a verdict, one of {', '.join(verdicts)}")
    return verdicts[text]


def _list(codec):
    """Codec of a JSON list of values of one codec; it parses to a tuple."""
    render, parse = codec

    def parse_list(items, path: str) -> tuple:
        if type(items) is not list:
            raise RecordError(f"{path}: expected a list")
        return tuple(parse(item, f"{path}[{i}]") for i, item in enumerate(items))

    return (lambda values: [render(value) for value in values]), parse_list


def _optional(codec):
    render, parse = codec
    return (
        lambda value: None if value is None else render(value),
        lambda value, path: None if value is None else parse(value, path),
    )


# the form str(Fraction) writes, with no zero denominator; [0-9], since \d
# would admit other scripts' digits
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _parse_rational(text, path: str) -> Fraction:
    if type(text) is not str or not _RATIONAL_TEXT.fullmatch(text):
        raise RecordError(f"{path}: expected rational text num/den")
    return Fraction(text)


def _parse_names(names, path: str) -> tuple[str, ...]:
    if type(names) is not list or not all(type(n) is str for n in names):
        raise RecordError(f"{path}: expected a list of names")
    return tuple(names)


def _parse_fields(obj, path: str, fields: dict) -> dict:
    """Each declared field of a JSON object, parsed by its codec.

    The object's keys must be exactly the declared ones.  A value that a
    value class refuses with ValueError becomes a RecordError at its path.
    """
    where = f"{path}: " if path else ""
    if type(obj) is not dict:
        raise RecordError(f"{where}expected an object")
    for name in fields:
        if name not in obj:
            raise RecordError(f"{where}record missing field {name!r}")
    unknown = obj.keys() - fields.keys()
    if unknown:
        raise RecordError(f"{where}unknown field(s) {sorted(unknown)}")
    values = {}
    for name, (_, parse) in fields.items():
        at = f"{path}.{name}" if path else name
        try:
            values[name] = parse(obj[name], at)
        except RecordError:
            raise
        except ValueError as exc:
            raise RecordError(f"{at}: {exc}") from exc
    return values


def _render_fields(fields: dict, parts) -> dict:
    """Each declared field's wire form; ``parts`` are the values, in order."""
    return {
        name: render(part) for (name, (render, _)), part in zip(fields.items(), parts)
    }


def _object(fields: dict, build, parts):
    """Codec of a nested JSON object: ``parts(value)`` gives the field values
    in declared order, and ``build`` takes them back."""
    return (
        lambda value: _render_fields(fields, parts(value)),
        lambda obj, path: build(*_parse_fields(obj, path, fields).values()),
    )


def _magnitude(pow2: int, mantissa: str, exponent: int) -> costs.BigMagnitude:
    mag = costs.BigMagnitude(pow2)
    if (mantissa, exponent) != (mag.sci_mantissa, mag.sci_exponent):
        raise ValueError(f"2^pow2 renders as {mag.sci}")
    return mag


_INT = _exactly(int)
_BOOL = _exactly(bool)
_STR = _exactly(str)
_RATIONAL = (str, _parse_rational)
_EPS = (str, lambda text, path: planner.EpsSpec(_parse_rational(text, path)))
_NAMES = (list, _parse_names)
_VERDICT = (lambda verdict: verdict.word, _parse_verdict)
_ENCLOSURE = _object(
    {"lo": _RATIONAL, "hi": _RATIONAL},
    lambda lo, hi: certified.Enclosure(lo, hi),
    lambda enc: (enc.lo, enc.hi),
)
_MAGNITUDE = _object(
    {"pow2": _INT, "mantissa": _STR, "exponent": _INT},
    _magnitude,
    lambda mag: (mag.pow2, mag.sci_mantissa, mag.sci_exponent),
)
# a witness is a tuple of its parts, in the order of their fields
_MONOTONE_WITNESS = _optional(
    _object({"s": _NAMES, "t": _NAMES}, lambda *parts: parts, _same)
)
_SUBMODULAR_WITNESS = _optional(
    _object({"s": _NAMES, "t": _NAMES, "x": _STR}, lambda *parts: parts, _same)
)
_MISMATCH = _object(
    {"row": _STR, "column": _STR, "expected": _STR, "got": _STR},
    lambda *parts: costs.CellMismatch(*parts),
    lambda cell: (cell.row, cell.column, cell.expected, cell.got),
)

# kind -> (defining module, class name, {field: codec}), the fields in the
# class's order; keyed by names, so building it loads no value class
_KINDS = {
    "plan": ("ellplan.planner", "EllPlan", {
        "eps": _EPS, "ell_bf": _INT, "ell_ps": _INT, "ell_star": _INT,
        "rho_star": _RATIONAL, "certificate_holds_at_star": _BOOL,
        "precision_used": _INT,
    }),
    "table-row": ("ellplan.costs", "TableRow", {
        "eps": _EPS, "ell_bf": _INT, "ell_ps": _INT, "ell_star": _INT,
        "factor_ps": _MAGNITUDE, "factor_star": _MAGNITUDE,
    }),
    "ratio-report": ("ellplan.testbed", "RatioReport", {
        "eps": _EPS, "ell_star": _INT, "rho_star": _RATIONAL, "rho_certified": _BOOL,
        "threshold": _ENCLOSURE, "f_opt": _RATIONAL, "opt_set": _NAMES,
        "target_value": _RATIONAL, "greedy_value": _RATIONAL, "greedy_set": _NAMES,
        "empirical_ratio": _RATIONAL, "oracle_calls_brute": _INT,
        "oracle_calls_greedy": _INT, "algorithm_output": _STR,
        "seed": _optional(_INT),
    }),
    "property-check": (__name__, "InstanceCheck", {
        "instance": _STR, "ok": _BOOL, "monotone_witness": _MONOTONE_WITNESS,
        "submodular_witness": _SUBMODULAR_WITNESS,
    }),
    "depth": (__name__, "Depth", {
        "eps": _EPS, "rule": _choice("bf", "ps", "star"), "ell": _INT,
    }),
    "sweep": (__name__, "SweepSummary", {
        "label": _STR, "checked": _INT, "all_ok": _BOOL, "failures": _list(_INT),
        "inconclusive": _list(_INT), "max_bits": _INT,
    }),
    "note": (__name__, "Note", {"text": _STR}),
    "log-check": (__name__, "LogCheckSummary", {
        "name": _STR, "points": _INT, "all_ok": _BOOL, "failures": _list(_RATIONAL),
        "inconclusive": _list(_RATIONAL),
    }),
    "expansion": (__name__, "ExpansionPoint", {
        "ell": _INT, "scaled_lo": _RATIONAL, "scaled_hi": _RATIONAL,
        "envelope": _RATIONAL, "ok": _BOOL,
    }),
    "certify": (__name__, "Certification", {
        "ell": _INT, "eps": _EPS, "certificate_holds": _BOOL, "direct": _VERDICT,
        "bits": _INT,
    }),
    "table-check": (__name__, "TableCheckResult", {
        "ok": _BOOL, "mismatches": _list(_MISMATCH),
    }),
}

_KIND_OF_CLASS = {(module, name): kind for kind, (module, name, _) in _KINDS.items()}


def render_line(kind: str, payload: dict) -> str:
    """One schema-tagged line; deterministic key order, no trailing newline."""
    doc = {"schema": SCHEMA_VERSION, "kind": kind, **payload}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def render_record(obj) -> str:
    """Render a value of any class ``_KINDS`` declares as one line."""
    cls = type(obj)
    kind = _KIND_OF_CLASS.get((cls.__module__, cls.__qualname__))
    if kind is None:
        raise RecordError(f"no record form for {cls.__name__}")
    fields = _KINDS[kind][2]
    return render_line(kind, _render_fields(fields, (getattr(obj, f) for f in fields)))


def _refuse_duplicates(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise RecordError(f"duplicate key {key!r}")
        out[key] = value
    return out


def parse_record(line: str):
    """Inverse of render_record; raises RecordError on anything unfamiliar."""
    try:
        doc = json.loads(line, object_pairs_hook=_refuse_duplicates)
    except RecordError:
        raise
    except ValueError as exc:  # JSONDecodeError, or an int past the digit cap
        raise RecordError(f"not a record line: {exc}") from exc
    if not isinstance(doc, dict):
        raise RecordError("record line must be an object")
    schema = doc.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise RecordError(f"unsupported schema {schema!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise RecordError(f"unknown record kind {kind!r}")
    module, name, fields = _KINDS[kind]
    payload = {k: v for k, v in doc.items() if k not in ("schema", "kind")}
    values = _parse_fields(payload, "", fields)
    try:
        return getattr(importlib.import_module(module), name)(**values)
    except ValueError as exc:  # the class refuses how its fields combine
        raise RecordError(f"{kind}: {exc}") from exc


def parse_records(text: str) -> list:
    return [parse_record(line) for line in text.splitlines() if line.strip()]
