"""Line-delimited structured records with a versioned schema.

One object per line, every line self-describing: a schema version, a kind
tag, then the payload.  ``_KINDS`` declares each kind's payload once: the
fields of its value class, in order, each with a codec, a (render, parse)
pair for one wire type.  Every structured line the CLI writes is one of
these kinds.  Rendering and parsing are one loop over that table, with the
codecs instance files are read with too (``ellplan._codecs``), and
parse(render(x)) == x for every kind.  Parsing raises ``RecordError`` on
anything unfamiliar: a key given twice is refused by name; every field's
JSON type is checked (``true`` is not an int); rationals parse only as the
exact "num/den" text ``str(Fraction)`` writes, so exponent text such as
``1e-9`` is refused before any arithmetic, as is a ``pow2`` of more than
``costs.POW2_DIGITS`` digits; a word field takes only its words; a missing or
unknown field is refused by name; a value its class refuses, such as
``eps <= 0``, is refused at its path; and fields that disagree, such as a
summary flag that is true beside a non-empty list of failures, are refused
by the record's kind.
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
from ellplan._codecs import (
    BOOL, INT, STR, FieldError, _JsonNumber, built, choice, list_of, names,
    object_of, optional, parse_fields, parse_int, read, render_fields, unbounded,
)
from ellplan._value import Frozen

SCHEMA_VERSION = 2
_SCHEMA = _JsonNumber(str(SCHEMA_VERSION))


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


def _parse_verdict(text, path: str):
    verdicts = {verdict.word: verdict for verdict in certified.Verdict}
    if type(text) is not str or text not in verdicts:
        raise FieldError(f"{path}: expected a verdict, one of {', '.join(verdicts)}")
    return verdicts[text]


# the form str(Fraction) writes, with no zero denominator; [0-9], since \d
# would admit other scripts' digits
_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _parse_rational(text, path: str) -> Fraction:
    if type(text) is not str or not _RATIONAL_TEXT.fullmatch(text):
        raise FieldError(f"{path}: expected rational text num/den")
    return unbounded(Fraction, text, path)


def _parse_pow2(value, path: str) -> int:
    # costs' limit, read here so that importing records runs no costs code
    return parse_int(value, path, costs.POW2_DIGITS)


def _magnitude(pow2: int, mantissa: str, exponent: int) -> costs.BigMagnitude:
    mag = costs.BigMagnitude(pow2)
    if (mantissa, exponent) != (mag.sci_mantissa, mag.sci_exponent):
        raise ValueError(f"2^pow2 renders as {mag.sci}")
    return mag


_RATIONAL = (str, _parse_rational)
_EPS = (str, lambda text, path: built(planner.EpsSpec, (_parse_rational(text, path),), path))
_NAMES = names(tuple)
_VERDICT = (lambda verdict: verdict.word, _parse_verdict)
_ENCLOSURE = object_of({"lo": _RATIONAL, "hi": _RATIONAL}, lambda *p: certified.Enclosure(*p))
_MAGNITUDE = object_of(
    {"pow2": (INT[0], _parse_pow2), "mantissa": STR, "exponent": INT},
    _magnitude,
    lambda mag: (mag.pow2, mag.sci_mantissa, mag.sci_exponent),
)
# a witness is a tuple of its parts, in the order of their fields
_MONOTONE_WITNESS = optional(object_of({"s": _NAMES, "t": _NAMES}, lambda *p: p, tuple))
_SUBMODULAR_WITNESS = optional(
    object_of({"s": _NAMES, "t": _NAMES, "x": STR}, lambda *p: p, tuple)
)
_MISMATCH = object_of(
    {"row": STR, "column": STR, "expected": STR, "got": STR},
    lambda *parts: costs.CellMismatch(*parts),
)

# kind -> (defining module, class name, {field: codec}), the fields in the
# class's order; keyed by names, so building it loads no value class
_KINDS = {
    "plan": ("ellplan.planner", "EllPlan", {
        "eps": _EPS, "ell_bf": INT, "ell_ps": INT, "ell_star": INT,
        "rho_star": _RATIONAL, "certificate_holds_at_star": BOOL,
        "precision_used": INT,
    }),
    "table-row": ("ellplan.costs", "TableRow", {
        "eps": _EPS, "ell_bf": INT, "ell_ps": INT, "ell_star": INT,
        "factor_ps": _MAGNITUDE, "factor_star": _MAGNITUDE,
    }),
    "ratio-report": ("ellplan.testbed", "RatioReport", {
        "eps": _EPS, "ell_star": INT, "rho_star": _RATIONAL, "rho_certified": BOOL,
        "threshold": _ENCLOSURE, "f_opt": _RATIONAL, "opt_set": _NAMES,
        "target_value": _RATIONAL, "greedy_value": _RATIONAL, "greedy_set": _NAMES,
        "empirical_ratio": _RATIONAL, "oracle_calls_brute": INT,
        "oracle_calls_greedy": INT, "algorithm_output": STR,
        "seed": optional(INT),
    }),
    "property-check": (__name__, "InstanceCheck", {
        "instance": STR, "ok": BOOL, "monotone_witness": _MONOTONE_WITNESS,
        "submodular_witness": _SUBMODULAR_WITNESS,
    }),
    "depth": (__name__, "Depth", {
        "eps": _EPS, "rule": choice("bf", "ps", "star"), "ell": INT,
    }),
    "sweep": (__name__, "SweepSummary", {
        "label": STR, "checked": INT, "all_ok": BOOL, "failures": list_of(INT),
        "inconclusive": list_of(INT), "max_bits": INT,
    }),
    "note": (__name__, "Note", {"text": STR}),
    "log-check": (__name__, "LogCheckSummary", {
        "name": STR, "points": INT, "all_ok": BOOL, "failures": list_of(_RATIONAL),
        "inconclusive": list_of(_RATIONAL),
    }),
    "expansion": (__name__, "ExpansionPoint", {
        "ell": INT, "scaled_lo": _RATIONAL, "scaled_hi": _RATIONAL,
        "envelope": _RATIONAL, "ok": BOOL,
    }),
    "certify": (__name__, "Certification", {
        "ell": INT, "eps": _EPS, "certificate_holds": BOOL, "direct": _VERDICT,
        "bits": INT,
    }),
    "table-check": ("ellplan.costs", "TableCheck", {
        "ok": BOOL, "mismatches": list_of(_MISMATCH),
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
    return render_line(kind, render_fields(fields, (getattr(obj, f) for f in fields)))


def _parse_line(doc, path: str):
    if type(doc) is not dict:
        raise FieldError("record line must be an object")
    if (schema := doc.pop("schema", None)) != _SCHEMA:  # a number, shown as written
        raise FieldError(f"unsupported schema {getattr(schema, 'text', repr(schema))}")
    kind = doc.pop("kind", None)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise FieldError(f"unknown record kind {kind!r}")
    module, name, fields = _KINDS[kind]
    cls = getattr(importlib.import_module(module), name)
    # a class that refuses how its fields combine is refused by the kind
    return built(cls, parse_fields(doc, path, fields).values(), kind)


def parse_record(line: str):
    """Inverse of render_record; raises RecordError on anything unfamiliar."""
    return read(line, _parse_line, RecordError, "not a record line")


def parse_records(text: str) -> list:
    return [parse_record(line) for line in text.splitlines() if line.strip()]
