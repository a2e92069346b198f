"""Line-delimited structured records with a versioned schema.

One object per line, every line self-describing: a schema version, a kind
tag, then the payload.  ``_KINDS`` declares each kind's payload once: the
fields of its value class, in order, each with a codec, a (render, parse)
pair for one wire type.  Rendering and parsing are one loop over that
table, and parse(render(x)) == x for every kind.  Parsing raises
``RecordError`` on anything unfamiliar: every field's JSON type is checked
(``true`` is not an int); rationals parse only as the exact "num/den" text
``str(Fraction)`` writes, so exponent text such as ``1e-9`` is refused
before any arithmetic; a missing or unknown field is refused by name; and a
value its class refuses, such as ``eps <= 0``, is refused at its path.
"""

from __future__ import annotations

import importlib
import json
import re
from fractions import Fraction
from typing import Optional

# modules, not names: a module runs at its first use here (see ellplan),
# and a function replaced in its defining module is the one called
from ellplan import certified, costs, planner, testbed
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
}

_KIND_OF_CLASS = {(module, name): kind for kind, (module, name, _) in _KINDS.items()}


def render_line(kind: str, payload: dict) -> str:
    """One schema-tagged line; deterministic key order, no trailing newline."""
    doc = {"schema": SCHEMA_VERSION, "kind": kind, **payload}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def render_record(obj) -> str:
    """Render a plan, table row, ratio report or instance check as one line."""
    cls = type(obj)
    kind = _KIND_OF_CLASS.get((cls.__module__, cls.__qualname__))
    if kind is None:
        raise RecordError(f"no record form for {cls.__name__}")
    fields = _KINDS[kind][2]
    return render_line(kind, _render_fields(fields, (getattr(obj, f) for f in fields)))


def parse_record(line: str):
    """Inverse of render_record; raises RecordError on anything unfamiliar."""
    try:
        doc = json.loads(line)
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
    return getattr(importlib.import_module(module), name)(**values)


def parse_records(text: str) -> list:
    return [parse_record(line) for line in text.splitlines() if line.strip()]
