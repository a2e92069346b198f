"""Line-delimited structured records with a versioned schema.

One object per line, every line self-describing: a schema version, a kind
tag, then the payload.  Rationals travel as exact "num/den" text so parsing
recovers the original values bit for bit; parse(render(x)) == x holds for
every supported type.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Optional

from ellplan._value import Frozen
from ellplan.certified import Enclosure
from ellplan.costs import BigMagnitude, TableRow
from ellplan.planner import EllPlan, EpsSpec
from ellplan.testbed import PropertyCheck, RatioReport

SCHEMA_VERSION = 1


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
    def from_check(cls, instance: str, check: PropertyCheck) -> "InstanceCheck":
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


def _fraction_text(value: Fraction) -> str:
    return str(value)


def _fraction_from(text, path: str) -> Fraction:
    if not isinstance(text, str):
        raise RecordError(f"{path}: expected rational text")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise RecordError(f"{path}: bad rational {text!r}") from exc


def _enclosure_payload(enc: Enclosure) -> dict:
    return {"lo": _fraction_text(enc.lo), "hi": _fraction_text(enc.hi)}


def _enclosure_from(obj, path: str) -> Enclosure:
    if not isinstance(obj, dict) or set(obj) != {"lo", "hi"}:
        raise RecordError(f"{path}: expected lo/hi rational pair")
    return Enclosure(
        _fraction_from(obj["lo"], f"{path}.lo"),
        _fraction_from(obj["hi"], f"{path}.hi"),
    )


def _magnitude_payload(mag: BigMagnitude) -> dict:
    return {
        "exact": str(mag.exact),
        "mantissa": mag.sci_mantissa,
        "exponent": mag.sci_exponent,
    }


def _magnitude_from(obj, path: str) -> BigMagnitude:
    if not isinstance(obj, dict) or set(obj) != {"exact", "mantissa", "exponent"}:
        raise RecordError(f"{path}: expected exact/mantissa/exponent")
    try:
        exact = int(obj["exact"])
    except (TypeError, ValueError) as exc:
        raise RecordError(f"{path}.exact: bad integer") from exc
    return BigMagnitude(exact, obj["mantissa"], obj["exponent"])


def _plan_payload(plan: EllPlan) -> dict:
    return {
        "eps": str(plan.eps),
        "ell_bf": plan.ell_bf,
        "ell_ps": plan.ell_ps,
        "ell_star": plan.ell_star,
        "rho_star": _fraction_text(plan.rho_star),
        "certificate_holds_at_star": plan.certificate_holds_at_star,
        "precision_used": plan.precision_used,
    }


def _plan_from(payload: dict) -> EllPlan:
    return EllPlan(
        eps=EpsSpec.parse(payload["eps"]),
        ell_bf=payload["ell_bf"],
        ell_ps=payload["ell_ps"],
        ell_star=payload["ell_star"],
        rho_star=_fraction_from(payload["rho_star"], "rho_star"),
        certificate_holds_at_star=payload["certificate_holds_at_star"],
        precision_used=payload["precision_used"],
    )


def _table_row_payload(row: TableRow) -> dict:
    return {
        "eps": str(row.eps),
        "ell_bf": row.ell_bf,
        "ell_ps": row.ell_ps,
        "ell_star": row.ell_star,
        "factor_ps": _magnitude_payload(row.factor_ps),
        "factor_star": _magnitude_payload(row.factor_star),
    }


def _table_row_from(payload: dict) -> TableRow:
    return TableRow(
        eps=EpsSpec.parse(payload["eps"]),
        ell_bf=payload["ell_bf"],
        ell_ps=payload["ell_ps"],
        ell_star=payload["ell_star"],
        factor_ps=_magnitude_from(payload["factor_ps"], "factor_ps"),
        factor_star=_magnitude_from(payload["factor_star"], "factor_star"),
    )


def _ratio_report_payload(report: RatioReport) -> dict:
    return {
        "eps": str(report.eps),
        "ell_star": report.ell_star,
        "rho_star": _fraction_text(report.rho_star),
        "rho_certified": report.rho_certified,
        "threshold": _enclosure_payload(report.threshold),
        "f_opt": _fraction_text(report.f_opt),
        "opt_set": list(report.opt_set),
        "target_value": _fraction_text(report.target_value),
        "greedy_value": _fraction_text(report.greedy_value),
        "greedy_set": list(report.greedy_set),
        "empirical_ratio": _fraction_text(report.empirical_ratio),
        "oracle_calls_brute": report.oracle_calls_brute,
        "oracle_calls_greedy": report.oracle_calls_greedy,
        "algorithm_output": report.algorithm_output,
        "seed": report.seed,
    }


def _ratio_report_from(payload: dict) -> RatioReport:
    return RatioReport(
        eps=EpsSpec.parse(payload["eps"]),
        ell_star=payload["ell_star"],
        rho_star=_fraction_from(payload["rho_star"], "rho_star"),
        rho_certified=payload["rho_certified"],
        threshold=_enclosure_from(payload["threshold"], "threshold"),
        f_opt=_fraction_from(payload["f_opt"], "f_opt"),
        opt_set=tuple(payload["opt_set"]),
        target_value=_fraction_from(payload["target_value"], "target_value"),
        greedy_value=_fraction_from(payload["greedy_value"], "greedy_value"),
        greedy_set=tuple(payload["greedy_set"]),
        empirical_ratio=_fraction_from(payload["empirical_ratio"], "empirical_ratio"),
        oracle_calls_brute=payload["oracle_calls_brute"],
        oracle_calls_greedy=payload["oracle_calls_greedy"],
        algorithm_output=payload["algorithm_output"],
        seed=payload["seed"],
    )


def _name_tuple(obj, path: str) -> tuple[str, ...]:
    if not isinstance(obj, list) or not all(isinstance(n, str) for n in obj):
        raise RecordError(f"{path}: expected a list of names")
    return tuple(obj)


def _check_payload(check: InstanceCheck) -> dict:
    mono = check.monotone_witness
    sub = check.submodular_witness
    return {
        "instance": check.instance,
        "ok": check.ok,
        "monotone_witness": (
            None if mono is None else {"s": list(mono[0]), "t": list(mono[1])}
        ),
        "submodular_witness": (
            None
            if sub is None
            else {"s": list(sub[0]), "t": list(sub[1]), "x": sub[2]}
        ),
    }


def _check_from(payload: dict) -> InstanceCheck:
    mono = payload["monotone_witness"]
    if mono is not None:
        if not isinstance(mono, dict) or set(mono) != {"s", "t"}:
            raise RecordError("monotone_witness: expected s/t name lists")
        mono = (
            _name_tuple(mono["s"], "monotone_witness.s"),
            _name_tuple(mono["t"], "monotone_witness.t"),
        )
    sub = payload["submodular_witness"]
    if sub is not None:
        if not isinstance(sub, dict) or set(sub) != {"s", "t", "x"}:
            raise RecordError("submodular_witness: expected s/t/x")
        sub = (
            _name_tuple(sub["s"], "submodular_witness.s"),
            _name_tuple(sub["t"], "submodular_witness.t"),
            sub["x"],
        )
    return InstanceCheck(
        instance=payload["instance"],
        ok=payload["ok"],
        monotone_witness=mono,
        submodular_witness=sub,
    )


_KIND_OF_TYPE = {
    EllPlan: ("plan", _plan_payload),
    TableRow: ("table-row", _table_row_payload),
    RatioReport: ("ratio-report", _ratio_report_payload),
    InstanceCheck: ("property-check", _check_payload),
}

_PARSER_OF_KIND: dict[str, Callable[[dict], object]] = {
    "plan": _plan_from,
    "table-row": _table_row_from,
    "ratio-report": _ratio_report_from,
    "property-check": _check_from,
}


def render_line(kind: str, payload: dict) -> str:
    """One schema-tagged line; deterministic key order, no trailing newline."""
    doc = {"schema": SCHEMA_VERSION, "kind": kind, **payload}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def render_record(obj) -> str:
    """Render a plan, table row, ratio report or instance check as one line."""
    entry = _KIND_OF_TYPE.get(type(obj))
    if entry is None:
        raise RecordError(f"no record form for {type(obj).__name__}")
    kind, payload_of = entry
    return render_line(kind, payload_of(obj))


def parse_record(line: str):
    """Inverse of render_record; raises RecordError on anything unfamiliar."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordError(f"not a record line: {exc}") from exc
    if not isinstance(doc, dict):
        raise RecordError("record line must be an object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise RecordError(f"unsupported schema {doc.get('schema')!r}")
    kind = doc.get("kind")
    parser = _PARSER_OF_KIND.get(kind)
    if parser is None:
        raise RecordError(f"unknown record kind {kind!r}")
    payload = {k: v for k, v in doc.items() if k not in ("schema", "kind")}
    try:
        return parser(payload)
    except KeyError as exc:
        raise RecordError(f"record missing field {exc.args[0]!r}") from exc


def parse_records(text: str) -> list:
    return [parse_record(line) for line in text.splitlines() if line.strip()]
