"""Independent checks of every op's output, run after the timed region.

The reference values come from mpmath at 80 significant digits and from
plain integer arithmetic.  Nothing here calls into ellplan except
``records.parse_records``, for the round trip the plan records promise.
Each check returns None when the output is accepted and a one-line reason
when it is rejected.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import mpmath

DIGITS = 80
_MARGIN = mpmath.mpf(10) ** -(DIGITS - 10)


class Oracle:
    def __init__(self) -> None:
        self.mp = mpmath.mp.clone()
        self.mp.dps = DIGITS
        self._star_cache: dict[Fraction, int] = {}

    # -- reference values ----------------------------------------------------

    def _mpf(self, q: Fraction):
        return self.mp.mpf(q.numerator) / q.denominator

    def phi(self, ell: int):
        mp = self.mp
        return mp.exp(-ell * mp.log1p(mp.mpf(1) / ell))

    def _separated(self, a, b) -> bool:
        return abs(a - b) > _MARGIN

    def ell_star(self, eps: Fraction) -> int:
        """Smallest ell with phi(ell) <= 1/e + eps, by search from the asymptote."""
        if eps in self._star_cache:
            return self._star_cache[eps]
        mp = self.mp
        target = 1 / mp.e + self._mpf(eps)
        k = max(1, int(mp.floor(1 / (2 * mp.e * self._mpf(eps)) - mp.mpf(5) / 12)))
        while True:
            value = self.phi(k)
            if not self._separated(value, target):
                raise ArithmeticError(f"phi({k}) too close to 1/e + {eps}")
            if value <= target:
                break
            k += 1
        while k > 1 and self.phi(k - 1) <= target:
            k -= 1
        self._star_cache[eps] = k
        return k

    def ell_ps(self, eps: Fraction) -> int:
        mp = self.mp
        return max(1, int(mp.ceil(1 / (2 * mp.e * self._mpf(eps)))))

    @staticmethod
    def ell_bf(eps: Fraction) -> int:
        return 1 + math.ceil(1 / eps)

    def sharp_certificate(self, ell: int, eps: Fraction) -> bool:
        mp = self.mp
        lhs = mp.exp(mp.mpf(1) / (2 * ell) - mp.mpf(1) / (3 * ell**2) + mp.mpf(1) / (4 * ell**3))
        return lhs <= 1 + mp.e * self._mpf(eps)

    # -- plan records ----------------------------------------------------------

    def check_plan_record(self, text: str, eps_text: str, records) -> str | None:
        lines = [line for line in text.splitlines() if line.strip()]
        if len(lines) != 1:
            return f"expected one record line, got {len(lines)}"
        try:
            (plan,) = records.parse_records(text)
        except ValueError as exc:
            return f"record does not parse: {exc}"
        # the parsed values are then compared exactly with the oracle's
        return self.check_plan(plan, Fraction(eps_text))

    def check_plan(self, plan, eps: Fraction) -> str | None:
        if plan.eps.eps != eps:
            return f"eps {plan.eps} != {eps}"
        star = self.ell_star(eps)
        for name, got, want in (
            ("ell_bf", plan.ell_bf, self.ell_bf(eps)),
            ("ell_ps", plan.ell_ps, self.ell_ps(eps)),
            ("ell_star", plan.ell_star, star),
        ):
            if got != want:
                return f"{name} = {got}, oracle says {want}"
        den = (star + 1) ** star
        if (plan.rho_star.numerator, plan.rho_star.denominator) != (den - star**star, den):
            return f"rho_star is not 1 - phi({star})"
        if plan.certificate_holds_at_star != self.sharp_certificate(star, eps):
            return "certificate_holds_at_star disagrees with the oracle"
        return None

    # -- verify sweeps ---------------------------------------------------------

    def check_sweep(self, summary: dict, lo: int, hi: int, spot: int) -> str | None:
        want = {  # label prefix -> first ell covered
            "phi <= loose-recip": max(lo, 2), "phi <= loose-linear": max(lo, 2),
            "phi <= polya-szego": lo, "phi <= sharp": lo,
            "sharp <= polya-szego": max(lo, 2), "polya-szego <= loose-recip": max(lo, 2),
            "loose-recip <= loose-linear": max(lo, 2), "phi > 1/e": lo,
        }
        seen = set()
        for rep in summary["reports"]:
            prefix = rep["label"].split(" on ")[0]
            if prefix not in want:
                return f"unexpected report {rep['label']!r}"
            seen.add(prefix)
            first = want[prefix]
            if first > hi:
                continue
            if (rep["first"], rep["last"], rep["n"]) != (first, hi, hi - first + 1):
                return f"{prefix}: covers {rep['first']}..{rep['last']}, expected {first}..{hi}"
            if not rep["contiguous"]:
                return f"{prefix}: entries are not consecutive"
            if not rep["all_ok"] or rep["failures"] or rep["inconclusive"]:
                return f"{prefix}: not all certified ({rep['failures']}, {rep['inconclusive']})"
        if seen != {p for p, first in want.items() if first <= hi}:
            return f"missing reports: {sorted(set(want) - seen)}"
        return self.check_bounds_at(spot)

    def check_bounds_at(self, ell: int) -> str | None:
        """The claims the sweeps certify, re-derived at one ell with mpmath."""
        mp = self.mp
        inv_e = 1 / mp.e
        value = self.phi(ell)
        sharp = inv_e * mp.exp(
            mp.mpf(1) / (2 * ell) - mp.mpf(1) / (3 * ell**2) + mp.mpf(1) / (4 * ell**3)
        )
        ps = inv_e * (1 + mp.mpf(1) / (2 * ell))
        if not value < sharp or not value < ps:
            return f"oracle: phi({ell}) is not below the sharp and polya-szego bounds"
        if not value > inv_e:
            return f"oracle: phi({ell}) is not above 1/e"
        if ell >= 2:
            recip = inv_e * ell / (ell - 1)
            linear = inv_e * (1 + mp.mpf(2) / ell)
            if not value < recip <= linear + _MARGIN or not sharp <= ps <= recip:
                return f"oracle: bound chain fails at ell = {ell}"
        return None


# -- CLI command outputs ------------------------------------------------------

_FIELD = re.compile(r"^\s*(\w+)\s*=\s*(\S+)", re.M)


def _text_fields(text: str) -> dict[str, str]:
    return {m.group(1): m.group(2) for m in _FIELD.finditer(text)}


def _brute_force_opt(instance: dict) -> Fraction:
    """OPT of a weighted coverage instance under its matroid, by enumeration."""
    weights = {k: Fraction(str(v)) for k, v in instance["universe"].items()}
    ground = instance["ground"]
    names = list(ground)
    matroid = instance["matroid"]

    def independent(subset) -> bool:
        if matroid["type"] == "uniform":
            return len(subset) <= matroid["rank"]
        return all(
            sum(1 for n in subset if n in block["members"]) <= block["capacity"]
            for block in matroid["blocks"]
        )

    best = Fraction(0)
    for mask in range(1 << len(names)):
        subset = [names[i] for i in range(len(names)) if mask >> i & 1]
        if independent(subset):
            covered = set().union(*(ground[n] for n in subset)) if subset else set()
            best = max(best, sum((weights[i] for i in covered), Fraction(0)))
    return best


def expected_exit(op: dict, oracle: Oracle) -> int:
    """The exit code the 0/1/2/3 contract prescribes for a CLI op."""
    argv = op["argv"]
    if argv[0] == "certify":
        eps = Fraction(argv[argv.index("--eps") + 1])
        ell = int(argv[argv.index("--ell") + 1])
        return 0 if ell >= oracle.ell_star(eps) else 1
    return 0


def check_cli(op: dict, code: int | None, stdout: str, oracle: Oracle, records,
              root: Path) -> str | None:
    """Exit code against the contract, then the output against the oracle."""
    want = expected_exit(op, oracle)
    if code != want:
        return f"exit {code}, expected {want}"
    argv = op["argv"]
    command = argv[0]
    structured = "structured" in argv
    eps = Fraction(argv[argv.index("--eps") + 1]) if "--eps" in argv else None

    if command == "plan":
        rule = argv[argv.index("--rule") + 1]
        if rule == "all" and structured:
            return oracle.check_plan_record(stdout, str(eps), records)
        if rule == "all":
            fields = _text_fields(stdout)
            for name, want_value in (
                ("ell_bf", oracle.ell_bf(eps)), ("ell_ps", oracle.ell_ps(eps)),
                ("ell_star", oracle.ell_star(eps)),
            ):
                if fields.get(name) != str(want_value):
                    return f"{name} = {fields.get(name)}, oracle says {want_value}"
            return None
        want_value = oracle.ell_star(eps) if rule == "star" else oracle.ell_ps(eps)
        got = json.loads(stdout)["ell"] if structured else int(stdout.strip())
        return None if got == want_value else f"{rule} = {got}, oracle says {want_value}"

    if command == "verify":
        lines = stdout.splitlines()
        if not lines or not all(line.startswith(("pass", "note")) for line in lines):
            return "a verification line did not pass"
        return None

    if command == "table":
        golden = (root / "tests" / "golden" / "table.txt").read_text(encoding="utf-8")
        head, _, tail = stdout.rpartition("check:")
        if head != golden:
            return "table text differs from tests/golden/table.txt"
        return None if tail.startswith(" all 5 rows match") else f"check line: check:{tail.strip()}"

    if command == "certify":
        return None  # the verdict is the exit code, checked above

    if command == "testbed":
        star = oracle.ell_star(eps)
        if structured:
            reports = [r for r in records.parse_records(stdout) if hasattr(r, "f_opt")]
            if not reports:
                return "no ratio-report records"
            for r in reports:
                den = (r.ell_star + 1) ** r.ell_star
                if r.ell_star != star or not r.rho_certified:
                    return f"ell_star {r.ell_star} (oracle {star}) or rho not certified"
                if (r.rho_star.numerator, r.rho_star.denominator) != (den - star**star, den):
                    return "rho_star is not 1 - phi(ell_star)"
                if r.greedy_value > r.f_opt or r.target_value != r.rho_star * r.f_opt:
                    return "greedy above OPT or target != rho_star * OPT"
            return None
        name = argv[argv.index("--bundled") + 1]
        data = json.loads((root / "src" / "ellplan" / "data" / f"{name}.json").read_text())
        fields = _text_fields(stdout)
        if fields.get("ell_star") != str(star):
            return f"ell_star = {fields.get('ell_star')}, oracle says {star}"
        opt = _brute_force_opt(data)
        if fields.get("opt") != str(opt):
            return f"opt = {fields.get('opt')}, oracle says {opt}"
        if "monotone submodular: pass" not in stdout:
            return "monotone-submodular check did not pass"
        return None

    return f"no oracle for {command!r}"
