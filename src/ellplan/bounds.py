"""The function phi(ell) = (1+1/ell)^(-ell) = 1 - rho(ell) and its certified bounds.

Every certified claim about phi compares log_e_phi(ell) = log(e*phi(ell)) =
1 - ell*log1p(1/ell) with the log of the claim's e-scaled right side, as the
paper's proofs do, so no ell-digit power is formed.  The exact phi and rho
remain where an exact value is the output or a test's reference.  Four
upper-bound families are supported:

    loose-recip   1/(e(1-1/ell))                          ell >= 2
    loose-linear  (1/e)(1+2/ell)                          ell >= 2
    polya-szego   (1/e)(1+1/(2 ell))                      ell >= 1
    sharp         (1/e)exp(1/(2l) - 1/(3l^2) + 1/(4l^3))  ell >= 1

Of the two loose bounds the reciprocal form is the tighter one: their
e-scaled factors satisfy ell/(ell-1) <= 1 + 2/ell for ell >= 2 with equality
exactly at ell = 2, so the certified chain runs

    sharp <= polya-szego <= loose-recip <= loose-linear      (ell >= 2).

The three sweeps (verify_bounds, phi_floor_sweep, verify_bound_ordering)
evaluate both sides of each check straight from the fixed-point kernels at
the first rung's working scale, without building a RealExpr per check; the
integers are exactly those cmp_certified's first rung would compare.  A
check whose intervals are disjoint there is recorded at the first rung,
which is where cmp_certified would decide it too; any other check goes
through cmp_certified on the same descriptors.  Every verdict and bits_used
in a SweepReport is therefore the one cmp_certified gives.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from ellplan._value import Frozen
from ellplan.certified import (
    DEFAULT_POLICY,
    Comparison,
    Enclosure,
    RealExpr,
    RefinementPolicy,
    Verdict,
    _Kernel,
    _ceil_div,
    _exp_fixed,
    _log1p_fixed,
    _rational_fixed,
    _working_scale,
    cmp_certified,
    const,
    enclose_exp,
    exp_of,
    log1p_of,
)


def _check_ell(ell: int) -> int:
    if not isinstance(ell, int) or isinstance(ell, bool) or ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell!r}")
    return ell


def _coprime_fraction(num: int, den: int) -> Fraction:
    # Fraction() always runs a gcd; on the 10^5-digit numerators that show up
    # past ell ~ 10^4 that gcd costs ten times the power itself and is known
    # to be 1 here.  Callers must guarantee coprimality and den > 0.
    f = Fraction.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def phi(ell: int) -> Fraction:
    """Exact value of (1+1/ell)^(-ell) = ell^ell / (ell+1)^ell."""
    ell = _check_ell(ell)
    # consecutive integers are coprime, so their ell-th powers are too
    return _coprime_fraction(ell**ell, (ell + 1) ** ell)


def rho(ell: int) -> Fraction:
    """The ratio target 1 - phi(ell)."""
    value = phi(ell)
    # gcd(d - n, d) = gcd(n, d) = 1, so skip the redundant normalization
    return _coprime_fraction(value.denominator - value.numerator, value.denominator)


def _log_e_phi_fixed(ell: int, w: int) -> tuple[int, int]:
    """log(e*phi(ell)) = 1 - ell*log1p(1/ell) at scale w: log_e_phi's kernel.

    log1p(1/ell) is enclosed ell.bit_length() + 1 bits finer than w, so its
    product with ell, rounded outward to one bit finer than w and then to w,
    stays about as tight as the log1p interval itself.
    """
    extra = ell.bit_length()
    lo, hi = _log1p_fixed(1, ell, w + 1 + extra)
    lo, hi = ell * lo >> extra, _ceil_div(ell * hi, 1 << extra)
    one = 1 << w
    return one + (-hi >> 1), one + _ceil_div(-lo, 2)


def log_e_phi(ell: int) -> RealExpr:
    """log(e*phi(ell)) = 1 - ell*log1p(1/ell); below log(c) iff phi(ell) < c/e."""
    ell = _check_ell(ell)
    return _Kernel("log(e*phi({}))", ell, _log_e_phi_fixed, ell)


class BoundKind(Enum):
    LOOSE_RECIP = "loose-recip"
    LOOSE_LINEAR = "loose-linear"
    POLYA_SZEGO = "polya-szego"
    SHARP = "sharp"

    @property
    def min_ell(self) -> int:
        if self in (BoundKind.LOOSE_RECIP, BoundKind.LOOSE_LINEAR):
            return 2
        return 1


def sharp_exponent(ell: int) -> Fraction:
    """1/(2 ell) - 1/(3 ell^2) + 1/(4 ell^3), over one denominator."""
    ell = _check_ell(ell)
    return Fraction(6 * ell * ell - 4 * ell + 3, 12 * ell**3)


# Each rational bound's e-scaled factor minus 1 as (num, den), in the order
# of the chain.  Lowest terms let a sweep check that goes on to cmp_certified
# find its first rung in _log1p_fixed's cache.
_FACTOR_MINUS_ONE = {
    BoundKind.POLYA_SZEGO: lambda ell: (1, 2 * ell),
    BoundKind.LOOSE_RECIP: lambda ell: (1, ell - 1),
    BoundKind.LOOSE_LINEAR: lambda ell: (1, ell >> 1) if ell % 2 == 0 else (2, ell),
}


def bound_factor(kind: BoundKind, ell: int) -> RealExpr:
    """The bound with its 1/e peeled off; rational for all kinds but sharp."""
    ell = _check_ell(ell)
    if ell < kind.min_ell:
        raise ValueError(f"{kind.value} bound needs ell >= {kind.min_ell}")
    if kind is BoundKind.SHARP:
        return exp_of(sharp_exponent(ell))
    num, den = _FACTOR_MINUS_ONE[kind](ell)
    return const(Fraction(den + num, den))


def _log_bound_factor(kind: BoundKind, ell: int) -> RealExpr:
    # log of bound_factor: the sharp exponent itself, else log1p(factor - 1)
    if kind is BoundKind.SHARP:
        return const(sharp_exponent(ell))
    return log1p_of(Fraction(*_FACTOR_MINUS_ONE[kind](ell)))


# ---------------------------------------------------------------------------
# sweep reports


class SweepEntry(Frozen):
    ell: int
    verdict: Verdict
    bits_used: int
    ok: bool


class SweepReport(Frozen):
    label: str
    entries: tuple[SweepEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def failures(self) -> tuple[SweepEntry, ...]:
        return tuple(
            e for e in self.entries if not e.ok and e.verdict is not Verdict.UNRESOLVED
        )

    @property
    def inconclusive(self) -> tuple[SweepEntry, ...]:
        return tuple(e for e in self.entries if e.verdict is Verdict.UNRESOLVED)

    def summary(self) -> str:
        n = len(self.entries)
        if self.all_ok:
            return f"{self.label}: {n}/{n} certified"
        bad = ", ".join(str(e.ell) for e in self.failures[:5])
        unres = ", ".join(str(e.ell) for e in self.inconclusive[:5])
        parts = [f"{self.label}: {n - len(self.failures) - len(self.inconclusive)}/{n} certified"]
        if bad:
            parts.append(f"failed at ell = {bad}")
        if unres:
            parts.append(f"unresolved at ell = {unres}")
        return "; ".join(parts)


def _log_target_fixed(kind: BoundKind, ell: int, w: int) -> tuple[int, int]:
    # _log_bound_factor(kind, ell)._fixed(w)
    if kind is BoundKind.SHARP:
        return _rational_fixed(sharp_exponent(ell), w)
    return _log1p_fixed(*_FACTOR_MINUS_ONE[kind](ell), w)


def _decide(ia, ib, policy: RefinementPolicy, descriptors) -> tuple[Verdict, int]:
    """Verdict and bits of cmp_certified(*descriptors(), policy).

    ia and ib are the two sides at the first rung's working scale.  Disjoint
    intervals there are cmp_certified's own first-rung verdict; anything
    else is left to cmp_certified, built lazily from descriptors.
    """
    if ia[1] < ib[0]:
        return Verdict.LESS, policy.start_bits
    if ib[1] < ia[0]:
        return Verdict.GREATER, policy.start_bits
    cmp = cmp_certified(*descriptors(), policy)
    return cmp.verdict, cmp.bits_used


def _exact_verdict(an: int, ad: int, bn: int, bd: int) -> Verdict:
    # an/ad against bn/bd for positive denominators, as cmp_certified
    # compares two exact rationals
    left, right = an * bd, bn * ad
    if left == right:
        return Verdict.EQUAL
    return Verdict.LESS if left < right else Verdict.GREATER


def verify_bounds(
    kinds: Sequence[BoundKind],
    lo: int,
    hi: int,
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> dict[BoundKind, SweepReport]:
    """Certify phi(ell) <= bound(kind, ell) for each kind over [lo, hi].

    Each check compares log_e_phi(ell) with the log of the kind's e-scaled
    factor; LESS means phi(ell) < bound(kind, ell).  Entries are sorted by ell.
    """
    _check_ell(lo)
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    w = _working_scale(policy.start_bits)
    entries: dict[BoundKind, list[SweepEntry]] = {kind: [] for kind in kinds}
    for ell in range(lo, hi + 1):
        value = _log_e_phi_fixed(ell, w)
        for kind, out in entries.items():
            if ell >= kind.min_ell:
                verdict, bits = _decide(
                    value,
                    _log_target_fixed(kind, ell, w),
                    policy,
                    lambda: (log_e_phi(ell), _log_bound_factor(kind, ell)),
                )
                out.append(SweepEntry(ell, verdict, bits, verdict is Verdict.LESS))
    return {
        kind: SweepReport(
            label=f"phi <= {kind.value} on [{max(lo, kind.min_ell)}, {hi}]",
            entries=tuple(out),
        )
        for kind, out in entries.items()
    }


_ORDER_CHAIN = (
    (BoundKind.SHARP, BoundKind.POLYA_SZEGO),
    (BoundKind.POLYA_SZEGO, BoundKind.LOOSE_RECIP),
    (BoundKind.LOOSE_RECIP, BoundKind.LOOSE_LINEAR),
)


def verify_bound_ordering(
    lo: int,
    hi: int,
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> dict[str, SweepReport]:
    """Certify sharp <= polya-szego <= loose-recip <= loose-linear on [lo, hi].

    Requires lo >= 2.  The links compare e-scaled factors (e > 0, so the
    order is unchanged); all but the sharp link are then exact rational
    comparisons, done as integer cross-products with bits_used 0, and the
    recip/linear link holds with equality at ell = 2.  The chain genuinely
    breaks at ell = 1, where sharp exceeds polya-szego; see
    ordering_exception_at_one.
    """
    if lo < 2:
        raise ValueError("ordering sweep needs lo >= 2; ell = 1 is the exception")
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    w = _working_scale(policy.start_bits)
    entries: dict[str, list[SweepEntry]] = {
        f"{s.value} <= {l.value}": [] for s, l in _ORDER_CHAIN
    }
    sharp_ps, ps_recip, recip_linear = entries.values()
    one = 1 << w
    for ell in range(lo, hi + 1):
        ps, recip, linear = [excess(ell) for excess in _FACTOR_MINUS_ONE.values()]
        eta = sharp_exponent(ell)
        verdict, bits = _decide(
            _exp_fixed(eta.numerator, eta.denominator, w),
            # the factor 1 + ps[0]/ps[1] at scale w, as _rational_fixed gives it
            (one + (ps[0] << w) // ps[1], one + _ceil_div(ps[0] << w, ps[1])),
            policy,
            lambda: (
                bound_factor(BoundKind.SHARP, ell),
                bound_factor(BoundKind.POLYA_SZEGO, ell),
            ),
        )
        sharp_ps.append(SweepEntry(ell, verdict, bits, verdict is Verdict.LESS))
        # rational factors compare as their excesses over 1 do
        for out, link in (
            (ps_recip, _exact_verdict(*ps, *recip)),
            (recip_linear, _exact_verdict(*recip, *linear)),
        ):
            ok = link in (Verdict.LESS, Verdict.EQUAL)
            out.append(SweepEntry(ell, link, 0, ok))
    return {
        key: SweepReport(label=f"{key} on [{lo}, {hi}]", entries=tuple(out))
        for key, out in entries.items()
    }


def ordering_exception_at_one(policy: RefinementPolicy = DEFAULT_POLICY) -> Comparison:
    """The documented ell = 1 crossover: exp(5/12) > 3/2, i.e. sharp > PS."""
    return cmp_certified(
        bound_factor(BoundKind.SHARP, 1), bound_factor(BoundKind.POLYA_SZEGO, 1), policy
    )


# ---------------------------------------------------------------------------
# logarithm inequalities


class LogCheck(Frozen):
    name: str
    argument: Fraction
    verdict: Verdict
    bits_used: int

    @property
    def holds(self) -> bool:
        return self.verdict in (Verdict.LESS, Verdict.EQUAL)


def _log_check(
    name: str, arg, lhs: Fraction, policy: RefinementPolicy
) -> LogCheck:
    arg = Fraction(arg)
    if arg < 0:
        raise ValueError(f"{name} requires a nonnegative argument")
    cmp = cmp_certified(const(lhs), log1p_of(arg), policy)
    return LogCheck(name, arg, cmp.verdict, cmp.bits_used)


def check_log_weak(s, policy: RefinementPolicy = DEFAULT_POLICY) -> LogCheck:
    """s/(1+s) <= log(1+s), with equality exactly at s = 0."""
    s = Fraction(s)
    return _log_check("log_weak", s, s / (1 + s), policy)


def check_log_pade(x, policy: RefinementPolicy = DEFAULT_POLICY) -> LogCheck:
    """2x/(2+x) <= log(1+x), with equality exactly at x = 0."""
    x = Fraction(x)
    return _log_check("log_pade", x, 2 * x / (2 + x), policy)


def check_log_tail4(t, policy: RefinementPolicy = DEFAULT_POLICY) -> LogCheck:
    """t - t^2/2 + t^3/3 - t^4/4 <= log(1+t), with equality exactly at t = 0."""
    t = Fraction(t)
    poly = t - t**2 / 2 + t**3 / 3 - t**4 / 4
    return _log_check("log_tail4", t, poly, policy)


# ---------------------------------------------------------------------------
# asymptotic expansion agreement


def _expansion_prefix(ell: int) -> Fraction:
    return (
        1
        + Fraction(1, 2 * ell)
        - Fraction(5, 24 * ell**2)
        + Fraction(5, 48 * ell**3)
    )


class ExpansionEntry(Frozen):
    ell: int
    scaled: Enclosure  # ell^4 * (exp(sharp exponent) - cubic prefix)
    positive: bool
    ok: bool


class ExpansionReport(Frozen):
    envelope: Fraction
    entries: tuple[ExpansionEntry, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            mid = (e.scaled.lo + e.scaled.hi) / 2
            lines.append(
                f"ell={e.ell}: ell^4 * defect in "
                f"[{float(e.scaled.lo):.9f}, {float(e.scaled.hi):.9f}]"
                f" (~{float(mid):.6f}) {'ok' if e.ok else 'EXCEEDS ENVELOPE'}"
            )
        return "\n".join(lines)


# the bound on ell^4 times the expansion defect, and the enclosure precision
_EXPANSION_ENVELOPE = Fraction(1)
_EXPANSION_BITS = 192


def check_expansion_agreement(ells: Iterable[int]) -> ExpansionReport:
    """Certify that the cubic expansion of e*sharp(ell) has an ell^-4 defect.

    For each ell the defect D(ell) = exp(sharp exponent) - (1 + 1/(2 ell)
    - 5/(24 ell^2) + 5/(48 ell^3)) is enclosed and scaled by ell^4; the entry
    passes when the scaled enclosure sits strictly inside (-envelope,
    envelope).  The envelope value 1 is an empirical choice backed by an
    independent high-precision oracle; the scaled defect in fact increases
    toward 163/1152, roughly 0.1415.
    """
    entries = []
    for ell in ells:
        ell = _check_ell(ell)
        if ell < 10:
            raise ValueError("expansion agreement is meaningful only for ell >= 10")
        enc = enclose_exp(sharp_exponent(ell), _EXPANSION_BITS)
        prefix = _expansion_prefix(ell)
        scaled = Enclosure((enc.lo - prefix) * ell**4, (enc.hi - prefix) * ell**4)
        ok = -_EXPANSION_ENVELOPE < scaled.lo and scaled.hi < _EXPANSION_ENVELOPE
        entries.append(ExpansionEntry(ell, scaled, positive=scaled.lo > 0, ok=ok))
    return ExpansionReport(_EXPANSION_ENVELOPE, tuple(entries))


# ---------------------------------------------------------------------------
# global shape of phi: the 1/e floor


def phi_floor_sweep(
    lo: int,
    hi: int,
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> SweepReport:
    """Certify phi(ell) > 1/e for every ell in [lo, hi].

    Each check compares log_e_phi(ell) with 0; GREATER means phi(ell) > 1/e.
    The margin, about 1/(2 ell), is far above 2^-32 for any ell this sweep
    will see, so the first rung almost always certifies.
    """
    _check_ell(lo)
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    w = _working_scale(policy.start_bits)
    entries = []
    for ell in range(lo, hi + 1):
        verdict, bits = _decide(
            _log_e_phi_fixed(ell, w),
            (0, 0),
            policy,
            lambda: (log_e_phi(ell), const(0)),
        )
        entries.append(SweepEntry(ell, verdict, bits, verdict is Verdict.GREATER))
    return SweepReport(label=f"phi > 1/e on [{lo}, {hi}]", entries=tuple(entries))
