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
evaluate both sides of each check straight from the fixed-point kernels,
without building a RealExpr per check, and replay cmp_certified's first
rung on them: the integers are exactly those it would compare, at the
rung's working scale and, for small overlapping values, at its refined
scale.  A check decided there is recorded at the first rung, which is where
cmp_certified decides it too; any other check goes through cmp_certified on
the same descriptors.  Every verdict and bits_used in a SweepReport is
therefore the one cmp_certified gives.  A report stores runs of equal
outcomes over consecutive ell, so a sweep's memory does not grow with the
number of depths it checks.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Sequence

from ellplan._value import Frozen
from ellplan.certified import (
    DEFAULT_POLICY,
    Comparison,
    Enclosure,
    RealExpr,
    RefinementPolicy,
    Verdict,
    _Kernel,
    _SMALL_LEAD,
    _ceil_div,
    _exp_fixed,
    _log1p_fixed,
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


def _sharp_terms(ell: int) -> tuple[int, int]:
    # sharp_exponent(ell) as num, den, not reduced: the sweeps' kernels give
    # the same integers for any num, den of one rational
    return 6 * ell * ell - 4 * ell + 3, 12 * ell**3


def sharp_exponent(ell: int) -> Fraction:
    """1/(2 ell) - 1/(3 ell^2) + 1/(4 ell^3), over one denominator."""
    return Fraction(*_sharp_terms(_check_ell(ell)))


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


# A run of checks: (first_ell, last_ell, verdict, bits_used, ok).
Run = tuple[int, int, Verdict, int, bool]


def _failed(run: Run) -> bool:
    return not run[4] and run[2] is not Verdict.UNRESOLVED


def _unresolved(run: Run) -> bool:
    return run[2] is Verdict.UNRESOLVED


def _count(runs: Iterable[Run]) -> int:
    return sum(last - first + 1 for first, last, *_ in runs)


def _expand(runs: Iterable[Run]) -> Iterator[SweepEntry]:
    for first, last, verdict, bits, ok in runs:
        for ell in range(first, last + 1):
            yield SweepEntry(ell, verdict, bits, ok)


class SweepReport(Frozen):
    """One sweep's checks, stored as runs of consecutive ell with one
    outcome each.

    The runs are canonical: each covers first_ell <= last_ell, they are
    sorted and disjoint, and two runs that touch carry different outcomes.
    So two reports are equal exactly when their entries are, and a report
    takes memory by its changes of outcome, not by the depths it covers.
    entries, failures and inconclusive expand the runs they select; the
    counts and summary() read the runs alone.
    """

    label: str
    runs: tuple[Run, ...]

    def __post_init__(self) -> None:
        prev = None
        for run in self.runs:
            first, last = run[0], run[1]
            if first > last or prev is not None and (
                first <= prev[1] or first == prev[1] + 1 and run[2:] == prev[2:]
            ):
                raise ValueError(f"sweep runs are not canonical at {run!r}")
            prev = run

    @property
    def entries(self) -> tuple[SweepEntry, ...]:
        """One entry per check, sorted by ell."""
        return tuple(_expand(self.runs))

    @property
    def checked(self) -> int:
        return _count(self.runs)

    @property
    def max_bits(self) -> int:
        return max((run[3] for run in self.runs), default=0)

    @property
    def all_ok(self) -> bool:
        return all(run[4] for run in self.runs)

    @property
    def failures(self) -> tuple[SweepEntry, ...]:
        return tuple(_expand(filter(_failed, self.runs)))

    @property
    def inconclusive(self) -> tuple[SweepEntry, ...]:
        return tuple(_expand(filter(_unresolved, self.runs)))

    @property
    def failed_count(self) -> int:
        """len(failures), without expanding them."""
        return _count(filter(_failed, self.runs))

    @property
    def unresolved_count(self) -> int:
        """len(inconclusive), without expanding them."""
        return _count(filter(_unresolved, self.runs))

    def summary(self) -> str:
        n = self.checked
        if self.all_ok:
            return f"{self.label}: {n}/{n} certified"
        bad = ", ".join(str(e.ell) for e in islice(_expand(filter(_failed, self.runs)), 5))
        unres = ", ".join(
            str(e.ell) for e in islice(_expand(filter(_unresolved, self.runs)), 5)
        )
        parts = [
            f"{self.label}: {n - self.failed_count - self.unresolved_count}/{n} certified"
        ]
        if bad:
            parts.append(f"failed at ell = {bad}")
        if unres:
            parts.append(f"unresolved at ell = {unres}")
        return "; ".join(parts)


def _extend(runs: list, ell: int, verdict: Verdict, bits: int, ok: bool) -> None:
    """Record one check in runs, a list of [first, last, verdict, bits, ok]:
    the last run grows when the check continues it."""
    if runs:
        run = runs[-1]
        if run[1] + 1 == ell and run[2] is verdict and run[3] == bits and run[4] is ok:
            run[1] = ell
            return
    runs.append([ell, ell, verdict, bits, ok])


def _report(label: str, runs: list) -> SweepReport:
    return SweepReport(label, tuple(map(tuple, runs)))


def _quotient_fixed(num: int, den: int, w: int) -> tuple[int, int]:
    # num/den at scale w, as _rational_fixed gives it for the reduced form
    return (num << w) // den, _ceil_div(num << w, den)


def _log_target_fixed(kind: BoundKind, ell: int, w: int) -> tuple[int, int]:
    # _log_bound_factor(kind, ell)._fixed(w)
    if kind is BoundKind.SHARP:
        return _quotient_fixed(*_sharp_terms(ell), w)
    return _log1p_fixed(*_FACTOR_MINUS_ONE[kind](ell), w)


def _decide(ia, ib, sides, policy: RefinementPolicy, descriptors) -> tuple[Verdict, int]:
    """Verdict and bits of cmp_certified(*descriptors(), policy).

    ia and ib are the two sides at the first rung's working scale w, and
    sides(v) gives both at a scale v, as the descriptors' _fixed would.
    This is cmp_certified's first rung: where the intervals overlap and
    share at least _SMALL_LEAD leading zero bits, both are re-evaluated that
    many bits finer, and disjoint intervals are its first-rung verdict.
    Anything else is left to cmp_certified, built lazily from descriptors.
    """
    if ia[1] >= ib[0] and ib[1] >= ia[0]:
        w = _working_scale(policy.start_bits)
        lead = w - max(map(abs, ia + ib)).bit_length()
        if lead >= _SMALL_LEAD:
            ia, ib = sides(w + lead)
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
    factor; LESS means phi(ell) < bound(kind, ell).
    """
    _check_ell(lo)
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    w = _working_scale(policy.start_bits)
    runs: dict[BoundKind, list] = {kind: [] for kind in kinds}
    checks = [(kind, kind.min_ell, out) for kind, out in runs.items()]
    for ell in range(lo, hi + 1):
        value = _log_e_phi_fixed(ell, w)
        for kind, least, out in checks:
            if ell >= least:
                verdict, bits = _decide(
                    value,
                    _log_target_fixed(kind, ell, w),
                    lambda v: (_log_e_phi_fixed(ell, v), _log_target_fixed(kind, ell, v)),
                    policy,
                    lambda: (log_e_phi(ell), _log_bound_factor(kind, ell)),
                )
                _extend(out, ell, verdict, bits, verdict is Verdict.LESS)
    return {
        kind: _report(f"phi <= {kind.value} on [{max(lo, kind.min_ell)}, {hi}]", out)
        for kind, out in runs.items()
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
    runs: dict[str, list] = {f"{s.value} <= {l.value}": [] for s, l in _ORDER_CHAIN}
    sharp_ps, ps_recip, recip_linear = runs.values()
    for ell in range(lo, hi + 1):
        ps, recip, linear = [excess(ell) for excess in _FACTOR_MINUS_ONE.values()]
        eta = _sharp_terms(ell)
        factor = ps[1] + ps[0], ps[1]
        verdict, bits = _decide(
            _exp_fixed(*eta, w),
            _quotient_fixed(*factor, w),
            lambda v: (_exp_fixed(*eta, v), _quotient_fixed(*factor, v)),
            policy,
            lambda: (
                bound_factor(BoundKind.SHARP, ell),
                bound_factor(BoundKind.POLYA_SZEGO, ell),
            ),
        )
        _extend(sharp_ps, ell, verdict, bits, verdict is Verdict.LESS)
        # rational factors compare as their excesses over 1 do
        for out, link in (
            (ps_recip, _exact_verdict(*ps, *recip)),
            (recip_linear, _exact_verdict(*recip, *linear)),
        ):
            _extend(out, ell, link, 0, link in (Verdict.LESS, Verdict.EQUAL))
    return {key: _report(f"{key} on [{lo}, {hi}]", out) for key, out in runs.items()}


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
    runs: list = []
    for ell in range(lo, hi + 1):
        verdict, bits = _decide(
            _log_e_phi_fixed(ell, w),
            (0, 0),
            lambda v: (_log_e_phi_fixed(ell, v), (0, 0)),
            policy,
            lambda: (log_e_phi(ell), const(0)),
        )
        _extend(runs, ell, verdict, bits, verdict is Verdict.GREATER)
    return _report(f"phi > 1/e on [{lo}, {hi}]", runs)
