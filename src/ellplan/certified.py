"""Exact rational enclosures of e, exp, and log(1+x), and certified comparison.

Everything rests on ``fractions.Fraction``: interval endpoints are exact
rationals, every series is cut off with an explicit tail bound, and a Less or
Greater verdict is only ever produced from two provably disjoint intervals.
No floating point appears on any certified path.

The three enclosure builders share one structural guarantee that the rest of
the package leans on: refining the precision never moves an endpoint the
wrong way, i.e. ``enclose(x, p2)`` is a subset of ``enclose(x, p1)`` whenever
``p2 >= p1``.  Each builder achieves this by choosing the minimal series
order that meets the width target; the per-order interval families are nested
by construction, and a minimal order is a nondecreasing function of the
precision demanded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Union

Rational = Fraction

RationalLike = Union[Fraction, int]


class EncloseError(Exception):
    """An enclosure could not be formed at the requested precision."""


class ZeroStraddle(EncloseError):
    """Reciprocal of an interval that contains zero at this precision."""


class PrecisionExhausted(Exception):
    """A caller demanded a resolved verdict past the refinement cap."""


# ---------------------------------------------------------------------------
# intervals


@dataclass(frozen=True)
class Enclosure:
    """A closed interval [lo, hi] with exact rational endpoints.

    The interval certifies membership of one real value; all arithmetic here
    is exact, so the usual outward-rounding worries of floating-point
    interval libraries do not arise.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.lo, Fraction):
            object.__setattr__(self, "lo", Fraction(self.lo))
        if not isinstance(self.hi, Fraction):
            object.__setattr__(self, "hi", Fraction(self.hi))
        # a point enclosure shares one object; comparing a million-digit
        # rational with itself would cost two full cross-multiplications
        if self.lo is not self.hi and self.lo > self.hi:
            raise ValueError(f"empty enclosure: lo={self.lo} > hi={self.hi}")

    @classmethod
    def point(cls, x: RationalLike) -> "Enclosure":
        x = Fraction(x)
        return cls(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: RationalLike) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Enclosure") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Enclosure(min(products), max(products))

    def scale(self, q: RationalLike) -> "Enclosure":
        q = Fraction(q)
        if q >= 0:
            return Enclosure(self.lo * q, self.hi * q)
        return Enclosure(self.hi * q, self.lo * q)

    def shift(self, q: RationalLike) -> "Enclosure":
        q = Fraction(q)
        return Enclosure(self.lo + q, self.hi + q)

    def square(self) -> "Enclosure":
        if self.lo >= 0:
            return Enclosure(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Enclosure(self.hi * self.hi, self.lo * self.lo)
        return Enclosure(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def reciprocal(self) -> "Enclosure":
        if self.straddles_zero():
            raise ZeroStraddle(f"cannot invert [{self.lo}, {self.hi}]")
        return Enclosure(1 / self.hi, 1 / self.lo)


# ---------------------------------------------------------------------------
# series enclosures

# Growing the series past this many terms would signal a badly scaled input;
# the builders then return the widest valid interval instead of spinning.
_SERIES_TERM_CAP = 1 << 16


@functools.lru_cache(maxsize=None)
def enclose_e(precision_bits: int) -> Enclosure:
    """Enclosure of e from partial sums of 1/k!.

    With S_K = sum_{k<=K} 1/k!, the tail sum_{j>K} 1/j! is strictly between
    0 and 1/(K!*K), so [S_K, S_K + 1/(K!*K)] strictly contains e.  K is the
    smallest order with 1/(K!*K) <= 2^-precision_bits, which makes larger
    precisions give nested sub-intervals.
    """
    if precision_bits < 1:
        raise ValueError("precision_bits must be >= 1")
    target = 1 << precision_bits  # need K! * K >= 2^p
    k, fact = 1, 1
    numer = 2  # sum_{j<=K} K!/j!, here at K = 1
    while fact * k < target:
        k += 1
        fact *= k
        numer = numer * k + 1
    return Enclosure(Fraction(numer, fact), Fraction(numer * k + 1, fact * k))


def _exp_core(y: Fraction, n: int) -> Enclosure:
    # exp(y) for 0 <= y <= 1/2 via n Taylor terms; the term ratio is at most
    # y <= 1/2, so the tail after y^n/n! is below 2 * y^(n+1)/(n+1)!.
    s = Fraction(1)
    term = Fraction(1)
    for k in range(1, n + 1):
        term = term * y / k
        s += term
    tail = 2 * term * y / (n + 1)
    return Enclosure(s, s + tail)


def _minimal_order(build, width_target: Fraction):
    """Smallest n >= 1 with build(n).width <= width_target.

    ``build(n)`` must be a nested family (n' > n gives a sub-interval), which
    makes the width monotone and the doubling-plus-bisection search exact.
    Returns the enclosure at the term cap if the target is unreachable.
    """
    n = 1
    enc = build(n)
    while enc.width > width_target and n < _SERIES_TERM_CAP:
        n *= 2
        enc = build(n)
    if enc.width > width_target:
        return enc
    lo, hi = n // 2, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        cand = build(mid)
        if cand.width <= width_target:
            hi, enc = mid, cand
        else:
            lo = mid
    return enc


@functools.lru_cache(maxsize=8192)
def enclose_exp(x: RationalLike, precision_bits: int) -> Enclosure:
    """Enclosure of exp(x) for rational x.

    The argument is halved m times until it lands in [0, 1/2], enclosed by a
    Taylor polynomial with an explicit geometric tail, then squared back m
    times (squaring of positive intervals is containment-monotone, and so is
    the final reciprocal for negative x).
    """
    x = Fraction(x)
    if precision_bits < 1:
        raise ValueError("precision_bits must be >= 1")
    if x == 0:
        return Enclosure.point(1)
    negative = x < 0
    ax = -x if negative else x
    halvings = 0
    while ax > Fraction(1, 2):
        ax /= 2
        halvings += 1

    def build(n: int) -> Enclosure:
        enc = _exp_core(ax, n)
        for _ in range(halvings):
            enc = enc.square()
        if negative:
            enc = enc.reciprocal()
        return enc

    return _minimal_order(build, Fraction(1, 1 << precision_bits))


def _artanh_core(t: Fraction, n: int) -> Enclosure:
    # artanh(t) for 0 <= t < 1 via n+1 odd-power terms; the remaining odd
    # powers are dominated by a geometric series with ratio t^2, giving the
    # tail bound t^(2n+3) / ((2n+3) (1 - t^2)).
    t2 = t * t
    power = t
    s = t
    for j in range(1, n + 1):
        power *= t2
        s += power / (2 * j + 1)
    tail = power * t2 / ((2 * n + 3) * (1 - t2))
    return Enclosure(s, s + tail)


# Hits come from comparisons at the same ell or eps, which run close together;
# a larger cache would mostly hold planner probes' one-off entries (~1 KB each).
@functools.lru_cache(maxsize=1024)
def enclose_log1p(x: RationalLike, precision_bits: int) -> Enclosure:
    """Enclosure of log(1+x) for rational x >= 0.

    Uses log(1+x) = 2 artanh(x/(x+2)).  Arguments above 1 are first reduced
    by powers of two, 1+x = 2^k * m with m in [1, 2), against log 2 =
    2 artanh(1/3); this keeps the series argument at most 1/3 so convergence
    does not degrade for large x.
    """
    x = Fraction(x)
    if precision_bits < 1:
        raise ValueError("precision_bits must be >= 1")
    if x < 0:
        raise ValueError("enclose_log1p requires x >= 0")
    if x == 0:
        return Enclosure.point(0)

    one_plus = 1 + x
    k = 0
    if x > 1:
        # largest k with 2^k <= 1+x
        k = (one_plus.numerator // one_plus.denominator).bit_length() - 1
        one_plus = one_plus / (1 << k)
    rest = one_plus - 1  # in [0, 1)
    t_rest = rest / (rest + 2)
    t_log2 = Fraction(1, 3)

    def build(n: int) -> Enclosure:
        enc = _artanh_core(t_rest, n).scale(2) if t_rest else Enclosure.point(0)
        if k:
            enc = enc + _artanh_core(t_log2, n).scale(2 * k)
        return enc

    return _minimal_order(build, Fraction(1, 1 << precision_bits))


def enclose_exp_interval(enc: Enclosure, precision_bits: int) -> Enclosure:
    """Enclosure of exp over a whole interval (exp is increasing)."""
    return Enclosure(
        enclose_exp(enc.lo, precision_bits).lo,
        enclose_exp(enc.hi, precision_bits).hi,
    )


# ---------------------------------------------------------------------------
# real-value descriptors

_EXPR_CHILD_PAD = 2  # extra bits handed to children of compound nodes


class RealExpr:
    """A real number described symbolically, enclosable to any precision.

    Rational constants fold eagerly, so expressions that are secretly
    rational (for example exp(0), or 1 - 2*(1/2)) compare exactly instead of
    through enclosures.
    """

    def enclose(self, precision_bits: int) -> Enclosure:
        raise NotImplementedError

    def exact(self) -> Optional[Fraction]:
        return None

    def describe(self) -> str:
        raise NotImplementedError

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return _add(self, as_expr(other))

    def __radd__(self, other):
        return _add(as_expr(other), self)

    def __sub__(self, other):
        return _add(self, _negate(as_expr(other)))

    def __rsub__(self, other):
        return _add(as_expr(other), _negate(self))

    def __mul__(self, other):
        return _mul(self, as_expr(other))

    def __rmul__(self, other):
        return _mul(as_expr(other), self)

    def __truediv__(self, other):
        return _mul(self, _invert(as_expr(other)))

    def __rtruediv__(self, other):
        return _mul(as_expr(other), _invert(self))

    def __neg__(self):
        return _negate(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class _Const(RealExpr):
    def __init__(self, value: RationalLike):
        self.value = Fraction(value)

    def enclose(self, precision_bits: int) -> Enclosure:
        return Enclosure.point(self.value)

    def exact(self) -> Optional[Fraction]:
        return self.value

    def describe(self) -> str:
        return str(self.value)


class _EulerE(RealExpr):
    def enclose(self, precision_bits: int) -> Enclosure:
        return enclose_e(precision_bits)

    def describe(self) -> str:
        return "e"


class _Exp(RealExpr):
    def __init__(self, arg: Fraction):
        self.arg = arg

    def enclose(self, precision_bits: int) -> Enclosure:
        return enclose_exp(self.arg, precision_bits)

    def describe(self) -> str:
        return f"exp({self.arg})"


class _Log1p(RealExpr):
    def __init__(self, arg: Union[Fraction, RealExpr]):
        self.arg = arg

    def enclose(self, precision_bits: int) -> Enclosure:
        if isinstance(self.arg, Fraction):
            return enclose_log1p(self.arg, precision_bits)
        # log1p is increasing, so the ends of the argument's enclosure bound it
        enc = self.arg.enclose(precision_bits + _EXPR_CHILD_PAD)
        if enc.lo < 0:
            raise ZeroStraddle(f"log1p argument not yet separated from 0: {enc}")
        lo = enclose_log1p(enc.lo, precision_bits).lo
        return Enclosure(lo, enclose_log1p(enc.hi, precision_bits).hi)

    def describe(self) -> str:
        arg = self.arg if isinstance(self.arg, Fraction) else self.arg.describe()
        return f"log1p({arg})"


class _Add(RealExpr):
    def __init__(self, a: RealExpr, b: RealExpr):
        self.a, self.b = a, b

    def enclose(self, precision_bits: int) -> Enclosure:
        p = precision_bits + _EXPR_CHILD_PAD
        return self.a.enclose(p) + self.b.enclose(p)

    def describe(self) -> str:
        return f"({self.a.describe()} + {self.b.describe()})"


class _Mul(RealExpr):
    def __init__(self, a: RealExpr, b: RealExpr):
        self.a, self.b = a, b

    def enclose(self, precision_bits: int) -> Enclosure:
        p = precision_bits + _EXPR_CHILD_PAD
        # an exact factor gives the four-product interval at half the cost
        xa, xb = self.a.exact(), self.b.exact()
        if xa is not None:
            return self.b.enclose(p).scale(xa)
        if xb is not None:
            return self.a.enclose(p).scale(xb)
        return self.a.enclose(p) * self.b.enclose(p)

    def describe(self) -> str:
        return f"({self.a.describe()} * {self.b.describe()})"


class _Inv(RealExpr):
    def __init__(self, a: RealExpr):
        self.a = a

    def enclose(self, precision_bits: int) -> Enclosure:
        return self.a.enclose(precision_bits + _EXPR_CHILD_PAD).reciprocal()

    def describe(self) -> str:
        return f"(1 / {self.a.describe()})"


E = _EulerE()


def as_expr(v) -> RealExpr:
    if isinstance(v, RealExpr):
        return v
    if isinstance(v, (int, Fraction)):
        return _Const(v)
    raise TypeError(f"not a real-value descriptor: {v!r}")


def const(v: RationalLike) -> RealExpr:
    return _Const(v)


def exp_of(arg: RationalLike) -> RealExpr:
    arg = Fraction(arg)
    if arg == 0:
        return _Const(1)
    return _Exp(arg)


def log1p_of(arg: Union[RationalLike, RealExpr]) -> RealExpr:
    """log(1+arg) for arg >= 0; a non-rational arg is enclosed first."""
    if isinstance(arg, RealExpr):
        if arg.exact() is None:
            return _Log1p(arg)
        arg = arg.exact()
    arg = Fraction(arg)
    if arg < 0:
        raise ValueError("log1p_of requires arg >= 0")
    if arg == 0:
        return _Const(0)
    return _Log1p(arg)


def _add(a: RealExpr, b: RealExpr) -> RealExpr:
    xa, xb = a.exact(), b.exact()
    if xa is not None and xb is not None:
        return _Const(xa + xb)
    return _Add(a, b)


def _mul(a: RealExpr, b: RealExpr) -> RealExpr:
    xa, xb = a.exact(), b.exact()
    if xa is not None and xb is not None:
        return _Const(xa * xb)
    return _Mul(a, b)


def _negate(a: RealExpr) -> RealExpr:
    xa = a.exact()
    if xa is not None:
        return _Const(-xa)
    return _Mul(_Const(-1), a)


def _invert(a: RealExpr) -> RealExpr:
    xa = a.exact()
    if xa is not None:
        if xa == 0:
            raise ZeroDivisionError("division by exact zero descriptor")
        return _Const(1 / xa)
    return _Inv(a)


def inv_e() -> RealExpr:
    """The constant 1/e as a descriptor."""
    return _Inv(E)


# ---------------------------------------------------------------------------
# certified comparison


class Verdict(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal-as-rationals"
    UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class Comparison:
    """Outcome of a certified comparison.

    ``bits_used`` is 0 when both sides were exact rationals; otherwise it is
    the precision at which the enclosures first separated (or the cap, for
    an unresolved outcome).
    """

    verdict: Verdict
    bits_used: int

    @property
    def resolved(self) -> bool:
        return self.verdict is not Verdict.UNRESOLVED


@dataclass(frozen=True)
class RefinementPolicy:
    """Geometric precision ladder for comparisons: start, double, cap."""

    start_bits: int = 32
    cap_bits: int = 4096

    def __post_init__(self) -> None:
        if not (1 <= self.start_bits <= self.cap_bits):
            raise ValueError(
                f"need 1 <= start_bits <= cap_bits, got "
                f"{self.start_bits}..{self.cap_bits}"
            )

    def ladder(self) -> Iterator[int]:
        bits = self.start_bits
        while True:
            yield bits
            if bits >= self.cap_bits:
                return
            bits = min(bits * 2, self.cap_bits)


DEFAULT_POLICY = RefinementPolicy()


def cmp_certified(a, b, policy: RefinementPolicy = DEFAULT_POLICY) -> Comparison:
    """Certified three-way comparison of two real-value descriptors.

    Exact rational pairs compare directly (the only way to obtain an Equal
    verdict).  Otherwise both sides are enclosed on the policy's precision
    ladder until the intervals are disjoint; if they still overlap at the
    cap the result is Unresolved, never a guess.
    """
    ea, eb = as_expr(a), as_expr(b)
    xa, xb = ea.exact(), eb.exact()
    if xa is not None and xb is not None:
        if xa == xb:
            return Comparison(Verdict.EQUAL, 0)
        return Comparison(Verdict.LESS if xa < xb else Verdict.GREATER, 0)
    for bits in policy.ladder():
        try:
            ia = ea.enclose(bits)
            ib = eb.enclose(bits)
        except ZeroStraddle:
            continue  # refine; the interval may separate from zero yet
        if ia.hi < ib.lo:
            return Comparison(Verdict.LESS, bits)
        if ib.hi < ia.lo:
            return Comparison(Verdict.GREATER, bits)
    return Comparison(Verdict.UNRESOLVED, policy.cap_bits)
