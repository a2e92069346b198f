"""Certified enclosures of e, exp and log(1+x), and certified comparison.

Real values are described by RealExpr trees and evaluate in integer fixed
point: an interval at scale w is a pair of ints (lo, hi) standing for
[lo * 2^-w, hi * 2^-w], and every step rounds lo down and hi up, so operands
stay near w bits.  Every series is cut off with an explicit tail bound.  A
tree's nodes are rational constants; kernel nodes, each one fixed-point
kernel under a label (e, 1/e as exp(-1), exp and log1p of a rational, and
bounds' log(e*phi(ell))); log1p of a non-rational value; sums and products.

RealExpr.enclose turns such an interval into an Enclosure with dyadic
Fraction endpoints at most 2^-bits wide.  Enclosure is only a result type,
with no arithmetic of its own.  Raising the precision never moves an
endpoint the wrong way: ``x.enclose(p2)`` is a subset of ``x.enclose(p1)``
whenever ``p2 >= p1``.  enclose_exp and enclose_log1p are that method on
exp_of and log1p_of.  enclose_e alone sums its own series in exact
rationals; it is the kernels' source of e.

cmp_certified evaluates the intervals directly.  Fixed-point rounding is not
monotone in w, so it intersects each rung with the previous one, and the
intervals it compares are nested as the precision grows.  A Less or Greater
verdict is only ever produced from two provably disjoint intervals.  No
floating point appears on any certified path.  It is the one loop over a
precision ladder; least_holding walks its verdicts to a least integer.
"""

from __future__ import annotations

import functools
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from ellplan._value import Frozen

RationalLike = Union[Fraction, int]


def _as_fraction(x: RationalLike) -> Fraction:
    # Fraction(f) of a Fraction rebuilds it; descriptors are built per check
    return x if isinstance(x, Fraction) else Fraction(x)


class ZeroStraddle(Exception):
    """A fixed-point interval that must exclude zero still contains it."""


class PrecisionExhausted(Exception):
    """A caller demanded a verdict past the refinement cap."""


# ---------------------------------------------------------------------------
# results


class Enclosure(Frozen):
    """A closed interval [lo, hi] with exact rational endpoints.

    The interval certifies membership of one real value.  It is what the
    enclose_* functions return and what callers query through contains,
    contains_interval and width; values are computed as RealExpr trees, not
    by arithmetic on enclosures.
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


# ---------------------------------------------------------------------------
# public enclosures


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


def enclose_exp(x: RationalLike, precision_bits: int) -> Enclosure:
    """Enclosure of exp(x) for rational x; see RealExpr.enclose."""
    return exp_of(x).enclose(precision_bits)


def enclose_log1p(x: RationalLike, precision_bits: int) -> Enclosure:
    """Enclosure of log(1+x) for rational x >= 0; see RealExpr.enclose."""
    return log1p_of(x).enclose(precision_bits)


# ---------------------------------------------------------------------------
# fixed-point kernels
#
# Intervals (lo, hi) at scale w, as described in the module docstring:
# Python's >> and // floor, and _ceil_div ceils.  Bounded-size endpoints
# follow Arb (F. Johansson, "Arb: efficient arbitrary-precision
# midpoint-radius interval arithmetic", IEEE TC 2017), kept as a plain
# [lo, hi] pair.  The widths are about 2^-w; correctness never depends on the
# extra working bits a kernel chooses, only tightness does.

# Extra working bits of the exp kernel: Taylor rounding and the squarings.
_EXP_PAD = 16


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _round_out(lo: int, hi: int, shift: int) -> tuple[int, int]:
    """Move an interval from scale w + shift down to scale w, outward."""
    return lo >> shift, -(-hi >> shift)


def _rational_fixed(q: Fraction, w: int) -> tuple[int, int]:
    p, d = q.numerator, q.denominator
    return (p << w) // d, _ceil_div(p << w, d)


@functools.lru_cache(maxsize=64)
def _e_fixed(w: int) -> tuple[int, int]:
    # whole 64-bit steps keep enclose_e's unbounded cache small however many
    # scales the relative refinement in cmp_certified asks for
    enc = enclose_e(-(-w // 64) * 64)
    return _rational_fixed(enc.lo, w)[0], _rational_fixed(enc.hi, w)[1]


def _artanh_fixed(tn: int, td: int, w: int) -> tuple[int, int]:
    # artanh(t) = sum_j t^(2j+1)/(2j+1) for 0 < t = tn/td <= 1/3: after the
    # term t^(2n+1)/(2n+1) the odd powers are dominated by a geometric series
    # of ratio t^2, so the tail is below t^(2n+3) / ((2n+3) (1 - t^2)).
    # Terms are added until the next one is under an ulp.
    t_lo = (tn << w) // td
    t_hi = _ceil_div(tn << w, td)
    t2_lo = t_lo * t_lo >> w
    t2_hi = -(-t_hi * t_hi >> w)
    lo = p_lo = t_lo
    hi = p_hi = t_hi
    d = 1
    while True:
        d += 2
        p_lo = p_lo * t2_lo >> w
        p_hi = -(-p_hi * t2_hi >> w)
        if p_hi <= d:
            break
        lo += p_lo // d
        hi += _ceil_div(p_hi, d)
    return lo, hi + _ceil_div(p_hi << w, d * ((1 << w) - t2_hi))


@functools.lru_cache(maxsize=64)
def _artanh_third(w: int) -> tuple[int, int]:
    return _artanh_fixed(1, 3, w)


# The four bound kinds of one ell, and the probes of one eps, share an
# evaluation per rung.
@functools.lru_cache(maxsize=1024)
def _log1p_fixed(num: int, den: int, w: int) -> tuple[int, int]:
    """log(1 + num/den) for num >= 0, den > 0, at scale w.

    With 1+x = 2^k * m, m in [1, 2) (k = 0 for x <= 1), log(1+x) =
    2 artanh((m-1)/(m+1)) + 2k artanh(1/3), since log 2 = 2 artanh(1/3).
    Both artanh arguments are at most 1/3, so the series converges as fast
    for large x as for small.
    """
    if num == 0:
        return 0, 0
    top = num + den
    k = (top // den).bit_length() - 1 if num > den else 0
    base = den << k
    wp = w + k.bit_length() + 2  # room for the factor 2k on log 2
    lo = hi = 0
    if top != base:
        lo, hi = _artanh_fixed(top - base, top + base, wp)
    if k:
        l2_lo, l2_hi = _artanh_third(wp)
        lo += k * l2_lo
        hi += k * l2_hi
    return _round_out(2 * lo, 2 * hi, wp - w)


def _exp_fixed(p: int, q: int, w: int) -> tuple[int, int]:
    """exp(p/q) for p != 0, q > 0, at scale w.

    |x| is halved m times into y in (0, 1/2] and enclosed by a Taylor sum;
    the term ratio is at most y <= 1/2, so the tail after y^n/n! is below
    2 y^(n+1)/(n+1)!.  The sum is squared back m times (squaring positive
    intervals keeps containment), and inverted for negative x.  The working
    scale absorbs the m doublings of relative error and, for positive x, the
    integer bits of exp(x).
    """
    negative = p < 0
    p = abs(p)
    m = max(0, (2 * p).bit_length() - q.bit_length())
    while 2 * p > q << m:
        m += 1
    magnitude = 0 if negative else (3 * p) // (2 * q) + 1  # 1.5 > log2(e)
    wp = w + m + magnitude + _EXP_PAD
    den = q << m
    y_lo = (p << wp) // den
    y_hi = _ceil_div(p << wp, den)
    lo = hi = t_lo = t_hi = 1 << wp
    k = 0
    while t_hi > 1:
        k += 1
        t_lo = t_lo * y_lo // (k << wp)
        t_hi = _ceil_div(t_hi * y_hi, k << wp)
        lo += t_lo
        hi += t_hi
    # the terms after y^k/k! fall by a ratio of at most y <= 1/2
    hi += _ceil_div(2 * t_hi * y_hi, (k + 1) << wp)
    for _ in range(m):
        lo = lo * lo >> wp
        hi = -(-hi * hi >> wp)
    if negative:
        lo, hi = (1 << 2 * wp) // hi, _ceil_div(1 << 2 * wp, lo)
    return _round_out(lo, hi, wp - w)


# ---------------------------------------------------------------------------
# real-value descriptors


def _working_scale(bits: int) -> int:
    """The fixed-point scale w at which a rung of the ladder evaluates.

    A rung of b bits evaluates b - 4 guard bits finer, at least 8 and at
    most 40, so its intervals sit well inside the 2^-b a rung promises.  The
    guard sets the rung at which comparisons separate, which the sweeps and
    plans report as bits_used and precision_used: every sweep comparison up
    to ell = 10^4 separates at the 32-bit rung (w = 60; w = 57 is the least
    that resolves every sweep).  A small rung still cannot separate values
    much closer than 2^-b: at 16 bits (w = 28), 2^-29.6 apart stays unresolved.
    """
    return bits + min(max(bits - 4, 8), 40)


class RealExpr:
    """A real number described symbolically, enclosable to any precision.

    Rational constants fold eagerly, so expressions that are secretly
    rational (for example exp(0), or 1 - 2*(1/2)) compare exactly instead of
    through enclosures.  Other nodes evaluate as fixed-point intervals.
    """

    def enclose(self, precision_bits: int) -> Enclosure:
        """Enclosure at most 2^-precision_bits wide, nested as bits grow.

        Exact values enclose as points.  Otherwise, with g = bits + 2, the
        fixed-point interval is evaluated at w = g + 8 and then at finer
        scales until it is at most 2^-g wide, and each end moves out by
        2^-g.  The result is at most 3 * 2^-g <= 2^-bits wide, and its
        endpoints have denominators of at most 2^w.

        Nesting holds by construction.  For b2 > b1, g2 > g1: every point of
        the b2 enclosure is within 2^-g2 + 2^-g2 <= 2^-g1 of the value, and
        the b1 enclosure holds every point within 2^-g1 of the value, since
        its inner interval holds the value and each end moved out by 2^-g1.
        """
        if precision_bits < 1:
            raise ValueError("precision_bits must be >= 1")
        x = self.exact()
        if x is not None:
            return Enclosure.point(x)
        g = precision_bits + 2
        w = g + 8
        lo, hi = self._fixed(w)
        while hi - lo > 1 << (w - g):
            # the width's excess bits; a node's width in units of 2^-w
            # settles as w grows
            w += (hi - lo).bit_length() - (w - g)
            lo, hi = self._fixed(w)
        pad = 1 << (w - g)
        return Enclosure(Fraction(lo - pad, 1 << w), Fraction(hi + pad, 1 << w))

    def _fixed(self, w: int) -> tuple[int, int]:
        """Fixed-point interval at scale w; may raise ZeroStraddle."""
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

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class _Const(RealExpr):
    def __init__(self, value: RationalLike):
        self.value = _as_fraction(value)

    def _fixed(self, w: int) -> tuple[int, int]:
        return _rational_fixed(self.value, w)

    def exact(self) -> Optional[Fraction]:
        return self.value

    def describe(self) -> str:
        return str(self.value)


class _Kernel(RealExpr):
    """The value kernel(*args, w) computes, named label.format(shown); the
    name is formatted only when asked, as an argument's digits can be many."""

    def __init__(self, label: str, shown, kernel, *args):
        self.label, self.shown = label, shown
        self.kernel, self.args = kernel, args

    def _fixed(self, w: int) -> tuple[int, int]:
        return self.kernel(*self.args, w)

    def describe(self) -> str:
        return self.label.format(self.shown)


class _Log1p(RealExpr):
    """log(1 + arg) for a non-rational arg >= 0, such as the planner's e*eps."""

    def __init__(self, arg: RealExpr):
        self.arg = arg

    def _fixed(self, w: int) -> tuple[int, int]:
        # log1p is increasing with slope at most 1 on x >= 0, so the ends of
        # the argument's interval at the same scale bound it
        lo, hi = self.arg._fixed(w)
        if lo < 0:
            raise ZeroStraddle(f"log1p argument not yet separated from 0 at {w} bits")
        return _log1p_fixed(lo, 1 << w, w)[0], _log1p_fixed(hi, 1 << w, w)[1]

    def describe(self) -> str:
        return f"log1p({self.arg.describe()})"


class _Add(RealExpr):
    def __init__(self, a: RealExpr, b: RealExpr):
        self.a, self.b = a, b

    def _fixed(self, w: int) -> tuple[int, int]:
        alo, ahi = self.a._fixed(w)
        blo, bhi = self.b._fixed(w)
        return alo + blo, ahi + bhi

    def describe(self) -> str:
        return f"({self.a.describe()} + {self.b.describe()})"


def _scale_fixed(expr: RealExpr, q: Fraction, w: int) -> tuple[int, int]:
    # q * expr: the child is evaluated |q|'s integer bits finer, so that the
    # product is as tight at scale w as the child alone
    p, d = q.numerator, q.denominator
    extra = (abs(p) // d).bit_length()
    lo, hi = expr._fixed(w + extra)
    a, b = (p * lo, p * hi) if p >= 0 else (p * hi, p * lo)
    den = d << extra
    return a // den, _ceil_div(b, den)


class _Mul(RealExpr):
    def __init__(self, a: RealExpr, b: RealExpr):
        self.a, self.b = a, b

    def _fixed(self, w: int) -> tuple[int, int]:
        xa, xb = self.a.exact(), self.b.exact()
        if xa is not None:
            return _scale_fixed(self.b, xa, w)
        if xb is not None:
            return _scale_fixed(self.a, xb, w)
        # each factor's width is scaled by the other's size
        alo, ahi = self.a._fixed(w)
        blo, bhi = self.b._fixed(w)
        products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
        return _round_out(min(products), max(products), w)

    def describe(self) -> str:
        return f"({self.a.describe()} * {self.b.describe()})"


E = _Kernel("e", None, _e_fixed)


def as_expr(v) -> RealExpr:
    if isinstance(v, RealExpr):
        return v
    if isinstance(v, (int, Fraction)):
        return _Const(v)
    raise TypeError(f"not a real-value descriptor: {v!r}")


def const(v: RationalLike) -> RealExpr:
    return _Const(v)


def exp_of(arg: RationalLike) -> RealExpr:
    arg = _as_fraction(arg)
    if arg == 0:
        return _Const(1)
    return _Kernel("exp({})", arg, _exp_fixed, arg.numerator, arg.denominator)


def log1p_of(arg: Union[RationalLike, RealExpr]) -> RealExpr:
    """log(1+arg) for arg >= 0; a non-rational arg is enclosed first."""
    if isinstance(arg, RealExpr):
        if arg.exact() is None:
            return _Log1p(arg)
        arg = arg.exact()
    arg = _as_fraction(arg)
    if arg < 0:
        raise ValueError("log1p_of requires arg >= 0")
    if arg == 0:
        return _Const(0)
    return _Kernel("log1p({})", arg, _log1p_fixed, arg.numerator, arg.denominator)


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


# ---------------------------------------------------------------------------
# certified comparison


class Verdict(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal-as-rationals"
    UNRESOLVED = "unresolved"

    @property
    def word(self) -> str:
        """The verdict as one lower-case word, in text and structured output."""
        return self.name.lower()


class Comparison(Frozen):
    """Outcome of a certified comparison.

    ``bits_used`` is 0 when both sides were exact rationals; otherwise it is
    the precision at which the enclosures first separated (or the cap, for
    an unresolved outcome).
    """

    verdict: Verdict
    bits_used: int


class RefinementPolicy(Frozen):
    """Geometric precision ladder for comparisons: 32 bits (or the cap, if
    lower), doubled up to the cap."""

    cap_bits: int = 4096

    def __post_init__(self) -> None:
        if self.cap_bits < 8:
            raise ValueError(f"precision cap must be at least 8 bits, got {self.cap_bits}")

    @property
    def start_bits(self) -> int:
        """The first rung."""
        return min(32, self.cap_bits)

    def ladder(self) -> Iterator[int]:
        bits = self.start_bits
        while True:
            yield bits
            if bits >= self.cap_bits:
                return
            bits = min(bits * 2, self.cap_bits)


DEFAULT_POLICY = RefinementPolicy()


# Both sides below 2^-5 in size count as small: a rung then refines by the
# leading zero bits they share.  Larger values compare at the rung's own
# scale, so a 16-bit rung still leaves a difference of 2^-29.6 near 0.09
# unresolved.
_SMALL_LEAD = 5


def _meet(
    iv: tuple[int, int], w: int, other: tuple[int, int], ow: int
) -> tuple[int, int]:
    """Intersection of two enclosures of one value, at the finer scale."""
    if ow > w:
        iv, w, other, ow = other, ow, iv, w
    s = w - ow
    return max(iv[0], other[0] << s), min(iv[1], other[1] << s)


def cmp_certified(a, b, policy: RefinementPolicy = DEFAULT_POLICY) -> Comparison:
    """Certified three-way comparison of two real-value descriptors.

    Exact rational pairs compare directly (the only way to obtain an Equal
    verdict).  Otherwise both sides are evaluated as fixed-point intervals
    at each rung of the policy's precision ladder until the intervals are
    disjoint.  Where they overlap and both are below 2^-5, the rung refines
    by the leading zero bits they share, so small values compare relative
    to their size.  Each rung's intervals are intersected with the previous
    rung's, so refinement never widens an enclosure.  If they still overlap
    at the cap the result is Unresolved, never a guess.
    """
    ea, eb = as_expr(a), as_expr(b)
    xa, xb = ea.exact(), eb.exact()
    if xa is not None and xb is not None:
        if xa == xb:
            return Comparison(Verdict.EQUAL, 0)
        return Comparison(Verdict.LESS if xa < xb else Verdict.GREATER, 0)
    prev = None
    for bits in policy.ladder():
        w = _working_scale(bits)
        try:
            ia, ib = ea._fixed(w), eb._fixed(w)
            if ia[1] >= ib[0] and ib[1] >= ia[0]:
                lead = w - max(map(abs, ia + ib)).bit_length()
                if lead >= _SMALL_LEAD:
                    w += lead
                    ia, ib = ea._fixed(w), eb._fixed(w)
        except ZeroStraddle:
            continue  # refine; the interval may separate from zero yet
        if prev is not None:
            # both rungs enclose the same values, so their intersection does
            pw, pa, pb = prev
            ia, ib = _meet(ia, w, pa, pw), _meet(ib, w, pb, pw)
            w = max(w, pw)
        if ia[1] < ib[0]:
            return Comparison(Verdict.LESS, bits)
        if ib[1] < ia[0]:
            return Comparison(Verdict.GREATER, bits)
        prev = (w, ia, ib)
    return Comparison(Verdict.UNRESOLVED, policy.cap_bits)


def least_holding(holds: Callable[[int], bool], guess: int, least: int) -> int:
    """The least n >= least with holds(n), for holds false below some n and
    true from it on.  From guess >= least it steps down while holds or up
    until it holds: one test a unit the guess is off, plus at most two."""
    n = guess
    if holds(n):
        while n > least and holds(n - 1):
            n -= 1
        return n
    n += 1
    while not holds(n):
        n += 1
    return n
