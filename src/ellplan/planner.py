"""Round-depth planning: three rules for choosing the search depth ell.

For a slack eps > 0, the guarantee rho(ell) >= 1 - 1/e - eps can be bought
at three depths:

    ell_bf      1 + ceil(1/eps)                 classical, fully safe
    ell_ps      ceil(1/(2 e eps))               closed form, near-minimal
    ell_star    min{ell >= 1 : phi(ell) <= 1/e + eps}   exactly minimal

ell_ps and ell_star are each found by certified.least_holding, a walk to
the least depth at which a certified comparison holds.  ell_ps is the least
k with 2 e eps k > 1, from a guess off by at most one.  ell_star is walked
down from ell_ps: the start is feasible by the Polya-Szego bound, phi is
strictly decreasing, and the walk stops at the first infeasible depth.
Since ell_star = 1/(2 e eps) - 5/12 + O(eps) sits within a unit of ell_ps,
the walk costs ell_ps - ell_star + 2 probes, two or three in practice.
Every probe is depth_comparison, the one place that encodes phi(ell) <= 1/e
+ eps, as log(e*phi(ell)) <= log1p(e*eps) by certified enclosures; phi is
rational and 1/e + eps is not, so the sides never tie.  The planner never
touches floats, so the returned depths carry a proof rather than an
estimate.  For eps >= 1/2 - 1/e the same path returns ell_star = 1 with no
special casing.

The sharp exponential certificate (exp of the three-term exponent against
1 + e*eps) is sufficient but not necessary; certificate_sharp can come back
False for a depth that phi itself accepts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

from ellplan._value import Frozen
from ellplan.bounds import log_e_phi, rho, sharp_exponent
from ellplan.certified import (
    DEFAULT_POLICY, E, Comparison, PrecisionExhausted, RationalLike,
    RefinementPolicy, Verdict, _working_scale, cmp_certified, const, enclose_e,
    least_holding, log1p_of,
)


class EpsSpec(Frozen):
    """A slack value held exactly; floats are refused at the boundary."""

    eps: Fraction

    def __post_init__(self):
        if not isinstance(self.eps, Fraction):
            raise TypeError(f"eps must be a Fraction, got {type(self.eps).__name__}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    @classmethod
    def parse(cls, text: str) -> "EpsSpec":
        """Exact decimal (or p/q) string to EpsSpec: '0.01', '1e-3', '3/20'."""
        try:
            value = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse eps from {text!r}") from exc
        return cls(value)

    @classmethod
    def from_rational(cls, value: RationalLike) -> "EpsSpec":
        if isinstance(value, float):
            raise TypeError("refusing float eps; pass a string or Fraction")
        return cls(Fraction(value))

    def __str__(self) -> str:
        return str(self.eps)


def _terminating_decimal(value: Fraction) -> Optional[tuple[int, int]]:
    """(digits, k) with value = digits / 10^k and k least, which is max(a, b)
    for a denominator 2^a 5^b; None when the denominator has another factor."""
    den = value.denominator
    twos = (den & -den).bit_length() - 1
    rest = den >> twos
    # 5^b has bit length floor(b log2 5) + 1: read b off it, then check
    fives = round((rest.bit_length() - 1) / math.log2(5))
    if rest != 5**fives:
        return None
    k = max(twos, fives)
    return value.numerator * 10**k // den, k


EpsLike = Union[EpsSpec, RationalLike]


def _eps_value(eps: EpsLike) -> Fraction:
    return eps.eps if isinstance(eps, EpsSpec) else EpsSpec.from_rational(eps).eps


def ell_bf(eps: EpsLike) -> int:
    """The brute-force depth 1 + ceil(1/eps), computed exactly."""
    return 1 + math.ceil(1 / _eps_value(eps))


def _decided(res: Comparison, rungs: list[int], what: str) -> Verdict:
    """res's verdict, its rung added to rungs; unresolved, it raises at the cap."""
    if res.verdict is Verdict.UNRESOLVED:
        raise PrecisionExhausted(f"{what} at {res.bits_used} bits")
    rungs.append(res.bits_used)
    return res.verdict


def _ell_ps_walk(value: Fraction, policy: RefinementPolicy, rungs: list[int]) -> int:
    """ceil(1/(2 e eps)), at least 1: the least k >= 1 with 2 eps k e > 1.

    Each step is one certified comparison, whose sides never tie, as e is
    irrational.  The guess reads e 64 to 128 bits past the size of 1/eps, so
    it is off by at most one however small eps is.
    """
    ambiguous = "ceiling of 1/(2 e eps) still ambiguous"
    # below 2^-(w+3), 2 e eps is under a unit of the cap's working scale w,
    # and both k beside 1/(2 e eps) straddle 1 at every rung: refuse before
    # building the guess, whose size grows with 1/eps
    if value.numerator << (_working_scale(policy.cap_bits) + 3) < value.denominator:
        raise PrecisionExhausted(f"{ambiguous} at {policy.cap_bits} bits")
    size = math.ceil(1 / value).bit_length()
    guess = math.ceil(1 / (2 * enclose_e(64 * (size // 64 + 2)).lo * value))

    def crosses(k: int) -> bool:
        res = cmp_certified(E * const(2 * k * value), 1, policy)
        return _decided(res, rungs, ambiguous) is Verdict.GREATER

    return least_holding(crosses, max(guess, 1), 1)


def ell_ps(eps: EpsLike, policy: RefinementPolicy = DEFAULT_POLICY) -> int:
    """The closed-form depth ceil(1/(2 e eps)), certified, at least 1."""
    return _ell_ps_walk(_eps_value(eps), policy, [])


def depth_comparison(
    ell: int, eps: EpsLike, policy: RefinementPolicy = DEFAULT_POLICY
) -> Comparison:
    """Certified comparison of phi(ell) with 1/e + eps, made in the log domain.

    Compares log(e*phi(ell)) with log1p(e*eps); LESS means depth ell
    suffices, GREATER that it is too small.  The verdict is never EQUAL and
    may be UNRESOLVED at the policy's cap.
    """
    target = log1p_of(E * const(_eps_value(eps)))
    return cmp_certified(log_e_phi(ell), target, policy)


def _ell_star_search(value: Fraction, policy: RefinementPolicy) -> tuple[int, int, list[int]]:
    """(ell_ps, ell_star, rungs): the walk to ell_ps, then one down from it.

    The last feasible probe (at ell_star) and the infeasible one below it
    (at ell_star - 1) are the two-sided minimality certificate; strict
    decrease of phi rules out every smaller depth.  rungs holds the start
    rung and the rung each comparison of either walk needed.
    """
    rungs = [policy.start_bits]
    ps = _ell_ps_walk(value, policy, rungs)

    def feasible(ell: int) -> bool:
        res = depth_comparison(ell, value, policy)
        return _decided(res, rungs, f"phi({ell}) vs 1/e + {value} unresolved") is Verdict.LESS

    star = least_holding(feasible, ps, 1)
    if star > ps:
        # the closed-form bound guarantees feasibility at its own ceiling
        raise AssertionError(f"phi({ps}) > 1/e + {value}: upper bound broken")
    return ps, star, rungs


def ell_star(eps: EpsLike, policy: RefinementPolicy = DEFAULT_POLICY) -> int:
    """The minimal depth with phi(ell) <= 1/e + eps, every probe certified."""
    return _ell_star_search(_eps_value(eps), policy)[1]


def certificate_sharp(ell: int, eps: EpsLike, policy: RefinementPolicy = DEFAULT_POLICY) -> bool:
    """Sufficient certificate: exp(1/(2l) - 1/(3l^2) + 1/(4l^3)) <= 1 + e*eps.

    True implies phi(ell) <= 1/e + eps.  False implies nothing about phi;
    the certificate is not necessary (try ell=1, eps=3/20).  An unresolved
    comparison raises rather than degrading to False.  The claim is checked
    in the log domain, as 1/(2l) - 1/(3l^2) + 1/(4l^3) <= log1p(e*eps):
    both sides are then small, so a deep slack resolves relative to their
    size instead of beside the 1 of 1 + e*eps.
    """
    value = _eps_value(eps)
    res = cmp_certified(const(sharp_exponent(ell)), log1p_of(E * const(value)), policy)
    what = f"certificate at ell={ell}, eps={value} unresolved"
    return _decided(res, [], what) is not Verdict.GREATER


class EllPlan(Frozen):
    """The three depths for one slack, plus the certification trail:
    precision_used is the highest rung that any comparison of the walks to
    ell_ps and ell_star needed (the policy's start rung at least)."""

    eps: EpsSpec
    ell_bf: int
    ell_ps: int
    ell_star: int
    rho_star: Fraction
    certificate_holds_at_star: bool
    precision_used: int


def plan(eps: Union[EpsLike, str], policy: RefinementPolicy = DEFAULT_POLICY) -> EllPlan:
    """Assemble the full depth plan for one slack value.

    Deterministic for a fixed eps: the walk and every enclosure depend only
    on eps and the policy ladder.  The walk's final probes, feasible at
    ell_star and infeasible at ell_star - 1, certify minimality from both
    sides; starting from ell_ps, which Polya-Szego makes feasible, they cost
    ell_ps - ell_star + 2 probes, and that difference is 0 or 1 on every tested
    slack.
    """
    spec = EpsSpec.parse(eps) if isinstance(eps, str) else EpsSpec(_eps_value(eps))
    ps, star, rungs = _ell_star_search(spec.eps, policy)
    return EllPlan(
        eps=spec,
        ell_bf=ell_bf(spec),
        ell_ps=ps,
        ell_star=star,
        rho_star=rho(star),
        certificate_holds_at_star=certificate_sharp(star, spec, policy),
        precision_used=max(rungs),
    )
