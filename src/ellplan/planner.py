"""Round-depth planning: three rules for choosing the search depth ell.

For a slack eps > 0, the guarantee rho(ell) >= 1 - 1/e - eps can be bought
at three depths:

    ell_bf      1 + ceil(1/eps)                 classical, fully safe
    ell_ps      ceil(1/(2 e eps))               closed form, near-minimal
    ell_star    min{ell >= 1 : phi(ell) <= 1/e + eps}   exactly minimal

ell_star is located by one certified walk down from ell_ps: the start is
feasible by the Polya-Szego bound, phi is strictly decreasing, and the walk
stops at the first infeasible depth.  Since ell_star = 1/(2 e eps) - 5/12 +
O(eps) sits within a unit of ell_ps, the walk costs ell_ps - ell_star + 2
probes, two or three in practice.  Every probe is depth_comparison, the one
place that encodes phi(ell) <= 1/e + eps, as log(e*phi(ell)) <= log1p(e*eps)
by certified enclosures; phi is rational and 1/e + eps is not, so the sides
never tie.  The planner never touches floats, so the returned depths carry a
proof rather than an estimate.  For eps >= 1/2 - 1/e the same path returns
ell_star = 1 with no special casing.

The sharp exponential certificate (exp of the three-term exponent against
1 + e*eps) is sufficient but not necessary; certificate_sharp can come back
False for a depth that phi itself accepts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from ellplan._value import Frozen
from ellplan.bounds import log_e_phi, rho, sharp_exponent
from ellplan.certified import (
    DEFAULT_POLICY,
    E,
    Comparison,
    Enclosure,
    PrecisionExhausted,
    RationalLike,
    RefinementPolicy,
    Verdict,
    cmp_certified,
    const,
    enclose_e,
    log1p_of,
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


def _eps_value(eps: Union[EpsSpec, RationalLike]) -> Fraction:
    if isinstance(eps, EpsSpec):
        return eps.eps
    return EpsSpec.from_rational(eps).eps


def ell_bf(eps: Union[EpsSpec, RationalLike]) -> int:
    """The brute-force depth 1 + ceil(1/eps), computed exactly."""
    value = _eps_value(eps)
    return 1 + math.ceil(1 / value)


def _ell_ps_with_bits(
    value: Fraction, policy: RefinementPolicy
) -> tuple[int, int]:
    # ceil(1/(2 e eps)): refine the enclosure of e until both endpoints of
    # 1/(2 e eps) share a ceiling.  1/(2 e eps) is irrational for rational
    # eps, so this terminates quickly; the cap guard is for safety only.
    for bits in policy.ladder():
        enc = enclose_e(bits)
        lo = 1 / (2 * enc.hi * value)
        hi = 1 / (2 * enc.lo * value)
        cl = math.ceil(lo)
        if cl == math.ceil(hi):
            return max(1, cl), bits
    raise PrecisionExhausted(
        f"ceiling of 1/(2 e eps) still ambiguous at {policy.cap_bits} bits"
    )


def ell_ps(
    eps: Union[EpsSpec, RationalLike],
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> int:
    """The closed-form depth ceil(1/(2 e eps)), certified, at least 1."""
    result, _ = _ell_ps_with_bits(_eps_value(eps), policy)
    return result


def depth_comparison(
    ell: int,
    eps: Union[EpsSpec, RationalLike],
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> Comparison:
    """Certified comparison of phi(ell) with 1/e + eps, made in the log domain.

    Compares log(e*phi(ell)) with log1p(e*eps); LESS means depth ell
    suffices, GREATER that it is too small.  The verdict is never EQUAL and
    may be UNRESOLVED at the policy's cap.
    """
    target = log1p_of(E * const(_eps_value(eps)))
    return cmp_certified(log_e_phi(ell), target, policy)


def _probe(
    ell: int, target_hint: Fraction, policy: RefinementPolicy
) -> tuple[bool, int]:
    """Certified test of phi(ell) <= 1/e + eps; returns (verdict, bits)."""
    res = depth_comparison(ell, target_hint, policy)
    if res.verdict is Verdict.UNRESOLVED:
        raise PrecisionExhausted(
            f"phi({ell}) vs 1/e + {target_hint} unresolved at {policy.cap_bits} bits"
        )
    return res.verdict is Verdict.LESS, res.bits_used


def _ell_star_search(
    value: Fraction, policy: RefinementPolicy
) -> tuple[int, int, int]:
    """(ell_ps, ell_star, bits): one certified walk down from ell_ps.

    The last feasible probe (at ell_star) and the infeasible one below it
    (at ell_star - 1) are the two-sided minimality certificate; strict
    decrease of phi rules out every smaller depth.
    """
    ps, bits = _ell_ps_with_bits(value, policy)
    ok, b = _probe(ps, value, policy)
    if not ok:
        # the closed-form bound guarantees feasibility at its own ceiling
        raise AssertionError(f"phi({ps}) > 1/e + {value}: upper bound broken")
    star, bits = ps, max(bits, b)
    while star > 1:
        ok, b = _probe(star - 1, value, policy)
        bits = max(bits, b)
        if not ok:
            break
        star -= 1
    return ps, star, bits


def ell_star(
    eps: Union[EpsSpec, RationalLike],
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> int:
    """The minimal depth with phi(ell) <= 1/e + eps, every probe certified."""
    return _ell_star_search(_eps_value(eps), policy)[1]


def certificate_sharp(
    ell: int,
    eps: Union[EpsSpec, RationalLike],
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> bool:
    """Sufficient certificate: exp(1/(2l) - 1/(3l^2) + 1/(4l^3)) <= 1 + e*eps.

    True implies phi(ell) <= 1/e + eps.  False implies nothing about phi;
    the certificate is not necessary (try ell=1, eps=3/20).  An unresolved
    comparison raises rather than degrading to False.  The claim is checked
    in the log domain, as 1/(2l) - 1/(3l^2) + 1/(4l^3) <= log1p(e*eps):
    both sides are then small, so a deep slack resolves relative to their
    size instead of beside the 1 of 1 + e*eps.
    """
    value = _eps_value(eps)
    target = log1p_of(E * const(value))
    res = cmp_certified(const(sharp_exponent(ell)), target, policy)
    if res.verdict is Verdict.UNRESOLVED:
        raise PrecisionExhausted(
            f"certificate at ell={ell}, eps={value} unresolved "
            f"at {policy.cap_bits} bits"
        )
    return res.verdict in (Verdict.LESS, Verdict.EQUAL)


_RESIDUAL_BITS = 128


def asymptotic_residual(
    eps: Union[EpsSpec, RationalLike],
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> Enclosure:
    """Enclosure of ell_star(eps) - (1/(2 e eps) - 5/12), for eps <= 1/10.

    The drift term is linear in eps and the ceiling contributes up to one
    unit, so the residual should land in [-1/2, 3/2] throughout the small-eps
    regime; this function reports the enclosure, it does not police it.
    """
    value = _eps_value(eps)
    if value > Fraction(1, 10):
        raise ValueError(f"asymptotic regime needs eps <= 1/10, got {value}")
    star = _ell_star_search(value, policy)[1]
    enc = enclose_e(max(_RESIDUAL_BITS, policy.start_bits))
    target_lo = 1 / (2 * enc.hi * value) - Fraction(5, 12)
    target_hi = 1 / (2 * enc.lo * value) - Fraction(5, 12)
    return Enclosure(star - target_hi, star - target_lo)


class EllPlan(Frozen):
    """The three depths for one slack, plus the certification trail."""

    eps: EpsSpec
    ell_bf: int
    ell_ps: int
    ell_star: int
    rho_star: Fraction
    certificate_holds_at_star: bool
    precision_used: int


def plan(
    eps: Union[EpsSpec, RationalLike, str],
    policy: RefinementPolicy = DEFAULT_POLICY,
) -> EllPlan:
    """Assemble the full depth plan for one slack value.

    Deterministic for a fixed eps: the walk and every enclosure depend only
    on eps and the policy ladder.  The walk's final probes, feasible at
    ell_star and infeasible at ell_star - 1, certify minimality from both
    sides; starting from ell_ps, which Polya-Szego makes feasible, they cost
    ell_ps - ell_star + 2 probes, and that difference is 0 or 1 on every tested
    slack.
    """
    if isinstance(eps, str):
        spec = EpsSpec.parse(eps)
    elif isinstance(eps, EpsSpec):
        spec = eps
    else:
        spec = EpsSpec.from_rational(eps)

    ps, star, bits = _ell_star_search(spec.eps, policy)
    return EllPlan(
        eps=spec,
        ell_bf=ell_bf(spec),
        ell_ps=ps,
        ell_star=star,
        rho_star=rho(star),
        certificate_holds_at_star=certificate_sharp(star, spec, policy),
        precision_used=max(bits, policy.start_bits),
    )
