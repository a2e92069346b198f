import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Optional

import pytest
from hypothesis import HealthCheck, settings

from ellplan.bounds import BoundKind, bound_factor, sharp_exponent
from ellplan.certified import Enclosure, RealExpr, const, enclose_e, exp_of, log1p_of
from ellplan.planner import ell_star
from ellplan.testbed import (
    CHECK_LIMIT,
    CoverageInstance,
    OracleCounter,
    PropertyCheck,
    _Masks,
    _names_of,
    _require_brute_size,
    _scan_table,
)

# Testbed values stay well under this, but a few tests serialize plan
# rationals in the tens of thousands of digits.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN_DIR


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of an mpmath float (they are binary rationals)."""
    sign, man, exp, _ = x._mpf_
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def asymptotic_residual(eps) -> Enclosure:
    """Enclosure of ell_star(eps) - (1/(2 e eps) - 5/12), the residual of the
    paper's expansion ell_star = 1/(2 e eps) - 5/12 + O(eps), which should
    lie in [-1/2, 3/2] for eps <= 1/10.  The width of e is magnified by about
    1/eps, so e is enclosed at 128 bits past the bit length of ceil(1/eps),
    in whole 64-bit steps, and the enclosure is under 2^-128 wide at every
    eps."""
    value = Fraction(eps)
    star = ell_star(value)
    e = enclose_e(128 + 64 * -(-math.ceil(1 / value).bit_length() // 64))
    shift = star + Fraction(5, 12)
    return Enclosure(shift - 1 / (2 * e.lo * value), shift - 1 / (2 * e.hi * value))


# ---------------------------------------------------------------------------
# references that the package's commands do not run


def bound_value(kind: BoundKind, ell: int) -> RealExpr:
    """The upper bound itself, (1/e) times the kind's factor: the linear-domain
    reference for the sweeps' log-domain checks."""
    return bound_factor(kind, ell) * exp_of(-1)


def log_bound_factor(kind: BoundKind, ell: int) -> RealExpr:
    """The log of the kind's e-scaled factor, as a descriptor: the sharp
    exponent itself, else log1p(factor - 1).  verify_bounds compares
    log_e_phi(ell) with its kernel interval at each rung."""
    if kind is BoundKind.SHARP:
        return const(sharp_exponent(ell))
    return log1p_of(bound_factor(kind, ell).exact() - 1)


def f_eval(
    instance: CoverageInstance,
    subset: Iterable[str],
    counter: Optional[OracleCounter] = None,
) -> Fraction:
    """Coverage value of a set of ground elements, from the names alone; one
    oracle tick."""
    names = set(subset)
    stray = names - set(instance.element_names)
    if stray:
        raise ValueError(f"not ground elements: {sorted(stray)}")
    if counter is not None:
        counter.tick()
    members = dict(instance.ground)
    covered: set[str] = set()
    for name in names:
        covered |= members[name]
    return sum((w for item, w in instance.universe if item in covered), Fraction(0))


def check_tabulated(n: int, f: Callable[[frozenset[int]], object]) -> PropertyCheck:
    """The package's exhaustive monotone/submodular scan on an arbitrary set
    function on {0..n-1}, evaluated once per subset, so that a defect can be
    injected.  Witness sets are frozensets of indices; the x in a
    submodularity witness is an index."""
    if n > CHECK_LIMIT:
        raise ValueError(f"exhaustive check limited to n <= {CHECK_LIMIT}, got {n}")
    subsets = [frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
    return _scan_table(n, [f(s) for s in subsets], lambda mask: subsets[mask])


def _independent(masks: _Masks, mask: int) -> bool:
    rest = mask
    while rest:
        block, cap = masks.blocks[(rest & -rest).bit_length() - 1]
        if (mask & block).bit_count() > cap:
            return False
        rest &= ~block  # each block once
    return True


def _mask_indices(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def brute_force_opt_by_mask(instance: CoverageInstance) -> tuple[frozenset[str], Fraction]:
    """A second, independently coded enumerator for testbed.brute_force_opt.

    Visits subsets in increasing bitmask order (a different order than the
    depth-first enumerator) and applies the same lexicographic tie-break
    explicitly.
    """
    _require_brute_size(instance)
    masks = _Masks.of(instance)
    # the empty set comes first and always beats this sentinel
    best_mask, best_value = 0, -1
    for mask in range(1 << instance.n):
        if not _independent(masks, mask):
            continue
        value = masks.value(mask)
        if value > best_value or (
            value == best_value and _mask_indices(mask) < _mask_indices(best_mask)
        ):
            best_value, best_mask = value, mask
    return _names_of(instance, best_mask), Fraction(best_value, masks.denominator)
