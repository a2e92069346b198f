import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

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


def asymptotic_residual(eps) -> "Enclosure":
    """Enclosure of ell_star(eps) - (1/(2 e eps) - 5/12), the residual of the
    paper's expansion ell_star = 1/(2 e eps) - 5/12 + O(eps), which should
    lie in [-1/2, 3/2] for eps <= 1/10.  The width of e is magnified by about
    1/eps, so e is enclosed at 128 bits past the bit length of ceil(1/eps),
    in whole 64-bit steps, and the enclosure is under 2^-128 wide at every
    eps."""
    from ellplan.certified import Enclosure, enclose_e
    from ellplan.planner import ell_star

    value = Fraction(eps)
    star = ell_star(value)
    e = enclose_e(128 + 64 * -(-math.ceil(1 / value).bit_length() // 64))
    shift = star + Fraction(5, 12)
    return Enclosure(shift - 1 / (2 * e.lo * value), shift - 1 / (2 * e.hi * value))
