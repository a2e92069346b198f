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
