"""Log-domain certification against the exact rational phi as the reference.

Every certified claim about phi is made on log(e*phi(ell)) =
1 - ell*log1p(1/ell).  These tests compare each such verdict with the same
claim certified directly on the exact rational phi(ell), over ranges where
that exact value is cheap, and against mpmath where it is not.
"""

from fractions import Fraction

import pytest
from mpmath import mp

from ellplan.bounds import (
    BoundKind,
    log_e_phi,
    phi,
    phi_floor_sweep,
    verify_bounds,
)
from ellplan.certified import (
    E,
    RefinementPolicy,
    Verdict,
    cmp_certified,
    const,
    exp_of,
    log1p_of,
)
from ellplan.planner import depth_comparison

from conftest import bound_value, mpf_to_fraction

LMAX = 300


def test_bound_verdicts_match_exact_phi():
    reports = verify_bounds(list(BoundKind), 1, LMAX)
    for kind, report in reports.items():
        assert [e.ell for e in report.entries] == list(range(kind.min_ell, LMAX + 1))
        for entry in report.entries:
            exact = cmp_certified(const(phi(entry.ell)), bound_value(kind, entry.ell))
            assert entry.verdict is exact.verdict, (kind, entry.ell)


def test_floor_verdicts_match_exact_phi():
    for entry in phi_floor_sweep(1, LMAX).entries:
        exact = cmp_certified(const(phi(entry.ell)), exp_of(-1))
        assert entry.verdict is exact.verdict, entry.ell


def test_depth_comparison_matches_exact_phi_on_criterion_7_grid():
    for ell in range(1, 51):
        value = const(phi(ell))
        for k in range(1, 201):
            eps = Fraction(k, 1000)
            exact = cmp_certified(value, exp_of(-1) + const(eps))
            assert depth_comparison(ell, eps).verdict is exact.verdict, (ell, eps)


@pytest.mark.parametrize("ell", [10**5, 10**6])
def test_depth_comparison_matches_mpmath_at_large_ell(ell):
    # exact phi is too slow to serve as the reference here; at 80 digits
    # mpmath places the threshold phi(ell) - 1/e far more finely than the
    # relative offset of 1e-9 on either side of it
    with mp.workdps(80):
        threshold = (1 + mp.mpf(1) / ell) ** (-ell) - 1 / mp.e
        below = mpf_to_fraction(threshold * (1 - mp.mpf(10) ** -9))
        above = mpf_to_fraction(threshold * (1 + mp.mpf(10) ** -9))
    assert depth_comparison(ell, below).verdict is Verdict.GREATER
    assert depth_comparison(ell, above).verdict is Verdict.LESS


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def test_log1p_of_real_argument_encloses_it():
    expr = log1p_of(const(2) * exp_of(-1))
    with mp.workdps(60):
        reference = mp.log1p(2 / mp.e)
        for bits in (8, 32, 128):
            enc = expr.enclose(bits)
            assert _mpf(enc.lo) < reference < _mpf(enc.hi)
    assert log1p_of(const(Fraction(1, 3))).exact() is None
    assert log1p_of(const(0)).exact() == 0
    # an argument whose enclosures never leave 0 refines to UNRESOLVED
    straddle = log1p_of(exp_of(1) - E)
    res = cmp_certified(straddle, 1, RefinementPolicy(64))
    assert res.verdict is Verdict.UNRESOLVED


def test_log_e_phi_is_the_log_of_e_phi():
    with mp.workdps(60):
        for ell in (1, 7, 1000):
            reference = 1 + mp.log(_mpf(phi(ell)))
            enc = log_e_phi(ell).enclose(64)
            assert _mpf(enc.lo) < reference < _mpf(enc.hi)
