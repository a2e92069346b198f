import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from ellplan.certified import (
    E,
    RefinementPolicy,
    Verdict,
    _working_scale,
    cmp_certified,
    const,
    enclose_log1p,
    exp_of,
)
from ellplan.bounds import (
    BoundKind,
    SweepEntry,
    SweepReport,
    _ORDER_CHAIN,
    _log_bound_factor,
    _log_e_phi_fixed,
    bound_factor,
    bound_value,
    check_expansion_agreement,
    check_log_pade,
    check_log_tail4,
    check_log_weak,
    ordering_exception_at_one,
    phi,
    phi_floor_sweep,
    phi_step_down_certificate,
    phi_strictly_decreasing,
    log_e_phi,
    rho,
    sharp_exponent,
    verify_bound_ordering,
    verify_bounds,
)

from conftest import mpf_to_fraction


# ---------------------------------------------------------------------------
# the sweeps as one cmp_certified call per check: the reference that the
# sweeps' first-rung shortcut must reproduce entry for entry


def reference_verify_bounds(kinds, lo, hi, policy):
    entries = {kind: [] for kind in kinds}
    for ell in range(lo, hi + 1):
        value = log_e_phi(ell)
        for kind, out in entries.items():
            if ell >= kind.min_ell:
                cmp = cmp_certified(value, _log_bound_factor(kind, ell), policy)
                ok = cmp.verdict is Verdict.LESS
                out.append(SweepEntry(ell, cmp.verdict, cmp.bits_used, ok))
    return {
        kind: SweepReport(
            label=f"phi <= {kind.value} on [{max(lo, kind.min_ell)}, {hi}]",
            entries=tuple(out),
        )
        for kind, out in entries.items()
    }


def reference_verify_bound_ordering(lo, hi, policy):
    entries = {f"{s.value} <= {l.value}": [] for s, l in _ORDER_CHAIN}
    for ell in range(lo, hi + 1):
        factors = {kind: bound_factor(kind, ell) for kind in BoundKind}
        for (small, large), out in zip(_ORDER_CHAIN, entries.values()):
            cmp = cmp_certified(factors[small], factors[large], policy)
            ok = cmp.verdict in (Verdict.LESS, Verdict.EQUAL)
            out.append(SweepEntry(ell, cmp.verdict, cmp.bits_used, ok))
    return {
        key: SweepReport(label=f"{key} on [{lo}, {hi}]", entries=tuple(out))
        for key, out in entries.items()
    }


def reference_phi_floor_sweep(lo, hi, policy):
    entries = []
    for ell in range(lo, hi + 1):
        cmp = cmp_certified(log_e_phi(ell), const(0), policy)
        ok = cmp.verdict is Verdict.GREATER
        entries.append(SweepEntry(ell, cmp.verdict, cmp.bits_used, ok))
    return SweepReport(label=f"phi > 1/e on [{lo}, {hi}]", entries=tuple(entries))


START_BITS = (8, 16, 32, 64)


class TestSweepsMatchReference:
    """At 8 and 16 bits some checks overlap at the first rung and go on up
    the ladder; at 32 and 64 bits every check separates there."""

    @pytest.mark.parametrize("start_bits", START_BITS)
    @pytest.mark.parametrize("lo,hi", [(1, 2000), (9969, 10000)])
    def test_reports_equal(self, start_bits, lo, hi):
        policy = RefinementPolicy(start_bits)
        kinds = list(BoundKind)
        assert verify_bounds(kinds, lo, hi, policy) == reference_verify_bounds(
            kinds, lo, hi, policy
        )
        assert verify_bound_ordering(max(lo, 2), hi, policy) == (
            reference_verify_bound_ordering(max(lo, 2), hi, policy)
        )
        assert phi_floor_sweep(lo, hi, policy) == reference_phi_floor_sweep(
            lo, hi, policy
        )

    @pytest.mark.parametrize("start_bits", START_BITS)
    def test_direct_value_interval(self, start_bits):
        w = _working_scale(start_bits)
        for ell in range(1, 3001):
            assert _log_e_phi_fixed(ell, w) == log_e_phi(ell)._fixed(w), ell


class TestPhi:
    @pytest.mark.parametrize(
        "ell,expected",
        [(1, Fraction(1, 2)), (2, Fraction(4, 9)), (4, Fraction(256, 625))],
    )
    def test_small_values(self, ell, expected):
        assert phi(ell) == expected

    def test_rho(self):
        assert rho(1) == Fraction(1, 2)
        assert rho(2) == Fraction(5, 9)
        assert phi(3) == Fraction(27, 64) and rho(3) == Fraction(37, 64)

    def test_rho_2_beats_tenth_slack_target(self):
        from ellplan.certified import inv_e

        target = 1 - inv_e() - const(Fraction(1, 10))
        assert cmp_certified(rho(2), target).verdict is Verdict.GREATER

    @pytest.mark.parametrize("bad", [0, -3, 1.0, "2"])
    def test_rejects_bad_ell(self, bad):
        with pytest.raises(ValueError):
            phi(bad)

    def test_cache_boundary_consistent(self):
        # 2048/2049 straddled the boundary of the former phi cache; the
        # values on both sides must still come out normalised and exact
        assert phi(2048) == Fraction(2048**2048, 2049**2048)
        assert phi(2049) == Fraction(2049**2049, 2050**2049)

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=60)
    def test_matches_normalizing_constructor(self, ell):
        # phi skips Fraction's gcd on the grounds that ell^ell and
        # (ell+1)^ell are coprime; make sure the shortcut never diverges
        assert phi(ell) == Fraction(ell**ell, (ell + 1) ** ell)
        assert math.gcd(phi(ell).numerator, phi(ell).denominator) == 1
        assert rho(ell) == 1 - Fraction(ell**ell, (ell + 1) ** ell)


class TestBoundValues:
    def test_polya_szego_at_two(self):
        res = cmp_certified(phi(2), bound_value(BoundKind.POLYA_SZEGO, 2))
        assert res.verdict is Verdict.LESS  # 4/9 < (1/e)(5/4)

    def test_loose_recip_at_two(self):
        # bound is 2/e there
        res = cmp_certified(phi(2), bound_value(BoundKind.LOOSE_RECIP, 2))
        assert res.verdict is Verdict.LESS

    def test_sharp_at_one(self):
        res = cmp_certified(Fraction(1, 2), bound_value(BoundKind.SHARP, 1))
        assert res.verdict is Verdict.LESS  # 1/2 < (1/e)exp(5/12) ~ 0.5580

    @pytest.mark.parametrize("kind", [BoundKind.LOOSE_RECIP, BoundKind.LOOSE_LINEAR])
    def test_loose_domain(self, kind):
        with pytest.raises(ValueError):
            bound_value(kind, 1)

    def test_sharp_exponent(self):
        assert sharp_exponent(1) == Fraction(5, 12)
        assert sharp_exponent(2) == Fraction(19, 96)
        for ell in range(1, 300):
            assert sharp_exponent(ell) == (
                Fraction(1, 2 * ell) - Fraction(1, 3 * ell**2) + Fraction(1, 4 * ell**3)
            )


class TestVerifyBound:
    @pytest.mark.parametrize("kind", list(BoundKind))
    def test_small_sweep_all_pass(self, kind):
        report = verify_bounds([kind], kind.min_ell, 300)[kind]
        assert report.all_ok
        assert len(report.entries) == 300 - kind.min_ell + 1
        assert not report.inconclusive

    def test_multi_kind_pass_matches_single(self):
        combined = verify_bounds([BoundKind.POLYA_SZEGO, BoundKind.SHARP], 1, 50)
        for kind in (BoundKind.POLYA_SZEGO, BoundKind.SHARP):
            assert combined[kind] == verify_bounds([kind], 1, 50)[kind]


class TestOrdering:
    def test_chain_holds_from_two(self):
        reports = verify_bound_ordering(2, 120)
        for report in reports.values():
            assert report.all_ok, report.summary()

    def test_equality_at_two_for_recip_vs_linear(self):
        reports = verify_bound_ordering(2, 2)
        entry = reports["loose-recip <= loose-linear"].entries[0]
        assert entry.verdict is Verdict.EQUAL  # both factors are exactly 2

    def test_sharp_below_ps_at_two(self):
        # exp(19/96) ~ 1.2189 against 5/4
        res = cmp_certified(
            bound_factor(BoundKind.SHARP, 2), bound_factor(BoundKind.POLYA_SZEGO, 2)
        )
        assert res.verdict is Verdict.LESS

    def test_linear_factor_at_two_is_two(self):
        assert bound_factor(BoundKind.LOOSE_LINEAR, 2).exact() == 2

    def test_exception_at_one_certified(self):
        # exp(5/12) ~ 1.5169 sits above 3/2: the chain starts only at ell = 2
        assert ordering_exception_at_one().verdict is Verdict.GREATER

    @pytest.mark.xfail(strict=True, reason="the sharp/PS ordering genuinely flips at ell = 1")
    def test_chain_would_fail_at_one(self):
        res = cmp_certified(
            bound_factor(BoundKind.SHARP, 1), bound_factor(BoundKind.POLYA_SZEGO, 1)
        )
        assert res.verdict is Verdict.LESS

    def test_rejects_range_starting_below_two(self):
        with pytest.raises(ValueError):
            verify_bound_ordering(1, 10)


class TestMultiplicativeForms:
    """The same bounds written with the power on the left of e."""

    @pytest.mark.parametrize("ell", [2, 3, 7, 50, 501])
    def test_loose_recip_form(self, ell):
        # e(1 - 1/ell) <= (1+1/ell)^ell
        lhs = E * const(Fraction(ell - 1, ell))
        rhs = const(1 / phi(ell))
        assert cmp_certified(lhs, rhs).verdict is Verdict.LESS

    @pytest.mark.parametrize("ell", [1, 2, 3, 7, 50, 501])
    def test_polya_szego_form(self, ell):
        # (1+1/ell)^ell (1 + 1/(2 ell)) >= e
        lhs = const(Fraction(2 * ell + 1, 2 * ell) / phi(ell))
        assert cmp_certified(lhs, E).verdict is Verdict.GREATER

    @pytest.mark.parametrize("ell", [1, 2, 3, 7, 50, 501])
    def test_sharp_form(self, ell):
        # (1+1/ell)^ell exp(eta(ell)) >= e
        lhs = const(1 / phi(ell)) * exp_of(sharp_exponent(ell))
        assert cmp_certified(lhs, E).verdict is Verdict.GREATER


class TestLogChecks:
    def test_equality_at_zero_is_exact(self):
        for check in (check_log_weak, check_log_pade, check_log_tail4):
            res = check(Fraction(0))
            assert res.verdict is Verdict.EQUAL and res.bits_used == 0

    def test_tail4_at_one(self):
        res = check_log_tail4(Fraction(1))  # 7/12 <= log 2
        assert res.holds and res.verdict is Verdict.LESS

    def test_pade_at_one(self):
        res = check_log_pade(Fraction(1))  # 2/3 <= log 2
        assert res.holds and res.verdict is Verdict.LESS

    def test_negative_rejected(self):
        for check in (check_log_weak, check_log_pade, check_log_tail4):
            with pytest.raises(ValueError):
                check(Fraction(-1, 8))

    def test_grid_subset(self):
        for k in range(0, 81, 8):
            x = Fraction(k, 8)
            assert check_log_weak(x).holds
            assert check_log_pade(x).holds
            assert check_log_tail4(x).holds

    @given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6))
    @settings(max_examples=50)
    def test_random_rationals(self, x):
        assert check_log_weak(x).holds
        assert check_log_pade(x).holds
        assert check_log_tail4(x).holds

    def test_tail4_tight_at_zero(self):
        t = Fraction(1, 1024)
        poly = t - t**2 / 2 + t**3 / 3 - t**4 / 4
        enc = enclose_log1p(t, 128)
        assert enc.lo - poly > 0
        assert enc.hi - poly < 2 * t**5  # consistent with a t^4/(1+t) derivative


class TestExpansionAgreement:
    def test_paper_scale_points(self):
        report = check_expansion_agreement([100, 1000, 10000])
        assert report.all_ok
        assert all(e.positive for e in report.entries)

    def test_defect_shrinks_between_decades(self):
        report = check_expansion_agreement([100, 1000])
        d100, d1000 = report.entries
        # both defects positive, so compare raw D enclosures directly
        assert d1000.scaled.hi / 1000**4 < d100.scaled.lo / 100**4

    def test_scaled_defect_matches_oracle_at_100(self):
        # the 192-bit enclosure is extremely tight after scaling by 100^4, so
        # the oracle needs enough headroom that its own rounding (about nine
        # digits cancel in exp(eta) - prefix) stays far below that width
        with mp.workdps(140):
            eta = mp.mpf(1) / 200 - mp.mpf(1) / 30000 + mp.mpf(1) / 4000000
            prefix = (
                1 + mp.mpf(1) / 200 - mp.mpf(5) / 240000 + mp.mpf(5) / 48000000
            )
            oracle = mpf_to_fraction(100**4 * (mp.exp(eta) - prefix))
        entry = check_expansion_agreement([100]).entries[0]
        assert entry.scaled.contains(oracle)

    def test_rejects_small_ell(self):
        with pytest.raises(ValueError):
            check_expansion_agreement([9])


class TestShapeOfPhi:
    def test_step_certificates_small(self):
        for ell in range(1, 600):
            assert phi_step_down_certificate(ell)

    def test_direct_adjacent_comparisons(self):
        for ell in range(1, 400):
            assert phi(ell + 1) < phi(ell)

    @given(st.integers(min_value=400, max_value=30000))
    @settings(max_examples=25)
    def test_direct_adjacent_comparisons_large(self, ell):
        assert phi(ell + 1) < phi(ell)

    def test_strictly_decreasing_full_default_range(self):
        assert phi_strictly_decreasing(1, 10**4) is None

    @pytest.mark.parametrize("ell", [1, 2, 10, 100, 5000, 10**4])
    def test_floor_above_inv_e(self, ell):
        (entry,) = phi_floor_sweep(ell, ell).entries
        assert entry.verdict is Verdict.GREATER and entry.ok

    def test_floor_full_range(self):
        # phi stays above 1/e over the whole default sweep range; margins
        # shrink like 1/(2 e ell), so the 32-bit rung settles every case
        report = phi_floor_sweep(1, 10**4)
        assert report.all_ok
        assert all(e.verdict is Verdict.GREATER for e in report.entries)
        assert all(e.bits_used == 32 for e in report.entries)
