import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from ellplan.bounds import log_e_phi
from ellplan.certified import (
    Comparison,
    Enclosure,
    RealExpr,
    RefinementPolicy,
    Verdict,
    E,
    cmp_certified,
    const,
    enclose_e,
    enclose_exp,
    enclose_log1p,
    exp_of,
    least_holding,
    log1p_of,
    _cmp_fixed,
    _exp_fixed,
    _log1p_fixed,
    _meet,
)

from conftest import mpf_to_fraction


def oracle_e(bits: int) -> Fraction:
    with mp.workdps(int(bits * 0.302) + 25):
        return mpf_to_fraction(mp.e + 0)


def oracle_exp(x: Fraction, bits: int) -> Fraction:
    with mp.workdps(int(bits * 0.302) + 25):
        return mpf_to_fraction(mp.exp(mp.mpf(x.numerator) / x.denominator))


def oracle_log1p(x: Fraction, bits: int) -> Fraction:
    with mp.workdps(int(bits * 0.302) + 25):
        return mpf_to_fraction(mp.log(1 + mp.mpf(x.numerator) / x.denominator))


class TestEnclosure:
    def test_order_enforced(self):
        with pytest.raises(ValueError):
            Enclosure(Fraction(1), Fraction(0))

    def test_point_and_width(self):
        p = Enclosure.point(Fraction(3, 7))
        assert p.width == 0 and p.contains(Fraction(3, 7))



class TestEncloseE:
    def test_two_term_construction(self):
        # partial sum 5/2 with tail bound 1/(2!*2)
        assert enclose_e(2) == Enclosure(Fraction(5, 2), Fraction(11, 4))

    @pytest.mark.parametrize("bits", range(8, 129, 8))
    def test_width_and_containment(self, bits):
        enc = enclose_e(bits)
        assert enc.width <= Fraction(1, 2**bits)
        assert enc.contains(oracle_e(bits + 32))

    def test_pins_first_ten_digits(self):
        # a width <= 2^-40 interval around e sits strictly inside
        # [2.718281828, 2.718281829]
        enc = enclose_e(40)
        digits = Fraction(2718281828, 10**9)
        assert digits < enc.lo
        assert enc.hi < digits + Fraction(1, 10**9)

    def test_nesting(self):
        assert enclose_e(20).contains_interval(enclose_e(60))
        for bits in range(4, 120, 7):
            assert enclose_e(bits).contains_interval(enclose_e(bits + 1))

    def test_rejects_nonpositive_precision(self):
        with pytest.raises(ValueError):
            enclose_e(0)


class TestEncloseExp:
    def test_exact_at_zero(self):
        assert enclose_exp(Fraction(0), 7) == Enclosure.point(1)

    def test_five_twelfths(self):
        enc = enclose_exp(Fraction(5, 12), 40)
        assert enc.contains(oracle_exp(Fraction(5, 12), 80))
        assert enc.lo > Fraction(3, 2)  # excludes 3/2
        assert enc.width <= Fraction(1, 2**40)

    def test_nineteen_ninetysixths_below_five_fourths(self):
        # 1/4 - 1/12 + 1/32 = 19/96
        arg = Fraction(1, 4) - Fraction(1, 12) + Fraction(1, 32)
        assert arg == Fraction(19, 96)
        assert enclose_exp(arg, 40).hi < Fraction(5, 4)

    def test_negative_argument_brackets_reciprocal(self):
        pos = enclose_exp(Fraction(1), 60)
        neg = enclose_exp(Fraction(-1), 60)
        # both enclosures are positive, so their products bracket e * 1/e
        assert pos.lo * neg.lo <= 1 <= pos.hi * neg.hi

    @given(
        st.fractions(min_value=-3, max_value=3, max_denominator=1000),
        st.integers(min_value=8, max_value=96),
    )
    @settings(max_examples=60)
    def test_contains_oracle_and_meets_width(self, x, bits):
        enc = enclose_exp(x, bits)
        assert enc.width <= Fraction(1, 2**bits)
        assert enc.contains(oracle_exp(x, bits + 32))

    @given(
        st.fractions(min_value=-2, max_value=2, max_denominator=200),
        st.integers(min_value=8, max_value=64),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60)
    def test_nesting(self, x, bits, extra):
        assert enclose_exp(x, bits).contains_interval(enclose_exp(x, bits + extra))

    def test_wide_arguments_in_bounded_time_and_size(self):
        x = Fraction(1501, 3)  # 500 + 1/3
        start = time.perf_counter()
        far = enclose_exp(x, 64)
        assert time.perf_counter() - start < 1
        assert_contains(far, 64, lambda: mp.exp(_mpf(x)), 220)
        for enc in (far, enclose_exp(Fraction(151, 3), 64)):
            assert max(enc.lo.denominator, enc.hi.denominator) <= 2**128


class TestEncloseLog1p:
    def test_exact_at_zero(self):
        assert enclose_log1p(Fraction(0), 9) == Enclosure.point(0)

    def test_log_two(self):
        enc = enclose_log1p(Fraction(1), 40)
        assert enc.contains(oracle_log1p(Fraction(1), 80))
        assert enc.lo > Fraction(2, 3)

    def test_log_three_halves_above_tail_polynomial(self):
        poly = Fraction(1, 2) - Fraction(1, 8) + Fraction(1, 24) - Fraction(1, 64)
        assert poly == Fraction(77, 192)
        assert enclose_log1p(Fraction(1, 2), 40).lo > poly

    def test_power_of_two_reduction_path(self):
        # 1 + 9 = 10 exercises the k = 3 reduction
        enc = enclose_log1p(Fraction(9), 64)
        assert enc.contains(oracle_log1p(Fraction(9), 120))
        big = Fraction(999983, 17)
        enc_big = enclose_log1p(big, 64)
        assert enc_big.contains(oracle_log1p(big, 120))
        assert enc_big.width <= Fraction(1, 2**64)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            enclose_log1p(Fraction(-1, 2), 16)

    @given(
        st.fractions(min_value=0, max_value=10**6, max_denominator=10**6),
        st.integers(min_value=8, max_value=80),
    )
    @settings(max_examples=60)
    def test_contains_oracle_and_meets_width(self, x, bits):
        enc = enclose_log1p(x, bits)
        assert enc.width <= Fraction(1, 2**bits)
        assert enc.contains(oracle_log1p(x, bits + 40))

    @given(
        st.fractions(min_value=0, max_value=100, max_denominator=5000),
        st.integers(min_value=8, max_value=64),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60)
    def test_nesting(self, x, bits, extra):
        assert enclose_log1p(x, bits).contains_interval(
            enclose_log1p(x, bits + extra)
        )


def _log1p_kernel_cases() -> list[tuple[int, int, int]]:
    """(num, den, w): 5,000 seeded cases with num and den log-uniform up to
    10^6 and w from 4 to 64, then the edge cases: x = 0; x = 1 and
    x = 2^j - 1, whose 1 + x is a power of two; x = 1/3; and x > 1 with
    k > 0 and a remainder for the artanh series, down to the smallest w."""
    rng = random.Random(5000)
    cases = [
        (round(10 ** rng.uniform(0, 6)), round(10 ** rng.uniform(0, 6)), rng.randint(4, 64))
        for _ in range(5000)
    ]
    edges = [(0, 1), (1, 1), (3, 1), (7, 1), (2**19 - 1, 1), (1, 3), (5, 2), (10**6, 1),
             (999983, 17), (10**6 - 1, 10**6)]
    return cases + [(num, den, w) for num, den in edges for w in (4, 5, 8, 31, 64)]


class TestLog1pKernel:
    """_log1p_fixed's interval at scale w contains log(1 + num/den), at small
    w where one ulp lost to inward rounding shows.  Every caller pads or
    compares with guard bits, so only a test of the kernel itself sees a
    rounding mistake of a few ulps."""

    def test_contains_mpmath_at_600_bits(self):
        kernel = _log1p_fixed.__wrapped__  # the kernel, not its cache
        misses = []
        with mp.workprec(600):
            for num, den, w in _log1p_kernel_cases():
                lo, hi = kernel(num, den, w)
                value = mp.ldexp(mp.log1p(mp.mpf(num) / den), w)
                if not lo <= value <= hi:
                    misses.append((num, den, w))
        assert misses == []


def _exp_near_integer_cases() -> list[tuple[int, int, int]]:
    """(p, q, w) with exp(p/q) * 2^w within 2^-12 of an integer, w from 8
    to 128: a seeded search over q up to 64 and 0 < |p/q| <= 8, which reads
    every w off one 300-bit value of exp(p/q).  The kernel rounds its ends
    outward from a working scale at least 16 bits finer than w, and that
    rounding absorbs an inward error at the working scale unless the value
    sits this close above (for the upper end) or below (for the lower end,
    which a negative argument's inversion takes from the upper one) an
    integer at scale w."""
    rng = random.Random(4096)
    cases = []
    with mp.workprec(340):
        for _ in range(3000):
            q = rng.randint(1, 64)
            p = rng.choice([-1, 1]) * rng.randint(1, 8 * q)
            value = int(mp.ldexp(mp.exp(mp.mpf(p) / q), 300))
            for w in range(8, 129):
                below = 300 - w  # the bits of value below scale w
                frac = value & ((1 << below) - 1)
                if min(frac, (1 << below) - frac) >> (below - 12) == 0:
                    cases.append((p, q, w))
    return cases


class TestExpKernel:
    """_exp_fixed's interval at scale w contains exp(p/q), at small w and at
    arguments where its final outward rounding hides the least, and is at
    most two ulps wide: the kernel's 16 extra working bits pay for its
    Taylor rounding and its squarings."""

    def test_contains_mpmath_at_700_bits(self):
        cases = _exp_near_integer_cases()
        assert len(cases) > 100
        rng = random.Random(128)
        for _ in range(2000):
            q = rng.randint(1, 10**4)
            cases.append((rng.choice([-1, 1]) * rng.randint(1, 8 * q), q, rng.randint(8, 128)))
        misses, wide = [], []
        with mp.workprec(700):
            for p, q, w in cases:
                lo, hi = _exp_fixed(p, q, w)
                value = mp.ldexp(mp.exp(mp.mpf(p) / q), w)
                if not lo <= value <= hi:
                    misses.append((p, q, w))
                if hi - lo > 2:
                    wide.append((p, q, w))
        assert (misses, wide) == ([], [])


class TestRungLoop:
    """_cmp_fixed, the rung loop that cmp_certified and the sweeps share, on
    sides given directly as integer intervals."""

    def test_meet_keeps_the_inner_ends(self):
        # (1, 2) at scale 2 is (4, 8) at scale 4
        assert _meet((3, 9), 4, (1, 2), 2) == (4, 8)
        assert _meet((1, 2), 2, (3, 9), 4) == (4, 8)
        assert _meet((5, 7), 4, (1, 2), 2) == (5, 7)

    def test_small_values_refine_by_their_shared_leading_zeros(self):
        # both sides below 2^-5 at the 32-bit rung's w = 60, where the
        # largest end has 4 bits: the rung moves 56 bits finer
        asked = []

        def sides(w):
            asked.append(w)
            return (1 << (w - 58), 2 << (w - 58)), (2 << (w - 58), 3 << (w - 58))

        assert _cmp_fixed(sides, RefinementPolicy(32)) == (Verdict.UNRESOLVED, 32)
        assert asked == [60, 116]

    def test_large_values_do_not_refine(self):
        asked = []

        def sides(w):
            asked.append(w)
            return (1 << (w - 4), 2 << (w - 4)), (2 << (w - 4), 3 << (w - 4))

        assert _cmp_fixed(sides, RefinementPolicy(64)) == (Verdict.UNRESOLVED, 64)
        assert asked == [60, 104]

    def test_a_rung_is_met_with_the_one_before(self):
        # [0, 1/2] against [3/8, 1], then [0, 3/4] against [5/8, 1]: the
        # second rung alone overlaps, and met with the first it separates
        def sides(w):
            if w == 60:
                return (0, 4 << 57), (3 << 57, 8 << 57)
            return (0, 6 << 101), (5 << 101, 8 << 101)

        assert _cmp_fixed(sides, RefinementPolicy(64)) == (Verdict.LESS, 64)


class TestComposition:
    @pytest.mark.parametrize("k", range(0, 33))
    def test_exp_of_log1p_brackets_one_plus_x(self, k):
        x = Fraction(k, 16)
        # exp is increasing, so exp of the log1p enclosure's ends brackets 1+x
        log = enclose_log1p(x, 64)
        assert enclose_exp(log.lo, 64).lo <= 1 + x <= enclose_exp(log.hi, 64).hi


def _mpf(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def assert_contains(enc, bits, reference, int_digits=0):
    """enc is at most 2^-bits wide and strictly contains reference().

    The reference, evaluated by mpmath, carries 60 digits beyond the
    enclosure's scale and the value's integer digits, so its own rounding
    cannot decide the check.
    """
    assert enc.width <= Fraction(1, 2**bits)
    with mp.workdps(60 + (bits + 40) * 302 // 1000 + int_digits):
        value = reference()
        assert _mpf(enc.lo) < value < _mpf(enc.hi)


def assert_encloses(expr, bits, reference, int_digits=0):
    assert_contains(expr.enclose(bits), bits, reference, int_digits)


def assert_nested(enclose, bits, extra, reference, int_digits=0):
    """enclose(bits + extra) lies inside enclose(bits), and both contain
    reference() within their width."""
    coarse, fine = enclose(bits), enclose(bits + extra)
    assert coarse.contains_interval(fine)
    assert_contains(coarse, bits, reference, int_digits)
    assert_contains(fine, bits + extra, reference, int_digits)


class TestFixedPointDescriptors:
    """Descriptor enclosures are fixed-point intervals; check them against mpmath."""

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=7, max_value=40),
        st.integers(min_value=8, max_value=128),
    )
    @settings(max_examples=50)
    def test_log1p_tiny(self, n, k, bits):
        x = Fraction(n, 10**k)
        assert_encloses(log1p_of(x), bits, lambda: mp.log1p(_mpf(x)))

    @given(
        st.fractions(min_value=1, max_value=10**9, max_denominator=10**4),
        st.integers(min_value=8, max_value=128),
    )
    @settings(max_examples=50)
    def test_log1p_above_one_reduces_by_powers_of_two(self, x, bits):
        assert_encloses(log1p_of(x), bits, lambda: mp.log1p(_mpf(x)))

    @given(
        st.fractions(min_value=-300, max_value=-1, max_denominator=1000),
        st.integers(min_value=8, max_value=128),
    )
    @settings(max_examples=50)
    def test_exp_negative(self, x, bits):
        assert_encloses(exp_of(x), bits, lambda: mp.exp(_mpf(x)))

    @given(
        st.fractions(min_value=1, max_value=300, max_denominator=1000),
        st.integers(min_value=8, max_value=128),
    )
    @settings(max_examples=50)
    def test_exp_large(self, x, bits):
        digits = int(x * Fraction(4343, 10000)) + 2
        assert_encloses(exp_of(x), bits, lambda: mp.exp(_mpf(x)), digits)

    @pytest.mark.parametrize("bits", [1, 8, 16, 32, 64, 128, 512])
    def test_inv_e(self, bits):
        assert_encloses(exp_of(-1), bits, lambda: 1 / mp.e)

    @given(
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
        st.integers(min_value=8, max_value=128),
    )
    @settings(max_examples=50)
    def test_e_times_rational(self, q, bits):
        if q == 0:
            q = Fraction(1, 7)
        assert_encloses(E * const(q), bits, lambda: mp.e * _mpf(q), 7)

    @given(
        st.fractions(min_value=0, max_value=10, max_denominator=10**12),
        st.integers(min_value=8, max_value=128),
    )
    @settings(max_examples=50)
    def test_log1p_of_e_times_eps(self, eps, bits):
        if eps == 0:
            eps = Fraction(1, 10**12)
        assert_encloses(
            log1p_of(E * const(eps)), bits, lambda: mp.log1p(mp.e * _mpf(eps))
        )

    @given(
        st.fractions(min_value=-20, max_value=20, max_denominator=1000),
        st.integers(min_value=8, max_value=96),
    )
    @settings(max_examples=40)
    def test_public_builders_contain_mpmath_value(self, x, bits):
        if x == 0:
            x = Fraction(1, 7)
        assert_contains(enclose_exp(x, bits), bits, lambda: mp.exp(_mpf(x)), 10)
        if x > 0:
            assert_contains(enclose_log1p(x, bits), bits, lambda: mp.log1p(_mpf(x)))

    def test_large_exp_comparison_answers_in_bounded_time(self):
        x = Fraction(601, 3)
        with mp.workdps(120):
            n = int(mp.floor(mp.exp(_mpf(x))))
        start = time.perf_counter()
        above = cmp_certified(exp_of(x), const(n))
        below = cmp_certified(exp_of(x), const(n + 1))
        assert time.perf_counter() - start < 0.5
        assert above.verdict is Verdict.GREATER
        assert below.verdict is Verdict.LESS


class TestNestedEnclosures:
    """Raising the precision from p to p + extra gives a sub-interval, and
    both contain the mpmath value within 2^-p, over wide arguments."""

    @given(
        st.fractions(min_value=-300, max_value=300, max_denominator=1000),
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=40)
    def test_exp(self, x, bits, extra):
        if x == 0:
            x = Fraction(1, 7)
        digits = max(0, int(x * Fraction(4343, 10000))) + 2
        assert_nested(
            lambda b: enclose_exp(x, b), bits, extra, lambda: mp.exp(_mpf(x)), digits
        )

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=40)
    def test_log1p_from_1e_minus_30_to_1e6(self, n, k, bits, extra):
        x = Fraction(n, 10**k)
        assert_nested(
            lambda b: enclose_log1p(x, b), bits, extra, lambda: mp.log1p(_mpf(x)), 2
        )

    @given(
        st.integers(min_value=1, max_value=512),
        st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=20)
    def test_e_and_inv_e(self, bits, extra):
        assert_nested(E.enclose, bits, extra, lambda: +mp.e, 1)
        assert_nested(exp_of(-1).enclose, bits, extra, lambda: 1 / mp.e)

    @given(
        st.fractions(min_value=0, max_value=10, max_denominator=10**12),
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=30)
    def test_log1p_of_e_times_eps(self, eps, bits, extra):
        if eps == 0:
            eps = Fraction(1, 10**12)
        expr = log1p_of(E * const(eps))
        assert_nested(
            expr.enclose, bits, extra, lambda: mp.log1p(mp.e * _mpf(eps)), 1
        )

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=256),
        st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=30)
    def test_log_e_phi(self, ell, bits, extra):
        assert_nested(
            log_e_phi(ell).enclose,
            bits,
            extra,
            lambda: 1 - ell * mp.log1p(mp.mpf(1) / ell),
        )



class _OneSidedThird(RealExpr):
    """1/3 with valid rounding whose side flips with the parity of the scale."""

    def _fixed(self, w: int) -> tuple[int, int]:
        n = (1 << w) // 3
        return (n, n + 1) if w % 2 else (n - 2, n + 1)


class TestEnclosePadding:
    """RealExpr.enclose moves each end out by 2^-g; without that, a descriptor
    whose interval jumps from one scale to the next would not nest."""

    def test_one_sided_rounding_still_nests(self):
        third = _OneSidedThird()
        encs = {p: third.enclose(p) for p in range(1, 211)}
        for p in range(1, 200):
            assert encs[p].contains(Fraction(1, 3))
            assert encs[p].width <= Fraction(1, 1 << p)
            for q in range(p + 1, p + 12):
                assert encs[p].contains_interval(encs[q]), (p, q)


class TestCmpCertified:
    def test_rational_vs_polya_szego_factor(self):
        # 4/9 against (1/e)(1 + 1/4)
        rhs = const(Fraction(5, 4)) * exp_of(-1)
        res = cmp_certified(Fraction(4, 9), rhs)
        assert res.verdict is Verdict.LESS
        assert res.bits_used >= 1

    def test_exact_equality(self):
        assert cmp_certified(Fraction(1, 2), Fraction(1, 2)) == Comparison(
            Verdict.EQUAL, 0
        )

    def test_phi_17_18_straddle_the_one_percent_target(self):
        target = exp_of(-1) + const(Fraction(1, 100))
        phi17 = Fraction(17**17, 18**17)
        phi18 = Fraction(18**18, 19**18)
        assert cmp_certified(phi17, target).verdict is Verdict.GREATER
        assert cmp_certified(phi18, target).verdict is Verdict.LESS

    def test_unresolved_on_identical_transcendentals(self):
        res = cmp_certified(E, E + const(0), RefinementPolicy(64))
        assert res.verdict is Verdict.UNRESOLVED
        assert res.bits_used == 64

    def test_constant_folding_gives_exact_verdicts(self):
        lhs = const(Fraction(1, 3)) + const(Fraction(1, 6))
        assert cmp_certified(lhs, Fraction(1, 2)) == Comparison(Verdict.EQUAL, 0)
        assert cmp_certified(exp_of(0), 1) == Comparison(Verdict.EQUAL, 0)
        assert cmp_certified(log1p_of(0), 0) == Comparison(Verdict.EQUAL, 0)

    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=500),
        st.fractions(min_value=-2, max_value=2, max_denominator=500),
    )
    @settings(max_examples=40)
    def test_antisymmetric(self, q, x):
        a, b = const(q), exp_of(x)
        fwd, rev = cmp_certified(a, b), cmp_certified(b, a)
        flip = {
            Verdict.LESS: Verdict.GREATER,
            Verdict.GREATER: Verdict.LESS,
            Verdict.EQUAL: Verdict.EQUAL,
            Verdict.UNRESOLVED: Verdict.UNRESOLVED,
        }
        assert rev.verdict is flip[fwd.verdict]
        assert rev.bits_used == fwd.bits_used

    @given(st.fractions(min_value=0, max_value=6, max_denominator=300))
    @settings(max_examples=40)
    def test_verdict_stable_under_escalation(self, x):
        # the one rung of 16 bits, the ladder from 32 bits, and the two
        # sides enclosed at 512 bits: no verdict contradicts another
        a, b = log1p_of(x), const(x)  # log(1+x) <= x, equality only at 0
        low = cmp_certified(a, b, RefinementPolicy(16))
        high = cmp_certified(a, b, RefinementPolicy(4096))
        if low.verdict is not Verdict.UNRESOLVED:
            assert high.verdict is low.verdict
        ea, eb = a.enclose(512), b.enclose(512)
        if ea.hi < eb.lo:
            assert high.verdict is Verdict.LESS
        elif eb.hi < ea.lo:
            assert high.verdict is Verdict.GREATER

    def test_descriptor_coercion_rejects_junk(self):
        with pytest.raises(TypeError):
            cmp_certified(1.5, Fraction(1))  # binary floats are not welcome


class TestRefinementPolicy:
    def test_defaults(self):
        policy = RefinementPolicy()
        assert policy.start_bits == 32 and policy.cap_bits == 4096
        assert list(policy.ladder()) == [32, 64, 128, 256, 512, 1024, 2048, 4096]

    def test_the_cap_is_the_one_field(self):
        assert RefinementPolicy._fields == ("cap_bits",)
        with pytest.raises(TypeError):
            RefinementPolicy(32, 4096)
        with pytest.raises(AttributeError):
            RefinementPolicy().start_bits = 8

    def test_validation(self):
        for cap in (7, 0, -8):
            with pytest.raises(ValueError, match=f"at least 8 bits, got {cap}$"):
                RefinementPolicy(cap)

    def test_single_rung(self):
        for cap in (8, 16, 31, 32):
            policy = RefinementPolicy(cap)
            assert policy.start_bits == cap and list(policy.ladder()) == [cap]

    def test_cap_between_doublings(self):
        assert list(RefinementPolicy(100).ladder()) == [32, 64, 100]


class TestLeastHolding:
    """least_holding against a brute-force least, on monotone predicates:
    false below a threshold and true from it on, the threshold possibly at
    or below least.  The walk tests no n twice and costs one test a unit
    the guess is off, plus at most two."""

    @given(
        least=st.integers(-30, 30),
        threshold=st.integers(-60, 90),
        offset=st.integers(0, 80),
    )
    @example(least=1, threshold=5, offset=4)  # guess at the answer
    @example(least=1, threshold=5, offset=1)  # guess below it
    @example(least=1, threshold=5, offset=9)  # guess above it
    @example(least=1, threshold=-3, offset=0)  # holds everywhere, guess at least
    def test_matches_brute_force(self, least, threshold, offset):
        tested = []

        def holds(n: int) -> bool:
            assert n >= least
            tested.append(n)
            return n >= threshold

        guess = least + offset
        want = next(n for n in range(least, least + 200) if n >= threshold)
        assert least_holding(holds, guess, least) == want
        assert len(tested) == len(set(tested))
        assert len(tested) <= abs(guess - want) + 2

    @pytest.mark.parametrize("guess", [3, 10, 17])
    def test_guess_below_at_and_above(self, guess):
        assert least_holding(lambda n: n * n > 99, guess, 0) == 10
