import builtins
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from ellplan import costs
from ellplan.costs import (
    EXPECTED_TABLE,
    PAPER_EPS,
    BigMagnitude,
    ExpectedRow,
    check_against_expected,
    format_eps,
    mantissa_adjacent,
    render_table_csv,
    render_table_text,
    reproduce_table,
    savings_factor,
)
from ellplan.planner import EpsSpec, ell_bf, ell_ps

from conftest import GOLDEN_DIR


def _mantissa_units(mag: BigMagnitude) -> int:
    """The mantissa as an integer in 10..99 ("4.8" -> 48)."""
    return int(mag.sci_mantissa.replace(".", ""))


def _reference_sci(d: int) -> str:
    """Half-up two-digit rendering of 2^d, read off its decimal digits."""
    text = str(1 << d)
    exponent = len(text) - 1
    # the third digit alone decides half-up rounding to two digits
    units = (int(text[:3].ljust(3, "0")) + 5) // 10
    if units == 100:
        units, exponent = 10, exponent + 1
    return f"{units // 10}.{units % 10}e{exponent}"


class TestBigMagnitude:
    @pytest.mark.parametrize(
        "n,sci",
        [
            (1, "1.0e0"),
            (2, "2.0e0"),
            (64, "6.4e1"),
            (512, "5.1e2"),
            (131072, "1.3e5"),
            (2**82, "4.8e24"),
            (2**83, "9.7e24"),
            (2**485, "1.0e146"),  # 9.98e145: the carry into the next decade
            (2**817, "8.7e245"),
            (2**8161, "5.1e2456"),
            (2**8162, "1.0e2457"),
        ],
    )
    def test_half_up_rendering(self, n, sci):
        mag = BigMagnitude(n.bit_length() - 1)
        assert 1 << mag.pow2 == n
        assert mag.sci == sci

    @pytest.mark.parametrize(
        "ds",
        [range(400), [8161, 8162, 81615, 816155]],
        ids=["0..399", "large"],
    )
    def test_matches_decimal_reference(self, ds):
        for d in ds:
            assert BigMagnitude(d).sci == _reference_sci(d), d

    @pytest.mark.parametrize("offset", [-95, -1, 1, 95])
    def test_a_wrong_guess_is_walked_back(self, monkeypatch, offset):
        # the float guess is right for every d tested here; shift it so the
        # certified walk has to move, across a decade for |offset| > 90
        monkeypatch.setattr(
            costs, "round", lambda x: builtins.round(x) + offset, raising=False
        )
        for d in (0, 1, 9, 82, 485, 8162):
            assert BigMagnitude(d).sci == _reference_sci(d), d

    def test_rejects_nonpositive(self):
        # 2^d for d < 0 is not a whole number; the power must be an int
        for bad in (-1, True, 2.0, "3"):
            with pytest.raises(ValueError):
                BigMagnitude(bad)

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=120)
    def test_rendering_error_is_half_final_digit(self, d):
        mag = BigMagnitude(d)
        n = 1 << d
        rendered = Fraction(_mantissa_units(mag), 10) * Fraction(10) ** mag.sci_exponent
        # half-up to two significant digits: off by at most half a unit of
        # the second digit, i.e. 5 parts in 100-ish of the leading digit.
        # Near a mantissa of 1.0 this exceeds 1 percent, which is why table
        # comparisons use adjacency, not relative error.
        ulp = Fraction(1, 10) * Fraction(10) ** mag.sci_exponent
        assert abs(rendered - n) <= ulp / 2
        assert 10 <= _mantissa_units(mag) <= 99

    @given(st.integers(min_value=1, max_value=20000))
    @settings(max_examples=80)
    def test_pow2_never_hits_exact_tie(self, delta):
        # 2^delta has no trailing decimal 5 at the rounding position unless
        # small; the exponent is the digit count less one, or the carry's
        digits = len(str(1 << delta))
        mag = BigMagnitude(delta)
        assert mag.sci_exponent == digits - 1 or (
            _mantissa_units(mag) == 10 and mag.sci_exponent == digits
        )

    @pytest.mark.parametrize("d", [10**40 + 7, 3**300, 8 * 10**299])
    def test_renders_without_the_integer(self, d):
        # 2^d has about 0.3 d digits, far too many to build here; mpmath
        # reads the same rendering off log10(2^d)
        mag = BigMagnitude(d)
        with mp.workdps(len(str(d)) + 40):
            x = d * mp.log10(2)
            k = int(mp.floor(x))
            units = int(mp.floor(10 ** (x - k + 1) + mp.mpf(1) / 2))
        if units == 100:
            units, k = 10, k + 1
        assert (mag.sci_mantissa, mag.sci_exponent) == (f"{units // 10}.{units % 10}", k)


class TestMantissaAdjacent:
    def test_same(self):
        assert mantissa_adjacent("4.8", 24, "4.8", 24)

    def test_one_step(self):
        assert mantissa_adjacent("9.6", 24, "9.7", 24)
        assert mantissa_adjacent("8.8", 245, "8.7", 245)

    def test_two_steps_rejected(self):
        assert not mantissa_adjacent("9.6", 24, "9.8", 24)

    def test_decade_wrap(self):
        assert mantissa_adjacent("9.9", 5, "1.0", 6)
        assert mantissa_adjacent("1.0", 6, "9.9", 5)
        assert not mantissa_adjacent("9.8", 5, "1.0", 6)

    def test_exponent_mismatch_off_wrap(self):
        assert not mantissa_adjacent("4.8", 24, "4.8", 25)

    def test_bad_mantissa(self):
        with pytest.raises(ValueError):
            mantissa_adjacent("10.3", 2, "1.0", 3)


class TestSavingsFactor:
    def test_paper_row_examples(self):
        assert savings_factor(101, 19).sci == "4.8e24"
        assert savings_factor(10001, 1839).sci == "1.0e2457"
        assert savings_factor(11, 11).sci == "1.0e0"
        assert savings_factor(11, 11).pow2 == 0

    def test_exactness(self):
        assert savings_factor(101, 19).pow2 == 82

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            savings_factor(19, 101)

    def test_rejects_bad_depths(self):
        with pytest.raises(ValueError):
            savings_factor(0, 0)


def _random_slacks(count: int, seed: int) -> list[Fraction]:
    """Seeded slacks in (1e-5, 1/2), spread over the decades."""
    rng = random.Random(seed)
    slacks = []
    while len(slacks) < count:
        eps = Fraction(rng.randint(1, 10**4), 10**4) / 10 ** rng.randint(0, 5)
        if Fraction(1, 10**5) < eps < Fraction(1, 2):
            slacks.append(eps)
    return slacks


class TestSavingsExponent:
    """The abstract's 2^(0.816/eps) savings, against the planner's depths.

    ell_bf - ell_ps = 1 + ceil(1/eps) - ceil(1/(2 e eps)), and the two
    ceilings each add less than 1, so the difference exceeds the total exponent
    (1 - 1/(2e))/eps = 0.8160.../eps by more than 0 and less than 2.
    """

    @pytest.mark.parametrize(
        "slacks",
        [[spec.eps for spec in PAPER_EPS], _random_slacks(200, 20260)],
        ids=["reference", "random"],
    )
    def test_gap_tracks_exponent(self, slacks):
        with mp.workdps(60):
            total = 1 - 1 / (2 * mp.e)
            for eps in slacks:
                bf, ps = ell_bf(eps), ell_ps(eps)
                excess = bf - ps - total * eps.denominator / eps.numerator
                assert 0 < excess < 2, (eps, excess)
                assert savings_factor(bf, ps).pow2 == bf - ps


class TestReproduceTable:
    def test_reference_rows(self):
        rows = reproduce_table()
        got = [(r.ell_bf, r.ell_ps, r.ell_star) for r in rows]
        assert got == [
            (11, 2, 2),
            (21, 4, 4),
            (101, 19, 18),
            (1001, 184, 184),
            (10001, 1840, 1839),
        ]

    def test_factor_columns(self):
        rows = reproduce_table()
        assert [r.factor_ps.sci for r in rows] == [
            "5.1e2",
            "1.3e5",
            "4.8e24",
            "8.7e245",
            "5.1e2456",
        ]
        assert [r.factor_star.sci for r in rows] == [
            "5.1e2",
            "1.3e5",
            "9.7e24",
            "8.7e245",
            "1.0e2457",
        ]

    def test_star_factor_dominates(self):
        for row in reproduce_table():
            assert row.factor_star.pow2 >= row.factor_ps.pow2

    def test_custom_eps(self):
        (row,) = reproduce_table([Fraction(1, 100000)])
        assert row.ell_bf == 100001 and row.ell_ps == 18394

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reproduce_table([])


class TestCheckAgainstExpected:
    def test_reference_table_passes(self):
        report = check_against_expected(reproduce_table())
        assert report.ok
        assert report.mismatches == ()

    def test_integer_mismatch_names_cell(self):
        wrong = (
            ExpectedRow("1e-1", 12, 2, 2, "5.1", 2, "5.1", 2),
        )
        rows = reproduce_table([Fraction(1, 10)])
        report = check_against_expected(rows, wrong)
        assert not report.ok
        (miss,) = report.mismatches
        assert miss.column == "ell_bf" and miss.row == "1e-1"
        assert "expected 12" in str(miss)

    def test_factor_mismatch_beyond_tolerance(self):
        wrong = (
            ExpectedRow("1e-1", 11, 2, 2, "5.3", 2, "5.1", 2),
        )
        rows = reproduce_table([Fraction(1, 10)])
        report = check_against_expected(rows, wrong)
        assert [m.column for m in report.mismatches] == ["factor_ps"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_against_expected(reproduce_table([Fraction(1, 10)]), EXPECTED_TABLE)


class TestFormatEps:
    @pytest.mark.parametrize(
        "eps,text",
        [
            (Fraction(1, 10), "1e-1"),
            (Fraction(1, 20), "5e-2"),
            (Fraction(1, 10000), "1e-4"),
            (Fraction(661, 5000), "0.1322"),
            (Fraction(3, 20), "0.15"),
            (Fraction(1, 3), "1/3"),
            (Fraction(2, 1), "2"),
        ],
    )
    def test_canonical_forms(self, eps, text):
        assert format_eps(eps) == text

    def test_round_trips_through_parse(self):
        for eps in [Fraction(1, 10), Fraction(661, 5000), Fraction(1, 3)]:
            assert EpsSpec.parse(format_eps(eps)).eps == eps


class TestRendering:
    def test_text_golden(self):
        got = render_table_text(reproduce_table())
        assert got == (GOLDEN_DIR / "table.txt").read_text()

    def test_csv_golden(self):
        got = render_table_csv(reproduce_table())
        assert got == (GOLDEN_DIR / "table.csv").read_text()

    def test_idempotent(self):
        rows = reproduce_table()
        assert render_table_text(rows) == render_table_text(reproduce_table())

    def test_csv_row_count(self):
        text = render_table_csv(reproduce_table([Fraction(1, 10)]))
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "eps,ell_bf,ell_ps,ell_star,factor_ps,factor_star"
