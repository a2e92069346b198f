import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from ellplan.costs import (
    EXPECTED_TABLE,
    PAPER_EPS,
    BigMagnitude,
    CellMismatch,
    ExpectedRow,
    check_against_expected,
    decimal_digit_count,
    decomposition_exponents,
    format_eps,
    mantissa_adjacent,
    render_table_csv,
    render_table_text,
    reproduce_table,
    savings_factor,
    sharp_gain_bound_check,
)
from ellplan.planner import EpsSpec

from conftest import GOLDEN_DIR, mpf_to_fraction


class TestDigitCount:
    @pytest.mark.parametrize(
        "n,d", [(1, 1), (9, 1), (10, 2), (99, 2), (100, 3), (10**6 - 1, 6), (10**6, 7)]
    )
    def test_boundaries(self, n, d):
        assert decimal_digit_count(n) == d

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            decimal_digit_count(0)

    @given(st.integers(min_value=1, max_value=10**40))
    @settings(max_examples=100)
    def test_matches_string_length(self, n):
        assert decimal_digit_count(n) == len(str(n))

    def test_pow2_sweep_matches_certified_formula(self):
        # the bit-length estimate of the digit count can be off by one and
        # the bracketing must correct it; spot the whole working range
        for delta in range(0, 10**4 + 1, 7):
            assert decimal_digit_count(1 << delta) == len(str(1 << delta))


class TestBigMagnitude:
    @pytest.mark.parametrize(
        "n,sci",
        [
            (1, "1.0e0"),
            (2, "2.0e0"),
            (64, "6.4e1"),
            (512, "5.1e2"),
            (131072, "1.3e5"),
            (995, "1.0e3"),
            (994, "9.9e2"),
            (1050000, "1.1e6"),
            (1049999, "1.0e6"),
            (2**82, "4.8e24"),
            (2**83, "9.7e24"),
            (2**817, "8.7e245"),
            (2**8161, "5.1e2456"),
            (2**8162, "1.0e2457"),
        ],
    )
    def test_half_up_rendering(self, n, sci):
        mag = BigMagnitude.from_int(n)
        assert mag.sci == sci
        assert mag.exact == n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BigMagnitude.from_int(0)

    @given(st.integers(min_value=1, max_value=10**30))
    @settings(max_examples=120)
    def test_rendering_error_is_half_final_digit(self, n):
        mag = BigMagnitude.from_int(n)
        rendered = Fraction(mag.mantissa_units, 10) * Fraction(10) ** mag.sci_exponent
        # half-up to two significant digits: off by at most half a unit of
        # the second digit, i.e. 5 parts in 100-ish of the leading digit.
        # Near a mantissa of 1.0 this exceeds 1 percent, which is why table
        # comparisons use adjacency, not relative error.
        ulp = Fraction(1, 10) * Fraction(10) ** mag.sci_exponent
        assert abs(rendered - n) <= ulp / 2
        assert 10 <= mag.mantissa_units <= 99

    @given(st.integers(min_value=1, max_value=20000))
    @settings(max_examples=80)
    def test_pow2_never_hits_exact_tie(self, delta):
        # 2^delta has no trailing decimal 5 at the rounding position unless
        # small; the rendering must still be within the half-ulp gate
        mag = BigMagnitude.from_int(1 << delta)
        assert mag.sci_exponent == decimal_digit_count(1 << delta) - 1 or (
            mag.mantissa_units == 10
            and mag.sci_exponent == decimal_digit_count(1 << delta)
        )


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
        assert savings_factor(11, 11).exact == 1

    def test_exactness(self):
        assert savings_factor(101, 19).exact == 2**82

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            savings_factor(19, 101)

    def test_rejects_bad_depths(self):
        with pytest.raises(ValueError):
            savings_factor(0, 0)


class TestDecomposition:
    def test_reference_values_at_unit_eps(self):
        first, second = decomposition_exponents(Fraction(1))
        with mp.workdps(50):
            a = mpf_to_fraction(1 - 2 / mp.e)
            b = mpf_to_fraction(3 / (2 * mp.e))
        assert first.contains(a) and second.contains(b)
        assert first.lo > Fraction(2642, 10**4) and first.hi < Fraction(2643, 10**4)
        assert second.lo > Fraction(5518, 10**4) and second.hi < Fraction(5519, 10**4)

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 10), Fraction(1, 100)])
    def test_sum_encloses_total(self, eps):
        first, second = decomposition_exponents(eps)
        with mp.workdps(60):
            total = mpf_to_fraction((1 - 1 / (2 * mp.e)) / mp.mpf(f"{eps}"))
        assert (first + second).contains(total)

    def test_scaling_by_ten(self):
        first, second = decomposition_exponents(Fraction(1, 10))
        total = first + second
        assert total.lo > Fraction(8160, 1000) and total.hi < Fraction(8161, 1000)

    def test_accepts_eps_spec(self):
        a1, _ = decomposition_exponents(EpsSpec(Fraction(1, 10)))
        a2, _ = decomposition_exponents(Fraction(1, 10))
        assert a1 == a2


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
            assert row.factor_star.exact >= row.factor_ps.exact

    def test_custom_eps(self):
        (row,) = reproduce_table([Fraction(1, 100000)])
        assert row.ell_bf == 100001 and row.ell_ps == 18394

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reproduce_table([])


class TestCheckAgainstExpected:
    def test_reference_table_passes(self):
        report = check_against_expected()
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


class TestSharpGainBound:
    def test_reference_gaps(self):
        report = sharp_gain_bound_check()
        assert report.ok
        assert report.max_gap == 1
        gaps = {format_eps(e.eps): e.gap for e in report.entries}
        assert gaps == {"1e-1": 0, "5e-2": 0, "1e-2": 1, "1e-3": 0, "1e-4": 1}

    def test_bound_factor_value(self):
        enc = sharp_gain_bound_check([Fraction(1, 10)]).bound_factor()
        with mp.workdps(40):
            oracle = mpf_to_fraction(mp.power(2, mp.mpf(17) / 12))
        assert enc.contains(oracle)
        assert enc.lo > Fraction(26696, 10**4) and enc.hi < Fraction(26698, 10**4)

    def test_random_eps_gaps(self):
        # deterministic pseudo-random slacks in (1e-5, 1e-1)
        import random

        rng = random.Random(171717)
        samples = [
            Fraction(rng.randint(11, 10**5 - 1), 10**6) for _ in range(50)
        ]
        report = sharp_gain_bound_check(samples)
        assert all(e.gap in (0, 1) for e in report.entries)


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
