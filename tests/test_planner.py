import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import ellplan.planner
from ellplan.bounds import phi
from ellplan.certified import (
    PrecisionExhausted,
    RefinementPolicy,
    Verdict,
    cmp_certified,
    const,
    exp_of,
)
from ellplan.planner import (
    EpsSpec,
    certificate_sharp,
    depth_comparison,
    ell_bf,
    ell_ps,
    ell_star,
    plan,
)

from conftest import asymptotic_residual, mpf_to_fraction


class TestEpsSpec:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.01", Fraction(1, 100)),
            ("1e-2", Fraction(1, 100)),
            ("0.05", Fraction(1, 20)),
            ("1e-5", Fraction(1, 100000)),
            ("3/20", Fraction(3, 20)),
            ("0.1322", Fraction(1322, 10000)),
            (" 0.5 ", Fraction(1, 2)),
        ],
    )
    def test_parse_is_exact(self, text, value):
        assert EpsSpec.parse(text).eps == value

    @pytest.mark.parametrize("text", ["", "abc", "1/0", "--3", "0x1p-3"])
    def test_parse_rejects_junk(self, text):
        with pytest.raises(ValueError):
            EpsSpec.parse(text)

    @pytest.mark.parametrize("text", ["0", "0.0", "-1e-3", "-3/7"])
    def test_parse_rejects_nonpositive(self, text):
        with pytest.raises(ValueError):
            EpsSpec.parse(text)

    def test_refuses_floats(self):
        with pytest.raises(TypeError):
            EpsSpec.from_rational(0.01)
        with pytest.raises(TypeError):
            EpsSpec(0.01)

    def test_from_rational(self):
        assert EpsSpec.from_rational(Fraction(3, 20)).eps == Fraction(3, 20)
        assert EpsSpec.from_rational(1).eps == 1

    def test_str_shows_fraction(self):
        assert str(EpsSpec.parse("0.05")) == "1/20"


class TestEllBf:
    @pytest.mark.parametrize(
        "eps,want",
        [
            (Fraction(1, 10), 11),
            (Fraction(1, 100), 101),
            (Fraction(1, 2), 3),
            (Fraction(1, 1000), 1001),
            (Fraction(1, 10000), 10001),
        ],
    )
    def test_examples(self, eps, want):
        assert ell_bf(eps) == want

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=80)
    def test_matches_integer_ceiling(self, p, q):
        # 1 + ceil(q/p) for eps = p/q, via floor-division ceiling
        assert ell_bf(Fraction(p, q)) == 1 + -(-q // p)
        assert ell_bf(Fraction(p, q)) == 1 + math.ceil(Fraction(q, p))


class TestEllPs:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("1e-1", 2),
            ("5e-2", 4),
            ("1e-2", 19),
            ("1e-3", 184),
            ("1e-4", 1840),
            ("1e-5", 18394),
        ],
    )
    def test_examples(self, text, want):
        assert ell_ps(EpsSpec.parse(text)) == want

    def test_floor_of_one_for_huge_eps(self):
        # 1/(2 e * 5) < 1, so the raw ceiling is already 1
        assert ell_ps(Fraction(5, 1)) == 1
        assert ell_ps(Fraction(1, 2)) == 1

    @pytest.mark.parametrize("k", [1, 3, 7, 50, 137, 200])
    def test_precision_independent(self, k):
        # the one rung of 16 bits against the ladder from 32 to 4096 bits
        eps = Fraction(k, 1000)
        a = ell_ps(eps, RefinementPolicy(16))
        b = ell_ps(eps, RefinementPolicy(4096))
        assert a == b

    def test_agrees_with_oracle(self):
        with mp.workdps(40):
            for k in range(1, 120):
                eps = Fraction(k, 997)
                want = int(mp.ceil(1 / (2 * mp.e * mp.mpf(k) / 997)))
                assert ell_ps(eps) == want


def _oracle_ell_ps(eps: Fraction, digits: int) -> int:
    """ceil(1/(2 e eps)) from mpmath at ``digits`` digits, checked to sit
    well clear of an integer at that precision."""
    with mp.workdps(digits):
        x = 1 / (2 * mp.e * mp.mpf(eps.numerator) / eps.denominator)
        up = int(mp.ceil(x))
        assert min(up - x, x - (up - 1)) > x * mp.mpf(10) ** (20 - digits)
    return max(1, up)


def _seeded_slacks(seed: int, count: int, lo: int, hi: int) -> list[str]:
    """Three-digit decimal slacks, log-uniform in [10^lo, 10^hi]."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        x = rng.uniform(lo, hi)
        out.append(f"{10 ** (x - math.floor(x)):.2f}e{math.floor(x)}")
    return out


class TestEllPsWalk:
    """ell_ps is a walk of certified comparisons 2 eps k e > 1 from a guess
    that scales with eps; these check it against mpmath where the default
    4096-bit cap answers, and the refusal past that."""

    def test_every_decade_to_1e_minus_1240(self):
        for k in range(1, 1241):
            eps = Fraction(1, 10**k)
            assert ell_ps(eps) == _oracle_ell_ps(eps, k + 60), k

    @pytest.mark.parametrize("text", _seeded_slacks(23, 200, -300, -1))
    def test_seeded_slacks(self, text):
        eps = Fraction(text)
        assert ell_ps(eps) == _oracle_ell_ps(eps, 360)

    def test_answers_to_1e_minus_1245_at_the_default_cap(self):
        eps = Fraction(1, 10**1245)
        assert ell_ps(eps) == _oracle_ell_ps(eps, 1305)

    @pytest.mark.parametrize("k", [1246, 2000, 100000])
    def test_refused_past_the_cap_before_any_guess(self, k):
        start = time.perf_counter()
        with pytest.raises(
            PrecisionExhausted, match="^ceiling of 1/\\(2 e eps\\) still ambiguous at 4096 bits$"
        ):
            ell_ps(Fraction(1, 10**k))
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("cap", [8, 64, 1024])
    def test_refusal_tracks_the_cap(self, cap):
        # the same ceiling message names the cap the walk ran under
        with pytest.raises(PrecisionExhausted, match=f"ambiguous at {cap} bits$"):
            ell_ps(Fraction(1, 2 ** (2 * cap + 50)), RefinementPolicy(cap))


class TestEllStar:
    @pytest.mark.parametrize(
        "text,want",
        [
            ("1e-1", 2),
            ("5e-2", 4),
            ("1e-2", 18),
            ("1e-3", 184),
            ("1e-4", 1839),
            ("1e-5", 18394),
            ("0.2", 1),
        ],
    )
    def test_examples(self, text, want):
        assert ell_star(EpsSpec.parse(text)) == want

    def test_threshold_to_depth_one(self):
        # 1/2 - 1/e = 0.13212..., so these two straddle the ell_star = 1 line
        assert ell_star(EpsSpec.parse("0.1322")) == 1
        assert ell_star(EpsSpec.parse("0.1321")) == 2

    @given(st.fractions(min_value=Fraction(1, 50), max_value=Fraction(1, 2)))
    @settings(max_examples=60)
    def test_matches_linear_scan(self, eps):
        star = ell_star(eps)
        rhs = exp_of(-1) + const(eps)
        scan = 1
        while cmp_certified(const(phi(scan)), rhs).verdict is Verdict.GREATER:
            scan += 1
        assert star == scan

    @given(st.fractions(min_value=Fraction(1, 2000), max_value=Fraction(1, 2)))
    @settings(max_examples=40)
    def test_minimality_both_sides(self, eps):
        star = ell_star(eps)
        assert depth_comparison(star, eps).verdict is Verdict.LESS
        if star > 1:
            assert depth_comparison(star - 1, eps).verdict is Verdict.GREATER

    @given(st.fractions(min_value=Fraction(1, 2000), max_value=Fraction(1, 2)))
    @settings(max_examples=40)
    def test_never_exceeds_closed_form(self, eps):
        star, ps = ell_star(eps), ell_ps(eps)
        assert star <= ps
        assert ps - star in (0, 1)


class TestCertifiedMinimal:
    # 184 is minimal for 1/1000 when it is feasible and 183 is not
    def test_accepts_true_minimum(self):
        assert depth_comparison(184, Fraction(1, 1000)).verdict is Verdict.LESS
        assert depth_comparison(183, Fraction(1, 1000)).verdict is Verdict.GREATER

    def test_rejects_too_small(self):
        assert depth_comparison(183, Fraction(1, 1000)).verdict is Verdict.GREATER

    def test_rejects_too_large(self):
        # 185 is feasible, but so is the depth below it
        assert depth_comparison(185, Fraction(1, 1000)).verdict is Verdict.LESS
        assert depth_comparison(184, Fraction(1, 1000)).verdict is Verdict.LESS

    def test_depth_one(self):
        assert depth_comparison(1, Fraction(1, 5)).verdict is Verdict.LESS
        assert depth_comparison(1, Fraction(1, 10)).verdict is Verdict.GREATER


class TestCertificateSharp:
    def test_holds_at_table_depth(self):
        # exp(0.02543...) ~ 1.02576 against 1 + e/100 ~ 1.02718
        assert certificate_sharp(19, Fraction(1, 100))

    def test_holds_at_depth_one_generous_slack(self):
        # exp(5/12) ~ 1.5169 against 1 + e/5 ~ 1.5437
        assert certificate_sharp(1, Fraction(1, 5))

    def test_sufficient_but_not_necessary(self):
        # exp(5/12) ~ 1.5169 exceeds 1 + 3e/20 ~ 1.4077, so the certificate
        # says no -- yet phi(1) = 1/2 <= 1/e + 3/20 ~ 0.5179 holds
        eps = Fraction(3, 20)
        assert not certificate_sharp(1, eps)
        direct = cmp_certified(const(phi(1)), exp_of(-1) + const(eps))
        assert direct.verdict is Verdict.LESS

    def test_indeterminate_raises_instead_of_false(self):
        # pick eps so that 1 + e*eps sits within ~1e-9 of exp(eta(5)); a
        # 16-bit rung cannot separate them
        with mp.workdps(30):
            eta = mp.mpf(1) / 10 - mp.mpf(1) / 75 + mp.mpf(1) / 500
            near = (mp.exp(eta) - 1) / mp.e
            eps = Fraction(round(float(near * 10**9)), 10**9)
        with pytest.raises(PrecisionExhausted):
            certificate_sharp(5, eps, RefinementPolicy(16))

    @pytest.mark.parametrize("text", ["1e-1", "1e-2", "1e-3"])
    def test_verdict_at_star_is_stable(self, text):
        # freeze the observed verdicts; a change here means the certificate
        # path moved, which is worth noticing
        spec = EpsSpec.parse(text)
        assert certificate_sharp(ell_star(spec), spec) is True


class TestAsymptoticResidual:
    """The paper's expansion, through the residual conftest encloses."""

    @pytest.mark.parametrize("text", ["1e-2", "1e-3", "1e-4", "1e-5"])
    def test_within_envelope(self, text):
        enc = asymptotic_residual(text)
        assert Fraction(-1, 2) < enc.lo and enc.hi < Fraction(3, 2)

    @pytest.mark.parametrize(
        "text,star",
        [("1e-2", 18), ("1e-3", 184), ("1e-4", 1839)],
    )
    def test_contains_oracle(self, text, star):
        # the enclosure is under 2^-190 wide at 1e-2, finer than 60 digits
        with mp.workdps(80):
            oracle = mpf_to_fraction(
                star - (1 / (2 * mp.e * mp.mpf(text)) - mp.mpf(5) / 12)
            )
        enc = asymptotic_residual(text)
        assert enc.contains(oracle)
        assert Fraction(-1, 2) < enc.lo and enc.hi < Fraction(3, 2)

    @pytest.mark.parametrize("text", ["1e-60", "1e-300"])
    def test_deep_slack_stays_narrow(self, text):
        # 1/(2 e eps) magnifies the width of e by about 1/eps; at a fixed
        # 128 bits the enclosure was 2^62.5 wide at 1e-60
        enc = asymptotic_residual(text)
        with mp.workdps(700):
            oracle = mpf_to_fraction(
                ell_star(text) - (1 / (2 * mp.e * mp.mpf(text)) - mp.mpf(5) / 12)
            )
        assert enc.contains(oracle)
        assert Fraction(-1, 2) <= enc.lo and enc.hi <= Fraction(3, 2)

    def test_requires_small_eps(self):
        # 1/10, the edge of the small-eps regime, is inside the envelope
        enc = asymptotic_residual(Fraction(1, 10))
        assert Fraction(-1, 2) < enc.lo and enc.hi < Fraction(3, 2)


class TestPlan:
    @pytest.mark.parametrize(
        "text,triple",
        [
            ("1e-1", (11, 2, 2)),
            ("5e-2", (21, 4, 4)),
            ("1e-2", (101, 19, 18)),
            ("1e-3", (1001, 184, 184)),
            ("1e-4", (10001, 1840, 1839)),
        ],
    )
    def test_reference_triples(self, text, triple):
        p = plan(text)
        assert (p.ell_bf, p.ell_ps, p.ell_star) == triple

    def test_probe_count_tracks_the_gap(self, monkeypatch):
        # ell_ps is two comparisons from its guess, the walk down from ell_ps
        # probes ell_ps .. ell_star - 1, and the sharp certificate at
        # ell_star adds one comparison
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return cmp_certified(*args, **kwargs)

        monkeypatch.setattr(ellplan.planner, "cmp_certified", counting)
        for text in ("1e-1", "5e-2", "1e-2", "1e-3", "1e-4"):
            calls.clear()
            p = plan(text)
            assert len(calls) <= 2 + (p.ell_ps - p.ell_star) + 2 + 1, text

    def test_rho_star_is_exact_complement(self):
        p = plan("1e-2")
        assert p.rho_star == 1 - phi(18)
        assert p.rho_star == 1 - Fraction(18**18, 19**18)

    def test_gap_and_reporting_properties(self):
        p = plan("1e-3")
        assert p.ell_ps - p.ell_star == 0
        q = plan("1e-2")
        assert q.ell_ps - q.ell_star == 1
        assert p.ell_ps <= p.ell_bf

    def test_accepts_spec_fraction_and_string(self):
        a = plan("0.05")
        b = plan(Fraction(1, 20))
        c = plan(EpsSpec.parse("5e-2"))
        assert a == b == c

    def test_deterministic(self):
        assert plan("1e-3") == plan("1e-3")

    def test_generous_slack_single_round(self):
        p = plan(Fraction(1, 5))
        assert p.ell_star == 1 and p.rho_star == Fraction(1, 2)
        assert p.certificate_holds_at_star

    def test_precision_reported(self):
        p = plan("1e-3")
        assert p.precision_used >= 32

    def test_policy_does_not_change_answers(self):
        # ladders that share no rung: 32 to 4096 bits, and 16 bits alone
        fine = plan("1e-3", RefinementPolicy(4096))
        coarse = plan("1e-3", RefinementPolicy(16))
        assert (fine.ell_bf, fine.ell_ps, fine.ell_star) == (
            coarse.ell_bf,
            coarse.ell_ps,
            coarse.ell_star,
        )

    @given(
        st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60)
    def test_minimality_on_millis_grid(self, k):
        p = plan(Fraction(k, 1000))
        assert depth_comparison(p.ell_star, p.eps).verdict is Verdict.LESS
        if p.ell_star > 1:
            assert depth_comparison(p.ell_star - 1, p.eps).verdict is Verdict.GREATER
        assert p.ell_ps - p.ell_star in (0, 1)
        assert p.ell_ps <= p.ell_bf
