import math
import random
import tracemalloc
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from ellplan import bounds
from ellplan.certified import (
    _SMALL_LEAD,
    E,
    RefinementPolicy,
    Verdict,
    _exp_fixed,
    _log1p_fixed,
    _working_scale,
    cmp_certified,
    const,
    enclose_log1p,
    exp_of,
    log1p_of,
)
from ellplan.bounds import (
    BoundKind,
    SweepEntry,
    SweepReport,
    _ORDER_CHAIN,
    _extend,
    _log_e_phi_fixed,
    _log_target_fixed,
    _sharp_terms,
    bound_factor,
    check_expansion_agreement,
    check_log_pade,
    check_log_tail4,
    check_log_weak,
    ordering_exception_at_one,
    phi,
    phi_floor_sweep,
    log_e_phi,
    rho,
    sharp_exponent,
    verify_bound_ordering,
    verify_bounds,
)
from ellplan.records import SweepSummary

from conftest import bound_value, log_bound_factor, mpf_to_fraction


def reference_log_e_phi(ell):
    """log(e*phi(ell)) as a tree of the generic nodes: log_e_phi's reference."""
    return 1 - const(ell) * log1p_of(Fraction(1, ell))


# ---------------------------------------------------------------------------
# the sweeps as one cmp_certified call per check: the reference that the
# sweeps' first-rung shortcut must reproduce entry for entry.  Each builder
# gives a report's (label, entries).


def reference_verify_bounds(kinds, lo, hi, policy):
    entries = {kind: [] for kind in kinds}
    for ell in range(lo, hi + 1):
        value = reference_log_e_phi(ell)
        for kind, out in entries.items():
            if ell >= kind.min_ell:
                cmp = cmp_certified(value, log_bound_factor(kind, ell), policy)
                ok = cmp.verdict is Verdict.LESS
                out.append(SweepEntry(ell, cmp.verdict, cmp.bits_used, ok))
    return {
        kind: (f"phi <= {kind.value} on [{max(lo, kind.min_ell)}, {hi}]", tuple(out))
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
    return {key: (f"{key} on [{lo}, {hi}]", tuple(out)) for key, out in entries.items()}


def reference_phi_floor_sweep(lo, hi, policy):
    entries = []
    for ell in range(lo, hi + 1):
        cmp = cmp_certified(reference_log_e_phi(ell), const(0), policy)
        ok = cmp.verdict is Verdict.GREATER
        entries.append(SweepEntry(ell, cmp.verdict, cmp.bits_used, ok))
    return f"phi > 1/e on [{lo}, {hi}]", tuple(entries)


def expanded(report):
    return report.label, report.entries


def assert_sweeps_match_reference(lo, hi, policy):
    kinds = list(BoundKind)
    reports = verify_bounds(kinds, lo, hi, policy)
    assert {kind: expanded(r) for kind, r in reports.items()} == (
        reference_verify_bounds(kinds, lo, hi, policy)
    )
    reports = verify_bound_ordering(max(lo, 2), hi, policy)
    assert {key: expanded(r) for key, r in reports.items()} == (
        reference_verify_bound_ordering(max(lo, 2), hi, policy)
    )
    assert expanded(phi_floor_sweep(lo, hi, policy)) == reference_phi_floor_sweep(
        lo, hi, policy
    )


CAPS = (8, 16, 32, 64, 4096)


class TestSweepsMatchReference:
    """Caps of 8 and 16 bits are one-rung ladders, at which some checks stay
    unresolved; from 32 bits on, every check up to ell = 10^4 separates at
    the first rung's scale.  Past 2 * 10^4 most sharp checks separate only
    at the first rung's refined scale (30 of 32 at the default cap on
    [20000, 20031]), which the last two windows cover, up to the --lmax
    limit."""

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize(
        "lo,hi", [(1, 2000), (9969, 10000), (20000, 20031), (99969, 100000)]
    )
    def test_reports_equal(self, cap, lo, hi):
        assert_sweeps_match_reference(lo, hi, RefinementPolicy(cap))

    @pytest.mark.parametrize("bits", (8, 16, 32, 64))
    def test_direct_value_interval(self, bits):
        # The tree evaluates log1p(1/ell) one bit finer for the factor -1
        # and ell.bit_length() bits finer for the factor ell, and each
        # scaling rounds outward; the kernel must take the same integer
        # steps.  Every ell to 3000 at the scale of a rung of bits, and a
        # seeded sample out to ell = 10^12 and w = 5000.
        w = _working_scale(bits)
        rng = random.Random(bits)
        pairs = [(ell, w) for ell in range(1, 3001)] + [(10**12, 5000)]
        pairs += [
            (rng.randint(1, 10 ** rng.randint(1, 12)), rng.randint(9, 5000))
            for _ in range(75)
        ]
        for ell, w in pairs:
            expected = reference_log_e_phi(ell)._fixed(w)
            assert _log_e_phi_fixed(ell, w) == expected, (ell, w)
            assert log_e_phi(ell)._fixed(w) == expected, (ell, w)


class TestSweepsBuildNoDescriptor:
    """The sweeps compare the kernels' intervals in cmp_certified's rung
    loop and never call cmp_certified itself, which here raises.  At the
    one-rung ladders of 8 and 16 bits the checks that stay open are
    unresolved at that rung, as cmp_certified would leave them, without a
    RealExpr built for any of them."""

    @pytest.fixture(autouse=True)
    def refuse_cmp_certified(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep called cmp_certified")

        monkeypatch.setattr(bounds, "cmp_certified", refuse)

    @pytest.mark.parametrize("cap,unresolved", [(8, 3003), (16, 2002)])
    def test_one_rung_ladders_near_the_limit(self, cap, unresolved):
        policy = RefinementPolicy(cap)
        lo, hi = 99_000, 100_000
        reports = [
            *verify_bounds(list(BoundKind), lo, hi, policy).values(),
            *verify_bound_ordering(lo, hi, policy).values(),
            phi_floor_sweep(lo, hi, policy),
        ]
        assert sum(r.checked for r in reports) == 8 * (hi - lo + 1)
        assert sum(r.unresolved_count for r in reports) == unresolved
        assert sum(r.failed_count for r in reports) == 0

    @pytest.mark.parametrize("cap", (8, 16, 64, 4096))
    def test_reports_equal_the_reference(self, cap):
        assert_sweeps_match_reference(99_969, 100_000, RefinementPolicy(cap))


# ---------------------------------------------------------------------------
# a report's runs against the per-entry definitions


@st.composite
def entry_lists(draw):
    """Entries sorted by ell, in blocks of one outcome; a block may start
    right after the previous one, with the same or another outcome, or
    after a gap."""
    ell = draw(st.integers(min_value=1, max_value=10**6))
    entries = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        verdict = draw(st.sampled_from(list(Verdict)))
        bits = draw(st.sampled_from((0, 8, 32, 4096)))
        ok = draw(st.booleans())
        ell += draw(st.sampled_from((0, 0, 1, 9)))
        for _ in range(draw(st.integers(min_value=1, max_value=5))):
            entries.append(SweepEntry(ell, verdict, bits, ok))
            ell += 1
    return entries


def runs_of(entries):
    """The canonical runs of entries sorted by ell: consecutive ell with one
    outcome, grouped by ell minus position."""
    keyed = groupby(
        enumerate(entries), lambda ie: (ie[1].ell - ie[0], ie[1].verdict, ie[1].bits_used, ie[1].ok)
    )
    runs = []
    for (_, verdict, bits, ok), group in keyed:
        ells = [e.ell for _, e in group]
        runs.append((ells[0], ells[-1], verdict, bits, ok))
    return tuple(runs)


def summary_of(label, entries):
    """SweepReport.summary as defined on a tuple of entries."""
    n = len(entries)
    failures = [e for e in entries if not e.ok and e.verdict is not Verdict.UNRESOLVED]
    inconclusive = [e for e in entries if e.verdict is Verdict.UNRESOLVED]
    if all(e.ok for e in entries):
        return f"{label}: {n}/{n} certified"
    bad = ", ".join(str(e.ell) for e in failures[:5])
    unres = ", ".join(str(e.ell) for e in inconclusive[:5])
    parts = [f"{label}: {n - len(failures) - len(inconclusive)}/{n} certified"]
    if bad:
        parts.append(f"failed at ell = {bad}")
    if unres:
        parts.append(f"unresolved at ell = {unres}")
    return "; ".join(parts)


def outcome(build):
    """build()'s value, or the ValueError class if it refuses."""
    try:
        return build()
    except ValueError:
        return ValueError


class TestSweepReportRuns:
    LABEL = "phi <= sharp on [1, 9]"

    @given(entry_lists())
    @settings(max_examples=150)
    def test_views_match_the_entries(self, entries):
        report = SweepReport(self.LABEL, runs_of(entries))
        entries = tuple(entries)
        assert report.entries == entries
        failures = tuple(
            e for e in entries if not e.ok and e.verdict is not Verdict.UNRESOLVED
        )
        inconclusive = tuple(e for e in entries if e.verdict is Verdict.UNRESOLVED)
        assert report.failures == failures
        assert report.inconclusive == inconclusive
        assert report.failed_count == len(failures)
        assert report.unresolved_count == len(inconclusive)
        assert report.all_ok == all(e.ok for e in entries)
        assert report.checked == len(entries)
        assert report.max_bits == max((e.bits_used for e in entries), default=0)
        assert report.summary() == summary_of(self.LABEL, entries)
        assert outcome(lambda: SweepSummary.from_report(report)) == outcome(
            lambda: SweepSummary(
                self.LABEL,
                len(entries),
                all(e.ok for e in entries),
                tuple(e.ell for e in failures),
                tuple(e.ell for e in inconclusive),
                max((e.bits_used for e in entries), default=0),
            )
        )

    @given(entry_lists())
    @settings(max_examples=100)
    def test_sweeps_build_the_canonical_runs(self, entries):
        runs = []
        for e in entries:
            _extend(runs, e.ell, e.verdict, e.bits_used, e.ok)
        assert tuple(map(tuple, runs)) == runs_of(entries)

    @given(entry_lists(), st.data())
    @settings(max_examples=100)
    def test_refuses_runs_that_are_not_canonical(self, entries, data):
        runs = list(runs_of(entries))
        long_runs = [i for i, r in enumerate(runs) if r[1] > r[0]]
        broken = []
        if long_runs:
            # a run split in two with the same outcome
            i = data.draw(st.sampled_from(long_runs))
            first, last, *outcome_ = runs[i]
            cut = data.draw(st.integers(min_value=first, max_value=last - 1))
            split = (first, cut, *outcome_), (cut + 1, last, *outcome_)
            broken.append(runs[:i] + list(split) + runs[i + 1:])
            # a run whose ends are swapped
            broken.append(runs[:i] + [(last, first, *outcome_)] + runs[i + 1:])
        if len(runs) > 1:
            # two runs out of order, and a run that overlaps its predecessor
            i = data.draw(st.integers(min_value=0, max_value=len(runs) - 2))
            broken.append(runs[:i] + [runs[i + 1], runs[i]] + runs[i + 2:])
            first, last, *outcome_ = runs[i + 1]
            broken.append(runs[:i + 1] + [(runs[i][1], last, *outcome_)] + runs[i + 2:])
        for bad in broken:
            with pytest.raises(ValueError, match="not canonical"):
                SweepReport(self.LABEL, tuple(bad))

    def test_equal_reports_are_equal_entry_by_entry(self):
        one = (1, 3, Verdict.LESS, 32, True)
        assert SweepReport(self.LABEL, (one,)) == SweepReport(self.LABEL, (one,))
        assert SweepReport(self.LABEL, (one,)) != SweepReport(
            self.LABEL, ((1, 3, Verdict.LESS, 64, True),)
        )
        assert SweepReport(self.LABEL, ()).summary() == f"{self.LABEL}: 0/0 certified"


def sweep_peak(lo, hi):
    """Peak traced bytes of the three sweeps over [lo, hi]."""
    tracemalloc.start()
    try:
        verify_bounds(list(BoundKind), lo, hi)
        verify_bound_ordering(max(lo, 2), hi)
        phi_floor_sweep(lo, hi)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_does_not_grow_with_the_window(monkeypatch):
    """A window four times longer peaks within 64 KB of the shorter one;
    one SweepEntry per check took about 580 KB more on these windows.  The
    bounded log1p cache turns over as a window runs, and new entries
    replacing ones made before tracing count as growth, so the sweeps read
    the kernel past its cache here."""
    assert _log1p_fixed.cache_info().maxsize is not None
    monkeypatch.setattr(bounds, "_log1p_fixed", _log1p_fixed.__wrapped__)
    short = sweep_peak(10_001, 10_250)
    long = sweep_peak(10_001, 11_000)
    assert long - short < 64 * 1024, (short, long)


def _log_e_phi_kernel_cases() -> list[tuple[int, int]]:
    """(ell, w): 1,500 seeded ell log-uniform up to 10^6 and the powers of two
    and their neighbours, each at a w from 4 to 64 and at the refined scale
    that cmp_certified's first rung, and a sweep's, moves to from 8, 16 and
    32 bits when the value has enough leading zero bits."""
    rng = random.Random(6000)
    ells = [round(10 ** rng.uniform(0, 6)) for _ in range(1500)]
    edges = [2**k + d for k in range(20) for d in (-1, 0, 1) if 2**k + d >= 1]
    cases = [(ell, rng.randint(4, 64)) for ell in ells]
    cases += [(ell, w) for ell in edges + [10**6] for w in (4, 5, 8, 31, 64)]
    for ell in ells + edges:
        for bits in (8, 16, 32):
            w = _working_scale(bits)
            lead = w - max(map(abs, _log_e_phi_fixed(ell, w))).bit_length()
            if lead >= _SMALL_LEAD:
                cases.append((ell, w + lead))
    return cases


def test_log_e_phi_kernel_contains_mpmath_at_700_bits():
    """_log_e_phi_fixed's interval at scale w contains log(e*phi(ell)), at
    small w where one ulp lost to inward rounding shows.  The sweeps decide
    every check at their first rung from this kernel alone."""
    misses = []
    with mp.workprec(700):
        for ell, w in _log_e_phi_kernel_cases():
            lo, hi = _log_e_phi_fixed(ell, w)
            value = mp.ldexp(1 - ell * mp.log1p(mp.mpf(1) / ell), w)
            if not lo <= value <= hi:
                misses.append((ell, w))
    assert misses == []


@pytest.mark.parametrize("ell", [2, 3, 4, 7, 10, 1001, 10**9])
def test_factor_table_gives_the_paper_factors(ell):
    factors = {
        BoundKind.LOOSE_RECIP: Fraction(ell, ell - 1),
        BoundKind.LOOSE_LINEAR: Fraction(ell + 2, ell),
        BoundKind.POLYA_SZEGO: Fraction(2 * ell + 1, 2 * ell),
    }
    for kind, factor in factors.items():
        assert bound_factor(kind, ell).exact() == factor
        log_factor = log_bound_factor(kind, ell)
        assert log_factor.describe() == f"log1p({factor - 1})"
        assert _log_target_fixed(kind, ell, 60) == log1p_of(factor - 1)._fixed(60)


def test_sharp_target_is_its_descriptors_interval():
    # the sweeps scale the sharp exponent's unreduced terms, which share a
    # power of 3 when 3 divides ell (27 at ell = 21)
    rng = random.Random(3)
    ells = list(range(1, 400)) + [rng.randint(1, 10**12) for _ in range(200)]
    for ell in ells:
        for w in (4, 28, 60, 97, 5000):
            expected = log_bound_factor(BoundKind.SHARP, ell)._fixed(w)
            assert _log_target_fixed(BoundKind.SHARP, ell, w) == expected, (ell, w)


def test_sharp_factor_is_its_descriptors_interval():
    # the ordering sweep takes exp of the sharp exponent's unreduced terms
    # at every rung, where bound_factor reduces the exponent first
    rng = random.Random(3)
    ells = list(range(1, 400)) + [rng.randint(1, 10**12) for _ in range(200)]
    for ell in ells:
        factor = bound_factor(BoundKind.SHARP, ell)
        for w in (28, 60, 97, 124, 188):
            assert _exp_fixed(*_sharp_terms(ell), w) == factor._fixed(w), (ell, w)


def test_labels_name_the_values():
    assert log_e_phi(18394).describe() == "log(e*phi(18394))"
    assert E.describe() == "e"
    assert exp_of(Fraction(5, 12)).describe() == "exp(5/12)"
    assert exp_of(1).describe() == "exp(1)"
    assert log1p_of(Fraction(1, 3)).describe() == "log1p(1/3)"
    assert log1p_of(E * const(Fraction(1, 100))).describe() == "log1p((e * 1/100))"


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
        target = 1 - exp_of(-1) - const(Fraction(1, 10))
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
    def test_direct_adjacent_comparisons(self):
        for ell in range(1, 400):
            assert phi(ell + 1) < phi(ell)

    @given(st.integers(min_value=400, max_value=30000))
    @settings(max_examples=25)
    def test_direct_adjacent_comparisons_large(self, ell):
        assert phi(ell + 1) < phi(ell)

    def test_strictly_decreasing_full_default_range(self):
        # phi(ell + 1) < phi(ell) exactly when log(e*phi) steps down
        for ell in range(1, 10**4 + 1):
            res = cmp_certified(log_e_phi(ell + 1), log_e_phi(ell))
            assert res.verdict is Verdict.LESS, ell

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
