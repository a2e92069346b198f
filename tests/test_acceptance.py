"""The eight acceptance gates, one test and one printed verdict line each.

Run with -s to see the per-criterion lines; each test also carries the
full check so a bare pytest run reports the same pass/fail per criterion.
"""

import random
import time
from fractions import Fraction

from ellplan.bounds import (
    BoundKind,
    check_expansion_agreement,
    check_log_pade,
    check_log_tail4,
    check_log_weak,
    phi,
    verify_bound_ordering,
    verify_bounds,
)
from ellplan.certified import Verdict, cmp_certified, const, inv_e
from ellplan.costs import check_against_expected, reproduce_table
from ellplan.planner import (
    asymptotic_residual,
    certificate_sharp,
    depth_comparison,
    ell_ps,
    ell_star,
)
from ellplan.testbed import (
    brute_force_opt,
    brute_force_opt_by_mask,
    check_monotone_submodular,
    check_tabulated,
    generate_random_instance,
    greedy,
)

EXPECTED_TRIPLES = [
    (Fraction(1, 10), 11, 2, 2),
    (Fraction(1, 20), 21, 4, 4),
    (Fraction(1, 100), 101, 19, 18),
    (Fraction(1, 1000), 1001, 184, 184),
    (Fraction(1, 10000), 10001, 1840, 1839),
]


def _verdict_line(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_table_reproduction():
    start = time.perf_counter()
    rows = reproduce_table()
    triples = [(r.eps.eps, r.ell_bf, r.ell_ps, r.ell_star) for r in rows]
    result = check_against_expected(rows)
    elapsed = time.perf_counter() - start
    ok = triples == EXPECTED_TRIPLES and result.ok and elapsed < 10.0
    _verdict_line(
        1,
        ok,
        f"five reference rows, triples exact, factors within one final digit "
        f"({elapsed:.2f}s)",
    )
    assert triples == EXPECTED_TRIPLES
    assert result.ok, [str(m) for m in result.mismatches]
    assert elapsed < 10.0, f"table took {elapsed:.2f}s"


def test_criterion_2_bound_certification_sweep():
    start = time.perf_counter()
    reports = verify_bounds(list(BoundKind), 1, 10**4)
    ordering = verify_bound_ordering(2, 10**4)
    elapsed = time.perf_counter() - start

    sweep_ok = all(r.all_ok for r in reports.values())
    no_unresolved = all(not r.inconclusive for r in reports.values()) and all(
        not r.inconclusive for r in ordering.values()
    )
    # the two loose factors are ordered with equality at 2, reciprocal form
    # below the linear form after that; phi sits below both everywhere
    loose_link = ordering["loose-recip <= loose-linear"].all_ok
    elapsed_ok = elapsed < 60.0
    ok = sweep_ok and no_unresolved and loose_link and elapsed_ok
    _verdict_line(
        2,
        ok,
        f"phi under all four bounds on 1..10^4 and the loose pair ordered on "
        f"2..10^4, zero inconclusive ({elapsed:.2f}s)",
    )
    for kind, report in reports.items():
        assert report.all_ok, f"{kind}: {report.summary()}"
    assert loose_link, ordering["loose-recip <= loose-linear"].summary()
    assert no_unresolved
    assert elapsed_ok, f"sweep took {elapsed:.2f}s"


def test_criterion_3_minimality_on_random_slacks():
    rng = random.Random(310310)
    checked = 0
    for _ in range(200):
        scale = rng.randint(0, 3)
        eps = Fraction(rng.randint(10001, 499999), 10**6) / 10**scale
        assert Fraction(1, 10**5) < eps < Fraction(1, 2)
        star = ell_star(eps)
        feasible = depth_comparison(star, eps).verdict
        assert feasible is Verdict.LESS, f"ell_star infeasible at eps={eps}"
        if star > 1:
            below = depth_comparison(star - 1, eps).verdict
            assert below is Verdict.GREATER, f"ell_star - 1 feasible at eps={eps}"
        excess = ell_ps(eps) - star
        assert excess in (0, 1), f"ell_ps - ell_star = {excess} at eps={eps}"
        checked += 1
    _verdict_line(
        3,
        checked == 200,
        "200 random slacks: minimal depth certified both ways, ell_ps - "
        "ell_star always 0 or 1",
    )
    assert checked == 200


def test_criterion_4_asymptotic_residual():
    envelope_lo, envelope_hi = Fraction(-1, 2), Fraction(3, 2)
    residuals = {}
    for exponent in range(2, 7):
        eps = Fraction(1, 10**exponent)
        enc = asymptotic_residual(eps)
        residuals[f"1e-{exponent}"] = (float(enc.lo), float(enc.hi))
        assert envelope_lo <= enc.lo and enc.hi <= envelope_hi, (
            f"residual {enc} escapes [-1/2, 3/2] at eps={eps}"
        )
    _verdict_line(
        4,
        True,
        "depth minus (1/(2 e eps) - 5/12) inside [-1/2, 3/2] for "
        f"eps 1e-2..1e-6: {residuals}",
    )


def test_criterion_5_log_inequality_suite():
    start = time.perf_counter()
    grid = [Fraction(k, 8) for k in range(81)]
    rng = random.Random(550550)
    randoms = [
        Fraction(rng.randint(0, 10**4), rng.randint(1, 10**4)) for _ in range(1000)
    ]
    checks = (check_log_weak, check_log_pade, check_log_tail4)
    for check in checks:
        zero = check(Fraction(0))
        assert zero.verdict is Verdict.EQUAL, f"{zero.name} not exact at zero"
        for point in grid:
            assert check(point).holds, f"{check(point).name} fails at {point}"
    for point in randoms:
        for check in checks:
            assert check(point).holds, f"fails at {point}"
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    _verdict_line(
        5,
        ok,
        f"three log lower bounds certified on 81 grid points and 1000 random "
        f"rationals, equalities at zero exact ({elapsed:.2f}s)",
    )
    assert ok, f"log suite took {elapsed:.2f}s"


def test_criterion_6_expansion_agreement():
    report = check_expansion_agreement([100, 1000, 10000])
    spans = {
        e.ell: (float(e.scaled.lo), float(e.scaled.hi)) for e in report.entries
    }
    _verdict_line(
        6,
        report.all_ok,
        f"ell^4-scaled defect of the cubic expansion inside (-1, 1) at "
        f"10^2..10^4: {spans}",
    )
    assert report.all_ok, report.summary()


def test_criterion_7_certificate_soundness():
    unsound = []
    witnesses = 0
    for ell in range(1, 51):
        value = phi(ell)
        for k in range(1, 201):
            eps = Fraction(k, 1000)
            holds = certificate_sharp(ell, eps)
            if holds:
                direct = cmp_certified(const(value), inv_e() + const(eps))
                if direct.verdict is not Verdict.LESS:
                    unsound.append((ell, eps))
            elif witnesses == 0:
                direct = cmp_certified(const(value), inv_e() + const(eps))
                if direct.verdict is Verdict.LESS:
                    witnesses += 1
    ok = not unsound and witnesses >= 1
    _verdict_line(
        7,
        ok,
        "certificate true implies depth certified sufficient on all 10000 "
        "grid points; non-necessity witnessed",
    )
    assert not unsound, f"unsound at {unsound[:3]}"
    assert witnesses >= 1, "no non-necessity witness on the grid"


def test_criterion_8_testbed_oracle_equivalence():
    rng = random.Random(808808)
    for index in range(100):
        instance = generate_random_instance(rng)
        assert instance.n <= 10
        first = brute_force_opt(instance)
        second = brute_force_opt_by_mask(instance)
        assert first == second, f"enumerators disagree on instance {index}"
        _, greedy_value = greedy(instance)
        assert greedy_value <= first[1], f"greedy beats opt on instance {index}"
        assert check_monotone_submodular(instance).ok, f"instance {index}"

    supermodular = check_tabulated(2, lambda s: 1 if len(s) == 2 else 0)
    shrinking = check_tabulated(2, lambda s: -len(s))
    assert supermodular.submodular_witness is not None
    assert shrinking.monotone_witness is not None

    _verdict_line(
        8,
        True,
        "100 random instances: enumerators agree, greedy never beats opt, "
        "checker clean; both injected defects witnessed",
    )
