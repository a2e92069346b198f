import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from ellplan.bounds import rho
from ellplan.planner import plan
from ellplan.testbed import (
    BUNDLED_INSTANCES,
    CoverageInstance,
    InstanceFormatError,
    LOCAL_SEARCH_NOTE,
    OracleCounter,
    PartitionBlock,
    PartitionMatroid,
    UniformMatroid,
    brute_force_opt,
    brute_force_opt_by_mask,
    bundled_instance,
    check_monotone_submodular,
    check_tabulated,
    f_eval,
    generate_random_instance,
    greedy,
    instance_to_jsonable,
    load_instance,
    parse_instance,
    ratio_report,
)
from ellplan.testbed import _Masks, _as_weight, _scan_table

from conftest import mpf_to_fraction


def frac(a, b=1):
    return Fraction(a, b)


@pytest.fixture
def three_cover():
    return bundled_instance("three_cover")


@pytest.fixture
def greedy_gap():
    return bundled_instance("greedy_gap")


def random_instances(seed, count, max_n=10):
    import random

    rng = random.Random(seed)
    return [generate_random_instance(rng, max_n=max_n) for _ in range(count)]


def single_item_instance(n, rank=None):
    """n ground elements all covering the same unit item."""
    universe = (("x", frac(1)),)
    ground = tuple((f"e{k}", frozenset({"x"})) for k in range(n))
    return CoverageInstance(universe, ground, UniformMatroid(rank if rank is not None else n))


class TestMatroids:
    def test_uniform_boundary(self):
        m = UniformMatroid(2)
        assert m.is_independent(set())
        assert m.is_independent({"a", "b"})
        assert not m.is_independent({"a", "b", "c"})

    def test_uniform_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            UniformMatroid(-1)
        with pytest.raises(ValueError):
            UniformMatroid(True)

    def test_partition_capacities(self):
        m = PartitionMatroid(
            (
                PartitionBlock(frozenset({"a", "b"}), 1),
                PartitionBlock(frozenset({"c"}), 1),
            )
        )
        assert m.is_independent({"a", "c"})
        assert not m.is_independent({"a", "b"})

    def test_partition_unknown_element(self):
        m = PartitionMatroid((PartitionBlock(frozenset({"a"}), 1),))
        with pytest.raises(ValueError, match="not covered"):
            m.is_independent({"z"})

    def test_partition_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            PartitionMatroid(
                (
                    PartitionBlock(frozenset({"a", "b"}), 1),
                    PartitionBlock(frozenset({"b"}), 1),
                )
            )

    def test_block_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            PartitionBlock(frozenset(), 1)
        with pytest.raises(ValueError):
            PartitionBlock(frozenset({"a"}), -1)


class TestInstanceValidation:
    def test_bundled_shapes(self, three_cover, greedy_gap):
        assert three_cover.n == 3
        assert three_cover.rank == 2
        assert greedy_gap.n == 3
        assert greedy_gap.rank == 2
        assert sum(w for _, w in three_cover.universe) == 3
        assert sum(w for _, w in greedy_gap.universe) == 19

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError, match="duplicate universe"):
            CoverageInstance(
                (("a", frac(1)), ("a", frac(2))), (), UniformMatroid(0)
            )

    def test_duplicate_elements_rejected(self):
        with pytest.raises(ValueError, match="duplicate ground"):
            CoverageInstance(
                (("a", frac(1)),),
                (("e", frozenset()), ("e", frozenset())),
                UniformMatroid(1),
            )

    def test_stray_member_rejected(self):
        with pytest.raises(ValueError, match="ground.e1"):
            CoverageInstance(
                (("a", frac(1)),),
                (("e1", frozenset({"zzz"})),),
                UniformMatroid(1),
            )

    def test_rank_above_ground_size_rejected(self):
        with pytest.raises(ValueError, match="exceeds ground size"):
            CoverageInstance(
                (("a", frac(1)),), (("e1", frozenset()),), UniformMatroid(2)
            )

    def test_blocks_must_cover_ground(self):
        with pytest.raises(ValueError, match="uncovered"):
            CoverageInstance(
                (("a", frac(1)),),
                (("e1", frozenset()), ("e2", frozenset())),
                PartitionMatroid((PartitionBlock(frozenset({"e1"}), 1),)),
            )

    def test_blocks_must_not_name_strays(self):
        with pytest.raises(ValueError, match="unknown elements"):
            CoverageInstance(
                (("a", frac(1)),),
                (("e1", frozenset()),),
                PartitionMatroid(
                    (PartitionBlock(frozenset({"e1", "ghost"}), 1),)
                ),
            )

    def test_weights_positive_rationals_only(self):
        with pytest.raises(ValueError, match="positive"):
            CoverageInstance((("a", frac(0)),), (), UniformMatroid(0))
        with pytest.raises(ValueError, match="positive"):
            CoverageInstance((("a", 1.5),), (), UniformMatroid(0))


class TestFEval:
    @pytest.mark.parametrize(
        "subset,expected",
        [
            (set(), 0),
            ({"e1"}, 2),
            ({"e2"}, 2),
            ({"e3"}, 1),
            ({"e1", "e2"}, 3),
            ({"e1", "e3"}, 3),
            ({"e1", "e2", "e3"}, 3),
        ],
    )
    def test_three_cover_values(self, three_cover, subset, expected):
        assert f_eval(three_cover, subset) == expected

    def test_counter_ticks_once_per_call(self, three_cover):
        counter = OracleCounter()
        f_eval(three_cover, {"e1"}, counter)
        f_eval(three_cover, {"e1"}, counter)
        assert counter.count == 2

    def test_rejects_stray_elements(self, three_cover):
        with pytest.raises(ValueError, match="not ground"):
            f_eval(three_cover, {"nope"})

    @given(st.integers(0, 2**6 - 1), st.integers(0, 10**6), st.integers(1, 20))
    def test_scaled_table_matches_oracle(self, mask, seed, max_items):
        # past 8 items a value sums tables across chunk boundaries
        import random

        instance = generate_random_instance(
            random.Random(seed), max_n=6, max_items=max_items
        )
        mask &= (1 << instance.n) - 1
        names = {
            instance.element_names[i]
            for i in range(instance.n)
            if mask >> i & 1
        }
        masks = _Masks.of(instance)
        assert Fraction(masks.value(mask), masks.denominator) == f_eval(
            instance, names
        )


class TestChecker:
    def test_bundled_instances_pass(self, three_cover, greedy_gap):
        assert check_monotone_submodular(three_cover).ok
        assert check_monotone_submodular(greedy_gap).ok

    def test_counter_counts_full_table(self, three_cover):
        counter = OracleCounter()
        check_monotone_submodular(three_cover, counter)
        assert counter.count == 2**3

    def test_random_coverage_always_passes(self):
        for instance in random_instances(20260814, 25):
            assert check_monotone_submodular(instance).ok

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n <= 12"):
            check_monotone_submodular(single_item_instance(13))
        with pytest.raises(ValueError, match="n <= 12"):
            check_tabulated(13, lambda s: 0)

    def test_non_submodular_witness(self):
        # f(emptyset) = f({0}) = f({1}) = 0, f({0,1}) = 1: supermodular jump
        check = check_tabulated(2, lambda s: 1 if len(s) == 2 else 0)
        assert check.monotone_witness is None
        assert check.submodular_witness == (frozenset(), frozenset({0}), 1)
        assert not check.ok

    def test_non_monotone_witness(self):
        check = check_tabulated(2, lambda s: -len(s))
        assert check.monotone_witness == (frozenset(), frozenset({0}))
        assert check.submodular_witness is None
        assert not check.ok

    def test_modular_function_passes(self):
        assert check_tabulated(4, lambda s: sum(i + 1 for i in s)).ok

    def test_witness_values_actually_violate(self, three_cover):
        check = check_tabulated(3, lambda s: len(s) ** 2)
        s, t, x = check.submodular_witness
        f = lambda ss: len(ss) ** 2
        assert s <= t and x not in t
        assert f(s | {x}) - f(s) < f(t | {x}) - f(t)


def reference_scan(n, values):
    """The full quantifier forms over every S subset of T, in O(3^n n).

    Returns (monotone witness, submodular witness) as bitmasks:
    (S, T) with f(S) > f(T), and (S, T, x) with the marginal of x at S
    below its marginal at T.
    """
    mono = sub = None
    full = (1 << n) - 1
    for t in range(1 << n):
        s = t
        while True:
            s = (s - 1) & t
            if s == t:  # wrapped past 0
                break
            if mono is None and values[s] > values[t]:
                mono = (s, t)
            if sub is None:
                rest = full & ~t
                for x in range(n):
                    bx = 1 << x
                    if rest & bx and values[s | bx] - values[s] < values[t | bx] - values[t]:
                        sub = (s, t, x)
                        break
            if s == 0:
                break
    return mono, sub


def random_set_function(rng, n):
    """A table over the 2^n masks: either noise, or a coverage function
    (monotone submodular) with at most one entry nudged by +-1 or +-2."""
    if rng.random() < 0.2:
        return [rng.randint(-3, 3) for _ in range(1 << n)]
    weights = [rng.randint(0, 3) for _ in range(4)]
    covers = [rng.randrange(16) for _ in range(n)]
    values = []
    for mask in range(1 << n):
        union = 0
        for i in range(n):
            if mask >> i & 1:
                union |= covers[i]
        values.append(sum(w for j, w in enumerate(weights) if union >> j & 1))
    if rng.random() < 0.7:
        values[rng.randrange(1 << n)] += rng.choice((-2, -1, 1, 2))
    return values


class TestLocalScan:
    def test_agrees_with_full_form(self):
        import random

        rng = random.Random(44)
        seen = {"mono": 0, "sub": 0, "ok": 0}
        for _ in range(3000):
            n = rng.randint(0, 5)
            values = random_set_function(rng, n)
            check = _scan_table(n, values, lambda mask: mask)
            mono, sub = reference_scan(n, values)
            assert (check.monotone_witness is None) == (mono is None), values
            assert (check.submodular_witness is None) == (sub is None), values
            if check.monotone_witness is not None:
                s, t = check.monotone_witness
                assert s & t == s != t and values[s] > values[t]
                seen["mono"] += 1
            if check.submodular_witness is not None:
                s, t, x = check.submodular_witness
                bx = 1 << x
                assert s & t == s != t and not t & bx
                assert values[s | bx] - values[s] < values[t | bx] - values[t]
                seen["sub"] += 1
            seen["ok"] += check.ok
        # the generator reaches every outcome often
        assert min(seen.values()) >= 300, seen


class TestBruteForce:
    def test_three_cover(self, three_cover):
        counter = OracleCounter()
        best, value = brute_force_opt(three_cover, counter)
        assert best == frozenset({"e1", "e2"})
        assert value == 3
        # independent sets: empty, 3 singletons, 3 pairs
        assert counter.count == 7

    def test_eval_count_equals_independent_set_count(self):
        for instance in random_instances(7, 20):
            counter = OracleCounter()
            brute_force_opt(instance, counter)
            expected = sum(
                1
                for mask in range(1 << instance.n)
                if instance.matroid.is_independent(
                    {
                        instance.element_names[i]
                        for i in range(instance.n)
                        if mask >> i & 1
                    }
                )
            )
            assert counter.count == expected

    def test_enumerators_agree(self):
        for instance in random_instances(20260814 + 1, 40):
            assert brute_force_opt(instance) == brute_force_opt_by_mask(instance)

    def test_tie_break_is_lex_smallest(self):
        instance = CoverageInstance(
            (("a", frac(1)),),
            (("e1", frozenset({"a"})), ("e2", frozenset({"a"}))),
            UniformMatroid(1),
        )
        assert brute_force_opt(instance)[0] == frozenset({"e1"})
        assert brute_force_opt_by_mask(instance)[0] == frozenset({"e1"})

    def test_rank_zero(self, three_cover):
        instance = CoverageInstance(
            three_cover.universe, three_cover.ground, UniformMatroid(0)
        )
        counter = OracleCounter()
        assert brute_force_opt(instance, counter) == (frozenset(), 0)
        assert counter.count == 1

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n <= 20"):
            brute_force_opt(single_item_instance(21))

    def test_partition_respected(self, greedy_gap):
        best, value = brute_force_opt(greedy_gap)
        assert best == frozenset({"e2", "e3"})
        assert value == 19
        assert greedy_gap.matroid.is_independent(best)


class TestGreedy:
    def test_three_cover_trace(self, three_cover):
        counter = OracleCounter()
        picked, value = greedy(three_cover, counter)
        assert picked == frozenset({"e1", "e2"})
        assert value == 3
        # round 1 evaluates e1,e2,e3; round 2 evaluates e2,e3; rank reached
        assert counter.count == 5
        assert counter.count <= three_cover.n * three_cover.rank

    def test_gap_instance_stops_at_zero_gain(self, greedy_gap):
        counter = OracleCounter()
        picked, value = greedy(greedy_gap, counter)
        assert picked == frozenset({"e1"})
        assert value == 10
        assert counter.count == 4

    def test_empty_ground(self):
        instance = CoverageInstance((("a", frac(1)),), (), UniformMatroid(0))
        counter = OracleCounter()
        assert greedy(instance, counter) == (frozenset(), 0)
        assert counter.count == 0

    def test_never_beats_opt_and_respects_matroid(self):
        for instance in random_instances(424242, 40):
            counter = OracleCounter()
            picked, value = greedy(instance, counter)
            _, opt = brute_force_opt(instance)
            assert value <= opt
            assert instance.matroid.is_independent(picked)
            assert counter.count <= instance.n * instance.rank
            assert f_eval(instance, picked) == value


class TestRatioReport:
    def test_tenth_slack_target(self, three_cover):
        report = ratio_report(three_cover, plan("1e-1"))
        assert report.ell_star == 2
        assert report.rho_star == frac(5, 9)
        assert report.rho_certified
        assert report.f_opt == 3
        assert report.target_value == frac(5, 3)
        assert report.greedy_value == 3
        assert report.empirical_ratio == 1
        assert report.algorithm_output == LOCAL_SEARCH_NOTE

    def test_twentieth_slack_target(self, three_cover):
        report = ratio_report(three_cover, plan(frac(1, 20)))
        assert report.ell_star == 4
        assert report.rho_star == frac(369, 625)
        assert report.rho_star == rho(4)
        assert report.rho_certified

    def test_gap_instance_ratio_below_one(self, greedy_gap):
        report = ratio_report(greedy_gap, plan("1e-1"))
        assert report.f_opt == 19
        assert report.greedy_value == 10
        assert report.empirical_ratio == frac(10, 19)
        assert report.empirical_ratio < 1
        # greedy lands under the certified target here
        assert report.greedy_value < report.target_value

    def test_threshold_encloses_true_value(self, three_cover):
        report = ratio_report(three_cover, plan(frac(1, 10)))
        with mp.workdps(40):
            truth = mpf_to_fraction(+(1 - mp.exp(-1) - mp.mpf("0.1")))
        assert report.threshold.lo <= truth <= report.threshold.hi
        assert report.rho_star > report.threshold.hi

    def test_oracle_counts_recorded(self, three_cover):
        report = ratio_report(three_cover, plan("1e-1"), seed=77)
        assert report.oracle_calls_brute == 7
        assert report.oracle_calls_greedy == 5
        assert report.seed == 77

    def test_sorted_sets_follow_source_order(self, greedy_gap):
        report = ratio_report(greedy_gap, plan("1e-1"))
        assert report.opt_set == ("e2", "e3")
        assert report.greedy_set == ("e1",)

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n <= 20"):
            ratio_report(single_item_instance(21), plan("1e-1"))


class TestGenerateRandom:
    def test_deterministic_for_seed(self):
        import random

        a = [generate_random_instance(random.Random(3)) for _ in range(5)]
        b = [generate_random_instance(random.Random(3)) for _ in range(5)]
        assert a == b

    def test_respects_max_n(self):
        for instance in random_instances(13, 30, max_n=4):
            assert 1 <= instance.n <= 4

    def test_round_trips_through_text(self):
        for instance in random_instances(2024, 30):
            text = json.dumps(instance_to_jsonable(instance))
            assert parse_instance(text) == instance


class TestInstanceFormat:
    def test_bundled_files_load(self):
        for name in BUNDLED_INSTANCES:
            instance = bundled_instance(name)
            assert instance.n == 3

    def test_unknown_bundled_name(self):
        with pytest.raises(KeyError):
            bundled_instance("nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_instance(tmp_path / "absent.json")

    def test_decimal_weights_parse_exactly(self):
        instance = parse_instance(
            json.dumps(
                {
                    "universe": {"a": 0.1, "b": 2, "c": "0.25"},
                    "ground": {"e": ["a", "b", "c"]},
                    "matroid": {"type": "uniform", "rank": 1},
                }
            )
        )
        weights = dict(instance.universe)
        assert weights["a"] == frac(1, 10)
        assert weights["b"] == 2
        assert weights["c"] == frac(1, 4)

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d.pop("matroid"), "missing"),
            (lambda d: d.__setitem__("extra", 1), "unknown field"),
            (lambda d: d["universe"].__setitem__("a", -1), "universe.a"),
            (lambda d: d["universe"].__setitem__("a", True), "universe.a"),
            (lambda d: d["ground"].__setitem__("e1", ["a", "a"]), "ground.e1"),
            (lambda d: d["ground"].__setitem__("e1", "a"), "ground.e1"),
            (lambda d: d["matroid"].__setitem__("rank", -2), "matroid.rank"),
            (lambda d: d["matroid"].__setitem__("type", "graphic"), "matroid.type"),
            (lambda d: d["matroid"].__setitem__("extra", 0), "matroid"),
        ],
    )
    def test_field_level_errors(self, mutate, message):
        doc = {
            "universe": {"a": 1},
            "ground": {"e1": ["a"]},
            "matroid": {"type": "uniform", "rank": 1},
        }
        mutate(doc)
        with pytest.raises(InstanceFormatError, match=message):
            parse_instance(json.dumps(doc))

    def test_partition_field_errors(self):
        doc = {
            "universe": {"a": 1},
            "ground": {"e1": ["a"], "e2": []},
            "matroid": {
                "type": "partition",
                "blocks": [{"members": ["e1", "e2"], "capacity": -1}],
            },
        }
        with pytest.raises(InstanceFormatError, match=r"blocks\[0\].capacity"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize(
        "blocks,message",
        [
            ([{"members": [], "capacity": 1}], r"blocks\[0\].members: expected a non-empty"),
            (
                [{"members": ["e1"], "capacity": 1}, {"members": ["e2", "e1"], "capacity": 1}],
                r"blocks\[1\]: overlaps an earlier block on \['e1'\]",
            ),
        ],
        ids=["empty", "overlap"],
    )
    def test_partition_block_errors_name_the_block(self, blocks, message):
        doc = {
            "universe": {"a": 1},
            "ground": {"e1": ["a"], "e2": ["a"]},
            "matroid": {"type": "partition", "blocks": blocks},
        }
        with pytest.raises(InstanceFormatError, match=message):
            parse_instance(json.dumps(doc))

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="Python 3.10 has no digit cap"
    )
    def test_int_past_the_digit_cap(self):
        # json.loads raises a plain ValueError, not JSONDecodeError, for an
        # integer literal longer than Python's cap on int-from-str digits
        text = json.dumps(
            {"universe": {"a": 1}, "ground": {"e1": ["a"]},
             "matroid": {"type": "uniform", "rank": 0}}
        ).replace('"rank": 0', '"rank": ' + "1" * 5000)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(InstanceFormatError, match="not valid instance text"):
                parse_instance(text)
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("weight", ["1e-999999999", '"1e-999999999"'])
    def test_huge_exponent_refused_at_once(self, weight):
        # Fraction would build 10^999999999; a subprocess with a timeout
        # turns such a hang into a failure
        text = (
            '{"universe": {"a": %s}, "ground": {"e1": ["a"]}, '
            '"matroid": {"type": "uniform", "rank": 1}}' % weight
        )
        program = (
            "import sys\n"
            "from ellplan.testbed import InstanceFormatError, parse_instance\n"
            "try:\n"
            "    parse_instance(sys.stdin.read())\n"
            "except InstanceFormatError as exc:\n"
            "    print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(parse_instance.__code__.co_filename)))
        done = subprocess.run(
            [sys.executable, "-c", program], input=text, capture_output=True,
            text=True, env=dict(os.environ, PYTHONPATH=src), timeout=20,
        )
        assert done.stdout == "universe.a: weight's decimal exponent exceeds 4300\n"

    @pytest.mark.parametrize("spell", ["{}", '"{}"'])
    def test_exponent_limit_is_4300(self, spell):
        def doc(weight):
            return (
                '{"universe": {"a": %s}, "ground": {"e1": ["a"]}, '
                '"matroid": {"type": "uniform", "rank": 1}}' % spell.format(weight)
            )

        assert parse_instance(doc("1e-4300")).universe == (("a", Fraction(1, 10**4300)),)
        assert parse_instance(doc("1E-0004300")).universe[0][1] == Fraction(1, 10**4300)
        for weight in ("1e-4301", "1e4301", "1E+0004301"):
            with pytest.raises(InstanceFormatError, match="universe.a: weight's decimal"):
                parse_instance(doc(weight))

    def test_exponent_limit_reads_underscores(self):
        assert _as_weight("1e-00_4_300", "w") == Fraction(1, 10**4300)
        with pytest.raises(InstanceFormatError, match="w: weight's decimal"):
            _as_weight("1e-43_01", "w")

    def test_duplicate_keys_rejected(self):
        text = '{"universe": {"a": 1, "a": 2}, "ground": {}, "matroid": {"type": "uniform", "rank": 0}}'
        with pytest.raises(InstanceFormatError, match="duplicate key"):
            parse_instance(text)

    def test_semantic_errors_become_format_errors(self):
        doc = {
            "universe": {"a": 1},
            "ground": {"e1": ["a"]},
            "matroid": {"type": "uniform", "rank": 5},
        }
        with pytest.raises(InstanceFormatError, match="exceeds ground size"):
            parse_instance(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(InstanceFormatError, match="not valid"):
            parse_instance("not a document")

    def test_top_level_must_be_object(self):
        with pytest.raises(InstanceFormatError, match="top level"):
            parse_instance("[1, 2]")

    @pytest.mark.parametrize(
        "weight",
        ['"0.%s1"' % ("0" * 300_000), "0.%s1" % ("0" * 300_000), "1" * 300_001],
        ids=["string", "number", "integer"],
    )
    def test_long_weight_refused_at_once(self, weight, tmp_path):
        # every spelling builds a 300,001-digit rational; the CLI raises the
        # interpreter's int digit cap, so the integer reaches the weight check
        path = tmp_path / "long.json"
        path.write_text(
            '{"universe": {"a": %s}, "ground": {"e1": ["a"]}, '
            '"matroid": {"type": "uniform", "rank": 1}}' % weight
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(parse_instance.__code__.co_filename)))
        done = subprocess.run(
            [sys.executable, "-m", "ellplan.cli", "testbed", "--instance", str(path),
             "--eps", "1e-1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
            timeout=20,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "error: universe.a: weight has more than 8600 digits\n"

    @pytest.mark.parametrize("spell", ["{}", '"{}"'])
    def test_digit_limit_is_8600_written_out(self, spell):
        def weight(text):
            return parse_instance(
                '{"universe": {"a": %s}, "ground": {"e1": ["a"]}, '
                '"matroid": {"type": "uniform", "rank": 1}}' % spell.format(text)
            ).universe[0][1]

        assert weight("0." + "0" * 8599 + "1") == Fraction(1, 10**8600)
        assert weight("9" * 8599 + ".5") == 10**8599 - Fraction(1, 2)
        # a 4,300-digit mantissa at either end of the exponent range
        assert weight("1" * 4300 + "e4300") == int("1" * 4300) * 10**4300
        assert weight("0." + "1" * 4300 + "e-4300") == Fraction(int("1" * 4300), 10**8600)
        for text in ("0." + "0" * 8600 + "1", "1" * 8600 + ".5", "1" * 4301 + "e4300",
                     "0." + "1" * 4301 + "e-4300", "1." + "1" * 8600 + "e1"):
            with pytest.raises(InstanceFormatError, match="universe.a: weight has more than 8600"):
                weight(text)

    def test_digit_limit_skips_zeros_that_lead_the_integer_part(self):
        assert _as_weight("0" * 9000 + "7", "w") == 7
        assert _as_weight("-0_0" + "0" * 9000 + "1.5", "w") == Fraction(-3, 2)
        assert _as_weight("0" * 9000 + ".5e1", "w") == 5
        with pytest.raises(InstanceFormatError, match="w: weight has more"):
            _as_weight("0" * 9000 + "1" * 8601, "w")

    def test_digit_limit_for_a_json_integer(self):
        # the tests run under a raised int digit cap, as the CLI does
        text = (
            '{"universe": {"a": %s}, "ground": {"e1": ["a"]}, '
            '"matroid": {"type": "uniform", "rank": 1}}'
        )
        assert parse_instance(text % ("9" * 8600)).universe[0][1] == 10**8600 - 1
        with pytest.raises(InstanceFormatError, match="universe.a: weight has more"):
            parse_instance(text % ("9" * 8601))

    @pytest.mark.parametrize(
        "weight", ["1e-4300", "1e4300", "0.%se-4300" % ("1" * 4300), "9" * 8600],
        ids=["tiny", "huge", "long-tiny", "long"],
    )
    def test_weight_at_the_limits_round_trips(self, weight):
        instance = parse_instance(
            '{"universe": {"a": "%s"}, "ground": {"e1": ["a"]}, '
            '"matroid": {"type": "uniform", "rank": 1}}' % weight
        )
        assert parse_instance(json.dumps(instance_to_jsonable(instance))) == instance
