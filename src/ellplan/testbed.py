"""Desk-scale instances for the ratio targets: weighted coverage + matroids.

Coverage functions keep every value an exact rational and are monotone
submodular by construction, which makes them the right family for grounding
the certified ratio targets: brute force is exact, greedy is exact, and the
property checker never faces float noise.

The depth-ell local-search algorithm whose guarantee rho(ell) * f(OPT)
describes is deliberately not implemented (its potential function and nested
outputs are not specified to an implementable level); this module reports
the certified targets and classical baselines around that hole.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import AbstractSet, Callable, Optional, Union

from ellplan._codecs import INT, WEIGHT, list_of, mapping, names, object_of, read, tagged
from ellplan._value import Frozen
from ellplan.certified import Enclosure, enclose_e
from ellplan.planner import EllPlan, EpsSpec

BRUTE_FORCE_LIMIT = 20  # 2^n enumeration
CHECK_LIMIT = 12  # 2^n values, n^2 local checks each

LOCAL_SEARCH_NOTE = "depth-ell local search not implemented; targets and baselines only"


class InstanceFormatError(ValueError):
    """Instance text that fails parsing or validation, with a field path."""


class OracleCounter:
    """Counts value-oracle calls; one tick per evaluation, no implicit resets."""

    def __init__(self, count: int = 0) -> None:
        self.count = count

    def tick(self) -> None:
        self.count += 1


class UniformMatroid(Frozen):
    rank: int

    def __post_init__(self):
        if type(self.rank) is not int or self.rank < 0:
            raise ValueError(f"rank: expected a nonnegative integer, got {self.rank!r}")

    def is_independent(self, names: AbstractSet[str]) -> bool:
        return len(names) <= self.rank


class PartitionBlock(Frozen):
    members: frozenset[str]
    capacity: int

    def __post_init__(self):
        if not self.members:
            raise ValueError("members: expected a non-empty set")
        if type(self.capacity) is not int or self.capacity < 0:
            raise ValueError(f"capacity: expected a nonnegative integer, got {self.capacity!r}")


class PartitionMatroid(Frozen):
    blocks: tuple[PartitionBlock, ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("blocks: expected a non-empty list")
        seen: set[str] = set()
        for i, block in enumerate(self.blocks):
            if overlap := seen & block.members:
                raise ValueError(f"blocks[{i}]: overlaps an earlier block on {sorted(overlap)}")
            seen |= block.members

    @cached_property
    def _block_of(self) -> dict[str, int]:
        return {
            name: i for i, block in enumerate(self.blocks) for name in block.members
        }

    def is_independent(self, names: AbstractSet[str]) -> bool:
        counts = [0] * len(self.blocks)
        for name in names:
            idx = self._block_of.get(name)
            if idx is None:
                raise ValueError(f"element {name!r} not covered by any block")
            counts[idx] += 1
            if counts[idx] > self.blocks[idx].capacity:
                return False
        return True

    @property
    def covered_names(self) -> frozenset[str]:
        return frozenset(self._block_of)


Matroid = Union[UniformMatroid, PartitionMatroid]


class CoverageInstance(Frozen):
    """Weighted coverage with a matroid constraint; order follows the source.

    universe maps items to positive rational weights; each ground element
    covers a subset of items.  f(S) is the total weight covered by the union
    over S.
    """

    universe: tuple[tuple[str, Fraction], ...]
    ground: tuple[tuple[str, frozenset[str]], ...]
    matroid: Matroid

    def __post_init__(self):
        item_names = [name for name, _ in self.universe]
        if len(set(item_names)) != len(item_names):
            raise ValueError("duplicate universe item names")
        for name, weight in self.universe:
            if not isinstance(weight, Fraction) or weight <= 0:
                raise ValueError(f"universe.{name}: weight must be a positive rational")
        element_names = [name for name, _ in self.ground]
        if len(set(element_names)) != len(element_names):
            raise ValueError("duplicate ground element names")
        items = set(item_names)
        for name, members in self.ground:
            if stray := members - items:
                raise ValueError(f"ground.{name}: unknown items {sorted(stray)}")
        if isinstance(self.matroid, UniformMatroid):
            if self.matroid.rank > self.n:
                raise ValueError(
                    f"matroid.rank: {self.matroid.rank} exceeds ground size {self.n}"
                )
        else:
            covered = self.matroid.covered_names
            ground_set = set(element_names)
            if missing := ground_set - covered:
                raise ValueError(f"matroid.blocks: elements {sorted(missing)} uncovered")
            if stray := covered - ground_set:
                raise ValueError(f"matroid.blocks: unknown elements {sorted(stray)}")

    @property
    def n(self) -> int:
        return len(self.ground)

    @property
    def element_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ground)

    @property
    def rank(self) -> int:
        if isinstance(self.matroid, UniformMatroid):
            return min(self.matroid.rank, self.n)
        return sum(
            min(b.capacity, len(b.members)) for b in self.matroid.blocks
        )


# ---------------------------------------------------------------------------
# fast exact internals: weights scaled to integers, subsets as bitmasks


class _Masks(Frozen):
    """An instance as bitmasks over elements and items, weights as integers.

    chunk_sums holds, per run of 8 universe items, the scaled weight of each
    mask over that run, so the tables grow linearly with the universe.
    blocks holds each element's (block mask, capacity); a uniform matroid of
    rank r is one block of all elements with capacity r.
    """

    item_masks: tuple[int, ...]  # per ground element, mask over universe items
    chunk_sums: tuple[tuple[int, ...], ...]
    denominator: int
    blocks: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, instance: CoverageInstance) -> _Masks:
        weights = [w for _, w in instance.universe]
        denom = lcm(*(w.denominator for w in weights)) if weights else 1
        scaled = [int(w * denom) for w in weights]
        chunk_sums = []
        for start in range(0, len(scaled), 8):
            sums = [0]
            for w in scaled[start : start + 8]:
                sums += [s + w for s in sums]
            chunk_sums.append(tuple(sums))
        item_bit = {name: 1 << i for i, (name, _) in enumerate(instance.universe)}
        item_masks = tuple(
            sum(item_bit[item] for item in members) for _, members in instance.ground
        )

        m, names = instance.matroid, instance.element_names
        parts = (
            [(names, m.rank)]
            if isinstance(m, UniformMatroid)
            else [(b.members, b.capacity) for b in m.blocks]
        )
        bit = {name: 1 << i for i, name in enumerate(names)}
        block_of = {}
        for members, cap in parts:
            block_of.update(dict.fromkeys(members, (sum(map(bit.get, members)), cap)))
        blocks = tuple(block_of[name] for name in names)
        return cls(item_masks, tuple(chunk_sums), denom, blocks)

    def value(self, mask: int) -> int:
        cover = 0
        while mask:
            cover |= self.item_masks[(mask & -mask).bit_length() - 1]
            mask &= mask - 1
        total = 0
        for sums in self.chunk_sums:
            total += sums[cover & 0xFF]
            cover >>= 8
        return total

    def can_add(self, mask: int, i: int) -> bool:
        """Whether the independent mask stays independent with element i."""
        block, cap = self.blocks[i]
        return (mask & block).bit_count() < cap


def _names_of(instance: CoverageInstance, mask: int) -> frozenset[str]:
    names = instance.element_names
    return frozenset(names[i] for i in range(len(names)) if mask >> i & 1)


# ---------------------------------------------------------------------------
# property checking


class PropertyCheck(Frozen):
    """Outcome of the exhaustive monotone/submodular scan.

    monotone_witness: (S, T) with S subset of T and f(S) > f(T).
    submodular_witness: (S, T, x) with S subset of T, x outside T, and the
    marginal of x at S strictly below the marginal at T.

    The scan checks the local forms (see _scan_table), so a witness has T
    one element larger than S.
    """

    monotone_witness: Optional[tuple] = None
    submodular_witness: Optional[tuple] = None

    @property
    def ok(self) -> bool:
        return self.monotone_witness is None and self.submodular_witness is None


def _scan_table(n: int, values, label: Callable[[int], object]) -> PropertyCheck:
    """Exhaustive monotone/submodular check of a bitmask-indexed table.

    Both properties are checked in their local forms, which are equivalent
    to the full quantifier forms over every S subset of T:

    - monotone iff f(S) <= f(S + y) for every S and y outside S, since a
      chain of single additions joins S to any superset;
    - submodular iff f(S + x) - f(S) >= f(S + y + x) - f(S + y) for every S
      and distinct x, y outside S (A. Schrijver, Combinatorial
      Optimization, Springer 2003, Thm 44.1).

    That is O(2^n n^2) lookups instead of O(3^n n).  The exchange inequality
    is symmetric in x and y, so only y < x is tried; the witnesses are
    (S, S + y) and (S, S + y, x), the first in increasing S, then y, then x.
    """
    mono = None
    sub = None
    bits = [1 << i for i in range(n)]
    for s in range(1 << n):
        fs = values[s]
        outside = [b for b in bits if not s & b]
        if mono is None:
            for by in outside:
                if values[s | by] < fs:
                    mono = (label(s), label(s | by))
                    break
        if sub is None:
            for j, by in enumerate(outside):
                t = s | by
                gain_y = values[t] - fs
                # x's marginal at T above its marginal at S, rearranged
                for bx in outside[j + 1 :]:
                    if values[t | bx] - values[s | bx] > gain_y:
                        sub = (label(s), label(t), bx.bit_length() - 1)
                        break
                if sub is not None:
                    break
        if mono is not None and sub is not None:
            break
    return PropertyCheck(mono, sub)


def check_monotone_submodular(
    instance: CoverageInstance, counter: Optional[OracleCounter] = None
) -> PropertyCheck:
    """Exhaustive scan of the instance's coverage function (n <= 12).

    Evaluates f on all 2^n subsets (ticking the counter per evaluation),
    then checks the local forms of monotonicity and submodularity at every
    subset (Schrijver, Thm 44.1; see _scan_table), which imply the forms
    over every S subset of T pair.  Witness sets hold element names; the x
    in a submodularity witness is an element name.
    """
    n = instance.n
    if n > CHECK_LIMIT:
        raise ValueError(f"exhaustive check limited to n <= {CHECK_LIMIT}, got {n}")
    masks = _Masks.of(instance)
    values = []
    for mask in range(1 << n):
        if counter is not None:
            counter.tick()
        values.append(masks.value(mask))

    check = _scan_table(n, values, lambda mask: _names_of(instance, mask))
    if check.submodular_witness is not None:
        s, t, x = check.submodular_witness
        return PropertyCheck(
            check.monotone_witness, (s, t, instance.element_names[x])
        )
    return check


# ---------------------------------------------------------------------------
# optimization baselines


def _require_brute_size(instance: CoverageInstance) -> None:
    if instance.n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force limited to n <= {BRUTE_FORCE_LIMIT}, got {instance.n}"
        )


def brute_force_opt(
    instance: CoverageInstance, counter: Optional[OracleCounter] = None
) -> tuple[frozenset[str], Fraction]:
    """Exact optimum over all independent sets, by depth-first extension.

    Evaluates f exactly once per independent set (the empty set included).
    Ties go to the lexicographically smallest index sequence, which is the
    first maximum this visit order encounters.
    """
    _require_brute_size(instance)
    n = instance.n
    masks = _Masks.of(instance)

    best_mask = 0
    best_value = masks.value(0)
    if counter is not None:
        counter.tick()

    def extend(mask: int, start: int) -> None:
        nonlocal best_mask, best_value
        for i in range(start, n):
            if not masks.can_add(mask, i):
                continue
            new_mask = mask | (1 << i)
            if counter is not None:
                counter.tick()
            new_value = masks.value(new_mask)
            if new_value > best_value:
                best_value, best_mask = new_value, new_mask
            extend(new_mask, i + 1)

    extend(0, 0)
    return _names_of(instance, best_mask), Fraction(best_value, masks.denominator)


def greedy(
    instance: CoverageInstance, counter: Optional[OracleCounter] = None
) -> tuple[frozenset[str], Fraction]:
    """Classic matroid greedy: best positive marginal gain, ties by index.

    f(empty) = 0 is known for coverage without an oracle call; each round
    evaluates each feasible candidate once, so the call count stays within
    n * rank.
    """
    masks = _Masks.of(instance)

    mask = 0
    value = 0
    while True:
        best_gain = 0
        best_index = None
        for i in range(instance.n):
            bit = 1 << i
            if mask & bit or not masks.can_add(mask, i):
                continue
            if counter is not None:
                counter.tick()
            gain = masks.value(mask | bit) - value
            if gain > best_gain:
                best_gain, best_index = gain, i
        if best_index is None:
            break
        mask |= 1 << best_index
        value += best_gain
    return _names_of(instance, mask), Fraction(value, masks.denominator)


# ---------------------------------------------------------------------------
# ratio targets


class RatioReport(Frozen):
    """Certified target versus exact baselines for one instance and slack.

    rho_certified is always true in schema 2: the plan the report reads
    certified rho(ell_star) >= 1 - 1/e - eps before any instance ran.
    """

    eps: EpsSpec
    ell_star: int
    rho_star: Fraction
    rho_certified: bool
    threshold: Enclosure  # 1 - 1/e - eps
    f_opt: Fraction
    opt_set: tuple[str, ...]
    target_value: Fraction
    greedy_value: Fraction
    greedy_set: tuple[str, ...]
    empirical_ratio: Fraction
    oracle_calls_brute: int
    oracle_calls_greedy: int
    algorithm_output: str = LOCAL_SEARCH_NOTE
    seed: Optional[int] = None


def ratio_report(
    instance: CoverageInstance, plan: EllPlan, seed: Optional[int] = None
) -> RatioReport:
    """Brute force and greedy against the plan's certified rho(ell_star) target."""
    brute_counter = OracleCounter()
    greedy_counter = OracleCounter()
    opt_set, f_opt = brute_force_opt(instance, brute_counter)
    greedy_set, greedy_value = greedy(instance, greedy_counter)

    value = plan.eps.eps
    e_enc = enclose_e(64)
    threshold = Enclosure(1 - value - 1 / e_enc.lo, 1 - value - 1 / e_enc.hi)

    names = instance.element_names
    return RatioReport(
        eps=plan.eps,
        ell_star=plan.ell_star,
        rho_star=plan.rho_star,
        # the plan's walk certified phi(ell_star) < 1/e + eps
        rho_certified=True,
        threshold=threshold,
        f_opt=f_opt,
        opt_set=tuple(sorted(opt_set, key=names.index)),
        target_value=plan.rho_star * f_opt,
        greedy_value=greedy_value,
        greedy_set=tuple(sorted(greedy_set, key=names.index)),
        empirical_ratio=greedy_value / f_opt if f_opt else Fraction(1),
        oracle_calls_brute=brute_counter.count,
        oracle_calls_greedy=greedy_counter.count,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# instance generation and the file format


def generate_random_instance(
    rng: random.Random, max_n: int = 10, max_items: int = 8
) -> CoverageInstance:
    """Seeded random coverage instance with a uniform or partition matroid.

    Weights use denominators from {1, 2, 4, 5, 10} so every instance
    serializes to exact decimals.
    """
    n = rng.randint(1, max_n)
    u = rng.randint(1, max_items)
    universe = tuple(
        (f"i{j}", Fraction(rng.randint(1, 100), rng.choice((1, 2, 4, 5, 10))))
        for j in range(u)
    )
    ground = tuple(
        (
            f"e{k}",
            frozenset(f"i{j}" for j in range(u) if rng.random() < 0.5),
        )
        for k in range(n)
    )
    if rng.random() < 0.5:
        matroid: Matroid = UniformMatroid(rng.randint(0, n))
    else:
        names = [name for name, _ in ground]
        rng.shuffle(names)
        block_count = rng.randint(1, min(3, n))
        cuts = sorted(rng.sample(range(1, n), block_count - 1)) if block_count > 1 else []
        bounds = [0, *cuts, n]
        blocks = []
        for a, b in zip(bounds, bounds[1:]):
            members = frozenset(names[a:b])
            blocks.append(PartitionBlock(members, rng.randint(0, b - a)))
        matroid = PartitionMatroid(tuple(blocks))
    return CoverageInstance(universe, ground, matroid)


# the file format: the instance's fields, each with its codec; a value a
# class refuses is refused at its field's path
_NAME_SET = names(frozenset)
_MATROID = tagged("type", {
    "uniform": (UniformMatroid, {"rank": INT}),
    "partition": (PartitionMatroid, {
        "blocks": list_of(object_of({"members": _NAME_SET, "capacity": INT}, PartitionBlock)),
    }),
})
_INSTANCE = object_of(
    {"universe": mapping(WEIGHT), "ground": mapping(_NAME_SET), "matroid": _MATROID},
    CoverageInstance,
)


def parse_instance(text: str) -> CoverageInstance:
    """Parse the structured instance format; weights become exact rationals.
    Unknown or missing fields, like every other error, name their path."""
    return read(text, _INSTANCE[1], InstanceFormatError, "not valid instance text")


# an instance file's bytes, for about 8 s of parsing at the costliest weight
# spelling (a digit with an exponent near 4,300, such as 7e-4299: 4 s a MB)
INSTANCE_BYTES = 2_000_000


def load_instance(path) -> CoverageInstance:
    with open(path, "rb") as fh:
        data = fh.read(INSTANCE_BYTES + 1)
    if len(data) > INSTANCE_BYTES:
        raise InstanceFormatError(f"{path}: instance file is larger than {INSTANCE_BYTES} bytes")
    return parse_instance(data.decode("utf-8"))


BUNDLED_INSTANCES = ("three_cover", "greedy_gap")


def bundled_instance(name: str) -> CoverageInstance:
    """Load one of the instances shipped with the package.

    three_cover: three covering elements under a rank-2 uniform matroid;
    greedy is optimal (value 3).  greedy_gap: a partition instance where
    greedy's first pick blocks the better block choice (greedy 10, OPT 19).
    """
    if name not in BUNDLED_INSTANCES:
        raise KeyError(f"no bundled instance {name!r}; have {BUNDLED_INSTANCES}")
    data = os.path.join(os.path.dirname(os.path.realpath(__file__)), "data")
    return load_instance(os.path.join(data, f"{name}.json"))


def instance_to_jsonable(instance: CoverageInstance) -> dict:
    """Inverse of parse_instance, for round-trips and report attachments."""
    return _INSTANCE[0](instance)
