"""Frozen value classes behave as the frozen dataclasses they replace.

Each value class in the package is checked against a twin built with
``dataclasses.make_dataclass(..., frozen=True)`` from the same fields,
defaults, qualified name and ``__post_init__``.
"""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import ellplan
from ellplan._codecs import _JsonNumber
from ellplan._value import Frozen
from ellplan.bounds import (
    BoundKind,
    check_expansion_agreement,
    check_log_weak,
    verify_bounds,
)
from ellplan.certified import (
    Enclosure,
    RefinementPolicy,
    cmp_certified,
    enclose_e,
    exp_of,
)
from ellplan.costs import (
    EXPECTED_TABLE,
    CellMismatch,
    TableCheck,
    TableRow,
    savings_factor,
)
from ellplan.planner import depth_comparison, plan
from ellplan.records import (
    Certification,
    Depth,
    ExpansionPoint,
    InstanceCheck,
    LogCheckSummary,
    Note,
    SweepSummary,
)
from ellplan.testbed import (
    OracleCounter,
    PartitionMatroid,
    _Masks,
    bundled_instance,
    check_monotone_submodular,
    ratio_report,
)


def _examples() -> list:
    """One instance of every value class, from real calls where cheap."""
    depth_plan = plan("1e-2")
    factor = savings_factor(depth_plan.ell_bf, depth_plan.ell_star)
    first = BoundKind.SHARP.min_ell
    sweep = verify_bounds([BoundKind.SHARP], first, first + 1)[BoundKind.SHARP]
    expansion = check_expansion_agreement([10])
    greedy_gap = bundled_instance("greedy_gap")
    uniform = bundled_instance("three_cover")
    check = check_monotone_submodular(greedy_gap)
    mismatch = CellMismatch("1e-2", "ell_star", "18", "19")
    return [
        enclose_e(64),
        cmp_certified(Fraction(1, 3), exp_of(-1)),
        RefinementPolicy(256),
        sweep,
        sweep.entries[0],
        check_log_weak(Fraction(1, 2)),
        expansion,
        expansion.entries[0],
        depth_plan,
        depth_plan.eps,
        factor,
        TableRow(depth_plan.eps, depth_plan.ell_bf, depth_plan.ell_ps, depth_plan.ell_star,
                 factor, factor),
        EXPECTED_TABLE[2],
        mismatch,
        TableCheck(False, (mismatch,)),
        uniform.matroid,
        greedy_gap.matroid.blocks[0],
        greedy_gap.matroid,
        greedy_gap,
        _Masks.of(greedy_gap),
        _JsonNumber("1.5"),
        check,
        ratio_report(greedy_gap, plan("1e-1"), seed=11),
        InstanceCheck.from_check("greedy_gap", check),
        Depth(depth_plan.eps, "star", depth_plan.ell_star),
        SweepSummary.from_report(sweep),
        Note("at ell = 1 the chain genuinely breaks"),
        LogCheckSummary.from_points("log_weak", 3, [], [Fraction(1, 2)]),
        ExpansionPoint.from_entry(expansion.entries[0], expansion.envelope),
        Certification.from_comparison(
            18, depth_plan.eps, True, depth_comparison(18, depth_plan.eps)
        ),
    ]


EXAMPLES = _examples()


def _value_classes() -> set:
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("ellplan."):
                found.add(sub)
            todo.append(sub)
    return found


def _twin(cls):
    """A frozen dataclass from cls's annotations, class-attribute defaults,
    qualified name and __post_init__."""
    spec = [
        (f, object, dataclasses.field(default=cls.__dict__[f]))
        if f in cls.__dict__
        else (f, object)
        for f in cls.__annotations__
    ]
    namespace = {"__qualname__": cls.__qualname__}
    if "__post_init__" in cls.__dict__:
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=namespace)


def _case(obj):
    """obj's class, its twin, the field names, obj's field values and the defaults."""
    cls, twin = type(obj), _twin(type(obj))
    fields = dataclasses.fields(twin)
    names = tuple(f.name for f in fields)
    defaults = tuple(f.default for f in fields if f.default is not dataclasses.MISSING)
    return cls, twin, names, tuple(getattr(obj, n) for n in names), defaults


def _error(call):
    try:
        call()
    except Exception as exc:  # the type is what is compared
        return exc
    return None


def test_examples_cover_every_value_class():
    assert {type(obj) for obj in EXAMPLES} == _value_classes()
    assert len(EXAMPLES) == len(_value_classes())


@pytest.mark.parametrize("obj", EXAMPLES, ids=lambda obj: type(obj).__qualname__)
class TestAgainstDataclass:
    def test_repr_eq_hash(self, obj):
        cls, twin, _, args, _ = _case(obj)
        ref = twin(*args)
        assert repr(obj) == repr(cls(*args)) == repr(ref)
        assert cls(*args) == obj and not (cls(*args) != obj)
        assert hash(cls(*args)) == hash(obj) == hash(ref)
        assert obj.__eq__(ref) is NotImplemented
        assert ref.__eq__(obj) is NotImplemented
        assert obj != ref

    def test_keyword_and_mixed_calls(self, obj):
        cls, twin, names, args, _ = _case(obj)
        keywords = dict(zip(names, args))
        assert cls(**keywords) == obj
        assert repr(cls(**keywords)) == repr(twin(**keywords))
        rest = dict(list(keywords.items())[1:])
        assert cls(args[0], **rest) == obj

    def test_defaults(self, obj):
        cls, twin, names, args, defaults = _case(obj)
        short = args[: len(names) - len(defaults)]
        assert repr(cls(*short)) == repr(twin(*short))
        assert cls(*short) == cls(*short, *defaults)

    def test_bad_arguments_raise_type_error(self, obj):
        cls, twin, names, args, defaults = _case(obj)
        keywords = dict(zip(names, args))
        bad_calls = [
            lambda c: c(*args, None),
            lambda c: c(**keywords, not_a_field=None),
            lambda c: c(args[0], **keywords),
        ]
        if len(defaults) < len(names):
            bad_calls.append(lambda c: c())
        for call in bad_calls:
            ours, theirs = _error(lambda: call(cls)), _error(lambda: call(twin))
            assert type(ours) is type(theirs) is TypeError

    def test_assignment_and_deletion_raise_attribute_error(self, obj):
        _, twin, names, args, _ = _case(obj)
        ref = twin(*args)
        for target in (obj, ref):
            for call in (
                lambda: setattr(target, names[0], None),
                lambda: setattr(target, "not_a_field", None),
                lambda: delattr(target, names[0]),
            ):
                assert isinstance(_error(call), AttributeError)
        assert repr(obj) == repr(ref)


def test_post_init_rejections_after_any_binding():
    for call in (
        lambda: Enclosure(2, 1),
        lambda: Enclosure(lo=2, hi=1),
        lambda: RefinementPolicy(7),
        lambda: RefinementPolicy(cap_bits=0),
    ):
        assert isinstance(_error(call), ValueError)


def test_post_init_may_rewrite_fields():
    enc = Enclosure(lo=1, hi=2)
    assert type(enc.lo) is Fraction and type(enc.hi) is Fraction
    assert repr(enc) == "Enclosure(lo=Fraction(1, 1), hi=Fraction(2, 1))"


def test_cached_property_on_a_value_class():
    matroid = bundled_instance("greedy_gap").matroid
    assert isinstance(matroid, PartitionMatroid)
    assert matroid._block_of is matroid._block_of


def test_keyword_defaults_and_repr_of_a_local_class():
    class Point(Frozen):
        x: int
        y: int = 0
        z: int = 0

    assert Point(1) == Point(1, 0, 0) == Point(x=1, z=0)
    assert repr(Point(1, z=2)).endswith("<locals>.Point(x=1, y=0, z=2)")
    assert Point(1, 2) != Point(2, 1)


def test_equality_needs_the_same_class():
    class Point(Frozen):
        x: int

    class Other(Frozen):
        x: int

    assert Point(1).__eq__(Other(1)) is NotImplemented
    assert Point(1) != Other(1)
    assert hash(Point(1)) == hash(Other(1)) == hash((1,))


def test_oracle_counter_is_a_plain_counter():
    counter = OracleCounter()
    counter.tick()
    counter.tick()
    assert counter.count == 2
    assert OracleCounter(5).count == 5


def test_cli_import_loads_no_code_generation_modules():
    """A fresh interpreter without site hooks imports the CLI without
    dataclasses, inspect or pathlib."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ellplan.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, ellplan.cli; "
        "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
