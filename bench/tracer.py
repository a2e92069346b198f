"""Layer spans and counters, recorded from outside the ellplan package.

``install()`` replaces each traced public function with a timing wrapper in
every ``ellplan`` module namespace that holds it, so calls made through any
import path are seen (``planner`` calls ``bounds.phi`` through its own
``phi`` name, for example).  Spans nest on one stack: a span's self time is
its duration minus the durations of the spans it directly encloses.  Nothing
is written while the program runs; ``Tracer.snapshot()`` returns the
aggregate as plain data at the end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_CACHED = ("enclose_e", "enclose_exp", "enclose_log1p")


def _fraction_bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _observe_enclose_exp(tracer, args, kwargs, result, outermost):
    bits = max(result.lo.denominator.bit_length(), result.hi.denominator.bit_length())
    tracer.bump_max("certified.enclose_exp.den_bits_max", bits)


def _observe_cmp(tracer, args, kwargs, result, outermost):
    tracer.bump_max("certified.cmp_certified.bits_max", result.bits_used)
    for side in args[:2]:
        exact = side.exact() if hasattr(side, "exact") else side
        if exact is not None:
            tracer.bump_max("certified.cmp_certified.operand_bits_max", _fraction_bits(exact))
    if result.verdict.name == "UNRESOLVED":
        tracer.count("certified.cmp_certified.unresolved")
    if tracer.active["planner.plan"]:
        tracer.count("planner.cmp_under_plan")


def _observe_phi(tracer, args, kwargs, result, outermost):
    tracer.bump_max("bounds.phi.bits_max", _fraction_bits(result))
    if tracer.active["planner.plan"]:
        tracer.count("planner.phi_under_plan")


def _observe_sweep(tracer, args, kwargs, result, outermost):
    if not outermost:
        return
    reports = result.values() if isinstance(result, dict) else (result,)
    tracer.count("bounds.sweep.checks", sum(len(r.entries) for r in reports))


def _observe_render(tracer, args, kwargs, result, outermost):
    if outermost:
        tracer.count("records.rendered")
        tracer.count("records.bytes", len(result))


def _observe_ratio_report(tracer, args, kwargs, result, outermost):
    tracer.count(
        "testbed.oracle_calls", result.oracle_calls_brute + result.oracle_calls_greedy
    )


# (defining module, function, span name, observer)
TRACED = (
    ("ellplan.certified", "enclose_e", "certified.enclose_e", None),
    ("ellplan.certified", "enclose_exp", "certified.enclose_exp", _observe_enclose_exp),
    ("ellplan.certified", "enclose_log1p", "certified.enclose_log1p", None),
    ("ellplan.certified", "cmp_certified", "certified.cmp_certified", _observe_cmp),
    ("ellplan.bounds", "phi", "bounds.phi", _observe_phi),
    ("ellplan.bounds", "verify_bounds", "bounds.sweep", _observe_sweep),
    ("ellplan.bounds", "verify_bound", "bounds.sweep", _observe_sweep),
    ("ellplan.bounds", "verify_bound_ordering", "bounds.sweep", _observe_sweep),
    ("ellplan.bounds", "phi_floor_sweep", "bounds.sweep", _observe_sweep),
    ("ellplan.bounds", "check_log_weak", "bounds.log_check", None),
    ("ellplan.bounds", "check_log_pade", "bounds.log_check", None),
    ("ellplan.bounds", "check_log_tail4", "bounds.log_check", None),
    ("ellplan.planner", "plan", "planner.plan", None),
    ("ellplan.planner", "certificate_sharp", "planner.certificate_sharp", None),
    ("ellplan.records", "render_record", "records.render", _observe_render),
    ("ellplan.records", "render_line", "records.render", _observe_render),
    ("ellplan.records", "parse_record", "records.parse", None),
    ("ellplan.records", "parse_records", "records.parse", None),
    ("ellplan.costs", "reproduce_table", "costs.reproduce_table", None),
    ("ellplan.costs", "savings_factor", "costs.savings_factor", None),
    ("ellplan.testbed", "ratio_report", "testbed.ratio_report", _observe_ratio_report),
    (
        "ellplan.testbed",
        "check_monotone_submodular",
        "testbed.check_monotone_submodular",
        None,
    ),
    ("ellplan.cli", "main", "cli.main", None),
)


class Tracer:
    """Aggregated spans: calls, self and inclusive seconds per span name."""

    def __init__(self) -> None:
        self._stack: list[list[float]] = []  # child seconds of each open span
        self.active: defaultdict[str, int] = defaultdict(int)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.outer_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.maxes: defaultdict[str, int] = defaultdict(int)
        self.top_level_s = 0.0  # time covered by spans with no parent
        self._caches: dict[str, object] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def bump_max(self, key: str, value: int) -> None:
        if value > self.maxes[key]:
            self.maxes[key] = value

    def wrap(self, name: str, fn, observe):
        stack, active = self._stack, self.active
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_level_s += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[0]
                self.total_s[name] += elapsed
                if not active[name]:
                    self.outer_s[name] += elapsed
            if observe is not None:
                observe(self, args, kwargs, result, not active[name])
            return result

        traced.__wrapped__ = fn
        return traced

    def watch_caches(self, module) -> None:
        for fname in _CACHED:
            fn = getattr(module, fname, None)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                self._caches[fname] = fn
                self._cache_start[fname] = (info.hits, info.misses)

    def cache_totals(self) -> tuple[int, int]:
        hits = lookups = 0
        for fname, fn in self._caches.items():
            info = fn.cache_info()
            h0, m0 = self._cache_start[fname]
            hits += info.hits - h0
            lookups += info.hits - h0 + info.misses - m0
        return hits, lookups

    def snapshot(self) -> dict:
        hits, lookups = self.cache_totals()
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "outer_s": dict(self.outer_s),
            "counts": dict(self.counts),
            "maxes": dict(self.maxes),
            "top_level_s": self.top_level_s,
            "cache_hits": hits,
            "cache_lookups": lookups,
        }


def install() -> Tracer:
    """Import ellplan and wrap every traced function wherever it is bound."""
    import ellplan.cli  # noqa: F401  (imports every ellplan module)

    tracer = Tracer()
    tracer.watch_caches(sys.modules["ellplan.certified"])
    namespaces = [
        mod for key, mod in list(sys.modules.items())
        if key == "ellplan" or key.startswith("ellplan.")
    ]
    for module_name, fname, span, observe in TRACED:
        original = getattr(sys.modules[module_name], fname, None)
        if original is None:
            continue  # a later version may drop the function
        wrapper = tracer.wrap(span, original, observe)
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    return tracer


def merge(snapshots: list[dict]) -> dict:
    """Sum several snapshots (one per process); maxima take the maximum."""
    out: dict = {
        "calls": defaultdict(int), "self_s": defaultdict(float),
        "total_s": defaultdict(float), "outer_s": defaultdict(float),
        "counts": defaultdict(int), "maxes": defaultdict(int),
        "top_level_s": 0.0, "cache_hits": 0, "cache_lookups": 0,
    }
    for snap in snapshots:
        for key in ("calls", "self_s", "total_s", "outer_s", "counts"):
            for name, value in snap[key].items():
                out[key][name] += value
        for name, value in snap["maxes"].items():
            out["maxes"][name] = max(out["maxes"][name], value)
        for key in ("top_level_s", "cache_hits", "cache_lookups"):
            out[key] += snap[key]
    return {k: dict(v) if isinstance(v, defaultdict) else v for k, v in out.items()}
