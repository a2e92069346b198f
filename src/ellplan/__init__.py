"""Certified planning of the local-search depth for submodular maximization.

The package answers one question exactly: how deep must the depth parameter
ell be so that the ratio target 1 - (1+1/ell)^(-ell) clears 1 - 1/e - eps?
Everything it claims is backed by exact rational arithmetic or by interval
enclosures with explicit series tail bounds.

Importing the package runs no submodule.  Each submodule below is put in
``sys.modules`` (and bound here) as a lazy module: its code compiles and runs
at the first attribute access, so a command pays only for the modules it
uses.  ``import ellplan.bounds`` or ``from ellplan.bounds import phi`` loads
it at once, as an eager import would.  The exported names resolve through
``__getattr__`` on first use.

A first use is safe from any number of threads: one runs the module's code
while the others wait for it.  If the code raises, the module goes back to
its registered state and the next use runs it again, as a failed import is
retried.
"""

import importlib.util
import sys
import threading
import types

# defining submodule -> the names it exports as ``ellplan.<name>``
_EXPORTS = {
    "bounds": ("BoundKind", "phi", "rho", "verify_bound_ordering", "verify_bounds"),
    "certified": (
        "Comparison",
        "Enclosure",
        "PrecisionExhausted",
        "RefinementPolicy",
        "Verdict",
        "cmp_certified",
        "enclose_e",
        "enclose_exp",
        "enclose_log1p",
    ),
    "costs": (
        "BigMagnitude",
        "TableRow",
        "check_against_expected",
        "reproduce_table",
        "savings_factor",
    ),
    "planner": (
        "EllPlan",
        "EpsSpec",
        "certificate_sharp",
        "ell_bf",
        "ell_ps",
        "ell_star",
        "plan",
    ),
    "testbed": (
        "CoverageInstance",
        "OracleCounter",
        "brute_force_opt",
        "bundled_instance",
        "check_monotone_submodular",
        "generate_random_instance",
        "greedy",
        "load_instance",
        "ratio_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


# Held while a submodule's code runs.  The standard library's LazyLoader is
# not used: before Python 3.12 it takes no lock and makes the module plain
# before running its code, so a second thread can read a half-run module.
_LOAD_LOCK = threading.RLock()
_LOADING = set()  # submodules whose code the lock's holder is running


class _LazyModule(types.ModuleType):
    """A registered submodule whose code has not run yet.

    The first attribute access, assignment or deletion runs the code and
    turns this object into a plain module in place, so every reference to
    it sees the loaded module.
    """

    def __getattribute__(self, attr):
        _load(self)
        return types.ModuleType.__getattribute__(self, attr)

    def __setattr__(self, attr, value):
        _load(self)
        types.ModuleType.__setattr__(self, attr, value)

    def __delattr__(self, attr):
        _load(self)
        types.ModuleType.__delattr__(self, attr)


def _load(module: _LazyModule) -> None:
    get = types.ModuleType.__getattribute__
    with _LOAD_LOCK:
        name = get(module, "__name__")
        # loaded while this thread waited, or read by its own running code
        if type(module) is not _LazyModule or name in _LOADING:
            return
        namespace = get(module, "__dict__")
        registered = dict(namespace)
        _LOADING.add(name)
        try:
            get(module, "__spec__").loader.exec_module(module)
        except BaseException:
            namespace.clear()
            namespace.update(registered)
            raise
        finally:
            _LOADING.discard(name)
        types.ModuleType.__setattr__(module, "__class__", types.ModuleType)


def _register_lazily(name: str) -> types.ModuleType:
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


# cli is left out: ``python -m ellplan.cli`` must find it not yet imported
for _name in ("certified", "bounds", "planner", "records", "costs", "testbed"):
    globals()[_name] = _register_lazily(_name)
del _name


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)
