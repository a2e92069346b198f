"""Each ellplan submodule runs only when something first uses it.

The package registers its submodules as lazy modules (see the ``ellplan``
docstring).  These tests check what that promises: a command runs the code
of no module it does not need, ``import ellplan.cli`` still puts every
module in ``sys.modules``, a function replaced in its defining module's
namespace is the one the CLI calls, as an outside tracer relies on, threads
making a first use at once each see the whole module, and a failed first use
is retried.  The CLI's parser, too, is built at the first ``main`` call and
not at import.
"""

import json
import os
import subprocess
import sys
from io import StringIO

import ellplan
from ellplan import cli, costs, planner, testbed

# Records, in a fresh interpreter, which ellplan module files have their code
# executed: after the imports alone, then after the text commands in argv[1].
_PROBE = """
import json, os, sys

ran = set()

def _watch(event, args):
    if event == "exec":
        path = getattr(args[0], "co_filename", "")
        if os.path.basename(os.path.dirname(path)) == "ellplan":
            ran.add(os.path.basename(path)[:-3])

sys.addaudithook(_watch)
import io
import ellplan, ellplan.cli

after_import = sorted(ran)
registered = sorted(k for k in sys.modules if k.startswith("ellplan."))
parsers_after_import = ellplan.cli._build_parser.cache_info().misses
codes = [ellplan.cli.main(argv, out=io.StringIO()) for argv in json.loads(sys.argv[1])]
print(json.dumps({
    "after_import": after_import,
    "registered": registered,
    "parsers_after_import": parsers_after_import,
    "codes": codes,
    "after_commands": sorted(ran),
}))
"""

_TEXT_COMMANDS = [
    ["plan", "--eps", "1e-2"],
    ["verify", "--suite", "logs"],
    ["certify", "--ell", "20", "--eps", "1e-2"],
]


def _probe(commands) -> dict:
    return _run_fresh(_PROBE, json.dumps(commands))


def test_text_commands_run_no_costs_testbed_or_records_code():
    seen = _probe(_TEXT_COMMANDS)
    assert seen["codes"] == [0, 0, 0]
    unused = {"costs", "records", "testbed", "_codecs"}
    assert not unused & set(seen["after_commands"]), seen["after_commands"]
    assert {"bounds", "planner", "certified"} <= set(seen["after_commands"])
    # the imports alone run only the CLI and what its definitions need
    assert not (unused | {"bounds", "planner"}) & set(seen["after_import"])
    assert "cli" in seen["after_import"]


def test_cli_import_builds_no_parser_and_runs_no_submodule():
    # the parser reads certified's default policy, so it waits for main
    seen = _probe([])
    assert seen["after_import"] == ["__init__", "cli"]
    assert seen["parsers_after_import"] == 0


def test_cli_import_registers_every_module():
    seen = _probe([])
    expected = {
        f"ellplan.{name}"
        for name in ("certified", "bounds", "planner", "records", "costs", "testbed", "cli")
    }
    assert expected <= set(seen["registered"])


def test_cli_calls_functions_replaced_in_their_defining_modules(monkeypatch):
    calls = []
    for module, name in (
        (testbed, "ratio_report"),
        (costs, "reproduce_table"),
        (planner, "plan"),
    ):
        original = getattr(module, name)

        def replacement(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, replacement)
    for argv in (
        ["testbed", "--bundled", "three_cover"],
        ["table"],
        ["plan", "--eps", "1e-2"],
    ):
        assert cli.main(argv, out=StringIO()) == cli.EXIT_OK
    assert calls == ["plan", "ratio_report", "reproduce_table", "plan"]


# Eight threads resolve every export at once, each in its own order, after a
# barrier; prints the errors and how often each module's code ran.
_THREADS = """
import json, os, random, sys, threading

runs = {}

def _watch(event, args):
    if event == "exec":
        path = getattr(args[0], "co_filename", "")
        if os.path.basename(os.path.dirname(path)) == "ellplan":
            name = os.path.basename(path)[:-3]
            runs[name] = runs.get(name, 0) + 1

sys.addaudithook(_watch)
import ellplan

barrier = threading.Barrier(8)
errors = []

def resolve(seed):
    names = list(ellplan.__all__)
    random.Random(seed).shuffle(names)
    barrier.wait()
    try:
        for name in names:
            value = getattr(ellplan, name)
            assert value is getattr(sys.modules[f"ellplan.{ellplan._MODULE_OF[name]}"], name)
    except BaseException as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=resolve, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps({"errors": errors, "runs": runs}))
"""

# The first use of ellplan.plan fails (fractions is blocked); once it is
# unblocked, the next use runs planner again and every export resolves.
_RETRY = """
import io, json, sys
import ellplan

sys.modules["fractions"] = None
try:
    ellplan.plan
except ImportError:
    failed = True
else:
    failed = False
del sys.modules["fractions"]

import ellplan.cli

resolved = all(
    getattr(ellplan, name) is getattr(sys.modules[f"ellplan.{module}"], name)
    for name, module in ellplan._MODULE_OF.items()
)
code = ellplan.cli.main(["plan", "--eps", "1e-2"], out=io.StringIO())
same = all(
    sys.modules[f"ellplan.{name}"] is getattr(ellplan, name)
    for name in ("certified", "bounds", "planner", "records", "costs", "testbed")
)
print(json.dumps({"failed": failed, "resolved": resolved, "code": code, "same": same}))
"""


def _run_fresh(source: str, *args) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(ellplan.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", source, *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_first_use_from_many_threads_runs_each_module_once():
    seen = _run_fresh(_THREADS)
    assert seen["errors"] == []
    lazy = ("certified", "bounds", "planner", "costs", "testbed")
    assert {name: seen["runs"].get(name) for name in lazy} == dict.fromkeys(lazy, 1)


def test_exports_resolve_after_a_failed_first_use():
    seen = _run_fresh(_RETRY)
    assert seen == {"failed": True, "resolved": True, "code": 0, "same": True}
