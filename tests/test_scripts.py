"""Smoke tests for the scripts in scripts/, run in-process through runpy.

find_gap_instance imports public names from the package, so running it
catches a name that was removed or renamed; runpy avoids an interpreter
start-up.  The mutation script starts a test run per mutant, so only its
mutant table is checked against the source.
"""

import contextlib
import os
import runpy
import sys
from pathlib import Path

import pytest

from ellplan.cli import EXIT_USAGE

ROOT = Path(__file__).resolve().parent.parent
FIND_GAP = ROOT / "scripts" / "find_gap_instance.py"
MUTANTS = ROOT / "scripts" / "mutants.py"


class _ClosedPipe:
    """A stdout whose reader has gone, as under `| head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class _GoneAtFlush:
    """A block-buffered stdout whose reader has gone: writes are kept and
    only the flush fails; fileno() is a descriptor of the test's own."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def _run(monkeypatch, *args) -> int:
    monkeypatch.setattr(sys, "argv", [str(FIND_GAP), *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(FIND_GAP), run_name="__main__")
    return exit_info.value.code


@pytest.mark.parametrize(
    "args,header", [(["--count", "20"], "# 20 instances, ")], ids=["find_gap_instance"]
)
def test_script_runs(args, header, monkeypatch, capsys):
    assert _run(monkeypatch, *args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(header) for line in lines), lines[:5]


def test_closed_pipe_is_usage_error(monkeypatch, capsys):
    with contextlib.redirect_stdout(_ClosedPipe()):
        code = _run(monkeypatch, "--count", "20")
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_failed_final_flush_is_usage_error(monkeypatch, capsys, tmp_path):
    with open(tmp_path / "stdout", "w") as fh:
        with contextlib.redirect_stdout(_GoneAtFlush(fh.fileno())):
            code = _run(monkeypatch, "--count", "20")
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


def test_every_mutant_line_is_in_the_source():
    script = runpy.run_path(str(MUTANTS))
    for name, file, line, mutated in script["MUTANTS"]:
        text = (ROOT / "src" / "ellplan" / file).read_text()
        assert text.split("\n").count(line) == 1, name
        assert script["mutate"](text, line, mutated) != text, name
