"""Smoke tests: each script in scripts/ runs to exit 0 on a small input.

The scripts import public names from the package, so running them catches a
name that was removed or renamed.  They run in-process through runpy, which
avoids an interpreter start-up per script.
"""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS_DIR = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script,args,header",
    [
        ("sweep_bounds.py", ["--lmax", "50"], "# four upper bounds, "),
        (
            "reproduce_table.py",
            [],
            "       eps   ell_bf   ell_ps  ell_star   factor_ps  factor_star",
        ),
        ("find_gap_instance.py", ["--count", "20"], "# 20 instances, "),
    ],
    ids=["sweep_bounds", "reproduce_table", "find_gap_instance"],
)
def test_script_runs(script, args, header, monkeypatch, capsys):
    path = SCRIPTS_DIR / script
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(path), run_name="__main__")
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(header) for line in lines), lines[:5]
