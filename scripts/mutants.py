#!/usr/bin/env python3
"""Apply one-line rounding mutants to a copy of the package and report which
ones the kernel and comparison tests catch.

Each mutant replaces one line of src/ellplan, verbatim, in a temporary copy
of src/, tests/ and pyproject.toml. In that copy the script runs

    python -m pytest -q -x tests/test_certified.py tests/test_bounds.py

as one child process, one mutant after another. A mutant is caught when the
run fails and survives when it passes. The unmutated copy runs first, and
must pass. All seven take about a minute on two cores; the script is not
part of the test suite, which only checks that every mutant's line is still
in the source.

Usage: python scripts/mutants.py [NAME ...]   (default: every mutant)
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_certified.py", "tests/test_bounds.py")

# (name, file under src/ellplan, the line as it is, the line as mutated)
MUTANTS = (
    (
        "artanh-upper-floored",
        "certified.py",
        "        hi += _ceil_div(p_hi, d)",
        "        hi += p_hi // d",
    ),
    (
        "artanh-no-tail",
        "certified.py",
        "    return lo, hi + _ceil_div(p_hi << w, d * ((1 << w) - t2_hi))",
        "    return lo, hi",
    ),
    (
        "exp-no-tail",
        "certified.py",
        "    hi += _ceil_div(2 * t_hi * y_hi, (k + 1) << wp)",
        "    hi += 0",
    ),
    (
        "exp-square-upper-floored",
        "certified.py",
        "        hi = -(-hi * hi >> wp)",
        "        hi = hi * hi >> wp",
    ),
    (
        "exp-no-pad",
        "certified.py",
        "_EXP_PAD = 16",
        "_EXP_PAD = 0",
    ),
    (
        "meet-keeps-wider-lower-end",
        "certified.py",
        "    return max(iv[0], other[0] << s), min(iv[1], other[1] << s)",
        "    return min(iv[0], other[0] << s), min(iv[1], other[1] << s)",
    ),
    (
        "small-refinement-one-bit-short",
        "certified.py",
        "                    w += lead",
        "                    w += lead - 1",
    ),
)


def mutate(text: str, line: str, mutated: str) -> str:
    """text with its one line equal to line replaced by mutated."""
    lines = text.split("\n")
    if lines.count(line) != 1:
        raise ValueError(f"{line.strip()!r} is not exactly one line of the source")
    lines[lines.index(line)] = mutated
    return "\n".join(lines)


def run_tests(copy: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
        cwd=copy,
        env=env,
        capture_output=True,
        text=True,
    )


def first_failure(result: subprocess.CompletedProcess) -> str:
    for line in result.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"exit {result.returncode}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", metavar="NAME", help="mutants to run")
    args = ap.parse_args()
    unknown = set(args.names) - {name for name, *_ in MUTANTS}
    if unknown:
        ap.error(f"no such mutant: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m[0] in args.names]

    with tempfile.TemporaryDirectory(prefix="ellplan-mutants-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        baseline = run_tests(copy)
        if baseline.returncode != 0:
            print(f"the unmutated copy fails: {first_failure(baseline)}", file=sys.stderr)
            return 1
        caught = 0
        for name, file, line, mutated in chosen:
            path = copy / "src" / "ellplan" / file
            original = path.read_text()
            path.write_text(mutate(original, line, mutated))
            try:
                result = run_tests(copy)
            finally:
                path.write_text(original)
            if result.returncode != 0:
                caught += 1
                print(f"{name:32} caught    {first_failure(result)}", flush=True)
            else:
                print(f"{name:32} survived", flush=True)
        print(f"# {caught} of {len(chosen)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
