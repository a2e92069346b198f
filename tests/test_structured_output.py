"""Every structured line the CLI writes, pinned and read back.

``golden/structured.txt`` holds one argv per record kind, each as a block:
a ``$ argv`` line, the command's stdout, then ``exit <code>``.  The argvs
are the corpus; the file is their expected bytes.  Regenerate it with
``python tests/test_structured_output.py`` only when a change to the
output is intended.
"""

import json
import re
from io import StringIO
from pathlib import Path

import pytest

from ellplan import cli, costs
from ellplan.costs import ExpectedRow
from ellplan.records import _KINDS, parse_record, render_record

GOLDEN = Path(__file__).parent / "golden" / "structured.txt"

CORPUS = [
    "plan --eps 1e-2 --rule all",
    "plan --eps 1e-2 --rule star",
    "verify --suite bounds --lmax 50",
    "verify --suite ordering --lmax 50",
    "verify --suite logs --grid 0:1:1/4",
    "verify --suite expansion",
    # every rung is 8 bits, so small ell stay inconclusive: exit 2
    "verify --suite bounds --lmax 30 --precision-start 8 --precision-cap 8",
    "certify --ell 5 --eps 1e-1",
    "certify --ell 1 --eps 3/20",
    "table --check",
    "testbed --bundled greedy_gap",
]


def _run(argv: list[str]) -> tuple[int, str]:
    out = StringIO()
    code = cli.main(argv, out)
    return code, out.getvalue()


def _block(argv: list[str], code: int, text: str) -> str:
    return f"$ {' '.join(argv)}\n{text}exit {code}\n"


def _corpus_argvs() -> list[list[str]]:
    return [[*args.split(), "--format", "structured"] for args in CORPUS]


def _golden_blocks() -> list[str]:
    return re.split(r"(?m)^(?=\$ )", GOLDEN.read_text())[1:]


@pytest.fixture(scope="module")
def corpus_output() -> list[tuple[list[str], int, str]]:
    return [(argv, *_run(argv)) for argv in _corpus_argvs()]


def test_corpus_matches_golden_bytes(corpus_output):
    blocks = [_block(*run) for run in corpus_output]
    assert blocks == _golden_blocks()


def test_corpus_covers_every_command_and_kind(corpus_output):
    assert {argv[0] for argv, _, _ in corpus_output} == set(cli._COMMANDS)
    kinds = {json.loads(line)["kind"] for _, _, text in corpus_output for line in text.splitlines()}
    assert kinds == set(_KINDS)


def _mismatch_output(monkeypatch) -> str:
    wrong = (ExpectedRow("1e-1", 12, 2, 2, "5.1", 2, "5.1", 2),)
    check = costs.check_against_expected
    monkeypatch.setattr(costs, "check_against_expected", lambda rows: check(rows, wrong))
    code, text = _run(["table", "--eps", "1e-1", "--check", "--format", "structured"])
    assert code == cli.EXIT_FAILURE
    return text


def test_every_line_reads_back_to_its_bytes(corpus_output, monkeypatch):
    texts = [text for _, _, text in corpus_output] + [_mismatch_output(monkeypatch)]
    lines = [line for text in texts for line in text.splitlines()]
    assert lines
    for line in lines:
        assert render_record(parse_record(line)) == line


def test_mismatch_reads_back_with_its_fields(monkeypatch):
    check = parse_record(_mismatch_output(monkeypatch).splitlines()[-1])
    assert check.ok is False
    (mismatch,) = check.mismatches
    assert (mismatch.row, mismatch.column, mismatch.expected, mismatch.got) == (
        "1e-1", "ell_bf", "12", "11",
    )


if __name__ == "__main__":
    GOLDEN.write_text("".join(_block(argv, *_run(argv)) for argv in _corpus_argvs()))
