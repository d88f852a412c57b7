"""`eval` stdout on committed machines and branches, compared byte for byte.

tests/golden/eval/cases.txt holds one case a line: its name, a machine file
(relative to the golden directory) and a branch descriptor.  stdout/<name>.txt
holds the command's output: the limsup, then the lasso's start, period and
cycle outputs.  The cases cover a binary machine, one with two explicit
letters and a 24-state one with three, cycles of one to nine letters and
letters of the default class.
"""

import pathlib

import pytest

from limsupgames.cli import entry

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "eval"
CASES = [line.split() for line in
         (GOLDEN / "cases.txt").read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize("name, machine, branch", CASES,
                         ids=[case[0] for case in CASES])
def test_eval_stdout_matches_golden(capsysbinary, monkeypatch, name, machine,
                                    branch):
    monkeypatch.chdir(GOLDEN)
    assert entry(["eval", machine, branch]) == 0
    captured = capsysbinary.readouterr()
    assert captured.out == (GOLDEN / "stdout" / f"{name}.txt").read_bytes()
    assert captured.err == b""
