"""construct artifacts on committed configs, compared byte for byte.

Each tests/golden/construct/<name>.json holds one seeded pipeline (stage
pipelines with and without discretize, sum/min/max algebra pipelines, one
on the naturals tree); <name>/ beside it holds the stdout, function.json
and report.json that construct wrote for it.  A change that means to alter
these artifacts regenerates them and says why.  Each exported machine is
also evaluated on the report's branches, so a wrong machine fails with a
value and not only with a byte diff.
"""

import json
import pathlib

import pytest

from limsupgames.automata import NodeAutomaton, eval_limsup
from limsupgames.cli import entry
from limsupgames.trees import parse_branch

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "construct"


@pytest.mark.parametrize("config", sorted(GOLDEN.glob("*.json")),
                         ids=lambda p: p.stem)
def test_construct_artifacts_match_golden(tmp_path, capsysbinary, config):
    argv = ["construct", "--config", str(config), "--out", str(tmp_path)]
    assert entry(argv) == 0
    captured = capsysbinary.readouterr()
    want = GOLDEN / config.stem
    # the golden and the fresh machine reproduce every expected value, so a
    # wrong machine fails here with a branch before any byte is compared
    rows = json.loads((want / "report.json").read_text())["rows"]
    for where in (want, tmp_path):
        machine = NodeAutomaton.from_json_dict(
            json.loads((where / "function.json").read_text())["automaton"])
        for row in rows:
            got = eval_limsup(machine, parse_branch(row["branch"]))
            assert str(got) == row["expected"], (where, row["branch"])
    assert captured.out == (want / "stdout.txt").read_bytes()
    assert captured.err == b""
    for name in ("function.json", "report.json"):
        assert (tmp_path / name).read_bytes() == (want / name).read_bytes(), name
