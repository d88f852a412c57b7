"""construct artifacts on committed configs, compared byte for byte.

Each tests/golden/construct/<name>.json holds one seeded pipeline (stage
pipelines with and without discretize, sum/min/max algebra pipelines, one
on the naturals tree that exports an oracle handle); <name>/ beside it
holds the stdout, function.json and report.json that construct wrote for
it.  A change that means to alter these artifacts regenerates them and
says why.
"""

import pathlib

import pytest

from limsupgames.cli import entry

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "construct"


@pytest.mark.parametrize("config", sorted(GOLDEN.glob("*.json")),
                         ids=lambda p: p.stem)
def test_construct_artifacts_match_golden(tmp_path, capsysbinary, config):
    argv = ["construct", "--config", str(config), "--out", str(tmp_path)]
    assert entry(argv) == 0
    captured = capsysbinary.readouterr()
    want = GOLDEN / config.stem
    assert captured.out == (want / "stdout.txt").read_bytes()
    assert captured.err == b""
    for name in ("function.json", "report.json"):
        assert (tmp_path / name).read_bytes() == (want / name).read_bytes(), name
