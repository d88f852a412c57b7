"""play and verify artifacts on committed configs, compared byte for byte.

Each tests/golden/play/<name>.json holds one game: meager_dense and
oscillation attacks against constants, copycat on the naturals tree, plain
and relabeled, approximate copycat with a search cap against a random
value machine on the naturals tree, a random letter machine against a
machine file, a lift in the restricted game, a JSON trace, two faults,
and (names starting `verify-`) verdicts: a letter machine against a
machine file and against a pair of machine files, copycat on the naturals
tree, a fault in the restricted game, an UndecidedAtHorizon at a small
cap (exit 1), and a responder against a payoff that is the max algebra of
two machine files and one that is a construct_u pipeline.  <name>/ beside it holds the stdout, stderr and exit code of
the command and every file it wrote.  Machine files are named relative to
the golden directory.  A change that means to alter these artifacts
regenerates them and says why.
"""

import pathlib

import pytest

from limsupgames.cli import entry

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "play"
CAPTURED = ("stdout.txt", "stderr.txt", "exit_code.txt")


@pytest.mark.parametrize("config", sorted(GOLDEN.glob("*.json")),
                         ids=lambda p: p.stem)
def test_play_artifacts_match_golden(tmp_path, capsysbinary, monkeypatch,
                                     config):
    monkeypatch.chdir(GOLDEN)
    command = "verify" if config.stem.startswith("verify-") else "play"
    out = tmp_path / "out"
    rc = entry([command, "--config", str(config), "--out", str(out)])
    captured = capsysbinary.readouterr()
    want = GOLDEN / config.stem
    assert f"{rc}\n" == (want / "exit_code.txt").read_text()
    assert captured.out == (want / "stdout.txt").read_bytes()
    assert captured.err == (want / "stderr.txt").read_bytes()
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in want.iterdir()
                             if p.name not in CAPTURED)
    for name in written:
        assert (out / name).read_bytes() == (want / name).read_bytes(), name
