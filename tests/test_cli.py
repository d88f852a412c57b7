"""Command line surface: exit codes, stdout contracts, emitted files."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import constant_automaton, letter_output_automaton
from limsupgames import cli, construction
from limsupgames.acceptance import CriterionResult
from limsupgames.automata import NodeAutomaton, eval_limsup, make_automaton
from limsupgames.cli import MAX_NESTING, ConfigError, ExperimentConfig, entry
from limsupgames.construction import BranchCheck, ConstructionReport
from limsupgames.dyadic import Dyadic, as_dyadic
from limsupgames.games import MAX_TRACE_ROUNDS
from limsupgames.trees import EventuallyPeriodicBranch, parse_branch


def write_config(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(ExperimentConfig(**kw).serialize(), encoding="utf-8")
    return str(path)


def letter_file(tmp_path):
    path = tmp_path / "letter.json"
    letter_output_automaton().save(str(path))
    return str(path)


# --- eval ---------------------------------------------------------------


def test_eval_prints_value_then_certificate(tmp_path, capsys):
    assert entry(["eval", letter_file(tmp_path), "stem=;cycle=0,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "1/2^0"
    assert out[1] == "lasso: start=0 period=2 cycle_outputs=[0/2^0, 1/2^0]"


def test_module_run_of_the_cli_warns_nothing(tmp_path):
    # the package resolves entry lazily, so runpy finds no stale cli module
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-W", "always", "-m", "limsupgames.cli", "eval",
         letter_file(tmp_path), "stem=;cycle=0,1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert done.stdout.splitlines()[0] == "1/2^0"


_LAZY_SCRIPT = """
import contextlib, io, pathlib, sys
from limsupgames.cli import entry

golden, out = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
loaded = lambda: "limsupgames.acceptance" in sys.modules
assert not loaded(), "import"
runs = [
    ["eval", str(golden / "play" / "machines" / "u3.json"), "stem=0;cycle=1"],
    ["play", "--config", str(golden / "play" / "oscillation-pair.json"),
     "--out", str(out / "play")],
    ["construct", "--config", str(golden / "construct" / "sum.json"),
     "--out", str(out / "construct")],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert entry(argv) == 0, argv
    assert not loaded(), argv[0]
text = io.StringIO()
with contextlib.redirect_stdout(text):
    rc = entry(["suite"])
assert loaded() and rc == 0, text.getvalue()
print(text.getvalue().splitlines()[-1])
"""


def test_only_suite_loads_the_acceptance_criteria(tmp_path):
    # a fresh interpreter, so no other test has imported acceptance yet
    root = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root.parent / "src")] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c", _LAZY_SCRIPT, str(root / "golden"),
         str(tmp_path)], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("8/8 criteria passed"), done.stdout


def test_package_resolves_cli_names_on_use():
    import limsupgames
    from limsupgames import ExperimentConfig as Config, entry as run
    assert run is entry and Config is ExperimentConfig
    with pytest.raises(AttributeError):
        limsupgames.no_such_name


def test_eval_rejects_bad_branch(tmp_path, capsys):
    assert entry(["eval", letter_file(tmp_path), "stem=;cycle="]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_eval_rejects_missing_file(tmp_path, capsys):
    assert entry(["eval", str(tmp_path / "no.json"), "stem=;cycle=0"]) == 2
    assert "error:" in capsys.readouterr().err


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="stemcycl=;,01+-_ \u0661", max_size=24))
@example(text="--")
def test_eval_branch_text_exits_zero_or_two(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "letter-eval.json"
    if not path.exists():
        letter_output_automaton().save(str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # "--" keeps a text that starts with "-" from reading as an option
        rc = entry(["eval", str(path), "--", text])
    assert rc in (0, 2)
    if rc == 2:
        assert err.getvalue().startswith("error:")


@pytest.mark.parametrize("source", [-1, 2])
def test_machines_with_bad_source_states_exit_two(tmp_path, capsys, source):
    machine = {"states": 2, "initial": 0, "letters": 0,
               "transitions": [[0, "default", 1, "0/2^0"],
                               [source, "default", 0, "3/2^0"]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(machine), encoding="utf-8")
    assert entry(["eval", str(path), "stem=;cycle=0"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    cfg = play_config(tmp_path, player_ii={"kind": "from_u",
                                           "automaton": machine})
    assert entry(["play", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error:")


_MACHINE = {"states": 2, "initial": 0, "letters": 1,
            "transitions": [[0, 0, 1, "0/2^0"], [0, "default", 0, "1/2^0"],
                            [1, 0, 0, "1/2^1"], [1, "default", 1, "0/2^0"]]}
# (row, column) of the transition entries under test
_CELLS = {"source": (2, 0), "label": (0, 1), "destination": (0, 2)}


@pytest.mark.parametrize("field, value", [
    ("states", 2.9), ("letters", True), ("initial", 0.0), ("source", True),
    ("destination", 1.7), ("label", False)],
    ids=["states", "letters", "initial", "source", "destination", "label"])
def test_machine_json_requires_strict_integers(tmp_path, capsys, field, value):
    # each value would alias a nearby integer: 2.9 states as 2, label false
    # as class 0
    machine = json.loads(json.dumps(_MACHINE))
    if field in _CELLS:
        row, col = _CELLS[field]
        machine["transitions"][row][col] = value
    else:
        machine[field] = value
    path = tmp_path / "m.json"
    path.write_text(json.dumps(machine), encoding="utf-8")
    assert entry(["eval", str(path), "stem=;cycle=0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000, encoding="utf-8")
    cfg = play_config(tmp_path, player_ii={"kind": "from_u", "file": str(deep)})
    for argv in (["eval", str(deep), "stem=;cycle=0"],
                 ["play", "--config", str(deep)],
                 ["play", "--config", cfg]):
        assert entry(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:")


def _lifted(depth):
    desc = {"kind": "random_fsm", "states": 2, "values": [], "seed": 3}
    for _ in range(depth):
        desc = {"kind": "lift", "base": desc, "restriction": ["0/2^0", "1/2^0"]}
    return desc


def test_nesting_at_the_bound_plays(tmp_path, capsys):
    cfg = play_config(tmp_path, player_i=_lifted(MAX_NESTING))
    assert entry(["play", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["rounds"] == 10


@pytest.mark.parametrize("player", ["player_i", "player_ii"])
def test_nesting_past_the_bound_exits_two(tmp_path, capsys, player):
    if player == "player_i":
        desc = _lifted(MAX_NESTING + 1)
    else:
        desc = {"kind": "constant", "value": 0}
        for _ in range(MAX_NESTING + 1):
            desc = {"kind": "pair", "f": desc,
                    "g": {"kind": "constant", "value": 0}}
    cfg = play_config(tmp_path, payoff={"kind": "indicator"}, **{player: desc})
    for command in ("play", "verify"):
        assert entry([command, "--config", cfg]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nests" in err, err


@pytest.mark.parametrize("part", ["f", "g"])
def test_pair_of_a_pair_exits_two(tmp_path, capsys, part):
    # a pair announces two single values, so a pair component cannot be one
    const = {"kind": "constant", "value": 0}
    desc = {"kind": "pair", "f": const, "g": const}
    desc[part] = {"kind": "pair", "f": const, "g": const}
    cfg = play_config(tmp_path, game="gamma_prime", player_ii=desc,
                      payoff={"kind": "indicator"})
    for command in ("play", "verify"):
        assert entry([command, "--config", cfg]) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "pair" in captured.err


@pytest.mark.parametrize("command", ["play", "verify"])
def test_pair_of_a_pair_answering_machine_exits_two(tmp_path, capsys,
                                                    command):
    # in gamma_prime random_fsm draws covalues, so it answers pairs: before,
    # play faulted player II in round 0 and verify certified that fault as
    # an exact WinI
    fsm = {"kind": "random_fsm", "states": 2, "values": [0, 1], "seed": 3}
    desc = {"kind": "pair", "f": {"kind": "constant", "value": 1}, "g": fsm}
    cfg = play_config(tmp_path, game="gamma_prime", player_ii=desc,
                      payoff={"kind": "indicator"})
    assert entry([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "pair" in captured.err


_U = {"automaton": letter_output_automaton().to_json_dict()}
# player II descriptors that build, in a game whose answers they do not give
_MISFITS = {
    "constant-covalue-in-gamma":
        ("gamma", {"kind": "constant", "value": 1, "covalue": 0}),
    "pair-in-gamma": ("gamma", {"kind": "pair", "f": {"kind": "from_u", **_U},
                                "g": {"kind": "constant", "value": 0}}),
    "constant-in-gamma-prime":
        ("gamma_prime", {"kind": "constant", "value": 1}),
    "from-u-in-gamma-prime": ("gamma_prime", {"kind": "from_u", **_U}),
}


@pytest.mark.parametrize("command", ["play", "verify"])
@pytest.mark.parametrize("game, desc", list(_MISFITS.values()),
                         ids=list(_MISFITS))
def test_a_player_ii_that_misfits_its_game_exits_two(tmp_path, capsys,
                                                      command, game, desc):
    # before, play faulted player II in round 0 and verify certified that
    # fault as an exact WinI
    cfg = verify_config(tmp_path, game=game, player_ii=desc,
                        player_i={"kind": "random_fsm", "states": 3,
                                  "values": ["1/2^1"], "seed": 9})
    assert entry([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("error:") and "player_ii" in err and game in err


# --- config -------------------------------------------------------------


def test_config_round_trips():
    samples = [
        ExperimentConfig(),
        ExperimentConfig(game="gamma_prime", tree="nat", horizon=7,
                         player_ii={"kind": "constant", "value": "1/2^1",
                                    "covalue": "0/2^0"}),
        ExperimentConfig(game="gamma_restricted",
                         restriction=("0/2^0", "1/2^0"), cap=3, seed=5,
                         out_dir="runs/x", trace_format="json"),
        ExperimentConfig(payoff={"kind": "indicator"},
                         player_i={"kind": "meager_dense"}),
    ]
    for cfg in samples:
        assert ExperimentConfig.parse(cfg.serialize()) == cfg


def test_config_bytes_are_pinned():
    # every field set, so a change in how fields are serialized shows here
    cfg = ExperimentConfig(
        game="gamma_restricted", tree="nat", restriction=("0/2^0", "1/2^1"),
        payoff={"kind": "algebra", "op": "max", "left": {"file": "a.json"},
                "right": {"file": "b.json"}},
        pipeline={"stages": ["from-automaton", "construct_u"],
                  "source": {"file": "a.json"},
                  "branch_corpus": {"max_stem": 1, "max_cycle": 2}},
        player_i={"kind": "lift", "base": {"kind": "copycat"},
                  "restriction": ["0/2^0"]},
        player_ii={"kind": "constant", "value": "1/2^1", "covalue": "0/2^0"},
        horizon=7, cap=9, seed=3, out_dir="runs/x", trace_format="json")
    assert cfg.serialize() == """\
{
  "cap": 9,
  "game": "gamma_restricted",
  "horizon": 7,
  "out_dir": "runs/x",
  "payoff": {
    "kind": "algebra",
    "left": {
      "file": "a.json"
    },
    "op": "max",
    "right": {
      "file": "b.json"
    }
  },
  "pipeline": {
    "branch_corpus": {
      "max_cycle": 2,
      "max_stem": 1
    },
    "source": {
      "file": "a.json"
    },
    "stages": [
      "from-automaton",
      "construct_u"
    ]
  },
  "player_i": {
    "base": {
      "kind": "copycat"
    },
    "kind": "lift",
    "restriction": [
      "0/2^0"
    ]
  },
  "player_ii": {
    "covalue": "0/2^0",
    "kind": "constant",
    "value": "1/2^1"
  },
  "restriction": [
    "0/2^0",
    "1/2^1"
  ],
  "seed": 3,
  "trace_format": "json",
  "tree": "nat"
}
"""


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys: bogus"):
        ExperimentConfig.parse('{"bogus": 1}')


def test_config_rejects_bad_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig(game="poker")
    with pytest.raises(ConfigError):
        ExperimentConfig(tree="ternary")
    with pytest.raises(ConfigError):
        ExperimentConfig(restriction=("0/2^0",))  # needs gamma_restricted
    with pytest.raises(ConfigError):
        ExperimentConfig(game="gamma_restricted")  # needs a restriction
    with pytest.raises(ConfigError):
        ExperimentConfig(horizon=-1)
    with pytest.raises(ConfigError, match="1000000"):
        ExperimentConfig(horizon=10 ** 6 + 1)
    with pytest.raises(ConfigError, match="1000000"):
        ExperimentConfig(cap=10 ** 6 + 1)


@pytest.mark.parametrize("command, flag, field", [
    ("play", "--horizon", "horizon"), ("verify", "--cap", "cap")])
def test_the_round_limit_takes_exactly_max_trace_rounds(
        tmp_path, capsys, command, flag, field):
    # a lasso between two table players keeps a million-round game short
    assert ExperimentConfig(**{field: MAX_TRACE_ROUNDS})
    cfg = verify_config(tmp_path)
    assert entry([command, "--config", cfg, flag, str(MAX_TRACE_ROUNDS)]) == 0
    capsys.readouterr()
    assert entry([command, "--config", cfg, flag,
                  str(MAX_TRACE_ROUNDS + 1)]) == 2
    assert "1000000" in capsys.readouterr().err
    # the same limit in the config file
    data = json.loads(pathlib.Path(cfg).read_text(encoding="utf-8"))
    data[field] = MAX_TRACE_ROUNDS + 1
    pathlib.Path(cfg).write_text(json.dumps(data), encoding="utf-8")
    assert entry([command, "--config", cfg]) == 2
    assert "1000000" in capsys.readouterr().err


# --- play ---------------------------------------------------------------


def play_config(tmp_path, **kw):
    kw.setdefault("player_i", {"kind": "random_fsm", "states": 1,
                               "values": [], "seed": 9})
    kw.setdefault("player_ii", {"kind": "constant", "value": "1/2^1"})
    kw.setdefault("horizon", 10)
    return write_config(tmp_path, **kw)

def test_play_summary_and_trace(tmp_path, capsys):
    out_dir = tmp_path / "run"
    cfg = play_config(tmp_path)
    assert entry(["play", "--config", cfg, "--out", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["rounds"] == 10
    assert summary["lasso"] == {"start": 0, "period": 1}
    assert summary["fault"] is None
    assert "counters_I" in summary and "counters_II" in summary

    csv_text = (out_dir / "trace.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0] == "t,x_t,v_t,w_t"
    assert len(lines) == 11
    assert lines[1].endswith(",1/2^1,")
    side = json.loads((out_dir / "trace.json").read_text())
    assert side["rounds"] == 10 and "rows" not in side


def test_play_is_deterministic(tmp_path):
    cfg = play_config(tmp_path, horizon=60)
    a, b = tmp_path / "a", tmp_path / "b"
    assert entry(["play", "--config", cfg, "--out", str(a)]) == 0
    assert entry(["play", "--config", cfg, "--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "trace.json").read_bytes() == (b / "trace.json").read_bytes()


def test_play_trace_json_and_none(tmp_path, capsys):
    cfg = play_config(tmp_path)
    out_dir = tmp_path / "j"
    assert entry(["play", "--config", cfg, "--out", str(out_dir),
                  "--trace", "json"]) == 0
    data = json.loads((out_dir / "trace.json").read_text())
    assert len(data["rows"]) == 10
    assert data["rows"][0] == {"t": 0, "x_t": data["rows"][0]["x_t"],
                               "v_t": "1/2^1", "w_t": None}
    assert not (out_dir / "trace.csv").exists()

    none_dir = tmp_path / "n"
    assert entry(["play", "--config", cfg, "--out", str(none_dir),
                  "--trace", "none"]) == 0
    assert not none_dir.exists()
    capsys.readouterr()


def test_play_reports_faults_on_stderr(tmp_path, capsys):
    cfg = play_config(tmp_path,
                      player_i={"kind": "copycat"},
                      player_ii={"kind": "constant", "value": "1/2^1"})
    assert entry(["play", "--config", cfg]) == 0
    captured = capsys.readouterr()
    fault = json.loads(captured.err)["fault"]
    assert fault["blame"] == "II" and fault["round"] == 1
    assert json.loads(captured.out)["fault"]["blame"] == "II"


def test_play_horizon_override(tmp_path, capsys):
    cfg = play_config(tmp_path)
    assert entry(["play", "--config", cfg, "--horizon", "25"]) == 0
    assert json.loads(capsys.readouterr().out)["rounds"] == 25


# --- verify -------------------------------------------------------------


def verify_config(tmp_path, **kw):
    machine = letter_output_automaton().to_json_dict()
    kw.setdefault("payoff", {"kind": "automaton", "automaton": machine})
    kw.setdefault("player_i", {"kind": "copycat"})
    kw.setdefault("player_ii", {"kind": "from_u", "automaton": machine})
    return write_config(tmp_path, **kw)


def test_verify_win_ii_exit_zero(tmp_path, capsys):
    out_dir = tmp_path / "v"
    cfg = verify_config(tmp_path)
    assert entry(["verify", "--config", cfg, "--out", str(out_dir)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["outcome"] == "WinII"
    assert verdict["lasso"] is not None
    on_disk = json.loads((out_dir / "verdict.json").read_text())
    assert on_disk == verdict


@pytest.mark.parametrize("stages", [
    ["from-automaton", "construct_u"],
    ["from-automaton", "discretize", "construct_u"]])
def test_verify_pipeline_payoff_matches_its_machine(tmp_path, capsys, stages):
    # a stage pipeline over u as the payoff reads the same limsups as u
    machine = letter_output_automaton().to_json_dict()
    verdicts = []
    for name, payoff in [
            ("machine", {"kind": "automaton", "automaton": machine}),
            ("pipeline", {"kind": "pipeline", "stages": stages,
                          "source": {"automaton": machine}})]:
        cfg = verify_config(tmp_path, name=f"{name}.json", payoff=payoff)
        assert entry(["verify", "--config", cfg]) == 0
        verdicts.append(json.loads(capsys.readouterr().out))
    keys = ("outcome", "limsup_value", "payoff_of_witness")
    assert verdicts[0]["limsup_value"] is not None
    assert [{k: v[k] for k in keys} for v in verdicts] == \
        [{k: verdicts[0][k] for k in keys}] * 2


@pytest.mark.parametrize("command, flag", [
    ("play", "--seed"), ("play", "--cap"), ("verify", "--seed"),
    ("verify", "--horizon"), ("verify", "--trace"), ("construct", "--seed"),
    ("construct", "--cap"), ("construct", "--horizon"),
    ("construct", "--trace")])
def test_commands_refuse_flags_they_do_not_read(tmp_path, capsys, command,
                                                flag):
    cfg = play_config(tmp_path)
    value = "csv" if flag == "--trace" else "5"
    assert entry([command, "--config", cfg, flag, value]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_undecided_exit_one(tmp_path, capsys):
    cfg = verify_config(tmp_path)
    assert entry(["verify", "--config", cfg, "--cap", "1"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["outcome"] == "UndecidedAtHorizon"
    assert "diagnostics" in verdict


def test_verify_rejects_unbounded_declarations(tmp_path, capsys):
    cfg = verify_config(tmp_path, player_i={"kind": "meager_dense"})
    assert entry(["verify", "--config", cfg]) == 2
    assert "finite state" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["play", "verify"])
@pytest.mark.parametrize("game", ["gamma", "gamma_restricted"])
def test_oscillation_outside_the_pair_game_exits_two(tmp_path, capsys,
                                                     command, game):
    # before, play blamed player II for answering single values, and
    # verify certified that "fault" as an exact WinI
    player_i = {"kind": "oscillation"}
    extra = {}
    if game == "gamma_restricted":
        player_i = {"kind": "lift", "base": player_i,
                    "restriction": ["0/2^0", "1/2^0"]}
        extra["restriction"] = ["0/2^0", "1/2^0"]
    cfg = verify_config(tmp_path, game=game, player_i=player_i,
                        player_ii={"kind": "constant", "value": 1}, **extra)
    assert entry([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "gamma_prime" in captured.err


# --- construct ----------------------------------------------------------


def test_construct_default_corpus_and_minimization(tmp_path, capsys):
    machine = letter_output_automaton().to_json_dict()
    cfg = write_config(tmp_path, pipeline={
        "stages": ["from-automaton", "discretize", "construct_u"],
        "source": {"automaton": machine}})
    out_dir = tmp_path / "c"
    assert entry(["construct", "--config", cfg, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("equal on all 30 corpus branches")
    assert out[1] == "minimized to 1 state(s)"

    function = json.loads((out_dir / "function.json").read_text())
    assert "automaton" in function
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["rows"]) == 30
    assert all(r["equal"] for r in report["rows"])


def test_construct_on_naturals_writes_machine(tmp_path, capsys):
    cfg = write_config(tmp_path, tree="nat", pipeline={
        "stages": ["from-automaton", "discretize", "construct_u"],
        "source": {"automaton": letter_output_automaton().to_json_dict()}})
    out_dir = tmp_path / "n"
    assert entry(["construct", "--config", cfg, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("minimized to ")
    function = json.loads((out_dir / "function.json").read_text())
    assert list(function) == ["automaton"]
    machine = NodeAutomaton.from_json_dict(function["automaton"])
    assert out[1] == f"minimized to {machine.num_states} state(s)"


def test_construct_algebra_pipeline(tmp_path, capsys):
    cfg = write_config(tmp_path, pipeline={
        "op": "sum",
        "left": {"automaton": letter_output_automaton().to_json_dict()},
        "right": {"automaton": constant_automaton(Dyadic(1)).to_json_dict()}})
    assert entry(["construct", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "equal on all 30 corpus branches" in out

def test_construct_algebra_values(tmp_path, capsys):
    cfg = write_config(tmp_path, pipeline={
        "op": "sum",
        "left": {"automaton": letter_output_automaton().to_json_dict()},
        "right": {"automaton": constant_automaton(Dyadic(1)).to_json_dict()}})
    out_dir = tmp_path / "alg"
    assert entry(["construct", "--config", cfg, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    report = json.loads((out_dir / "report.json").read_text())
    got = {r["got"] for r in report["rows"]}
    assert got == {"1/2^0", "2/2^0"}


def test_construct_declared_corpus(tmp_path, capsys):
    machine = letter_output_automaton().to_json_dict()
    cfg = write_config(tmp_path, pipeline={
        "stages": ["from-automaton", "construct_u"],
        "source": {"automaton": machine},
        "branch_corpus": {"max_stem": 2, "max_cycle": 2}})
    assert entry(["construct", "--config", cfg]) == 0
    assert "equal on all 16 corpus branches" in capsys.readouterr().out


def _bind_every(monkeypatch, orig, new):
    """Rebind every package module's binding of orig to new, as the
    benchmark's tracer wraps a function."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "limsupgames":
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, new)


def test_construct_checks_the_machine_it_writes(tmp_path, capsys,
                                                monkeypatch):
    # a minimize_labeling that raises one output on the cycle of a default
    # corpus branch: before, construct checked the transducer walk, wrote
    # the wrong machine and exited 0
    x = EventuallyPeriodicBranch((1, 0), (1,))
    orig = construction.minimize_labeling

    def flipped(state):
        m = orig(state)
        q, seen = m.run(x.stem), []
        while q not in seen:
            seen.append(q)
            q = m.step(q, 1)
        top = max(seen[seen.index(q):], key=lambda r: m.output(r, 1))
        outs = [list(row) for row in m.outputs]
        outs[top][m.letter_class(1)] += Dyadic(1)
        return make_automaton(m.initial, m.steps, outs)

    _bind_every(monkeypatch, orig, flipped)
    cfg = str(pathlib.Path(__file__).resolve().parent / "golden" /
              "construct" / "sum.json")
    out_dir = tmp_path / "c"
    assert entry(["construct", "--config", cfg, "--out", str(out_dir)]) == 1
    assert "25/30 branches equal\n" in capsys.readouterr().out
    rows = json.loads((out_dir / "report.json").read_text())["rows"]
    row = next(r for r in rows if r["branch"] == str(x))
    assert not row["equal"]
    assert as_dyadic(row["got"]) == as_dyadic(row["expected"]) + 1
    # every row reads the machine that function.json holds
    written = NodeAutomaton.from_json_dict(
        json.loads((out_dir / "function.json").read_text())["automaton"])
    for r in rows:
        assert str(eval_limsup(written, parse_branch(r["branch"]))) == r["got"]


def test_rows_algebra_checks_and_payoffs_read_one_machine(monkeypatch):
    made = []
    orig = construction.minimize_labeling

    def recording(state):
        made.append(orig(state))
        return made[-1]

    _bind_every(monkeypatch, orig, recording)
    left, right = (u.to_json_dict() for u in (letter_output_automaton(),
                                              constant_automaton(Dyadic(1))))
    tree = cli.binary_tree()
    af = construction.algebra(*(NodeAutomaton.from_json_dict(u)
                                for u in (left, right)), "sum", tree)
    corpus = cli._declared_corpus({}, tree)
    report = construction.verify_construction(af.family, corpus,
                                              af.expected_on)
    assert all(af.value_on(x) == r.got for x, r in zip(corpus, report.rows))
    assert made == [report.machine] and af.machine is report.machine
    src = {"op": "sum", "left": {"automaton": left},
           "right": {"automaton": right}}
    for payoff in ({**src, "kind": "algebra"}, {**src, "kind": "pipeline"},
                   {"kind": "pipeline", "source": {"automaton": left},
                    "stages": ["from-automaton", "construct_u"]}):
        machine = cli.build_payoff(payoff, tree)
        assert machine is made[-1] and len(made) == 2
        assert cli.build_payoff(payoff, tree) is not machine  # a new family
        made[1:] = []
    assert made[0] == cli.build_payoff({**src, "kind": "algebra"}, tree)


def test_construct_rejects_bad_pipelines(tmp_path, capsys):
    machine = letter_output_automaton().to_json_dict()
    cases = [
        {},
        {"stages": ["discretize"], "source": {"automaton": machine}},
        {"stages": ["construct_u", "from-automaton"],
         "source": {"automaton": machine}},
        {"stages": ["from-automaton", "mystery", "construct_u"],
         "source": {"automaton": machine}},
        {"stages": ["from-automaton", "construct_u"]},
        {"stages": ["from-automaton", "regularize", "construct_u"],
         "source": {"automaton": machine}},
    ]
    for pipe in cases:
        cfg = write_config(tmp_path, pipeline=pipe)
        assert entry(["construct", "--config", cfg]) == 2, pipe
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("corpus", [{"max_stem": 1, "max_cycle": 0},
                                    {"max_stem": -1, "max_cycle": 2}])
def test_construct_rejects_empty_branch_corpus(tmp_path, capsys, corpus):
    # an empty corpus would certify "equal on all 0 corpus branches"
    cfg = write_config(tmp_path, pipeline={
        "stages": ["from-automaton", "construct_u"],
        "source": {"automaton": letter_output_automaton().to_json_dict()},
        "branch_corpus": corpus})
    assert entry(["construct", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


_FSM_I = {"kind": "random_fsm", "states": 1, "values": [], "seed": 9}
_CONST_II = {"kind": "constant", "value": "1/2^1"}
_COPYCAT = {"kind": "copycat"}


@pytest.mark.parametrize("command, config", [
    ("play", {"player_ii": {"kind": "constant", "value": "1/2^x"}}),
    ("play", {"player_ii": {"kind": "constant", "value": 1.5}}),
    ("play", {"game": "gamma_prime",
              "player_ii": {**_CONST_II, "covalue": "zz"}}),
    ("play", {"game": "gamma_restricted", "restriction": ["0/2^0", 0.5]}),
    ("play", {"game": "gamma_restricted", "restriction": 5}),
    ("play", {"player_i": {"kind": "lift", "base": _COPYCAT,
                           "restriction": ["q"]}}),
    ("play", {"player_i": {"kind": "lift", "base": _COPYCAT,
                           "restriction": []}}),
    ("play", {"game": "gamma_restricted", "restriction": []}),
    ("play", {"player_i": {"kind": "relabel", "base": _COPYCAT,
                           "mapping": {"0/2^0": 2.5}}}),
    ("play", {"player_i": {"kind": "relabel", "base": _COPYCAT,
                           "mapping": ["0/2^0"]}}),
    ("play", {"player_i": {**_FSM_I, "values": ["x"]}}),
    ("play", {"player_ii": {**_FSM_I, "values": [None]}}),
    ("play", {"player_ii": {**_FSM_I, "values": "1/2^1"}}),
    ("play", {"player_i": ["kind"]}),
    ("play", {"player_i": {"kind": "lift", "base": ["kind"],
                           "restriction": ["0/2^0"]}}),
    ("play", {"player_ii": {"kind": "pair", "f": ["kind"], "g": _CONST_II}}),
    ("play", {"payoff": ["kind"]}),
    ("construct", {"pipeline": ["x"]}),
    ("construct", {"pipeline": {"stages": "from-automaton,construct_u"}}),
    ("construct", {"pipeline": {"stages": {"from-automaton": 1,
                                           "construct_u": 2}}}),
    ("play", {"out_dir": 5}),
    ("play", {"tree": "nat",
              "player_i": {"kind": "approx_copycat", "cap": "x"}}),
    ("play", {"cap": False}),
    ("play", {"player_i": {**_FSM_I, "states": 2.5}}),
    ("construct", {"pipeline": {"stages": ["from-automaton", "construct_u"],
                                "branch_corpus": {"max_stem": 1.9,
                                                  "max_cycle": 1}}}),
    ("play", {"player_ii": {"kind": "constant", "value": True}}),
    ("play", {"player_ii": {**_FSM_I, "values": ["1/2^1", False]}}),
    ("play", {"game": "gamma_restricted", "restriction": ["0/2^0", True]}),
    ("play", {"player_i": {"kind": "relabel", "base": _COPYCAT,
                           "mapping": {"0/2^0": False}}}),
    ("verify", {"payoff": {
        "kind": "algebra", "op": "mul",
        "left": {"automaton": letter_output_automaton().to_json_dict()},
        "right": {"automaton": letter_output_automaton().to_json_dict()}}}),
], ids=["constant-literal", "constant-float", "covalue", "restriction-float",
        "restriction-not-list", "lift-restriction", "lift-restriction-empty",
        "restriction-empty", "relabel-value",
        "relabel-not-object", "fsm-i-values", "fsm-ii-values",
        "fsm-values-not-list", "player-not-object", "lift-base-not-object",
        "pair-f-not-object", "payoff-not-object", "pipeline-not-object",
        "stages-string", "stages-object", "out-dir-not-string",
        "approx-cap-not-int", "cap-bool", "fsm-states-float",
        "corpus-stem-float", "constant-bool", "fsm-values-bool",
        "restriction-bool", "relabel-bool", "payoff-algebra-op"])
def test_malformed_config_values_exit_two(tmp_path, capsys, command, config):
    data = {"player_i": _FSM_I, "player_ii": _CONST_II, "horizon": 10,
            **config}
    if "pipeline" in data and isinstance(data["pipeline"], dict):
        data["pipeline"]["source"] = {
            "automaton": letter_output_automaton().to_json_dict()}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert entry([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("config, named", [
    ({"player_i": {**_COPYCAT, "cap": 3}}, ("'copycat'", "'cap'")),
    ({"player_ii": {**_CONST_II, "covalu": "0/2^0"}},
     ("'constant'", "'covalu'")),
    ({"player_ii": {**_FSM_I, "values": ["1/2^1"], "covalues": ["0/2^0"]}},
     ("'random_fsm'", "'covalues'")),
    ({"player_i": {"kind": "meager_dense", "extra": 1}},
     ("'meager_dense'", "'extra'")),
    ({"player_ii": {"kind": "from_u", "file": "u.json", "automaton":
                    letter_output_automaton().to_json_dict()}},
     ("from_u", "'automaton'", "'file'")),
    ({"player_i": {"kind": "lift", "restriction": ["0/2^0", "1/2^0"],
                   "base": {**_COPYCAT, "cap": 3}}}, ("'copycat'", "'cap'")),
    ({"game": "gamma_prime", "player_ii": {
        "kind": "pair", "f": _CONST_II, "g": {**_CONST_II, "covalu": 0}}},
     ("'constant'", "'covalu'")),
], ids=["copycat-cap", "constant-covalu", "fsm-covalues", "meager-extra",
        "from-u-both", "lift-base-cap", "pair-part-covalu"])
def test_unread_descriptor_keys_exit_two(tmp_path, capsys, config, named):
    # a key its kind never reads is a typo or a misplaced option, and an
    # inline machine next to a file would silently win over it
    data = {"player_i": _FSM_I, "player_ii": _CONST_II, "horizon": 10,
            **config}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert entry(["play", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and all(n in err for n in named), err


@pytest.mark.parametrize("config, message", [
    ({"player_i": {**_COPYCAT, "cap": 3}},
     "player_i kind 'copycat' does not read 'cap'"),
    ({"player_i": {"kind": "relabel", "mapping": {}, "base": {
        "kind": "lift", "restriction": ["0/2^0"],
        "base": {**_COPYCAT, "cap": 3}}}},
     "player_i.base.base kind 'copycat' does not read 'cap'"),
    ({"game": "gamma_prime", "player_ii": {
        "kind": "pair", "f": _CONST_II, "g": {
            "kind": "pair", "f": _CONST_II, "g": {**_CONST_II, "covalu": 0}}}},
     "player_ii.g.g kind 'constant' does not read 'covalu'"),
    ({"player_ii": {"kind": "pair", "f": {"kind": "bogus"}, "g": _CONST_II}},
     "unknown player_ii.f kind 'bogus'"),
    ({"player_i": {"kind": "lift", "restriction": [], "base": [1]}},
     "player_i.base needs a strategy descriptor with a 'kind'"),
    ({"player_i": {"kind": "relabel", "mapping": {}, "base": {
        "kind": "lift", "restriction": ["q"], "base": _COPYCAT}}},
     "player_i.base.restriction: not a dyadic literal: 'q'"),
    ({"player_ii": {"kind": "pair", "f": _CONST_II,
                    "g": {**_FSM_I, "states": 0}}},
     "player_ii.g.states must be an integer >= 1, got 0"),
], ids=["top-level", "i-two-deep", "ii-two-deep", "ii-unknown-kind",
        "i-not-a-descriptor", "i-value-one-deep", "ii-value-one-deep"])
def test_descriptor_errors_name_the_descriptor_path(tmp_path, capsys, config,
                                                    message):
    # a nested descriptor's error says where it sits; a top-level one
    # reads as it always has
    data = {"player_i": _FSM_I, "player_ii": _CONST_II, "horizon": 10,
            **config}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert entry(["play", "--config", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


_SOURCE = {"automaton": letter_output_automaton().to_json_dict()}
_ALGEBRA = {"kind": "algebra", "op": "max", "left": _SOURCE, "right": _SOURCE}
_STAGES = {"stages": ["from-automaton", "construct_u"], "source": _SOURCE}


@pytest.mark.parametrize("payoff, named", [
    ({**_SOURCE, "kind": "automaton", "op": "max"}, ("'automaton'", "'op'")),
    ({**_SOURCE, "stages": ["construct_u"]}, ("'automaton'", "'stages'")),
    ({**_ALGEBRA, "file": "u3.json"}, ("'algebra'", "'file'")),
    ({**_ALGEBRA, "right": {**_SOURCE, "kind": "indicator"}},
     ("payoff.right", "'indicator'")),
    ({"kind": "indicator", "file": "u3.json"}, ("'indicator'", "'file'")),
    ({**_STAGES, "kind": "pipeline",
      "branch_corpus": {"max_stem": 1, "max_cycle": 1}},
     ("'pipeline'", "'branch_corpus'")),
    ({**_ALGEBRA, "kind": "pipeline", "left": {**_SOURCE, "letters": 2}},
     ("payoff.left", "'letters'")),
    ({**_STAGES, "kind": "pipeline", "source": {**_SOURCE, "seed": 1}},
     ("payoff.source", "'seed'")),
], ids=["automaton-op", "no-kind-stages", "algebra-file", "algebra-right-kind",
        "indicator-file", "pipeline-corpus", "pipeline-left-letters",
        "pipeline-source-seed"])
def test_unread_payoff_keys_exit_two(tmp_path, capsys, payoff, named):
    # a payoff source never silently drops a key its kind does not read,
    # nor does a nested automaton source, which takes no other kind
    cfg = verify_config(tmp_path, payoff=payoff)
    assert entry(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "payoff" in err, err
    assert all(n in err for n in named), err


_PIPE_ALGEBRA = {"op": "max", "left": _SOURCE, "right": _SOURCE}


@pytest.mark.parametrize("command, config, message", [
    ("construct", {"pipeline": {**_STAGES, "oops": 1}},
     "pipeline kind 'stages' does not read 'oops'"),
    ("construct", {"pipeline": {**_PIPE_ALGEBRA,
                                "left": {**_SOURCE, "bogus": 1}}},
     "pipeline.left kind 'automaton' does not read 'bogus'"),
    ("construct", {"pipeline": {**_STAGES, "source": {**_SOURCE, "zzz": 1}}},
     "pipeline.source kind 'automaton' does not read 'zzz'"),
    ("construct", {"pipeline": {**_STAGES, "branch_corpus": {
        "max_stem": 1, "max_cycle": 1, "x": 1}}},
     "pipeline.branch_corpus kind 'branch_corpus' does not read 'x'"),
    ("verify", {"payoff": {**_PIPE_ALGEBRA, "kind": "pipeline",
                           "stages": ["bogus"], "source": 7}},
     "payoff kind 'algebra' does not read 'source', 'stages'"),
    ("play", {"player_i": {"kind": "lift", "base": _COPYCAT}},
     "player_i kind 'lift' needs 'restriction'"),
    ("play", {"player_ii": {"kind": "constant", "covalue": 0}},
     "player_ii kind 'constant' needs 'value'"),
    ("play", {"player_ii": {"kind": "pair", "f": _CONST_II}},
     "player_ii kind 'pair' needs 'g'"),
    ("construct", {"pipeline": {"op": "max", "left": _SOURCE}},
     "pipeline kind 'algebra' needs 'right'"),
    ("construct", {"pipeline": {"stages": _STAGES["stages"]}},
     "pipeline kind 'stages' needs 'source'"),
    ("construct", {"pipeline": {**_STAGES, "branch_corpus": {"max_stem": 1}}},
     "pipeline.branch_corpus kind 'branch_corpus' needs 'max_cycle'"),
    ("construct", {"pipeline": {**_STAGES, "kind": "stage"}},
     "unknown pipeline kind 'stage'"),
], ids=["pipeline-oops", "algebra-left-bogus", "stages-source-zzz",
        "corpus-x", "payoff-pipeline-both-shapes", "lift-no-restriction",
        "constant-no-value", "pair-no-g", "algebra-no-right",
        "stages-no-source", "corpus-no-max-cycle", "pipeline-kind"])
def test_construct_and_pipeline_payoffs_refuse_unread_keys(
        tmp_path, capsys, command, config, message):
    # construct's pipeline section, its sources and its corpus, and a
    # pipeline payoff, are checked as every other descriptor is: before,
    # the first five ran and exited 0 with the odd key unread
    make = {"play": play_config, "verify": verify_config}.get(command,
                                                              write_config)
    cfg = make(tmp_path, **config)
    assert entry([command, "--config", cfg]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_payoff_and_nested_sources_default_to_automaton():
    tree = cli.binary_tree()
    assert cli.build_payoff(_SOURCE, tree) == letter_output_automaton()
    nested = {**_ALGEBRA, "left": {**_SOURCE, "kind": "automaton"}}
    assert cli.build_payoff(nested, tree) == cli.build_payoff(_ALGEBRA, tree)


# --- suite --------------------------------------------------------------


def fake_results(all_pass):
    return [
        CriterionResult("c1_example", True, "all good", 10, 0.01, 5.0),
        CriterionResult("c2_example", all_pass, "checked", 20, 0.02, 5.0),
    ]


def test_suite_reports_lines_and_exit(tmp_path, capsys, monkeypatch):
    import limsupgames.acceptance as acceptance

    monkeypatch.setattr(acceptance, "run_all", lambda seed: fake_results(True))
    out_dir = tmp_path / "s"
    assert entry(["suite", "--seed", "7", "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("PASS c1_example:")
    assert out[-1] == "2/2 criteria passed in 0.03s (seed 7)"
    payload = json.loads((out_dir / "acceptance.json").read_text())
    assert payload["seed"] == 7
    assert [r["name"] for r in payload["results"]] == \
        ["c1_example", "c2_example"]

    monkeypatch.setattr(acceptance, "run_all",
                        lambda seed: fake_results(False))
    assert entry(["suite"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("FAIL c2_example:")


# --- top level ----------------------------------------------------------


def test_entry_requires_subcommand(capsys):
    assert entry([]) == 2
    capsys.readouterr()


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert entry(["play", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


# --- unusable inputs and outputs -----------------------------------------


_LETTER = letter_output_automaton().to_json_dict()
_CONFIGS = {
    "play": {"player_i": _FSM_I, "player_ii": _CONST_II, "horizon": 5},
    "verify": {"payoff": {"kind": "automaton", "automaton": _LETTER},
               "player_i": _COPYCAT,
               "player_ii": {"kind": "from_u", "automaton": _LETTER}},
    "construct": {"pipeline": {"stages": ["from-automaton", "construct_u"],
                               "source": {"automaton": _LETTER}}},
}
# the file each command writes first under --out
_FIRST_FILE = {"play": "trace.csv", "verify": "verdict.json",
               "construct": "function.json", "suite": "acceptance.json"}


def command_line(tmp_path, command, *extra):
    if command == "suite":
        return [command, *extra]
    cfg = write_config(tmp_path, **_CONFIGS[command])
    return [command, "--config", cfg, *extra]


@pytest.mark.parametrize("command", ["play", "verify", "construct", "suite"])
@pytest.mark.parametrize("where", ["file", "under-file", "file-in-dir"])
def test_unusable_out_exits_two(tmp_path, capsys, monkeypatch, command,
                                where):
    import limsupgames.acceptance as acceptance

    monkeypatch.setattr(acceptance, "run_all", lambda seed: fake_results(True))
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    out = {"file": blocker, "under-file": blocker / "sub",
           "file-in-dir": tmp_path / "o"}[where]
    if where == "file-in-dir":
        # the directory is usable, but the file's name is taken by a directory
        (out / _FIRST_FILE[command]).mkdir(parents=True)
    assert entry(command_line(tmp_path, command, "--out", str(out))) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write to {out}: "), err


@pytest.mark.parametrize("command", ["play", "verify", "construct"])
def test_config_that_is_not_utf8_exits_two(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_bytes(b"\xff\xfe{\x00}\x00")
    assert entry([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read config {path}: ")
    assert captured.out == ""


# --- construct's artifact formatters -------------------------------------

# text json must escape: quotes, backslashes, control characters, non-ASCII
_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\xe9\U0001f600'),
    st.characters()), max_size=12)
_DYADICS = st.builds(Dyadic, st.integers(-40, 40), st.integers(0, 6))
_BRANCHES = st.builds(
    EventuallyPeriodicBranch,
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.lists(st.integers(0, 3), min_size=1, max_size=3).map(tuple))
_REPORTS = st.builds(
    ConstructionReport,
    st.lists(st.builds(BranchCheck, _TEXT | _BRANCHES,
                       st.none() | _TEXT | _DYADICS,
                       st.none() | _TEXT | _DYADICS,
                       st.booleans(), st.booleans()),
             max_size=4).map(tuple),
    _TEXT, st.none())


def report_json(report):
    """The data construct wrote to report.json through `_dump`."""
    def text(v):
        return None if v is None else str(v)

    return {"label": report.label, "summary": report.summary(),
            "rows": [{"branch": str(r.branch), "expected": text(r.expected),
                      "got": text(r.got), "equal": r.equal,
                      "inconclusive": r.inconclusive} for r in report.rows]}


@settings(max_examples=200, deadline=None)
@given(_REPORTS)
@example(ConstructionReport((), "", None))
@example(ConstructionReport((BranchCheck(
    EventuallyPeriodicBranch((), (0,)), Dyadic(1), None, False, True),),
    "x", None))
def test_report_formatter_writes_json_dumps_bytes(report):
    assert cli._report_text(report) == cli._dump(report_json(report))


@st.composite
def _machines(draw):
    n = draw(st.integers(1, 4))
    width = draw(st.integers(1, 4))  # letters 0..width-2 and "default"
    cell = st.tuples(st.integers(0, n - 1), st.builds(
        "{}/2^{}".format, st.integers(-40, 40), st.integers(0, 6)))
    rows = [[draw(cell) for _ in range(width)] for _ in range(n)]
    return make_automaton(draw(st.integers(0, n - 1)),
                          [[q for q, _ in row] for row in rows],
                          [[v for _, v in row] for row in rows])


@settings(max_examples=200, deadline=None)
@given(_machines())
@example(letter_output_automaton())
@example(constant_automaton(Dyadic(-3, 2)))
def test_function_formatter_writes_json_dumps_bytes(machine):
    assert cli._function_text(machine) == \
        cli._dump({"automaton": machine.to_json_dict()})


# --- the parser ------------------------------------------------------------


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = entry(argv)
    return rc, out.getvalue(), err.getvalue()


def _outcome(argv):
    """(rc, stdout, stderr) of entry, or the exception it raises."""
    try:
        return _run(argv)
    except TypeError as e:
        return type(e), str(e)


def _argparse(argv):
    """vars() of what argparse reads from argv, or None if it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


_FLAGS = sorted({flag for _, _, arguments in cli._COMMANDS.values()
                 for flag, _ in arguments if flag.startswith("-")})
_VALUES = st.sampled_from(
    ["3", " 4", "1_0", "٣", "0x3", "-1", "two", "", "csv", "json", "none",
     "xml", "x.json", "stem=;cycle=0"]) | st.text(max_size=3)
_TOKENS = st.sampled_from(
    [*cli._COMMANDS, *_FLAGS, "--conf", "--hor", "--config=x.json",
     "--horizon=3", "-", "--", "-h", "--help"]) | _VALUES


@st.composite
def _lines(draw):
    """A command's positionals and some of its flags with values, shuffled,
    sometimes with a token dropped or a stray token added."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    line = []
    for flag, kw in cli._COMMANDS[name][2]:
        if not flag.startswith("-"):
            line.append([draw(_VALUES)])
        elif kw.get("required") or draw(st.booleans()):
            values = st.sampled_from(kw.get("choices", ("3", "x")))
            line.append([flag, draw(values | _VALUES)])
    line = draw(st.permutations(line))
    line = [token for pair in line for token in pair]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        at = draw(st.integers(0, len(line)))
        if line and draw(st.booleans()):
            del line[min(at, len(line) - 1)]
        else:
            line.insert(at, draw(_TOKENS))
    return [name, *line]


@settings(max_examples=400, deadline=None)
@given(_lines() | st.lists(_TOKENS, max_size=6))
@example(["construct", "--config", "x.json", "--out", ""])
@example(["play", "--out", "o", "--trace", "json", "--config", "c", "--horizon",
          " 7"])
@example(["verify", "--config", "c", "--cap", "٣"])
@example(["eval", "m.json", "stem=;cycle=0"])
@example(["suite"])
def test_plain_lines_read_as_argparse_reads_them(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == _argparse(argv)


def test_refused_lines_write_what_argparse_writes(tmp_path, monkeypatch):
    machine = letter_file(tmp_path)
    refused = [[], ["-h"], ["bogus"], ["constr"], ["construct"],
               ["construct", "--config", "x.json", "--cap", "3"],
               ["construct", "--config", "x.json", "extra"],
               ["construct", "--config=x.json"],
               ["construct", "--conf", "x.json"],
               ["construct", "--config", "x.json", "--config", "y.json"],
               ["construct", "--config", "-x.json"],
               ["eval", machine, "--", "-1"], ["eval", machine],
               ["play", "--horizon", "two"], ["suite", "--seed", "x"],
               ["play", "--config", "x.json", "--trace", "xml"]] + \
        [[command, "-h"] for command in cli._COMMANDS]
    non_str = [[3], [None], [b"eval"], [["construct"]], ["construct", 3],
               ["construct", "--config", None], ["eval", None, "x"],
               ["eval", machine, b"x"], ["suite", "--seed", 3],
               ["play", "--config", "x.json", "--trace", None]]
    plain = [["eval", machine, "stem=;cycle=0,1"],
             ["construct", "--config", str(tmp_path / "missing.json")]]
    assert all(cli._plain_args(argv) is None for argv in refused + non_str)
    assert all(cli._plain_args(argv) is not None for argv in plain)
    corpus = refused + non_str + plain
    got = [_outcome(argv) for argv in corpus]
    monkeypatch.setattr(cli, "_plain_args", lambda argv: None)
    for argv, outcome in zip(corpus, got):
        assert outcome == _outcome(argv), argv
    for argv, outcome in zip(refused, got):
        assert outcome[0] in (0, 2) and outcome[1] + outcome[2], argv
    # argparse names the command argument by its metavar, if it has one
    assert got[0][2].endswith("required: command\n")
    assert "argument command: invalid choice: 'bogus'" in got[2][2]
    assert got[len(refused) + 3] == (TypeError, "unhashable type: 'list'")


def test_only_refused_lines_build_the_parser(tmp_path, capsys, monkeypatch):
    built = []
    add = argparse._SubParsersAction.add_parser

    def counted(self, name, **kw):
        built.append(name)
        return add(self, name, **kw)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    argv = command_line(tmp_path, "construct")
    assert entry(argv) == 0
    assert built == []
    assert entry(["construct", f"--config={argv[2]}"]) == 0
    assert built == ["eval", "play", "verify", "construct", "suite"]
    assert entry([]) == 2
    assert "{eval,play,verify,construct,suite}" in capsys.readouterr().err
