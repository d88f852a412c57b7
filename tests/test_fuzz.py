"""Fuzzed machine and config JSON: every input loads or exits 2, never a
traceback."""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from limsupgames.automata import NodeAutomaton
from limsupgames.cli import ConfigError, ExperimentConfig, entry

DYADIC_TEXT = st.sampled_from(["0/2^0", "1/2^1", "-3/2^2", "1", "x", "0.5"])
LEAVES = (st.none() | st.booleans() | st.integers(-3, 6) | DYADIC_TEXT
          | st.floats(-4, 4, allow_nan=False) | st.text(max_size=4)
          | st.just("default"))
JSON = st.recursive(
    LEAVES, lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8)


@st.composite
def machine_dicts(draw):
    """A well-formed machine, then up to two entries replaced by arbitrary
    JSON or dropped, so both sides of the loader get exercised."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    rows = [[q, c if c < k else "default", draw(st.integers(0, n - 1)),
             draw(DYADIC_TEXT)] for q in range(n) for c in range(k + 1)]
    data = {"states": n, "initial": draw(st.integers(0, n - 1)),
            "letters": k, "transitions": rows}
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from(
            ["states", "initial", "letters", "transitions", "row", "cell",
             "drop"]))
        if where == "drop":
            data.pop(draw(st.sampled_from(sorted(data))), None)
        elif where in ("row", "cell") and rows:
            i = draw(st.integers(0, len(rows) - 1))
            if where == "row":
                rows[i] = draw(JSON)
            elif isinstance(rows[i], list) and rows[i]:
                # an earlier "row" mutation may have left a shorter list
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(JSON)
        else:
            data[where] = draw(JSON)
    return data


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = entry(argv)
    return rc, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(machine_dicts())
def test_fuzzed_machine_json_loads_or_exits_two(tmp_path_factory, data):
    try:
        u = NodeAutomaton.from_json_dict(data)
    except (KeyError, TypeError, ValueError):
        u = None
    path = tmp_path_factory.getbasetemp() / "fuzz-machine.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rc, err = run_cli(["eval", str(path), "stem=0;cycle=1"])
    if u is None:
        assert rc == 2 and err.startswith("error:"), (data, rc, err)
    else:
        assert rc == 0, (data, err)
        back = u.to_json_dict()
        assert NodeAutomaton.from_json_dict(back) == u
        # a loaded count or state is the very JSON value given, not a
        # float or bool that aliases it
        for key in ("states", "letters", "initial"):
            assert json.dumps(back[key]) == json.dumps(data[key]), key


MACHINE = {"states": 1, "initial": 0, "letters": 0,
           "transitions": [[0, "default", 0, "1/2^1"]]}


def field(valid):
    return st.one_of(st.sampled_from(valid), JSON)


PLAYER_I = st.one_of(
    st.fixed_dictionaries({"kind": field(["copycat", "meager_dense",
                                          "oscillation", "bogus"])}),
    st.fixed_dictionaries({"kind": st.just("approx_copycat"),
                           "cap": field([None, 0, 3])}),
    st.fixed_dictionaries({"kind": st.just("random_fsm"),
                           "states": field([1, 2]),
                           "values": field([[], ["1/2^1"]]),
                           "seed": field([0, 9])}),
    st.fixed_dictionaries({"kind": st.just("lift"),
                           "base": field([{"kind": "copycat"}]),
                           "restriction": field([["0/2^0", "1/2^0"]])}),
    st.fixed_dictionaries({"kind": st.just("relabel"),
                           "base": field([{"kind": "copycat"}]),
                           "mapping": field([{"0/2^0": "1/2^0"}])}),
    JSON)
PLAYER_II = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"),
                           "value": field(["1/2^1"]),
                           "covalue": field([None, "0/2^0"])}),
    st.fixed_dictionaries({"kind": st.just("from_u"),
                           "automaton": field([MACHINE])}),
    st.fixed_dictionaries({"kind": st.just("random_fsm"),
                           "states": field([1, 2]),
                           "values": field([["0/2^0", "1/2^0"]]),
                           "seed": field([0, 9])}),
    st.fixed_dictionaries({"kind": st.just("pair"),
                           "f": field([{"kind": "constant", "value": "1"}]),
                           "g": field([{"kind": "constant", "value": "0"}])}),
    JSON)
CONFIG_FIELDS = {
    "game": field(["gamma", "gamma_prime", "gamma_restricted"]),
    "tree": field(["binary", "nat"]),
    "restriction": field([None, ["0/2^0", "1/2^0"]]),
    "payoff": field([None, {"kind": "indicator"},
                     {"kind": "automaton", "automaton": MACHINE}]),
    "player_i": PLAYER_I,
    "player_ii": PLAYER_II,
    "horizon": field([0, 5, 12]),
    "cap": field([0, 40]),
    "seed": field([0, 3]),
    "trace_format": field(["csv", "json", "none"]),
    "bogus": JSON,
}


@st.composite
def config_dicts(draw):
    """A playable config with one player and a few more fields replaced or
    dropped."""
    data = {"tree": "nat", "player_i": {"kind": "copycat"},
            "player_ii": {"kind": "constant", "value": "1/2^1"}, "horizon": 5}
    who = draw(st.sampled_from(["player_i", "player_ii"]))
    data[who] = draw(CONFIG_FIELDS[who])
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_FIELDS)),
                             unique=True, max_size=2)):
        if draw(st.booleans()):
            data[key] = draw(CONFIG_FIELDS[key])
        else:
            data.pop(key, None)
    return data


@settings(max_examples=200, deadline=None)
@given(config_dicts(), st.sampled_from(["play", "verify"]))
@example({"tree": "nat", "horizon": 5,
          "player_i": {"kind": "lift", "base": {"kind": "copycat"},
                       "restriction": []},
          "player_ii": {"kind": "constant", "value": "1/2^1"}}, "play")
def test_fuzzed_config_json_loads_or_exits_two(tmp_path_factory, data, command):
    text = json.dumps(data)
    try:
        cfg = ExperimentConfig.parse(text)
    except ConfigError:
        cfg = None
    if cfg is not None:
        assert ExperimentConfig.parse(cfg.serialize()) == cfg
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz-config.json"
    path.write_text(text, encoding="utf-8")
    # --out keeps a fuzzed out_dir from writing anywhere but the temp dir
    argv = [command, "--config", str(path), "--out", str(base / "fuzz-out")]
    if command == "verify":
        argv += ["--cap", "40"]
    rc, err = run_cli(argv)
    # verify exits 1 on an undecided verdict
    assert rc in ((0, 1, 2) if command == "verify" else (0, 2)), (data, rc)
    if cfg is None or rc == 2:
        assert rc == 2 and err.startswith("error:"), (data, rc, err)


SMALL = st.sampled_from([-1, 0, 1, 2, 1.5, True, "1", None])
# every key some descriptor reads; a junk key is none of them
READ = {"kind", "op", "left", "right", "stages", "source", "branch_corpus",
        "automaton", "file", "max_stem", "max_cycle"}
JUNK = st.text(min_size=1, max_size=4).filter(lambda k: k not in READ)


@st.composite
def pipelines(draw):
    """A construct pipeline of either shape, perhaps with a branch corpus,
    and the level one junk key went in at, or None."""
    if draw(st.booleans()):
        pipe = {"op": draw(field(["sum", "min", "max"])),
                "left": {"automaton": MACHINE}, "right": {"file": "m.json"}}
    else:
        pipe = {"stages": draw(field([
                    ["from-automaton", "construct_u"],
                    ["from-automaton", "discretize", "construct_u"]])),
                "source": draw(st.sampled_from([{"automaton": MACHINE},
                                                {"file": "m.json"}]))}
    if draw(st.booleans()):
        pipe["branch_corpus"] = {"max_stem": draw(SMALL),
                                 "max_cycle": draw(SMALL)}
    level = draw(st.sampled_from(
        [None, "pipeline"] + [k for k in ("left", "right", "source",
                                          "branch_corpus") if k in pipe]))
    if level is not None:
        part = pipe if level == "pipeline" else pipe[level]
        part[draw(JUNK)] = draw(JSON)
    return pipe, level


@settings(max_examples=150, deadline=None)
@given(pipelines(), st.sampled_from(["binary", "nat"]))
def test_fuzzed_pipelines_construct_or_exit_two(tmp_path_factory, drawn, tree):
    pipe, junk_at = drawn
    base = tmp_path_factory.getbasetemp()
    (base / "m.json").write_text(json.dumps(MACHINE), encoding="utf-8")
    path = base / "fuzz-pipeline.json"
    path.write_text(json.dumps({"tree": tree, "pipeline": pipe}),
                    encoding="utf-8")
    # machine files resolve against the working directory
    with contextlib.chdir(base):
        rc, err = run_cli(["construct", "--config", str(path),
                           "--out", str(base / "fuzz-out")])
    assert rc in (0, 1, 2), (pipe, rc)
    if rc == 2:
        assert err.startswith("error:"), (pipe, err)
    # a key no descriptor reads is refused at whatever level it sits
    if junk_at is not None:
        assert rc == 2, (pipe, junk_at)
