"""Command line front end: eval, play, verify, construct, suite.

One binary, five subcommands, one seed.  Every byte written is a pure
function of (config, seed, package version): no timestamps, sorted JSON
keys, fixed float formatting in the suite report only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional, Tuple

from .automata import NodeAutomaton, lasso_summary
from .construction import (AlgebraFunction, ConstructionState, algebra,
                           minimize_labeling, verify_construction)
from .corpus import (DEFAULT_SEED, branch_corpus, letter_fsm, rng_stream,
                     value_fsm)
from .dyadic import Dyadic, as_dyadic
from .families import discretize, family_from_automaton
from .games import (MAX_TRACE_ROUNDS, VARIANTS, FiniteValueSet, GameKind,
                    StrategyI, StrategyII, exact_verdict, finite_value_set,
                    play)
from .strategies import (ConstantII, IndicatorPayoff, approx_copycat,
                         copycat_strategy, eventually_zero_instance,
                         indicator_oscillation_instance, lift_strategy,
                         pair_strategies, relabel_strategy,
                         strategy_i_meager_dense, strategy_i_oscillation,
                         strategy_ii_from_u)
from .trees import (EventuallyPeriodicBranch, TreeSpec, binary_tree, nat_tree,
                    parse_branch)


class ConfigError(ValueError):
    """Configuration or contract violation; maps to exit code 2."""


def _dyadic(v, what: str) -> Dyadic:
    try:
        return as_dyadic(v)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{what}: {e}") from None


def _int(v, what: str, least: int = 0) -> int:
    # JSON integers only: a bool or a float would alias an integer
    if type(v) is not int or v < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {v!r}")
    return v


def _dyadics(values, what: str) -> list:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{what} must be a list of dyadic values")
    return [_dyadic(v, what) for v in values]


def _value_set(values, what: str) -> FiniteValueSet:
    ds = _dyadics(values, what)
    try:
        return finite_value_set(ds)
    except ValueError as e:
        raise ConfigError(f"{what}: {e}") from None


# ---------------------------------------------------------------------------
# configuration

_TREES = ("binary", "nat")
_TRACE_FORMATS = ("csv", "json", "none")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the game, the payoff source, both players, budgets.

    Round-trips through serialize/parse bit-exactly; unknown keys are
    rejected rather than dropped so a config never silently degrades.
    """

    game: str = "gamma"
    tree: str = "binary"
    restriction: Optional[Tuple[str, ...]] = None
    payoff: Optional[dict] = None
    pipeline: Optional[dict] = None
    player_i: Optional[dict] = None
    player_ii: Optional[dict] = None
    horizon: int = 200
    cap: int = 50000
    seed: int = DEFAULT_SEED
    out_dir: Optional[str] = None
    trace_format: str = "csv"

    def __post_init__(self):
        if self.game not in VARIANTS:
            raise ConfigError(f"game must be one of {VARIANTS}, got {self.game!r}")
        if self.tree not in _TREES:
            raise ConfigError(f"tree must be one of {_TREES}, got {self.tree!r}")
        if self.trace_format not in _TRACE_FORMATS:
            raise ConfigError(
                f"trace must be one of {_TRACE_FORMATS}, got {self.trace_format!r}")
        if (self.game == "gamma_restricted") != (self.restriction is not None):
            raise ConfigError("restriction goes with gamma_restricted, only")
        if self.restriction is not None:
            _dyadics(self.restriction, "restriction")
            object.__setattr__(self, "restriction", tuple(self.restriction))
        for name in ("payoff", "pipeline"):
            val = getattr(self, name)
            if val is not None and not isinstance(val, dict):
                raise ConfigError(f"{name} must be a JSON object")
        for name in ("horizon", "cap", "seed"):
            _int(getattr(self, name), name)
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        # the engine hard-caps every trace; declaring more is a config error,
        # never a silent truncation
        if self.horizon > MAX_TRACE_ROUNDS or self.cap > MAX_TRACE_ROUNDS:
            raise ConfigError(
                f"horizon and cap are limited to {MAX_TRACE_ROUNDS} rounds")

    def to_json_dict(self) -> dict:
        return asdict(self)

    def serialize(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ExperimentConfig.parse(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None


# command-line flag -> the config field it overrides
_OVERRIDES = {"horizon": "horizon", "cap": "cap", "out": "out_dir",
              "trace": "trace_format"}


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    changes = {field: getattr(args, flag) for flag, field in _OVERRIDES.items()
               if getattr(args, flag, None) is not None}
    return replace(cfg, **changes) if changes else cfg


# ---------------------------------------------------------------------------
# builders

def resolve_tree(cfg: ExperimentConfig) -> TreeSpec:
    return binary_tree() if cfg.tree == "binary" else nat_tree()


def resolve_kind(cfg: ExperimentConfig) -> GameKind:
    restriction = None if cfg.restriction is None else \
        _value_set(cfg.restriction, "restriction")
    return GameKind(cfg.game, resolve_tree(cfg), restriction)


# lift, relabel and pair descriptors nest, and their builders recurse once
# a level; a descriptor deeper than this is refused before it is built
MAX_NESTING = 64

# where a descriptor sits -> its kind -> (required keys, optional keys),
# besides "kind".  A player descriptor names its kind; any other that
# names none has the first kind of its place, except a pipeline, whose
# kind is its shape: algebra when it has an "op", stages otherwise (a
# pipeline payoff's kind 'pipeline' names no shape)
_AUTOMATON = ((), ("automaton", "file"))
_ALGEBRA = ("op", "left", "right")
_FSM = (("states", "values", "seed"), ())
_KEYS = {
    "player_i": {"copycat": ((), ()), "approx_copycat": ((), ("cap",)),
                 "meager_dense": ((), ()), "oscillation": ((), ()),
                 "lift": (("base", "restriction"), ()),
                 "relabel": (("base", "mapping"), ()), "random_fsm": _FSM},
    "player_ii": {"from_u": _AUTOMATON,
                  "constant": (("value",), ("covalue",)),
                  "pair": (("f", "g"), ()), "random_fsm": _FSM},
    "payoff": {"automaton": _AUTOMATON, "algebra": (_ALGEBRA, ()),
               "indicator": ((), ()),
               "pipeline": ((), _ALGEBRA + ("stages", "source"))},
    "source": {"automaton": _AUTOMATON},
    "pipeline": {"algebra": (_ALGEBRA, ("branch_corpus",)),
                 "stages": (("stages", "source"), ("branch_corpus",))},
    "branch_corpus": {"branch_corpus": (("max_stem", "max_cycle"), ())},
}


def _descriptor_kind(desc, who: str, place: str) -> str:
    """The kind of the descriptor at path `who`, which sits at `place`.

    Refuses a descriptor nested more than MAX_NESTING levels deep, one that
    is not an object, an unknown kind, a missing key and a key its kind
    never reads, and names `who` in each error.
    """
    if who.count(".") > MAX_NESTING:
        raise ConfigError(f"{who} nests more than {MAX_NESTING} levels deep")
    kinds = _KEYS[place]
    if place.startswith("player") and not (isinstance(desc, dict)
                                           and "kind" in desc):
        raise ConfigError(f"{who} needs a strategy descriptor with a 'kind'")
    if not isinstance(desc, dict):
        raise ConfigError(f"{who} must be a JSON object")
    if place == "pipeline" and desc.get("kind", "pipeline") == "pipeline":
        kind = "algebra" if "op" in desc else "stages"
    else:
        kind = desc.get("kind", next(iter(kinds)))
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {who} kind {kind!r}")
    required, optional = kinds[kind]
    missing = ", ".join(repr(k) for k in required if k not in desc)
    if missing:
        raise ConfigError(f"{who} kind {kind!r} needs {missing}")
    unread = set(desc) - {"kind", *required, *optional}
    if unread:
        raise ConfigError(f"{who} kind {kind!r} does not read "
                          f"{', '.join(map(repr, sorted(unread)))}")
    return kind


def resolve_automaton(src, who: str, place: str = "source") -> NodeAutomaton:
    """The machine of the automaton descriptor at path `who`, which sits at
    `place`: inline under 'automaton' or in a 'file'."""
    kind = _descriptor_kind(src, who, place)
    if ("automaton" in src) == ("file" in src):
        raise ConfigError(
            f"{who} kind {kind!r} needs exactly one of 'automaton' and 'file'")
    if "automaton" in src:
        try:
            return NodeAutomaton.from_json_dict(src["automaton"])
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigError(f"{who}.automaton is malformed: {e}") from None
    try:
        return NodeAutomaton.load(src["file"])
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"cannot load automaton {src['file']}: {e}") from None


def resolve_algebra(src: dict, tree: TreeSpec, who: str) -> AlgebraFunction:
    u1, u2 = (resolve_automaton(src[k], f"{who}.{k}") for k in ("left", "right"))
    try:
        return algebra(u1, u2, src["op"], tree)
    except ValueError as e:
        raise ConfigError(f"{who}: {e}") from None


def build_payoff(src: Optional[dict], tree: TreeSpec):
    if src is None:
        raise ConfigError("config has no payoff source")
    kind = _descriptor_kind(src, "payoff", "payoff")
    if kind == "automaton":
        return resolve_automaton(src, "payoff", "payoff")
    if kind == "algebra":
        return resolve_algebra(src, tree, "payoff").machine
    if kind == "indicator":
        return IndicatorPayoff()
    fam, _ = build_pipeline(src, tree, "payoff")  # pipeline
    return minimize_labeling(ConstructionState(fam))


def _fsm_params(desc: dict, who: str):
    """(rng, states, values) of a random_fsm descriptor."""
    states = _int(desc["states"], f"{who}.states", 1)
    values = _dyadics(desc["values"], f"{who}.values")
    seed = _int(desc["seed"], f"{who}.seed")
    return rng_stream(seed, "random-fsm"), states, values


def build_strategy_i(desc: Optional[dict], cfg: ExperimentConfig,
                     who: str = "player_i") -> StrategyI:
    kind = _descriptor_kind(desc, who, "player_i")
    if kind == "copycat":
        return copycat_strategy()
    if kind == "approx_copycat":
        cap = desc.get("cap")
        return approx_copycat(
            search_cap=None if cap is None else _int(cap, f"{who}.cap"))
    if kind == "meager_dense":
        return strategy_i_meager_dense(eventually_zero_instance())
    if kind == "oscillation":
        if cfg.game != "gamma_prime":
            raise ConfigError(f"{who} oscillation plays only in game "
                              "gamma_prime")
        return strategy_i_oscillation(indicator_oscillation_instance())
    if kind == "lift":
        base = build_strategy_i(desc["base"], cfg, f"{who}.base")
        return lift_strategy(
            base, _value_set(desc["restriction"], f"{who}.restriction"))
    if kind == "relabel":
        base = build_strategy_i(desc["base"], cfg, f"{who}.base")
        what = f"{who}.mapping"
        if not isinstance(desc["mapping"], dict):
            raise ConfigError(f"{what} must be an object")
        mapping = {_dyadic(k, what): _dyadic(v, what)
                   for k, v in desc["mapping"].items()}
        try:
            return relabel_strategy(base, mapping)
        except ValueError as e:
            raise ConfigError(f"{what}: {e}") from None
    return letter_fsm(*_fsm_params(desc, who))  # random_fsm


def build_strategy_ii(desc: Optional[dict], cfg: ExperimentConfig,
                      who: str = "player_ii") -> StrategyII:
    kind = _descriptor_kind(desc, who, "player_ii")
    if kind == "from_u":
        return strategy_ii_from_u(resolve_automaton(desc, who, "player_ii"))
    if kind == "constant":
        cov = desc.get("covalue")
        return ConstantII(_dyadic(desc["value"], f"{who}.value"),
                          None if cov is None else _dyadic(cov, f"{who}.covalue"))
    if kind == "pair":
        parts = [build_strategy_ii(desc[k], cfg, f"{who}.{k}")
                 for k in ("f", "g")]
        try:
            return pair_strategies(*parts)
        except ValueError as e:
            raise ConfigError(f"{who}: {e}") from None
    rng, states, values = _fsm_params(desc, who)  # random_fsm
    if not values:
        raise ConfigError(f"{who}.values must be nonempty")
    return value_fsm(rng, states, lambda: rng.choice(values),
                     cfg.game == "gamma_prime")


def build_player_ii(cfg: ExperimentConfig) -> StrategyII:
    """The config's player II, which answers pairs (holds a covalue
    machine) iff the game is gamma_prime."""
    sII = build_strategy_ii(cfg.player_ii, cfg)
    if (sII.w is None) == (cfg.game == "gamma_prime"):
        what = "single values" if sII.w is None else "pairs"
        raise ConfigError(f"player_ii answers {what} in game {cfg.game}")
    return sII


# ---------------------------------------------------------------------------
# output plumbing

def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# construct's two artifacts have fixed shapes, so they are written directly:
# `_dump` would spend most of their cost in json's pure-Python indenter
def _lit(v) -> str:
    """A value as `_dump` writes it: None, a bool, an int, or else its str."""
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    return str(v) if type(v) is int else _quote(str(v))


def _report_text(report) -> str:
    """report.json: the report's label, summary and rows."""
    rows = ",\n".join(
        f'    {{\n      "branch": {_lit(r.branch)},\n'
        f'      "equal": {_lit(r.equal)},\n'
        f'      "expected": {_lit(r.expected)},\n'
        f'      "got": {_lit(r.got)},\n'
        f'      "inconclusive": {_lit(r.inconclusive)}\n    }}'
        for r in report.rows)
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    return (f'{{\n  "label": {_lit(report.label)},\n'
            f'  "rows": {rows},\n  "summary": {_lit(report.summary())}\n}}\n')


def _function_text(machine: NodeAutomaton) -> str:
    """function.json: `{"automaton": ...}` holding the machine's JSON form."""
    m = machine.to_json_dict()
    rows = ",\n".join(
        f"      [\n        {q},\n        {_lit(c)},\n        {p},\n"
        f"        {_lit(v)}\n      ]" for q, c, p, v in m["transitions"])
    return (f'{{\n  "automaton": {{\n    "initial": {m["initial"]},\n'
            f'    "letters": {m["letters"]},\n    "states": {m["states"]},\n'
            f'    "transitions": [\n{rows}\n    ]\n  }}\n}}\n')


def _make_out_dir(path: Optional[str]) -> None:
    """Create a command's output directory, if it has one, before its work."""
    if path is not None:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot write to {path}: {e}") from None


def _write(out_dir: str, name: str, text: str) -> None:
    try:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write to {out_dir}: {e}") from None


def _emit_trace(trace, cfg: ExperimentConfig, side: dict) -> None:
    """Write the trace and its sidecar `side` (trace.sidecar())."""
    if cfg.out_dir is None or cfg.trace_format == "none":
        return
    if cfg.trace_format == "csv":
        _write(cfg.out_dir, "trace.csv", trace.to_csv_text())
        _write(cfg.out_dir, "trace.json", _dump(side))
    else:
        cols = trace.columns()
        ws = itertools.repeat(None) if len(cols) == 2 else map(str, cols[2])
        rows = [{"t": t, "x_t": x, "v_t": str(v), "w_t": w}
                for t, x, v, w in zip(itertools.count(), cols[0], cols[1], ws)]
        _write(cfg.out_dir, "trace.json", _dump({**side, "rows": rows}))


# ---------------------------------------------------------------------------
# subcommands

def cmd_eval(args) -> int:
    u = resolve_automaton({"file": args.automaton}, "automaton")
    if not isinstance(args.branch, str):
        # argparse drops "--" tokens, so the text "--" after a "--" arrives
        # as an empty list
        raise ConfigError("bad branch descriptor: no branch text")
    try:
        x = parse_branch(args.branch)
    except ValueError as e:
        raise ConfigError(f"bad branch descriptor: {e}") from None
    cert = lasso_summary(u, x)
    print(str(cert.limsup))
    cyc = ", ".join(str(v) for v in cert.cycle_outputs)
    print(f"lasso: start={cert.start} period={cert.period} "
          f"cycle_outputs=[{cyc}]")
    return 0


def cmd_play(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    kind = resolve_kind(cfg)
    sI = build_strategy_i(cfg.player_i, cfg)
    sII = build_player_ii(cfg)
    _make_out_dir(None if cfg.trace_format == "none" else cfg.out_dir)
    trace = play(kind, sI, sII, cfg.horizon)
    if trace.fault is not None:
        sys.stderr.write(_dump({"fault": trace.fault.to_json_dict()}))
    side = trace.sidecar()
    sys.stdout.write(_dump({**side, "counters_I": sI.counters(),
                            "counters_II": sII.counters()}))
    _emit_trace(trace, cfg, side)
    return 0


def cmd_verify(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    kind = resolve_kind(cfg)
    payoff = build_payoff(cfg.payoff, resolve_tree(cfg))
    sI = build_strategy_i(cfg.player_i, cfg)
    sII = build_player_ii(cfg)
    if not (sI.finite_state and sII.finite_state):
        raise ConfigError(
            "verify needs both strategies to declare finite state; "
            "use play for declared-unbounded strategies")
    _make_out_dir(cfg.out_dir)
    verdict = exact_verdict(kind, sI, sII, payoff, cap=cfg.cap)
    vj = verdict.to_json_dict()
    if verdict.fault is not None:
        sys.stderr.write(_dump({"fault": vj["fault"]}))
    sys.stdout.write(_dump(vj))
    if cfg.out_dir is not None:
        _write(cfg.out_dir, "verdict.json", _dump(vj))
    return 0 if verdict.exact else 1


# the stage lists a stage pipeline may declare
_STAGES = (["from-automaton", "construct_u"],
           ["from-automaton", "discretize", "construct_u"])


def build_pipeline(pipe: dict, tree: TreeSpec, who: str = "pipeline"):
    """Resolve the pipeline at path `who` to (family, target fn)."""
    if _descriptor_kind(pipe, who, "pipeline") == "algebra":
        af = resolve_algebra(pipe, tree, who)
        return af.family, af.expected_on
    if pipe["stages"] not in _STAGES:
        raise ConfigError(f"{who}.stages must be one of {_STAGES}")
    fam = family_from_automaton(
        resolve_automaton(pipe["source"], f"{who}.source"), tree)
    if "discretize" in pipe["stages"]:
        fam = discretize(fam)
    return fam, None


def _declared_corpus(pipe: dict, tree: TreeSpec):
    alphabet = tree.alphabet if tree.alphabet is not None else (0, 1)
    decl = pipe.get("branch_corpus")
    if decl is not None:
        who = "pipeline.branch_corpus"
        _descriptor_kind(decl, who, "branch_corpus")
        # max_cycle 0 would leave the corpus empty
        return branch_corpus(_int(decl["max_stem"], f"{who}.max_stem"),
                             _int(decl["max_cycle"], f"{who}.max_cycle", 1),
                             alphabet)
    # default: every stem to depth 3 with each single-letter cycle
    return [EventuallyPeriodicBranch(s, (a,)) for n in range(4)
            for s in itertools.product(alphabet, repeat=n) for a in alphabet]


def cmd_construct(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if cfg.pipeline is None:
        raise ConfigError("construct needs a 'pipeline' section in the config")
    tree = resolve_tree(cfg)
    fam, target = build_pipeline(cfg.pipeline, tree)
    corpus = _declared_corpus(cfg.pipeline, tree)
    _make_out_dir(cfg.out_dir)
    report = verify_construction(fam, corpus, target_fn=target)
    if cfg.out_dir is not None:
        _write(cfg.out_dir, "function.json", _function_text(report.machine))
        _write(cfg.out_dir, "report.json", _report_text(report))
    print(report.summary())
    print(f"minimized to {report.machine.num_states} state(s)")
    return 0 if report.all_equal else 1


def cmd_suite(args) -> int:
    # imported here: no other command needs the acceptance criteria
    from .acceptance import run_all
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    _make_out_dir(args.out)
    results = run_all(seed)
    for r in results:
        print(r.line())
    passed = sum(1 for r in results if r.passed)
    total = sum(r.seconds for r in results)
    print(f"{passed}/{len(results)} criteria passed in {total:.2f}s "
          f"(seed {seed})")
    if args.out is not None:
        payload = {
            "seed": seed,
            "results": [{
                "name": r.name, "passed": r.passed, "details": r.details,
                "checks": r.count, "seconds": round(r.seconds, 4),
                "budget": r.budget,
            } for r in results],
        }
        _write(args.out, "acceptance.json", _dump(payload))
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# argument surface

_CONFIG_ARGS = (
    ("--config", {"required": True, "help": "experiment JSON file"}),
    ("--out", {"help": "output directory"}))

# name -> (handler, help, arguments); each command takes only the overrides
# it reads
_COMMANDS = {
    "eval": (cmd_eval, "evaluate a machine's limsup on an eventually "
                       "periodic branch",
             (("automaton", {"help": "machine JSON file"}),
              ("branch", {"help": "branch descriptor, e.g. "
                                  "'stem=0,1;cycle=1,0'"}))),
    "play": (cmd_play, "run one game and record the trace",
             _CONFIG_ARGS + (("--horizon", {"type": int}),
                             ("--trace", {"choices": _TRACE_FORMATS}))),
    "verify": (cmd_verify, "play to an exact lasso-certified verdict",
               _CONFIG_ARGS + (("--cap", {"type": int}),)),
    "construct": (cmd_construct, "run a labeling pipeline and verify it on "
                                 "a branch corpus", _CONFIG_ARGS),
    "suite": (cmd_suite, "run the acceptance criteria",
              (("--seed", {"type": int}),
               ("--out", {"help": "report directory"}))),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, for the lines `_plain_args` refuses."""
    parser = argparse.ArgumentParser(
        prog="limsup-games",
        description="Exact simulation and verification of limsup-payoff "
                    "games on pruned trees.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv) -> Optional[argparse.Namespace]:
    """The namespace `build_parser()` makes of a plain line, else None.

    A plain line is a command name, then exactly its positionals and its
    required flags, and each flag at most once, spelled in full, with one
    value that does not start with "-" and that the flag's type and
    choices accept.  Any other line (help, usage, errors) goes to argparse,
    whose set-up costs more than reading a plain line.
    """
    if not argv or type(argv[0]) is not str or argv[0] not in _COMMANDS:
        return None
    func, _, arguments = _COMMANDS[argv[0]]
    kws, words, given = dict(arguments), [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if type(token) is not str:
            return None
        if token.startswith("-"):
            value = next(tokens, None)
            if (token in given or token not in kws
                    or type(value) is not str or value.startswith("-")):
                return None
            given[token] = value
        else:
            words.append(token)
    positionals = [flag for flag, _ in arguments if flag[0] != "-"]
    if len(words) != len(positionals):
        return None
    given.update(zip(positionals, words))
    args = argparse.Namespace(command=argv[0], func=func)
    for flag, kw in arguments:
        value = given.get(flag)
        if value is None:
            if kw.get("required"):
                return None
        else:
            try:
                value = kw.get("type", str)(value)
            except ValueError:
                return None
            if value not in kw.get("choices", (value,)):
                return None
        setattr(args, flag.lstrip("-"), value)
    return args


def entry(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as e:
            return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def main() -> None:
    sys.exit(entry())


if __name__ == "__main__":
    main()
