"""The four benchmark workloads.

Each workload turns a seed into inputs with the package's own `corpus`
generators (set-up), then yields items.  An item is a pair of closures:

  run()          the program call being measured (timed)
  check(result, need_out)
                 the benchmark's independent oracle (not timed); returns
                 (output bytes for the digest, or b"" unless need_out; ok;
                 game rounds played)

Items are generated lazily and build fresh program objects, so a second
pass over the same seed repeats the same calls exactly.  `sabotage` shifts
each oracle's expected value, which must make every check fail; the
self-test uses it to show the checkers are live.

Why these four: two lean on construction (the joint-kernel labeler; the
single-machine level scan plus minimization) and two on the game engine
(long runs; many short lasso-certified runs), so every layer an
optimisation is likely to touch does most of the work in one workload and
little in another.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil

TINY = (1, 2 ** 20)  # numerator, exponent of the sabotage shift


def _apply_op(op, a, b):
    if op == "sum":
        return a + b
    return min(a, b) if op == "min" else max(a, b)


def _shift(M, value, sabotage):
    return value + M.dyadic.Dyadic(*TINY) if sabotage else value


def _cli(M, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = M.cli.entry(argv)
    return rc, out.getvalue()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class AlgebraSweep:
    """One item: one branch check of op(f1, f2) built by construction.algebra."""

    name = "algebra-sweep"
    block = 1
    trace_items = 480  # two pairs x three ops x 80 branches
    pool = 64

    def setup(self, M, seed, workdir):
        rng = M.corpus.rng_stream(seed, "bench-algebra-pairs")
        pairs = [(M.corpus.random_automaton(rng, 3, 2, 2),
                  M.corpus.random_automaton(rng, 3, 2, 2))
                 for _ in range(self.pool)]
        return {"pairs": pairs, "branches": M.corpus.branch_corpus(3, 3)}

    def items(self, M, data, sabotage=False):
        pairs, branches = data["pairs"], data["branches"]
        eval_limsup = M.automata.eval_limsup
        for k in itertools.count():
            u1, u2 = pairs[k % len(pairs)]
            for op in ("sum", "min", "max"):
                built = {}
                for j, x in enumerate(branches):
                    def run(u1=u1, u2=u2, op=op, x=x, first=(j == 0),
                            built=built):
                        if first:
                            built["af"] = M.construction.algebra(u1, u2, op)
                        af = built["af"]
                        return af.value_on(x), af.expected_on(x)

                    def check(res, need_out, u1=u1, u2=u2, op=op, x=x, k=k):
                        got, want = res
                        oracle = _shift(M, _apply_op(
                            op, eval_limsup(u1, x), eval_limsup(u2, x)),
                            sabotage)
                        out = f"{k} {op} {x} {got}\n".encode()
                        return out, got == oracle and want == oracle, 0

                    yield run, check


class ConstructCli:
    """One item: one in-process `limsup-games construct` command.

    Eight of every eleven configs are stage pipelines on one seeded machine,
    the other three are algebra pipelines (sum, min, max) on a seeded pair;
    runs stop only at the end of such a rotation, so every run has the mix.
    Algebra commands cost more and vary more, so with them in a clear
    minority the median item stays a stage pipeline.
    """

    name = "construct-cli"
    block = 11
    trace_items = 4
    pool = 22
    ORDER = (None, "sum", None, None, "min", None, None, "max", None, None,
             None)
    STAGES = ["from-automaton", "discretize", "construct_u"]

    def setup(self, M, seed, workdir):
        rng = M.corpus.rng_stream(seed, "bench-construct")
        os.makedirs(os.path.join(workdir, "m"), exist_ok=True)
        specs = []
        for i in range(self.pool):
            op = self.ORDER[i % len(self.ORDER)]
            if op is None:
                machines = [M.corpus.random_automaton(rng, 3, 4, 2)]
            else:
                machines = [M.corpus.random_automaton(rng, 3, 2, 2)
                            for _ in range(2)]
            files = []
            for j, u in enumerate(machines):
                files.append(f"m/{i}-{j}.json")
                u.save(os.path.join(workdir, files[-1]))
            if op is None:
                pipe = {"stages": self.STAGES, "source": {"file": files[0]}}
            else:
                pipe = {"op": op, "left": {"file": files[0]},
                        "right": {"file": files[1]}}
            cfg = f"c{i}.json"
            with open(os.path.join(workdir, cfg), "w", encoding="utf-8") as fh:
                json.dump({"pipeline": pipe}, fh, sort_keys=True)
            specs.append((cfg, op, machines))
        return {"specs": specs}

    def items(self, M, data, sabotage=False):
        specs = data["specs"]
        eval_limsup = M.automata.eval_limsup
        for k in itertools.count():
            cfg, op, machines = specs[k % len(specs)]
            out_dir = f"o{k}"

            def run(cfg=cfg, out_dir=out_dir):
                shutil.rmtree(out_dir, ignore_errors=True)
                return _cli(M, ["construct", "--config", cfg, "--out", out_dir])

            def check(res, need_out, op=op, machines=machines,
                      out_dir=out_dir):
                rc, stdout = res
                try:
                    fn_bytes = _read(os.path.join(out_dir, "function.json"))
                    rep_bytes = _read(os.path.join(out_dir, "report.json"))
                finally:
                    shutil.rmtree(out_dir, ignore_errors=True)
                report = json.loads(rep_bytes)
                function = json.loads(fn_bytes)
                minimized = None
                if "automaton" in function:
                    minimized = M.automata.NodeAutomaton.from_json_dict(
                        function["automaton"])
                ok = rc == 0 and bool(report["rows"])
                for row in report["rows"]:
                    x = M.trees.parse_branch(row["branch"])
                    vals = [eval_limsup(u, x) for u in machines]
                    want = vals[0] if op is None else _apply_op(op, *vals)
                    want = _shift(M, want, sabotage)
                    ok = ok and row["equal"] and not row["inconclusive"] \
                        and row["expected"] == str(want) \
                        and row["got"] == str(want)
                    if minimized is not None:
                        ok = ok and eval_limsup(minimized, x) == want
                return stdout.encode() + fn_bytes + rep_bytes, ok, 0

            yield run, check


class LongPlay:
    """One item: one in-process `limsup-games play` command with a CSV trace.

    The four configs of a rotation cost about the same at these horizons,
    and runs stop only at rotation ends, so every run plays the same mix.
    """

    name = "long-play"
    block = 4
    trace_items = 8
    pool = 4
    HORIZONS = {"meager": 2000, "oscillation": 2000,
                "copycat": 4000, "responder": 4000}

    def setup(self, M, seed, workdir):
        rng = M.corpus.rng_stream(seed, "bench-play")
        os.makedirs(os.path.join(workdir, "m"), exist_ok=True)
        H = self.HORIZONS
        specs = []
        for i in range(self.pool):
            u = M.corpus.random_automaton(rng, 3, 2, 2)
            ufile = f"m/{i}.json"
            u.save(os.path.join(workdir, ufile))
            thresholds = sorted({str(M.corpus.random_dyadic(rng, 2, 2))
                                 for _ in range(rng.randint(1, 2))})
            naturals = sorted(rng.sample(range(4), rng.randint(2, 4)))
            cfgs = [
                ("meager", None, {
                    "game": "gamma", "tree": "binary",
                    "horizon": H["meager"],
                    "player_i": {"kind": "meager_dense"},
                    "player_ii": {"kind": "constant", "value": 1}}),
                ("oscillation", None, {
                    "game": "gamma_prime", "tree": "binary",
                    "horizon": H["oscillation"],
                    "player_i": {"kind": "oscillation"},
                    "player_ii": {"kind": "constant", "value": 1,
                                  "covalue": 0}}),
                ("copycat", None, {
                    "game": "gamma", "tree": "nat", "horizon": H["copycat"],
                    "player_i": {"kind": "copycat"},
                    "player_ii": {"kind": "random_fsm",
                                  "states": rng.randint(2, 3),
                                  "values": naturals,
                                  "seed": rng.randrange(10 ** 6)}}),
                ("responder", u, {
                    "game": "gamma", "tree": "binary",
                    "horizon": H["responder"],
                    "player_i": {"kind": "random_fsm", "states": 3,
                                 "values": thresholds,
                                 "seed": rng.randrange(10 ** 6)},
                    "player_ii": {"kind": "from_u", "file": ufile}}),
            ]
            for kind, machine, cfg in cfgs:
                path = f"p{i}-{kind}.json"
                with open(os.path.join(workdir, path), "w",
                          encoding="utf-8") as fh:
                    json.dump(cfg, fh, sort_keys=True)
                specs.append((path, kind, machine, cfg["horizon"]))
        return {"specs": specs}

    def items(self, M, data, sabotage=False):
        specs = data["specs"]
        for k in itertools.count():
            path, kind, machine, horizon = specs[k % len(specs)]
            out_dir = f"o{k}"

            def run(path=path, out_dir=out_dir):
                shutil.rmtree(out_dir, ignore_errors=True)
                return _cli(M, ["play", "--config", path, "--out", out_dir])

            def check(res, need_out, kind=kind, u=machine, horizon=horizon,
                      out_dir=out_dir):
                rc, stdout = res
                try:
                    csv_bytes = _read(os.path.join(out_dir, "trace.csv"))
                    side_bytes = _read(os.path.join(out_dir, "trace.json"))
                finally:
                    shutil.rmtree(out_dir, ignore_errors=True)
                summary = json.loads(stdout)
                rows = [line.split(",") for line in
                        csv_bytes.decode().splitlines()[1:]]
                want_rows = horizon + 1 if sabotage else horizon
                ok = rc == 0 and summary["fault"] is None \
                    and len(rows) == want_rows and summary["rounds"] == horizon
                ok = ok and self._check_rows(M, kind, u, summary, rows)
                return stdout.encode() + csv_bytes + side_bytes, ok, len(rows)

            yield run, check

    @staticmethod
    def _check_rows(M, kind, u, summary, rows):
        lasso = summary["lasso"]
        if kind == "meager":
            # divergent: the piece index keeps growing and nothing repeats
            c = summary["counters_I"]
            return lasso is None and c["m"] == c["switches"] and c["m"] >= 5
        if lasso is None:
            return False
        start, period = lasso["start"], lasso["period"]
        obs = [tuple(r[1:]) for r in rows]
        ok = all(obs[t] == obs[t + period]
                 for t in range(start, len(obs) - period))
        Dy = M.dyadic.Dyadic
        if kind == "copycat":
            # echo identity: each letter repeats the previous announcement
            ok = ok and all(Dy.parse(rows[t][2]) == Dy(int(rows[t + 1][1]))
                            for t in range(len(rows) - 1))
        if kind == "responder":
            # the responder announces the machine's own outputs, so the
            # cycle max is the machine's limsup on the witness branch
            q = u.initial
            for r in rows:
                a = int(r[1])
                ok = ok and Dy.parse(r[2]) == u.output(q, a)
                q = u.step(q, a)
            letters = [int(r[1]) for r in rows]
            witness = M.trees.EventuallyPeriodicBranch(
                tuple(letters[:start]), tuple(letters[start:start + period]))
            cyc = max(Dy.parse(r[2]) for r in rows[start:start + period])
            ok = ok and cyc == M.automata.eval_limsup(u, witness)
        return ok


class VerdictBatch:
    """One item: one exact verdict; every tenth of each kind is also
    replayed three periods past its lasso and re-checked by check_win."""

    name = "verdict-batch"
    block = 1
    trace_items = 4000
    PATTERN = ("gamma", "gamma", "gamma_prime", "copycat")

    def setup(self, M, seed, workdir):
        C = M.corpus
        return {
            "machines": C.automaton_corpus(seed, 40, max_states=4, span=2,
                                           max_exp=3),
            "opponents": C.letter_fsm_corpus(seed, 10, max_states=3),
            "fixtures": C.baire_pair_fixtures(seed, 20),
            "pair_opponents": C.letter_fsm_corpus(seed + 1, 10, max_states=3),
            "naturals": C.value_fsm_corpus(seed, 40, max_states=3,
                                           natural=True),
        }

    def items(self, M, data, sabotage=False):
        G, S, Tr = M.games, M.strategies, M.trees
        Dy = M.dyadic.Dyadic
        eval_limsup = M.automata.eval_limsup
        kinds = {"gamma": G.gamma(Tr.binary_tree()),
                 "gamma_prime": G.gamma_prime(Tr.binary_tree()),
                 "copycat": G.gamma(Tr.nat_tree())}

        def limsup_letters(x):
            return Dy(max(x.cycle))

        seen = {"gamma": 0, "gamma_prime": 0, "copycat": 0}
        for k in itertools.count():
            name = self.PATTERN[k % len(self.PATTERN)]
            i = seen[name]
            seen[name] += 1
            if name == "gamma":
                u = data["machines"][i % 40]
                sI = data["opponents"][(i // 40) % 10]
                make_ii = (lambda u=u: S.strategy_ii_from_u(u))
                payoff = u
                oracle = (lambda x, u=u: eval_limsup(u, x))
            elif name == "gamma_prime":
                fx = data["fixtures"][i % 20]
                sI = data["pair_opponents"][(i // 20) % 10]
                make_ii = (lambda fx=fx: S.pair_strategies(
                    S.strategy_ii_from_u(fx.u_f),
                    S.strategy_ii_from_u(fx.u_neg)))
                payoff = fx.u_f
                oracle = (lambda x, u=fx.u_f: eval_limsup(u, x))
            else:
                fsm = data["naturals"][i % 40]
                sI = None
                make_ii = (lambda fsm=fsm: fsm)
                payoff = limsup_letters
                oracle = limsup_letters
            kind = kinds[name]
            replay = i % 10 == 0

            def run(kind=kind, sI=sI, make_ii=make_ii, payoff=payoff,
                    replay=replay):
                opp = sI if sI is not None else S.copycat_strategy()
                v = G.exact_verdict(kind, opp, make_ii(), payoff, cap=5000)
                w = None
                if replay:
                    opp = sI if sI is not None else S.copycat_strategy()
                    tr = G.play(kind, opp, make_ii(), 5000, stop_after_lasso=3)
                    w = G.check_win(tr, payoff)
                return v, w

            def check(res, need_out, oracle=oracle,
                      pairs=name == "gamma_prime"):
                ok = True
                out = b""
                for v in res:
                    if v is None:
                        continue
                    want = _shift(M, oracle(v.witness), sabotage) \
                        if v.witness is not None else None
                    ok = ok and v.outcome is G.Outcome.WIN_II and v.exact \
                        and v.payoff_of_witness == want \
                        and v.limsup_value == want \
                        and (not pairs or v.liminf_covalue == want)
                    if need_out:
                        out += json.dumps(v.to_json_dict(),
                                          sort_keys=True).encode()
                return out, ok, 0

            yield run, check
