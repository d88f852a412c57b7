"""Per-layer tracing for the benchmark, installed from outside the package.

Every wrapper lives here: nothing under src/ knows it is being traced.  A
layer is wrapped at its public boundary by rebinding the function (in every
package module that imported it by name), the class method, or the object a
public factory returns (a TreeSpec whose `contains` is wrapped, a family
whose `node_inf` is wrapped, a strategy proxy handed to `play`).

A span's self time is its duration minus the time covered by the spans it
caused.  Work the tracer itself does after a call (hashing cache keys,
sizing output directories) is hidden from the caller's self time, so the
per-layer numbers are the program's own.

Two instruments exist because they cost very differently per call:

* `install_layers`  spans and derived counts for every layer but dyadic;
* `install_dyadic`  bare call counts for dyadic arithmetic, which is called
  tens of millions of times and would swamp any span (run in its own pass).
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Callable, Dict, List

clock = time.perf_counter


class Patcher:
    """Rebinds attributes and puts every one of them back on restore()."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._undo = []

    def attr(self, owner, name, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def function(self, home, name, make) -> None:
        """Wrap home.name and every module-level binding of the same object."""
        orig = getattr(home, name)
        new = make(orig)
        for mod in self.modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self.attr(mod, key, new)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class Tracer:
    """Span stack with per-name call counts, self and total seconds."""

    def __init__(self):
        self.stats: Dict[str, List[float]] = {}
        self.counts: Dict[str, float] = {}
        self.keys: Dict[str, set] = {}
        self.stack: List[float] = []
        self.paused = False
        self._serial = 0

    def serial(self) -> int:
        self._serial += 1
        return self._serial

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def key(self, name: str, key) -> None:
        self.keys.setdefault(name, set()).add(key)

    def run_hidden(self, fn: Callable, *args) -> float:
        """Run tracer bookkeeping untraced; return the seconds it took."""
        start = clock()
        self.paused = True
        try:
            fn(*args)
        finally:
            self.paused = False
        return clock() - start

    def call(self, stat: List[float], fn: Callable, args, kwargs, hook=None):
        """Time fn(*args, **kwargs) as one span recorded into stat."""
        if self.paused:
            return fn(*args, **kwargs)
        stack = self.stack
        stack.append(0.0)
        start = clock()
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            dur = clock() - start
            child = stack.pop()
            stat[0] += 1
            stat[1] += dur - child
            stat[2] += dur
            if ok and hook is not None:
                dur += self.run_hidden(hook, args, kwargs, result)
            if stack:
                stack[-1] += dur
        return result

    def stat(self, name: str) -> List[float]:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def span(self, name: str, hook=None) -> Callable:
        """Decorator factory: fn -> wrapper recording spans under name."""
        stat = self.stat(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(stat, fn, args, kwargs, hook)
            return wrapper
        return make

    def counter(self, name: str) -> Callable:
        """Decorator factory: fn -> wrapper that only counts calls."""
        counts = self.counts
        counts.setdefault(name, 0)

        def make(fn):
            def wrapper(*args, **kwargs):
                if not self.paused:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make


class StrategyProxy:
    """Times a strategy's moves and state keys; forwards everything else.

    finite_state, reset, counters and any attribute a caller reads go to
    the wrapped strategy, so the engine sees the same player.
    """

    def __init__(self, inner, tracer: Tracer, move_stat, key_stat):
        self._inner = inner
        self._tracer = tracer
        self._move_stat = move_stat
        self._key_stat = key_stat
        self.finite_state = inner.finite_state

    def reset(self):
        return self._inner.reset()

    def move(self, arg):
        self._tracer.add("strategies.move.calls")
        return self._tracer.call(self._move_stat, self._inner.move, (arg,), {})

    def state_key(self):
        return self._tracer.call(self._key_stat, self._inner.state_key, (), {})

    def counters(self):
        return self._inner.counters()

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _escalations(info: dict, cap: int) -> int:
    # branch_limsup starts at this horizon and doubles (capped) until three
    # periods agree; the returned horizon tells how many doublings it took
    t0, p = info["lasso_start"], info["period"]
    h = min(max(t0 + 4 * p + 16, 6 * p, 32), cap)
    steps = 0
    while h < info["horizon"]:
        h = min(cap, h * 2)
        steps += 1
    return steps


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def install_layers(tracer: Tracer, M, patch: Patcher) -> None:
    """Wrap every layer except dyadic (see install_dyadic)."""
    T = tracer

    # kernels
    ker = M.kernels.ProductKernel
    orig_init = ker.__dict__["__init__"]

    def kernel_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        if not T.paused:
            T.add("kernels.built")
        self._bench_serial = T.serial()

    patch.attr(ker, "__init__", kernel_init)
    patch.attr(ker, "value", T.span(
        "kernels.value",
        lambda a, k, r: T.key("kernels.value", (a[0]._bench_serial, a[1], a[2]))
    )(ker.__dict__["value"]))
    patch.attr(ker, "tail_value", T.span("kernels.tail_value")(
        ker.__dict__["tail_value"]))
    patch.attr(ker, "tail_entry", T.span("kernels.tail_entry")(
        ker.__dict__["tail_entry"]))

    # construction
    C = M.construction

    def limsup_hook(a, k, r):
        info = r[1]
        cap = k.get("cap", a[2] if len(a) > 2 else 4096)
        T.add("construction.labels", info["horizon"])
        T.add("construction.horizon_escalations", _escalations(info, cap))
        T.peak("construction.max_scan", info["max_scan"])

    patch.function(C, "branch_limsup",
                   T.span("construction.branch_limsup", limsup_hook))
    scan_bound = C.scan_bound
    patch.function(C, "construct_u", T.span(
        "construction.construct_u",
        lambda a, k, r: T.add("construction.levels_scanned",
                              scan_bound(a[0], a[1]) + 1)))
    patch.attr(C.ConstructionState, "u", T.counter("construction.u.calls")(
        C.ConstructionState.__dict__["u"]))
    patch.function(C, "minimize_labeling", T.span(
        "construction.minimize_labeling",
        lambda a, k, r: T.add("construction.minimize_labeling.prefixes_labeled",
                              len(a[0].cache))))
    patch.function(C, "verify_construction",
                   T.span("construction.verify_construction"))

    # families: wrap the family objects handed out of the layer; discretize
    # receives the unwrapped family so inner calls are not counted twice
    F = M.families
    unwrapped = {}
    node_stat = T.stat("families.node_inf")
    inf_stat = T.stat("families.inf_all")

    def wrap_family(fam):
        serial = T.serial()
        raw_node, raw_inf = fam.node_inf, fam.inf_all

        def node_inf(n, s):
            return T.call(node_stat, raw_node, (n, s), {},
                          lambda a, k, r: T.key("families.node_inf",
                                                (serial, n, s)))

        def inf_all(s):
            return T.call(inf_stat, raw_inf, (s,), {})

        out = dataclasses.replace(fam, node_inf=node_inf, inf_all=inf_all)
        unwrapped[id(out)] = (out, fam)
        return out

    def from_kernel(fn):
        return lambda *a, **k: wrap_family(fn(*a, **k))

    def discretize(fn):
        def wrapper(fam):
            _, raw = unwrapped.get(id(fam), (None, fam))
            out = fn(raw)
            return fam if out is raw else wrap_family(out)
        return wrapper

    patch.function(F, "family_from_kernel", from_kernel)
    patch.function(F, "discretize", discretize)

    # automata and graphs
    A = M.automata
    patch.function(A, "eval_limsup", T.span("automata.eval_limsup"))
    patch.function(A, "minmax_value", T.span("automata.minmax_value"))
    patch.function(M.graphs, "min_sup_cycle", T.span("graphs.min_sup_cycle"))

    # trees: the trees the factories hand out get a traced membership test
    Tr = M.trees
    contains_stat = T.stat("trees.contains")

    def traced_tree(fn):
        def wrapper(*a, **k):
            tree = fn(*a, **k)
            raw = tree.contains

            def contains(s):
                T.add("trees.contains.letters_scanned", len(s))
                return T.call(contains_stat, raw, (s,), {})
            return dataclasses.replace(tree, contains=contains)
        return wrapper

    # binary_tree builds through the module-level full_tree, so wrapping
    # full_tree covers it without wrapping twice
    for name in ("full_tree", "nat_tree"):
        patch.function(Tr, name, traced_tree)

    # games: play hands proxies to the engine, so strategy time is a child
    # span of the round that asked for it
    G = M.games
    move_i = T.stat("strategies.move_i")
    move_ii = T.stat("strategies.move_ii")
    key_stat = T.stat("strategies.state_key")
    play_stat = T.stat("games.play")

    def play_hook(a, k, trace):
        T.add("games.play.rounds", len(trace.rows))
        if trace.lasso is not None:
            T.add("games.lassos")
            T.add("games.lasso_rounds", trace.lasso[0] + trace.lasso[1])

    def traced_play(fn):
        def wrapper(kind, sI, sII, *a, **k):
            if not isinstance(sI, StrategyProxy):
                sI = StrategyProxy(sI, T, move_i, key_stat)
            if not isinstance(sII, StrategyProxy):
                sII = StrategyProxy(sII, T, move_ii, key_stat)
            return T.call(play_stat, fn, (kind, sI, sII) + a, k, play_hook)
        return wrapper

    patch.function(G, "play", traced_play)
    patch.function(G, "exact_verdict", T.span(
        "games.exact_verdict",
        lambda a, k, r: T.add("games.exact_verdict.exact", int(r.exact))))
    patch.function(G, "check_win", T.span("games.check_win"))

    # cli
    def entry_hook(a, k, rc):
        argv = a[0] if a else k.get("argv") or []
        if "--out" in argv:
            T.add("cli.bytes_written",
                  _dir_bytes(argv[argv.index("--out") + 1]))

    patch.function(M.cli, "entry", T.span("cli.entry", entry_hook))


def install_corpus(tracer: Tracer, M, patch: Patcher) -> None:
    """Spans around the corpus generators, used during set-up only."""
    corpus = M.corpus
    make = tracer.span("corpus")
    for name, val in list(vars(corpus).items()):
        if callable(val) and getattr(val, "__module__", None) == corpus.__name__ \
                and not isinstance(val, type) and not name.startswith("_"):
            patch.function(corpus, name, make)


def install_dyadic(tracer: Tracer, M, patch: Patcher) -> None:
    """Bare call counters for the dyadic layer."""
    D, T = M.dyadic, tracer
    patch.function(D, "as_dyadic", T.counter("dyadic.as_dyadic.calls"))
    patch.attr(D.Dyadic, "__post_init__", T.counter("dyadic.Dyadic.made")(
        D.Dyadic.__dict__["__post_init__"]))
    patch.attr(D.ExtValue, "__post_init__", T.counter("dyadic.ExtValue.made")(
        D.ExtValue.__dict__["__post_init__"]))
    patch.attr(D.Dyadic, "ceil_to_grid", T.counter("dyadic.ceil_to_grid.calls")(
        D.Dyadic.__dict__["ceil_to_grid"]))


def layer_metrics(tracer: Tracer, dyadic: Dict[str, float]) -> Dict[str, tuple]:
    """name -> (value, unit) for every per-layer metric."""
    S, K, keys = tracer.stats, tracer.counts, tracer.keys
    out: Dict[str, tuple] = {}

    def st(name):
        return S.get(name, [0, 0.0, 0.0])

    def calls(name, metric=None):
        out[(metric or name) + ".calls"] = (int(st(name)[0]), "count")

    def self_s(name, metric=None):
        out[(metric or name) + ".self_s"] = (st(name)[1], "s")

    def count(name, unit="count"):
        out[name] = (K.get(name, 0), unit)

    def ratio(num, den):
        return num / den if den else 0.0

    def hit_ratio(name):
        n = st(name)[0]
        out[name + ".hit_ratio"] = (ratio(n - len(keys.get(name, ())), n), "ratio")

    calls("kernels.value")
    hit_ratio("kernels.value")
    self_s("kernels.value")
    calls("kernels.tail_value")
    self_s("kernels.tail_value")
    calls("kernels.tail_entry")
    count("kernels.built")

    calls("construction.branch_limsup")
    self_s("construction.branch_limsup")
    count("construction.labels")
    out["construction.labels_per_check"] = (
        ratio(K.get("construction.labels", 0),
              st("construction.branch_limsup")[0]), "label/check")
    count("construction.horizon_escalations")
    count("construction.max_scan", "levels")
    calls("construction.construct_u")
    self_s("construction.construct_u")
    count("construction.levels_scanned")
    u_calls = K.get("construction.u.calls", 0)
    out["construction.u_cache.hit_ratio"] = (
        ratio(u_calls - st("construction.construct_u")[0], u_calls)
        if u_calls else 0.0, "ratio")
    self_s("construction.minimize_labeling")
    count("construction.minimize_labeling.prefixes_labeled")
    self_s("construction.verify_construction")

    calls("families.node_inf")
    hit_ratio("families.node_inf")
    self_s("families.node_inf")
    calls("families.inf_all")

    for name in ("automata.eval_limsup", "automata.minmax_value",
                 "graphs.min_sup_cycle"):
        calls(name)
        self_s(name)

    for name in ("dyadic.as_dyadic.calls", "dyadic.Dyadic.made",
                 "dyadic.ExtValue.made", "dyadic.ceil_to_grid.calls"):
        out[name] = (dyadic.get(name, 0), "count")

    calls("games.play")
    self_s("games.play")
    rounds = K.get("games.play.rounds", 0)
    out["games.play.rounds"] = (rounds, "count")
    out["games.play.us_per_round"] = (
        ratio(st("games.play")[2] * 1e6, rounds), "us")
    calls("games.exact_verdict")
    self_s("games.exact_verdict")
    out["games.exact_verdict.exact_ratio"] = (
        ratio(K.get("games.exact_verdict.exact", 0),
              st("games.exact_verdict")[0]), "ratio")
    calls("games.check_win")
    self_s("games.check_win")
    out["games.rounds_to_lasso"] = (
        ratio(K.get("games.lasso_rounds", 0), K.get("games.lassos", 0)),
        "rounds")

    calls("trees.contains")
    count("trees.contains.letters_scanned")
    self_s("trees.contains")

    self_s("strategies.move_i")
    self_s("strategies.move_ii")
    count("strategies.move.calls")
    calls("strategies.state_key")
    self_s("strategies.state_key")

    calls("cli.entry")
    self_s("cli.entry")
    count("cli.bytes_written", "B")

    out["corpus.self_s"] = (st("corpus")[1], "s")
    return out
