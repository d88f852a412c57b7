"""Finite-state dyadic labelings of tree nodes and their exact limsup evaluation.

A NodeAutomaton reads letters and emits one dyadic output per transition;
the label of a nonempty prefix is the output of the transition that consumed
its last letter.  Along an eventually periodic branch the run enters a lasso,
so the limsup of the labels is the max over one certified cycle, computed
exactly on each output's int rank among the machine's distinct outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple, Sequence

from . import graphs
from .dyadic import POS_INF, Dyadic, ExtValue, as_dyadic
from .trees import Branch

DEFAULT_CLASS = "default"


def _json_int(v, what: str) -> int:
    # JSON integers only: a bool or a float would alias a state or a class
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def check_steps(steps: Sequence[Sequence[int]], initial: int = 0) -> int:
    """The width of a transition table whose successors and initial state
    are exact ints in 0..n-1: a bool, a float or -1 would alias a state."""
    if not steps:
        raise ValueError("need at least one state")
    n, width = len(steps), len(steps[0])
    for q, row in enumerate(steps):
        if not row:
            raise ValueError(f"state {q} has no letter class")
        if len(row) != width:
            raise ValueError(f"ragged transition table at state {q}")
        for c, dst in enumerate(row):
            if type(dst) is not int or not 0 <= dst < n:
                raise ValueError(f"bad successor {dst!r} at ({q},{c})")
    if type(initial) is not int or not 0 <= initial < n:
        raise ValueError(f"bad initial state {initial!r}")
    return width


@dataclass(frozen=True)
class NodeAutomaton:
    """Deterministic transducer assigning a dyadic label to every tree node.

    Machines declare k explicit letters 0..k-1; all other letters share one
    default class, so the same machine works over any countable alphabet.
    `steps[q][c]` / `outputs[q][c]` give the successor and output for state q
    on letter class c, with c == k standing for the default class.
    """

    initial: int
    steps: tuple
    outputs: tuple
    # count of explicit letters k, which is also the default class's column
    num_letters: int = field(init=False, repr=False, compare=False)
    # the sorted distinct outputs, and ranks[q][c], outputs[q][c]'s index there
    levels: tuple = field(init=False, repr=False, compare=False)
    ranks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        width = check_steps(self.steps, self.initial)
        if len(self.outputs) != len(self.steps):
            raise ValueError("steps/outputs state count mismatch")
        seen = set()
        for q, row in enumerate(self.outputs):
            if len(row) != width:
                raise ValueError(f"ragged transition table at state {q}")
            for c, out in enumerate(row):
                if not isinstance(out, Dyadic):
                    raise ValueError(f"output at ({q},{c}) is not a Dyadic")
            seen.update(row)
        levels = tuple(sorted(seen))
        rank = {o: i for i, o in enumerate(levels)}.__getitem__
        object.__setattr__(self, "num_letters", width - 1)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "ranks", tuple(
            tuple(map(rank, row)) for row in self.outputs))

    @property
    def num_states(self) -> int:
        return len(self.steps)

    def letter_class(self, a: int) -> int:
        k = self.num_letters
        return a if a < k else k

    def step(self, q: int, a: int) -> int:
        k = self.num_letters
        return self.steps[q][a if a < k else k]

    def output(self, q: int, a: int) -> Dyadic:
        k = self.num_letters
        return self.outputs[q][a if a < k else k]

    def to_json_dict(self) -> dict:
        rows = []
        k = self.num_letters
        for q in range(self.num_states):
            for c in range(k + 1):
                label = c if c < k else DEFAULT_CLASS
                rows.append([q, label, self.steps[q][c], str(self.outputs[q][c])])
        return {
            "states": self.num_states,
            "initial": self.initial,
            "letters": k,
            "transitions": rows,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "NodeAutomaton":
        n = _json_int(data["states"], "states")
        k = _json_int(data["letters"], "letters")
        if n < 1 or k < 0:
            raise ValueError("bad state or letter count")
        rows = data["transitions"]
        if not isinstance(rows, list) or len(rows) != n * (k + 1):
            raise ValueError(f"need a list of {n * (k + 1)} transitions")
        steps = [[None] * (k + 1) for _ in range(n)]
        outs = [[None] * (k + 1) for _ in range(n)]
        for row in rows:
            q, label, dst, out = row
            c = k if label == DEFAULT_CLASS else _json_int(label, "letter class")
            if not (0 <= c <= k):
                raise ValueError(f"letter class {label!r} out of range")
            q = _json_int(q, "transition source state")
            if not (0 <= q < n):
                raise ValueError(f"transition source state {q} out of range")
            if steps[q][c] is not None:
                raise ValueError(f"duplicate transition for state {q} class {label!r}")
            steps[q][c] = _json_int(dst, "transition destination")
            outs[q][c] = as_dyadic(str(out))
        return cls(_json_int(data["initial"], "initial state"),
                   tuple(tuple(r) for r in steps),
                   tuple(tuple(r) for r in outs))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "NodeAutomaton":
        with open(path) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("machine JSON is nested too deeply") from None
        return cls.from_json_dict(data)


def make_automaton(initial: int, steps: Sequence[Sequence[int]],
                   outputs: Sequence[Sequence["Dyadic | int | str"]]) -> NodeAutomaton:
    return NodeAutomaton(
        initial,
        tuple(tuple(row) for row in steps),
        tuple(tuple(as_dyadic(v) for v in row) for row in outputs),
    )


class LassoSummary(NamedTuple):
    """Certificate for eval_limsup: outputs before the detected lasso and one cycle.

    The limsup of the whole label stream equals max(cycle_outputs) because
    only the repeating segment survives in the tail.
    """

    start: int
    period: int
    transient_outputs: tuple
    cycle_outputs: tuple

    @property
    def limsup(self) -> Dyadic:
        return max(self.cycle_outputs)


def _passes(u: NodeAutomaton, x: Branch):
    """x's cycle letter classes, the phase-0 states of the run along x to
    their first repeat (orbit, a dict from state to pass index, and entry),
    one cycle pass a step, and each pass's top rank.  A phase-0 state
    repeats just when a (state, phase) pair does, so the passes from
    orbit[entry:] see the recurring pairs."""
    k, steps, ranks = u.num_letters, u.steps, u.ranks
    q = u.initial
    for a in x.stem:
        q = steps[q][a if a < k else k]
    cls = [a if a < k else k for a in x.cycle]
    orbit, top = {}, []
    while q not in orbit:
        orbit[q] = len(top)
        best = 0
        for c in cls:
            if ranks[q][c] > best:
                best = ranks[q][c]
            q = steps[q][c]
        top.append(best)
    return cls, orbit, orbit[q], top


def lasso_summary(u: NodeAutomaton, x: Branch) -> LassoSummary:
    cls, orbit, entry, _ = _passes(u, x)
    n, word = len(x.stem), [u.letter_class(a) for a in x.stem] + cls * len(orbit)
    states = list(accumulate(word, lambda q, c: u.steps[q][c], initial=u.initial))
    outputs = [u.outputs[q][c] for q, c in zip(states, word)]
    # roll the pass-aligned lasso back to the first repeating (state, phase)
    period = (len(orbit) - entry) * len(cls)
    start = n + graphs.periodic_start((states[n:],), entry * len(cls), period)
    return LassoSummary(start, period, tuple(outputs[:start]),
                        tuple(outputs[start:start + period]))


def limsup_rank(u: NodeAutomaton, x: Branch) -> int:
    """The index in u.levels of the limsup along x: the top rank of the
    cycle passes."""
    _, _, entry, top = _passes(u, x)
    return max(top[entry:])


def eval_limsup(u: NodeAutomaton, x: Branch) -> Dyadic:
    """limsup of the node labels along the branch, exactly: the output at
    the top rank of the cycle passes."""
    return u.levels[limsup_rank(u, x)]


def minmax_value(u: NodeAutomaton, q: int) -> ExtValue:
    """min over infinite automaton runs from q of the max output visited."""
    table = graphs.min_sup_cycle(
        range(u.num_states), ((o,) for o in u.levels),
        lambda theta, p: [dst for dst, out in zip(u.steps[p], u.outputs[p])
                          if not theta[0] < out])
    return ExtValue.finite(table[q][0][0]) if q in table else POS_INF
