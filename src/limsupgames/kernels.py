"""Internal exact kernels shared by families and the threshold construction.

A ProductKernel walks one or more node automata in lockstep over a full tree
and answers the two questions every node-infimum oracle reduces to:

  value(J, fixed)   min over infinite continuations from joint state J of the
                    objective applied to per-machine max(fixed_i, future sup_i)
  tail_value(J, j)  same with j free unscored steps first (positions below the
                    level index contribute nothing)

Both are exact: future sups are attained on lassos, so a threshold vector
is feasible from J when J has an infinite path under it, whatever the fixed
parts.  A sum/max kernel over several machines keeps one table, built on its
first miss, of every joint state's componentwise-minimal feasible vectors.

Every output of the machines lies on one grid 2**-E, E = grid_exponent, so
the kernel works in plain ints on that grid: an int v stands for v / 2**E.
Outputs are converted once, when the kernel is built; callers convert back
with from_grid at the API edge, so Dyadic arithmetic never runs per label.
An empty fixed part is the machine's least output (its floor), which no
threshold falls below.
"""

from __future__ import annotations

import itertools
import math
from operator import le
from typing import Dict, Optional, Tuple

from .automata import minmax_value
from .dyadic import Dyadic
from .graphs import first_repeat, live_states
from .trees import TreeSpec

MODES = ("max", "sum", "min")


def joint_letter_representatives(machines, tree: TreeSpec) -> tuple:
    """One tree letter per realizable tuple of per-machine letter classes."""
    if tree.all_naturals:
        cand = range(max(u.num_letters for u in machines) + 1)
    elif tree.alphabet is not None:
        cand = tree.alphabet
    else:
        raise ValueError("exact kernels need a full tree (finite alphabet or naturals)")
    reps = {}
    for a in cand:
        key = tuple(u.letter_class(a) for u in machines)
        reps.setdefault(key, a)
    return tuple(sorted(reps.values()))


class ProductKernel:
    """Lockstep product of node automata over a full tree.

    mode "max"/"sum" couple the machines through one shared branch (joint
    reachability); mode "min" is separable, each machine minimizing over its
    own branch.  A single machine behaves identically under every mode.
    Values in and out are ints on the 2**-grid_exponent grid.
    """

    def __init__(self, machines, tree: TreeSpec, mode: str = "max"):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not machines:
            raise ValueError("need at least one machine")
        self.machines = tuple(machines)
        self.tree = tree
        self.mode = mode
        self.dims = len(self.machines)
        self.reps = joint_letter_representatives(self.machines, tree)
        self.initial = tuple(u.initial for u in self.machines)
        self.grid_exponent = max(
            o.exp for u in self.machines for row in u.outputs for o in row)
        self._ground = math.prod(u.num_states for u in self.machines)
        self._mm: Dict[Tuple[int, int], int] = {}
        self._value: Dict = {}
        self._tails: Dict = {}
        self._feasible: Optional[Dict[tuple, list]] = None
        self._mtails: Dict = {}
        # the label transducers of the families over this kernel, one per
        # discretized flag; construction.transducer fills it
        self.transducers: Dict[bool, object] = {}
        # per machine, state and letter class: the output as a grid int
        self._tables = tuple(
            tuple(tuple(self.to_grid(o) for o in row) for row in u.outputs)
            for u in self.machines)
        self.floor = tuple(min(min(row) for row in tab) for tab in self._tables)
        self._outs = tuple(
            tuple(sorted({tab[q][u.letter_class(a)]
                          for q in range(u.num_states) for a in self.reps}))
            for u, tab in zip(self.machines, self._tables))

    def to_grid(self, d: Dyadic) -> int:
        """d as an int on the kernel's grid; a value off the grid raises."""
        shift = self.grid_exponent - d.exp
        if shift < 0:
            raise ValueError(f"{d} is off the 2^-{self.grid_exponent} grid")
        return d.num << shift

    def from_grid(self, v: int) -> Dyadic:
        return Dyadic(v, self.grid_exponent)

    def step(self, J: tuple, a: int) -> tuple:
        return tuple(u.step(q, a) for u, q in zip(self.machines, J))

    def outputs_on(self, J: tuple, a: int) -> tuple:
        return tuple(tab[q][u.letter_class(a)]
                     for u, tab, q in zip(self.machines, self._tables, J))

    def _minmax(self, i: int, q: int) -> int:
        key = (i, q)
        if key not in self._mm:
            # the tree's letters realize the classes its representatives do
            u = self.machines[i]
            classes = sorted({u.letter_class(a) for a in self.reps})
            v = minmax_value(u, q, classes)
            self._mm[key] = self.to_grid(v.require_finite())
        return self._mm[key]

    def _build_feasible(self) -> Dict[tuple, list]:
        # product() lists vectors in lexicographic order, dominators first;
        # machines are total, so each state is live under the largest vector
        nodes = list(itertools.product(
            *(range(u.num_states) for u in self.machines)))
        edges = {J: [(self.step(J, a), self.outputs_on(J, a))
                     for a in self.reps] for J in nodes}
        table: Dict[tuple, list] = {J: [] for J in nodes}
        for theta in itertools.product(*self._outs):
            live = live_states(nodes, lambda J: [
                K for K, out in edges[J] if all(map(le, out, theta))])
            for J in live:
                mins = table[J]
                if not any(all(map(le, lo, theta)) for lo in mins):
                    mins.append(theta)
        return table

    def value(self, J: tuple, fixed: tuple) -> int:
        """min over continuations from J of the objective; fixed parts folded in.

        Fixed parts are grid ints; the floor stands for an empty part.
        """
        key = (J, fixed)
        got = self._value.get(key)
        if got is None:
            if self.mode == "min":
                got = min(max(f, self._minmax(i, q))
                          for i, (f, q) in enumerate(zip(fixed, J)))
            elif self.dims == 1:
                got = max(fixed[0], self._minmax(0, J[0]))
            else:
                if self._feasible is None:
                    self._feasible = self._build_feasible()
                agg = sum if self.mode == "sum" else max
                got = min(agg(map(max, fixed, t)) for t in self._feasible[J])
            self._value[key] = got
        return got

    def _reach_tail(self, start, step, score, cap: int) -> Tuple[tuple, int]:
        # reach sets evolve deterministically, so they cycle within 2**states steps
        orbit, entry = first_repeat(
            frozenset([start]),
            lambda cur: frozenset(step(p, a) for p in cur for a in self.reps), cap)
        return tuple(min(score(p) for p in cur) for cur in orbit[:entry + 1]), entry

    def _machine_tail(self, i: int, q: int) -> Tuple[tuple, int]:
        key = (i, q)
        got = self._mtails.get(key)
        if got is None:
            u = self.machines[i]
            got = self._reach_tail(q, u.step, lambda p: self._minmax(i, p),
                                   2 ** u.num_states)
            self._mtails[key] = got
        return got

    def tail(self, J: tuple) -> Tuple[tuple, int]:
        """(vals, entry): tail_value(J, j) is vals[min(j, entry)]."""
        got = self._tails.get(J)
        if got is None:
            if self.mode == "min" and self.dims > 1:
                # separable: the pointwise min of the machines' own tables
                tails = [self._machine_tail(i, q) for i, q in enumerate(J)]
                entry = max(e for _, e in tails)
                got = (tuple(min(v[min(j, e)] for v, e in tails)
                             for j in range(entry + 1)), entry)
            else:
                got = self._reach_tail(J, self.step,
                                       lambda P: self.value(P, self.floor),
                                       2 ** self._ground)
            self._tails[J] = got
        return got

    def tail_entry(self, J: tuple) -> int:
        return self.tail(J)[1]

    def tail_value(self, J: tuple, j: int) -> int:
        """min over continuations with the first j steps unscored; constant past tail_entry."""
        vals, entry = self.tail(J)
        return vals[j] if j <= entry else vals[entry]
