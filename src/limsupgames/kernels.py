"""Internal exact kernels shared by families and the threshold construction.

A ProductKernel walks one or more node automata in lockstep over a full tree
and answers the two questions every node-infimum oracle reduces to:

  value(J, fixed)   min over infinite continuations from joint state J of the
                    objective applied to per-machine max(fixed_i, future sup_i)
  tail_value(J, j)  same with j free unscored steps first (positions below the
                    level index contribute nothing)

Both are exact: future sups are attained on lassos, so a threshold vector
is feasible from J when J has an infinite path under it, whatever the fixed
parts.  One search, graphs.min_sup_cycle, tabulates every state's
componentwise-minimal feasible vectors on first use: one joint table for
modes sum and max, and one table per machine alone for the separable mode
min and its tails.  With one machine the two are the same table.  Tables,
edges and tails are memoized; value is not, as its readers keep the reads
they repeat (a ConstructionState per joint state and stair vector).

Every output of the machines lies on one grid 2**-E, E = grid_exponent, so
the kernel works in plain ints on that grid: an int v stands for v / 2**E.
Outputs are converted once, when the kernel is built; callers convert back
with from_grid at the API edge, so Dyadic arithmetic never runs per label.
An empty fixed part is the machine's least output (its floor), which no
threshold falls below.
"""

from __future__ import annotations

import itertools
from operator import le
from typing import Dict, Tuple

from .dyadic import Dyadic
from .graphs import first_repeat, min_sup_cycle
from .trees import TreeSpec

MODES = ("max", "sum", "min")


def joint_letter_representatives(machines, tree: TreeSpec) -> Tuple[tuple, tuple]:
    """(letters, reps): the candidate letters, the tree's alphabet or on the
    naturals tree 0..K with K the largest machine letter count, and one of
    them per realizable tuple of per-machine letter classes."""
    if tree.all_naturals:
        cand = tuple(range(max(u.num_letters for u in machines) + 1))
    elif tree.alphabet is not None:
        cand = tree.alphabet
    else:
        raise ValueError("exact kernels need a full tree (finite alphabet or naturals)")
    reps = {}
    for a in cand:
        key = tuple(u.letter_class(a) for u in machines)
        reps.setdefault(key, a)
    return cand, tuple(sorted(reps.values()))


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
        self.letters, self.reps = joint_letter_representatives(self.machines, tree)
        self.initial = tuple(u.initial for u in self.machines)
        self.grid_exponent = max(o.exp for u in self.machines for o in u.levels)
        self._all = tuple(range(self.dims))
        self._edges: Dict = {}
        self._dyadics: Dict[int, Dyadic] = {}
        self._tails: Dict = {}
        # per tuple of machine indices, its table of minimal feasible vectors
        self._feasible: Dict[tuple, Dict[tuple, list]] = {}
        self._mtails: Dict = {}
        self._scores: Dict[tuple, Dict[tuple, int]] = {}
        # per machine, state and letter class: the output as a grid int
        self._tables = tuple(
            tuple(tuple(self.to_grid(o) for o in row) for row in u.outputs)
            for u in self.machines)
        self.floor = tuple(min(min(row) for row in tab) for tab in self._tables)

    def to_grid(self, d: Dyadic) -> int:
        """d as an int on the kernel's grid; a value off the grid raises."""
        shift = self.grid_exponent - d.exp
        if shift < 0:
            raise ValueError(f"{d} is off the 2^-{self.grid_exponent} grid")
        return d.num << shift

    def from_grid(self, v: int) -> Dyadic:
        """v / 2**grid_exponent as a Dyadic, made once per value."""
        got = self._dyadics.get(v)
        if got is None:
            got = self._dyadics[v] = Dyadic(v, self.grid_exponent)
        return got

    def edge(self, J: tuple, a: int) -> Tuple[tuple, tuple]:
        """(J', outs): the joint successor of J on letter a and the grid
        outputs of that step, one per machine; memoized per (J, a)."""
        got = self._edges.get((J, a))
        if got is None:
            cls = [u.letter_class(a) for u in self.machines]
            got = self._edges[J, a] = (
                tuple(u.steps[q][c] for u, q, c in zip(self.machines, J, cls)),
                tuple(tab[q][c] for tab, q, c in zip(self._tables, J, cls)))
        return got

    def _table(self, idx: tuple) -> Dict[tuple, list]:
        """The minimal feasible vectors of the machines at indices idx, by state."""
        table = self._feasible.get(idx)
        if table is None:
            ms = [(self.machines[i], self._tables[i]) for i in idx]
            nodes = list(itertools.product(*(range(u.num_states) for u, _ in ms)))
            edges = {J: [(tuple(u.step(q, a) for (u, _), q in zip(ms, J)),
                          tuple(tab[q][u.letter_class(a)]
                                for (u, tab), q in zip(ms, J)))
                         for a in self.reps] for J in nodes}
            # each coordinate's thresholds: the outputs its edges carry
            grids = [sorted({out[d] for es in edges.values() for _, out in es})
                     for d in range(len(idx))]
            def allowed(theta, J):
                return [K for K, out in edges[J] if all(map(le, out, theta))]
            # product() lists each vector after every vector below it;
            # machines are total, so each state is live under the largest
            table = min_sup_cycle(nodes, itertools.product(*grids), allowed)
            self._feasible[idx] = table
        return table

    def value(self, J: tuple, fixed: tuple) -> int:
        """min over continuations from J of the objective; fixed parts folded in.

        Fixed parts are grid ints; the floor stands for an empty part.
        """
        if self.mode == "min":
            # separable: each machine over its own table
            return min(max(f, t) for i, (f, q) in enumerate(zip(fixed, J))
                       for (t,) in self._table((i,))[(q,)])
        agg = sum if self.mode == "sum" else max
        return min(agg(map(max, fixed, t)) for t in self._table(self._all)[J])

    def _reach_tail(self, idx: tuple, J: tuple) -> Tuple[tuple, int]:
        # the tail of the machines at indices idx alone, from their states J
        ms = [self.machines[i] for i in idx]
        table = self._table(idx)
        agg = sum if self.mode == "sum" else max
        # reach sets are nonempty and evolve deterministically, so they
        # repeat within 2**states - 1 steps
        orbit, entry = first_repeat(
            frozenset([J]),
            lambda cur: frozenset(tuple(u.step(p, a) for u, p in zip(ms, P))
                                  for P in cur for a in self.reps))
        # a state scores its least objective over continuations, once
        score = self._scores.get(idx)
        if score is None:
            score = self._scores[idx] = {P: min(map(agg, ts))
                                         for P, ts in table.items()}
        return tuple(min(map(score.__getitem__, cur))
                     for cur in orbit[:entry + 1]), entry

    def tail(self, J: tuple) -> Tuple[tuple, int]:
        """(vals, entry): tail_value(J, j) is vals[min(j, entry)]."""
        got = self._tails.get(J)
        if got is None:
            if self.mode == "min" and self.dims > 1:
                # separable: the pointwise min of the machines' own tails
                for i, q in enumerate(J):
                    if (i, q) not in self._mtails:
                        self._mtails[i, q] = self._reach_tail((i,), (q,))
                tails = [self._mtails[key] for key in enumerate(J)]
                entry = max(e for _, e in tails)
                got = (tuple(min(v[min(j, e)] for v, e in tails)
                             for j in range(entry + 1)), entry)
            else:
                got = self._reach_tail(self._all, J)
            self._tails[J] = got
        return got

    def tail_entry(self, J: tuple) -> int:
        return self.tail(J)[1]

    def tail_value(self, J: tuple, j: int) -> int:
        """min over continuations with the first j steps unscored; constant past tail_entry."""
        vals, entry = self.tail(J)
        return vals[j] if j <= entry else vals[entry]
