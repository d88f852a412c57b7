"""Threshold-set construction of node labelings from lsc families.

construct_u assigns each prefix the supremum of its threshold set: values r
below every level's cylinder infimum (the persistent part), plus values
caught between the parent's and the child's infimum at some level (the
per-level part); empty threshold sets fall back to -length.  The limsup of
the constructed labels along any branch recovers the family's limit
function.  Every family is kernel-backed, and its labeling is a finite
transducer (LabelTransducer): a prefix's label is one memoized move from
its parent's (joint state, staircase summary).  minimize_labeling refines
the reachable transducer into its minimal machine, kept on the transducer;
that machine is the constructed function: verify_construction evaluates it
exactly on eventually periodic branches, construct writes it, and algebra
checks and pipeline payoffs read it.  construct_u is the generic level
scan that the labels are checked against, and branch_limsup a reference
walk of the transducer.  The sum/min/max algebra runs the same
construction over joint kernels.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .automata import NodeAutomaton, eval_limsup, make_automaton
from .dyadic import Dyadic, NEG_INF
from .families import GridLscFamily, discretize, family_from_kernel
from .graphs import StabilizationCapError, first_repeat
from .kernels import ProductKernel
from .trees import EventuallyPeriodicBranch, Prefix, TreeSpec, binary_tree

ALGEBRA_OPS = ("sum", "min", "max")


class InconclusiveLassoError(RuntimeError):
    """The labels along a branch showed no lasso within the cap."""


def scan_bound(fam: GridLscFamily, s: Prefix) -> int:
    m = fam.stabilization_index(s)
    if s:
        m = max(m, fam.stabilization_index(s[:-1]))
    return m


def construct_u(fam: GridLscFamily, s: Prefix) -> Dyadic:
    """Label of s: sup of the full threshold set, or -|s| when it is empty.

    Levels past the scan bound repeat the emptiness status and sup they had
    at the bound, so the finite scan is exhaustive.
    """
    best = fam.inf_all(s)
    prev = None
    for n in range(scan_bound(fam, s) + 1):
        a = fam.node_inf(n, s)
        if prev is not None and prev < a:
            raise AssertionError(
                f"family {fam.label} not non-increasing at level {n} of {s}")
        prev = a
        p = fam.node_inf(n, s[:-1]) if s else NEG_INF
        if p < a and best < a:
            best = a
    if not best.is_finite:
        return Dyadic(-len(s))
    return best.require_finite()


def segment_label(ker: ProductKernel, E: int, J: tuple, S: tuple,
                  a: int) -> Tuple[int, tuple, tuple]:
    """(label, J', S'): one step of the label transducer of a kernel family.

    (J, S) is the state after a prefix of length L: J the joint kernel
    state, S the staircase summary.  The stair vector at level n < L holds,
    per dimension, the max of the grid outputs at positions n .. L-1.  S
    holds the stair vectors at levels below E exactly (E is the grid
    exponent on a discretized family and 0 otherwise), then the distinct
    stair vectors at levels E .. L-1 in level order.  Levels from E on are
    not rounded, so each depends on its stair vector only, and the label, a
    max over levels, on the distinct vectors only; a prefix no longer than
    E keeps every vector, so len(S) is its length.  Hence the k-th level
    read is rounded exactly when k < E.

    The label is that of the child along letter a, with (J', S') its state.
    Below L both the child's and the parent's levels are stair values; at
    L the child's is its last output and the parent's a tail value; past L
    both are tail values, which settle within tail_entry steps, so the scan
    stops there.  Like construct_u this raises AssertionError when a level
    read exceeds the level read before it.  Levels are read, and the label
    returned, as the kernel's grid ints.
    """
    J2, o = ker.edge(J, a)
    vecs = [tuple(map(max, d, o)) for d in S] + [o]
    S2 = tuple(vecs[:E]) + tuple(v for v, _ in groupby(vecs[E:]))
    cvals, centry = ker.tail(J2)
    pvals, pentry = ker.tail(J)
    jmax = max(1 + centry, pentry, E - len(S))
    # level reads 0 .. len(S) + jmax; tail tables are constant past entry
    curs = [ker.value(J2, v) for v in vecs]
    curs += cvals + cvals[-1:] * (jmax - 1 - centry)
    pars = [ker.value(J, d) for d in S]
    pars += pvals + pvals[-1:] * (jmax - pentry)
    best = cvals[-1]
    last = None
    for k, (cur, par) in enumerate(zip(curs, pars)):
        if k < E:
            # round up to the 2**-k grid: k < E, so the shift is positive
            shift = E - k
            cur = -((-cur) >> shift) << shift
            par = -((-par) >> shift) << shift
        if last is not None and last < cur:
            raise AssertionError(f"levels not non-increasing at level read {k}")
        last = cur
        if par < cur and best < cur:
            best = cur
    return best, J2, S2


class LabelTransducer:
    """The constructed labeling of a kernel family as a finite transducer.

    States are the (J, S) pairs of segment_label, numbered in the order
    they are met; state 0 is the root's.  move(q, a) is memoized, so
    segment_label runs once per (state, letter), and every construction
    state over the family shares the table.  The reachable states are
    finitely many: J ranges over the product states and S over a bounded
    number of decreasing chains of output vectors.  exponent is
    segment_label's E: the level from which on levels are not rounded.
    machine is the minimal machine once minimize_labeling has built it.
    """

    def __init__(self, ker: ProductKernel, discretized: bool):
        self.ker = ker
        self.exponent = ker.grid_exponent if discretized else 0
        self.states: List[tuple] = [(ker.initial, ())]
        self._ids = {self.states[0]: 0}
        self._moves: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.machine: Optional[NodeAutomaton] = None

    def move(self, q: int, a: int) -> Tuple[int, int]:
        """(label of the child along a as a grid int, its state) from q."""
        got = self._moves.get((q, a))
        if got is None:
            J, S = self.states[q]
            label, J2, S2 = segment_label(self.ker, self.exponent, J, S, a)
            r = self._ids.get((J2, S2))
            if r is None:
                r = self._ids[(J2, S2)] = len(self.states)
                self.states.append((J2, S2))
            got = self._moves[(q, a)] = (label, r)
        return got


def transducer(fam: GridLscFamily) -> LabelTransducer:
    """The family's label transducer, kept on its kernel.

    Raw and discretized families share a kernel but not their labels, so
    the kernel keeps one transducer per discretized flag.
    """
    ker = fam.kernel
    got = ker.transducers.get(fam.discretized)
    if got is None:
        got = ker.transducers[fam.discretized] = LabelTransducer(
            ker, fam.discretized)
    return got


class ConstructionState:
    """Per-prefix label cache.

    Each nonempty prefix is labeled by one move of the family's label
    transducer from its parent's state; the per-prefix states are kept, so
    a prefix costs one move past its parent.  The root has no parent, so
    each level's threshold interval reaches up to that level's infimum, and
    level 0's infimum, the largest, is the root's label.
    """

    def __init__(self, fam: GridLscFamily):
        self.fam = fam
        self.cache: Dict[Prefix, Dyadic] = {}
        self._tr = transducer(fam)
        self._runs: Dict[Prefix, int] = {(): 0}

    def _run(self, s: Prefix) -> int:
        k = len(s)
        while s[:k] not in self._runs:
            k -= 1
        q = self._runs[s[:k]]
        for i in range(k, len(s)):
            q = self._tr.move(q, s[i])[1]
            self._runs[s[:i + 1]] = q
        return q

    def u(self, s: Prefix) -> Dyadic:
        got = self.cache.get(s)
        if got is None:
            if not s:
                got = self.fam.node_inf(0, s).require_finite()
            else:
                label, self._runs[s] = self._tr.move(self._run(s[:-1]), s[-1])
                got = self._tr.ker.from_grid(label)
            self.cache[s] = got
        return got


def branch_limsup(fam: GridLscFamily, x: EventuallyPeriodicBranch,
                  cap: int = 4096) -> Tuple[Dyadic, dict]:
    """Exact limsup of the constructed labels along x, and audit info: the
    tests' reference walk of the transducer, which no command runs.

    The value is the largest label on the cycle of the (branch phase,
    transducer state) lasso; no repeat within cap + 1 steps raises
    InconclusiveLassoError.  The info holds the (branch phase, joint state)
    lasso start and period, read off the projection of that walk, and
    max_scan, the largest scan_bound over the prefixes of lengths
    1 .. horizon, horizon = max(t0 + 4p + 16, 6p, 32) capped at cap.
    """
    tr = transducer(fam)
    letters = x.stem + x.cycle
    stem, end = len(x.stem), len(letters)
    move = tr.move
    labels: List[int] = []

    def step(key):
        t, q = key
        label, r = move(q, letters[t])
        labels.append(label)
        t += 1
        return (t if t < end else stem), r

    try:
        walk, entry = first_repeat((0, 0), step, cap + 1)
    except StabilizationCapError:
        raise InconclusiveLassoError(
            f"no lasso along {x} within {cap} steps") from None
    value = tr.ker.from_grid(max(labels[entry:]))
    proj = [(t, tr.states[q][0]) for t, q in walk]
    proj.append(proj[entry])
    orbit, t0 = first_repeat(proj[0], dict(zip(proj, proj[1:])).__getitem__)
    p = len(orbit) - t0
    horizon = min(max(t0 + 4 * p + 16, 6 * p, 32), cap)
    # a prefix's scan bound is max(L + tail_entry(J_L), L - 1 +
    # tail_entry(J_{L-1}), exponent), so the bounds up to the horizon peak
    # at the last length each orbit position takes
    max_scan = tr.exponent
    for i, (_, J) in enumerate(orbit):
        L = i if i < t0 else i + p * ((horizon - i) // p)
        max_scan = max(max_scan, L + tr.ker.tail_entry(J))
    info = {"lasso_start": t0, "period": p, "horizon": horizon,
            "max_scan": max_scan}
    return value, info


class BranchCheck(NamedTuple):
    branch: EventuallyPeriodicBranch
    expected: Optional[Dyadic]
    got: Optional[Dyadic]
    equal: bool
    inconclusive: bool


class ConstructionReport(NamedTuple):
    rows: Tuple[BranchCheck, ...]
    label: str
    machine: NodeAutomaton

    @property
    def all_equal(self) -> bool:
        return all(r.equal for r in self.rows)

    @property
    def inconclusive_count(self) -> int:
        return sum(1 for r in self.rows if r.inconclusive)

    def summary(self) -> str:
        n = len(self.rows)
        if self.all_equal and self.inconclusive_count == 0:
            return f"equal on all {n} corpus branches"
        return (f"{sum(r.equal for r in self.rows)}/{n} branches equal, "
                f"{self.inconclusive_count} inconclusive")


def verify_construction(fam: GridLscFamily,
                        branches: Sequence[EventuallyPeriodicBranch],
                        target_fn: Optional[Callable] = None) -> ConstructionReport:
    """Exact per-branch comparison of the constructed labeling's minimal
    machine (minimize_labeling), the object construct writes, against the
    source function.  Each row evaluates the machine with eval_limsup, and
    the report carries the machine; a machine lasso always closes, so no
    row is inconclusive.
    """
    if target_fn is None:
        if fam.kernel.dims != 1:
            raise ValueError("verify_construction needs an automaton-derived "
                             "family or an explicit target_fn")
        src = fam.kernel.machines[0]

        def target_fn(x, _u=src):
            return eval_limsup(_u, x)

    machine = minimize_labeling(ConstructionState(fam))
    rows = []
    for x in branches:
        expected, got = target_fn(x), eval_limsup(machine, x)
        rows.append(BranchCheck(x, expected, got, got == expected, False))
    return ConstructionReport(tuple(rows), fam.label, machine)


def minimize_labeling(state: ConstructionState) -> NodeAutomaton:
    """The minimal machine of a constructed labeling.

    The labeling is the family's label transducer, so its reachable states
    are explored from the root with the memoized move.  The letters are the
    tree's alphabet 0..k-1, or on the naturals tree 0..K with K the largest
    machine letter count, the last letter standing for the default class.
    Moore refinement then splits the states, first by their rows of labels
    and then by the blocks of their successors, until no block splits; the
    blocks are numbered in breadth-first order from the root's, letters in
    order.  A tree alphabet other than 0..k-1 raises ValueError.  The
    machine is kept on the transducer, so a family is minimized once and
    every reader gets the one machine object.
    """
    tr = transducer(state.fam)
    if tr.machine is not None:
        return tr.machine
    tree = tr.ker.tree
    if tree.all_naturals:
        letters = range(max(u.num_letters for u in tr.ker.machines) + 1)
    else:
        letters = tree.alphabet
        if letters != tuple(range(len(letters))):
            raise ValueError(f"cannot minimize over the alphabet {letters}: "
                             "machine letters are 0..k-1")
    moves: Dict[int, List[Tuple[int, int]]] = {}
    todo = [0]
    while todo:
        q = todo.pop()
        if q not in moves:
            moves[q] = [tr.move(q, a) for a in letters]
            todo.extend(r for _, r in moves[q])
    sig = {q: tuple(label for label, _ in row) for q, row in moves.items()}
    count = 0
    while True:
        ids: dict = {}
        block = {q: ids.setdefault(key, len(ids)) for q, key in sig.items()}
        if len(ids) == count:
            break
        count = len(ids)
        sig = {q: (block[q],) + tuple(block[r] for _, r in row)
               for q, row in moves.items()}
    number = {block[0]: 0}
    reps = [0]
    steps: List[List[int]] = []
    outs: List[List[Dyadic]] = []
    for q in reps:
        for _, r in moves[q]:
            if block[r] not in number:
                number[block[r]] = len(reps)
                reps.append(r)
        steps.append([number[block[r]] for _, r in moves[q]])
        outs.append([tr.ker.from_grid(label) for label, _ in moves[q]])
    tr.machine = make_automaton(0, steps, outs)
    return tr.machine


def apply_op(op: str, a: Dyadic, b: Dyadic) -> Dyadic:
    if op == "sum":
        return a + b
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    raise ValueError(f"op must be one of {ALGEBRA_OPS}")


class AlgebraFunction(NamedTuple):
    """Constructed labeling representing op(f1, f2), with exact evaluation."""

    op: str
    factors: Tuple[NodeAutomaton, NodeAutomaton]
    family: GridLscFamily
    state: ConstructionState

    @property
    def machine(self) -> NodeAutomaton:
        """The labeling's minimal machine, minimized on first use and then
        read off the transducer, so a branch check minimizes nothing."""
        return transducer(self.family).machine or minimize_labeling(self.state)

    def value_on(self, x: EventuallyPeriodicBranch) -> Dyadic:
        return eval_limsup(self.machine, x)

    def expected_on(self, x: EventuallyPeriodicBranch) -> Dyadic:
        """op of the factor limsups along x, each the largest output on the
        cycle of one (state pair, cycle phase) lasso of both factors."""
        u1, u2 = self.factors
        c1 = [u1.letter_class(a) for a in x.cycle]
        c2 = [u2.letter_class(a) for a in x.cycle]
        s1, s2, period = u1.steps, u2.steps, len(c1)

        def step(key):
            p1, p2, i = key
            return s1[p1][c1[i]], s2[p2][c2[i]], (i + 1) % period

        orbit, entry = first_repeat((u1.run(x.stem), u2.run(x.stem), 0), step)
        cyc = orbit[entry:]
        return apply_op(self.op,
                        max(u1.outputs[p1][c1[i]] for p1, _, i in cyc),
                        max(u2.outputs[p2][c2[i]] for _, p2, i in cyc))


def algebra(u1: NodeAutomaton, u2: NodeAutomaton, op: str,
            tree: Optional[TreeSpec] = None) -> AlgebraFunction:
    """op(f1, f2) as a constructed labeling over the joint level family.

    Level n of the joint family applies op to the factors' level-n tail
    sups; min separates into per-machine infima while sum and max couple
    the machines through one shared branch.
    """
    if op not in ALGEBRA_OPS:
        raise ValueError(f"op must be one of {ALGEBRA_OPS}")
    tree = tree if tree is not None else binary_tree()
    raw = family_from_kernel(ProductKernel([u1, u2], tree, op),
                             label=f"algebra:{op}")
    fam = discretize(raw)
    return AlgebraFunction(op, (u1, u2), fam, ConstructionState(fam))
