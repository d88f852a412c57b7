"""Threshold-set construction of node labelings from lsc families.

construct_u assigns each prefix the supremum of its threshold set: values r
below every level's cylinder infimum (the persistent part), plus values
caught between the parent's and the child's infimum at some level (the
per-level part); empty threshold sets fall back to -length.  The limsup of
the constructed labels along any branch recovers the family's limit
function.  Every family is kernel-backed, and its labeling is one
ConstructionState: a finite transducer on numbered joint states and stair
vectors, one memoized row per state holding each child's label and state,
with the prefix labels read off it.  minimize_labeling refines the rows
into the minimal machine, kept on the state; that machine is the
constructed function: verify_construction evaluates it exactly on
eventually periodic branches, construct writes it, and algebra checks and
pipeline payoffs read it.  construct_u is the generic level scan that the
labels are checked against, and branch_limsup a reference walk of the
transducer.  The sum/min/max algebra runs the same construction over joint
kernels.
"""

from __future__ import annotations

from itertools import compress
from operator import lt
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .automata import NodeAutomaton, eval_limsup, limsup_rank, make_automaton
from .dyadic import Dyadic, NEG_INF
from .families import GridLscFamily, discretize, family_from_kernel
from .graphs import StabilizationCapError, first_repeat
from .kernels import ProductKernel
from .trees import EventuallyPeriodicBranch, Prefix, TreeSpec, binary_tree

ALGEBRA_OPS = ("sum", "min", "max")
# the most label transducer states minimize_labeling meets before it gives up
STATE_CAP = 200_000


class InconclusiveLassoError(RuntimeError):
    """The labels along a branch showed no lasso within the cap."""


class StateCapError(RuntimeError):
    """The label transducer met more than STATE_CAP states."""


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


def _number(ids: dict, items: list, x) -> int:
    """x's number in ids; a new x is numbered len(items) and appended."""
    got = ids.get(x)
    if got is None:
        got = ids[x] = len(items)
        items.append(x)
    return got


class ConstructionState:
    """The constructed labeling of a kernel family, one object per labeling:
    its transducer rows, its minimal machine and its prefix labels.

    After a prefix of length L the transducer state is (J, S): J the joint
    kernel state, S the staircase summary.  The stair vector at level n < L
    is the componentwise max of the grid outputs at positions n .. L-1; S
    holds those at levels below E (exponent: the grid exponent on a
    discretized family, else 0), then the distinct ones from E on, which
    are not rounded.  So len(S) is L while L <= E, and read k is rounded
    iff k < E.

    Joint states and stair vectors are numbered as met (joints, vectors); a
    state is (joint id, vector ids), numbered in states from the root's 0.
    Per joint id its edge per joint letter class (ker.reps), its tail and
    its level reads, and per pair of vector ids their max, are asked of the
    kernel once.  row(q) is q's (label, successor) per class; move(q, a)
    reads a's class in it.  A child's label is its largest level read above
    the parent's at that level: stair values below L, then tails, which
    settle within their entries.  The parent's reads and their rounding are
    made once per row.  Like construct_u a row raises AssertionError when a
    read exceeds the one before it.  Labels are grid ints; machine is the
    minimal machine once minimize_labeling has built it.

    u(s) labels a prefix as a Dyadic, kept in cache: the last move's label
    from state 0.  The root has no parent, so each level's threshold
    interval reaches up to that level's infimum, and level 0's infimum, the
    largest, is the root's label.
    """

    def __init__(self, fam: GridLscFamily):
        self.fam = fam
        self.ker = ker = fam.kernel
        self.exponent = ker.grid_exponent if fam.discretized else 0
        self.cache: Dict[Prefix, Dyadic] = {}
        # the joints, vectors and states met, and their numbers
        self.joints: List[tuple] = []
        self.vectors: List[tuple] = []
        self.states: List[tuple] = []
        self._jids, self._vids, self._ids = {}, {}, {}
        # per joint id: its edges (on first use), tail and level reads
        self._edges: List[Optional[list]] = []
        self._tails: List[Tuple[tuple, int]] = []
        self._levels: List[Dict[int, int]] = []
        self._max: Dict[Tuple[int, int], int] = {}  # by pair of vector ids
        self._classes = {tuple(u.letter_class(a) for u in ker.machines): c
                         for c, a in enumerate(ker.reps)}
        _number(self._ids, self.states, (self._joint(ker.initial), ()))
        self.rows: Dict[int, tuple] = {}
        self.machine: Optional[NodeAutomaton] = None

    def u(self, s: Prefix) -> Dyadic:
        got = self.cache.get(s)
        if got is None:
            if not s:
                got = self.fam.node_inf(0, s).require_finite()
            else:
                q = 0
                for a in s:
                    label, q = self.move(q, a)
                got = self.ker.from_grid(label)
            self.cache[s] = got
        return got

    def _joint(self, J: tuple) -> int:
        j = _number(self._jids, self.joints, J)
        if j == len(self._tails):
            self._edges.append(None)
            self._tails.append(self.ker.tail(J))
            self._levels.append({})
        return j

    def _reads(self, j: int, S) -> list:
        # the level values of joint j at the stair vectors of ids S
        lev = self._levels[j]
        for v in S:
            if v not in lev:
                lev[v] = self.ker.value(self.joints[j], self.vectors[v])
        return [lev[v] for v in S]

    def letter_class(self, a: int) -> int:
        """a's joint letter class, by index in ker.reps; ValueError off the tree."""
        if not self.ker.tree.admits((), a):
            raise ValueError(f"letter {a} is not in {self.ker.tree.name}")
        return self._classes[tuple(u.letter_class(a) for u in self.ker.machines)]

    def row(self, q: int) -> tuple:
        """q's (label as a grid int, successor) per joint letter class."""
        got = self.rows.get(q)
        if got is not None:
            return got
        j, S = self.states[q]
        E, n = self.exponent, len(S)
        edges = self._edges[j]
        if edges is None:
            J = self.joints[j]
            edges = self._edges[j] = [
                (self._joint(J2), _number(self._vids, self.vectors, o))
                for J2, o in (self.ker.edge(J, a) for a in self.ker.reps)]
        tails, vectors, maxes = self._tails, self.vectors, self._max
        pvals, pentry = tails[j]
        # every class reads levels 0 .. K-1: a tail read past its table's
        # entry repeats its last value, and reads from E on are not rounded
        K = n + 1 + max(pentry, E - n, 1 + max(tails[j2][1] for j2, _ in edges))
        pars = [*self._reads(j, S), *pvals, *pvals[-1:] * (K - n - len(pvals))]
        # round read k < E up to the 2**-k grid: the shift E - k is positive
        pars[:E] = [-((-v) >> (E - k)) << (E - k) for k, v in enumerate(pars[:E])]
        row = []
        for j2, o in edges:
            vecs = []
            for d in S:
                m = maxes.get((d, o))
                if m is None:
                    m = maxes[d, o] = _number(self._vids, vectors, tuple(
                        map(max, vectors[d], vectors[o])))
                vecs.append(m)
            vecs.append(o)
            cvals = tails[j2][0]
            curs = [*self._reads(j2, vecs), *cvals, *cvals[-1:] * (K - n - 1 - len(cvals))]
            curs[:E] = [-((-v) >> (E - k)) << (E - k) for k, v in enumerate(curs[:E])]
            if any(map(lt, curs, curs[1:])):
                k = next(k for k in range(1, K) if curs[k - 1] < curs[k])
                raise AssertionError(
                    f"levels not non-increasing at level read {k}")
            # reads do not increase and end at cvals[-1], so the first read
            # above the parent's is the label, and cvals[-1] without one
            best = next(compress(curs, map(lt, pars, curs)), cvals[-1])
            # stair vectors do not increase, so equal ones are adjacent
            S2 = tuple(vecs[:E]) + tuple(dict.fromkeys(vecs[E:]))
            row.append((best, _number(self._ids, self.states, (j2, S2))))
        got = self.rows[q] = tuple(row)
        return got

    def move(self, q: int, a: int) -> Tuple[int, int]:
        """(label of the child along a as a grid int, its state) from q."""
        return self.row(q)[self.letter_class(a)]


def branch_limsup(fam: GridLscFamily, x: EventuallyPeriodicBranch,
                  cap: int = 4096) -> Tuple[Dyadic, dict]:
    """Exact limsup of the constructed labels along x, and audit info: the
    tests' reference walk of a fresh ConstructionState, which no command
    runs.

    The value is the largest label on the cycle of the (branch phase,
    transducer state) lasso; no repeat within cap + 1 steps raises
    InconclusiveLassoError.  The info holds the (branch phase, joint state)
    lasso start and period, read off the projection of that walk, and
    max_scan, the largest scan_bound over the prefixes of lengths
    1 .. horizon, horizon = max(t0 + 4p + 16, 6p, 32) capped at cap.
    """
    state = ConstructionState(fam)
    letters = x.stem + x.cycle
    stem, end = len(x.stem), len(letters)
    move = state.move
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
    value = state.ker.from_grid(max(labels[entry:]))
    proj = [(t, state.states[q][0]) for t, q in walk]
    proj.append(proj[entry])
    orbit, t0 = first_repeat(proj[0], dict(zip(proj, proj[1:])).__getitem__)
    p = len(orbit) - t0
    horizon = min(max(t0 + 4 * p + 16, 6 * p, 32), cap)
    # a prefix's scan bound is max(L + tail_entry(J_L), L - 1 +
    # tail_entry(J_{L-1}), exponent), so the bounds up to the horizon peak
    # at the last length each orbit position takes
    max_scan = state.exponent
    for i, (_, j) in enumerate(orbit):
        L = i if i < t0 else i + p * ((horizon - i) // p)
        max_scan = max(max_scan, L + state.ker.tail_entry(state.joints[j]))
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

    def summary(self) -> str:
        n = len(self.rows)
        if self.all_equal:
            return f"equal on all {n} corpus branches"
        return f"{sum(r.equal for r in self.rows)}/{n} branches equal"


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

    The labeling is the state's transducer; every state a row meets
    is reachable, so the rows are expanded until they meet no new one, and
    read per letter through its joint letter class.  The letters are the
    kernel's candidate letters (ker.letters); on the naturals tree the last
    stands for the default class.
    Moore refinement then splits the states, first by their rows of labels
    and then by the blocks of their successors, until no block splits; the
    blocks are numbered in breadth-first order from the root's, letters in
    order.  A tree alphabet other than 0..k-1 raises ValueError, and a
    state that meets more than STATE_CAP transducer states StateCapError.
    The machine is kept on the state, so a state is minimized once and
    every reader of it gets the one machine object.
    """
    if state.machine is not None:
        return state.machine
    letters = state.ker.letters
    if letters != tuple(range(len(letters))):
        raise ValueError(f"cannot minimize over the alphabet {letters}: "
                         "machine letters are 0..k-1")
    for q, _ in enumerate(state.states):  # rows append the states they meet
        state.row(q)
        if len(state.states) > STATE_CAP:
            raise StateCapError(
                f"label transducer passed {STATE_CAP} states")
    rows = state.rows
    sig = {q: tuple(label for label, _ in row) for q, row in rows.items()}
    count = 0
    while True:
        ids: dict = {}
        block = {q: ids.setdefault(key, len(ids)) for q, key in sig.items()}
        if len(ids) == count:
            break
        count = len(ids)
        sig = {q: (block[q],) + tuple(block[r] for _, r in row)
               for q, row in rows.items()}
    # any state of a block stands for it: their rows agree up to blocks
    rep = {b: q for q, b in block.items()}
    cols = [state.letter_class(a) for a in letters]
    number, order = {block[0]: 0}, [block[0]]
    steps: List[List[int]] = []
    outs: List[List[Dyadic]] = []
    for b in order:
        row = [rows[rep[b]][c] for c in cols]
        steps.append([_number(number, order, block[r]) for _, r in row])
        outs.append([state.ker.from_grid(label) for label, _ in row])
    state.machine = make_automaton(0, steps, outs)
    return state.machine


def apply_op(op: str, a: Dyadic, b: Dyadic) -> Dyadic:
    if op == "sum":
        return a + b
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    raise ValueError(f"op must be one of {ALGEBRA_OPS}")


class AlgebraFunction(NamedTuple):
    """Constructed labeling representing op(f1, f2), with exact evaluation.

    table[i][j] is op of the factors' levels i and j, so op of their
    limsups along a branch is read off their limsup ranks."""

    op: str
    factors: Tuple[NodeAutomaton, NodeAutomaton]
    family: GridLscFamily
    state: ConstructionState
    table: tuple

    @property
    def machine(self) -> NodeAutomaton:
        """The labeling's minimal machine, minimized on first use and then
        read off the state, so a branch check minimizes nothing."""
        return self.state.machine or minimize_labeling(self.state)

    def value_on(self, x: EventuallyPeriodicBranch) -> Dyadic:
        machine = self.machine
        return machine.levels[limsup_rank(machine, x)]

    def expected_on(self, x: EventuallyPeriodicBranch) -> Dyadic:
        """op of the factor limsups along x, each on its own machine."""
        u1, u2 = self.factors
        return self.table[limsup_rank(u1, x)][limsup_rank(u2, x)]


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
    table = tuple(tuple(apply_op(op, a, b) for b in u2.levels)
                  for a in u1.levels)
    return AlgebraFunction(op, (u1, u2), fam, ConstructionState(fam), table)
