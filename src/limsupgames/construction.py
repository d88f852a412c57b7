"""Threshold-set construction of node labelings from lsc families.

construct_u assigns each prefix the supremum of its threshold set: values r
below every level's cylinder infimum (the persistent part), plus values
caught between the parent's and the child's infimum at some level (the
per-level part); empty threshold sets fall back to -length.  The limsup of
the constructed labels along any branch recovers the family's limit
function, which verify_construction checks exactly on eventually periodic
branches.  Every family is kernel-backed and gets its labels from
segment_label, which reads a few staircase segments instead of every level;
construct_u is the generic level scan that those labels are checked
against.  The sum/min/max algebra runs the same construction over joint
kernels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .automata import NodeAutomaton, eval_limsup, make_automaton
from .dyadic import Dyadic, NEG_INF
from .families import GridLscFamily, discretize, family_from_kernel
from .graphs import StabilizationCapError, first_repeat, periodic_start
from .kernels import ProductKernel, stair_vector, stairs_append
from .trees import EventuallyPeriodicBranch, Prefix, TreeSpec, binary_tree

ALGEBRA_OPS = ("sum", "min", "max")


class InconclusiveLassoError(RuntimeError):
    """Constructed labels along a branch refused to settle into a cycle."""


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


def segment_label(ker: ProductKernel, discretized: bool, L: int,
                  J: tuple, J_prev: tuple, cur_snap: tuple,
                  prev_snap: tuple) -> Tuple[Dyadic, int]:
    """(label, scan bound) of a prefix of length L >= 1 of a kernel family.

    J and cur_snap are the joint state and output staircase after the
    prefix, J_prev and prev_snap after its parent.  Level n at a prefix is
    a stair value below its length and a tail value past it; below L - 1
    both the prefix's and the parent's levels only change where a staircase
    segment starts, so only the segment starts are read there.  Levels past
    the grid exponent need no rounding.  The scan bound equals scan_bound,
    and like construct_u this raises AssertionError when a level read
    exceeds the level read before it.  Levels are read as the kernel's grid
    ints; the label becomes a Dyadic on return.
    """
    E = ker.grid_exponent
    M = max(L + ker.tail_entry(J), L - 1 + ker.tail_entry(J_prev))
    lo = 0
    if discretized:
        M = max(M, E)
        lo = E
    if L - 2 < lo:
        levels = range(M + 1)
    else:
        starts = {lo}
        for snap in (cur_snap, prev_snap):
            for segs in snap:
                for start, _v in segs:
                    if lo < start <= L - 2:
                        starts.add(start)
        levels = itertools.chain(range(lo), sorted(starts), range(L - 1, M + 1))
    best = ker.tail_limit(J)
    last = None
    for n in levels:
        a = ker.value(J, stair_vector(cur_snap, n)) if n < L \
            else ker.tail_value(J, n - L)
        p = ker.value(J_prev, stair_vector(prev_snap, n)) if n < L - 1 \
            else ker.tail_value(J_prev, n - L + 1)
        if n < lo:
            # round up to the 2**-n grid: n < E, so the shift is positive
            shift = E - n
            a = -((-a) >> shift) << shift
            p = -((-p) >> shift) << shift
        if last is not None and last < a:
            raise AssertionError(
                f"levels not non-increasing at level {n} of a length-{L} prefix")
        last = a
        if p < a and best < a:
            best = a
    return ker.from_grid(best), M


class ConstructionState:
    """Per-prefix label cache, with audit counters.

    Each nonempty prefix is labeled by segment_label from a per-prefix
    (joint state, staircase) memo, each entry one step past its parent's.
    The root has no parent, so each level's threshold interval reaches up
    to that level's infimum, and level 0's infimum, the largest, is the
    root's label.
    """

    def __init__(self, fam: GridLscFamily):
        self.fam = fam
        self.cache: Dict[Prefix, Dyadic] = {}
        self.max_scan = 0
        self._runs = {(): (fam.kernel.initial, ((),) * fam.kernel.dims)}

    def _run(self, s: Prefix) -> tuple:
        k = len(s)
        while s[:k] not in self._runs:
            k -= 1
        J, snap = self._runs[s[:k]]
        ker = self.fam.kernel
        for i in range(k, len(s)):
            a = s[i]
            snap = stairs_append(snap, i, ker.outputs_on(J, a))
            J = ker.step(J, a)
            self._runs[s[:i + 1]] = (J, snap)
        return J, snap

    def u(self, s: Prefix) -> Dyadic:
        got = self.cache.get(s)
        if got is None:
            if not s:
                M = scan_bound(self.fam, s)
                got = self.fam.node_inf(0, s).require_finite()
            else:
                J_prev, prev_snap = self._run(s[:-1])
                J, cur_snap = self._run(s)
                got, M = segment_label(self.fam.kernel, self.fam.discretized,
                                       len(s), J, J_prev, cur_snap, prev_snap)
            self.max_scan = max(self.max_scan, M)
            self.cache[s] = got
        return got


class _KernelLabeler:
    """Walks a branch once, labeling every prefix of the kernel-backed family.

    Keeps the joint run state, the per-dimension suffix-max staircases of the
    emitted outputs, and the memoized tail tables; each label costs a few
    segment lookups (segment_label) instead of a fresh level scan.
    labels[k] is the label of the prefix of length k+1.
    """

    def __init__(self, fam: GridLscFamily, x: EventuallyPeriodicBranch):
        self.ker = fam.kernel
        self.x = x
        self.disc = fam.discretized
        self.J = self.ker.initial
        self.cur_snap = ((),) * self.ker.dims
        self.L = 0
        self.labels: List[Dyadic] = []
        self.max_scan = 0

    def step(self) -> None:
        a = self.x.letter_at(self.L)
        J_prev, prev_snap = self.J, self.cur_snap
        self.cur_snap = stairs_append(prev_snap, self.L,
                                      self.ker.outputs_on(J_prev, a))
        self.J = self.ker.step(J_prev, a)
        self.L += 1
        label, M = segment_label(self.ker, self.disc, self.L, self.J, J_prev,
                                 self.cur_snap, prev_snap)
        self.max_scan = max(self.max_scan, M)
        self.labels.append(label)

    def extend_to(self, horizon: int) -> None:
        while self.L < horizon:
            self.step()

    def run_to_lasso(self, cap: int = 100000) -> Tuple[int, int]:
        """(start, period) of the first repeat of (branch position, joint state)."""
        x, ker = self.x, self.ker
        stem, end = len(x.stem), len(x.stem) + len(x.cycle)

        def step(key):
            t, J = key
            return (t + 1 if t + 1 < end else stem, ker.step(J, x.letter_at(t)))

        try:
            orbit, entry = first_repeat((0, ker.initial), step, cap + 1)
        except StabilizationCapError:
            raise InconclusiveLassoError("no joint state lasso within cap") from None
        return entry, len(orbit) - entry


def branch_labels(fam: GridLscFamily, x: EventuallyPeriodicBranch,
                  horizon: int) -> Tuple[Dyadic, ...]:
    lab = _KernelLabeler(fam, x)
    lab.extend_to(horizon)
    return tuple(lab.labels)


def periodic_tail_max(values: Sequence[Dyadic], period: int,
                      repeats: int = 3) -> Optional[Tuple[int, Dyadic]]:
    """Max over one period of a certified periodic tail, or None.

    Requires the last `repeats` periods to agree entrywise, then rolls the
    periodic start back as far as the values allow and reports (start, max).
    """
    n = len(values)
    if period < 1 or n < repeats * period:
        return None
    lo = n - repeats * period
    for i in range(lo, n - period):
        if values[i] != values[i + period]:
            return None
    return (periodic_start(values, n - period, period), max(values[n - period:]))


def branch_limsup(fam: GridLscFamily, x: EventuallyPeriodicBranch,
                  cap: int = 4096) -> Tuple[Dyadic, dict]:
    """Exact limsup of the constructed labels along x, with audit info.

    The joint (kernel state, branch phase) lasso period is an eventual
    period of the label sequence; the horizon escalates until three periods
    agree, and exhaustion raises InconclusiveLassoError.
    """
    lab = _KernelLabeler(fam, x)
    t0, p = lab.run_to_lasso(cap)
    horizon = max(t0 + 4 * p + 16, 6 * p, 32)
    while True:
        horizon = min(horizon, cap)
        lab.extend_to(horizon)
        got = periodic_tail_max(lab.labels, p, repeats=3)
        if got is not None:
            start, value = got
            info = {"lasso_start": t0, "period": p, "tail_start": start,
                    "horizon": horizon, "max_scan": lab.max_scan}
            return value, info
        if horizon >= cap:
            raise InconclusiveLassoError(
                f"labels along {x} show no period-{p} tail within {cap}")
        horizon = min(cap, horizon * 2)


@dataclass(frozen=True)
class BranchCheck:
    branch: EventuallyPeriodicBranch
    expected: Optional[Dyadic]
    got: Optional[Dyadic]
    equal: bool
    inconclusive: bool
    period: Optional[int]
    horizon: int


@dataclass(frozen=True)
class ConstructionReport:
    rows: Tuple[BranchCheck, ...]
    label: str
    max_scan: int

    @property
    def all_equal(self) -> bool:
        return all(r.equal for r in self.rows)

    @property
    def inconclusive_count(self) -> int:
        return sum(1 for r in self.rows if r.inconclusive)

    def summary(self) -> str:
        n = len(self.rows)
        if self.all_equal and self.inconclusive_count == 0:
            return f"equal on all {n} corpus branches (max level scan {self.max_scan})"
        bad = [r for r in self.rows if not r.equal]
        return (f"{n - len(bad)}/{n} branches equal, "
                f"{self.inconclusive_count} inconclusive "
                f"(max level scan {self.max_scan})")


def verify_construction(fam: GridLscFamily,
                        branches: Sequence[EventuallyPeriodicBranch],
                        target_fn: Optional[Callable] = None,
                        cap: int = 4096) -> ConstructionReport:
    """Exact per-branch comparison of the constructed labeling's limsup
    against the source function; inconclusive lassos are flagged, not failed.
    """
    if target_fn is None:
        if fam.kernel.dims != 1:
            raise ValueError("verify_construction needs an automaton-derived "
                             "family or an explicit target_fn")
        src = fam.kernel.machines[0]

        def target_fn(x, _u=src):
            return eval_limsup(_u, x)

    rows = []
    worst = 0
    for x in branches:
        expected = target_fn(x)
        try:
            got, info = branch_limsup(fam, x, cap=cap)
        except InconclusiveLassoError:
            rows.append(BranchCheck(x, expected, None, False, True, None, cap))
            continue
        worst = max(worst, info["max_scan"])
        rows.append(BranchCheck(x, expected, got, got == expected, False,
                                info["period"], info["horizon"]))
    return ConstructionReport(tuple(rows), fam.label, worst)


def minimize_labeling(state: ConstructionState, tree: TreeSpec,
                      probe_depth: int = 3, close_depth: int = 8,
                      verify_depth: int = 11,
                      max_states: int = 64) -> Optional[NodeAutomaton]:
    """Try to fold a constructed labeling into a finite machine.

    Prefixes are grouped by the labels of all their extensions out to
    probe_depth; when the grouping closes under extension within
    close_depth and the induced machine reproduces every label out to
    verify_depth, the machine is returned.  Anything else, including
    non-contiguous alphabets, yields None and the labeling stays an oracle.
    """
    letters = tree.alphabet
    if letters is None or letters != tuple(range(len(letters))):
        return None
    probes: List[Prefix] = []
    frontier: List[Prefix] = [()]
    for _ in range(probe_depth):
        frontier = [w + (a,) for w in frontier for a in letters]
        probes.extend(frontier)

    def signature(s: Prefix):
        return tuple(state.u(s + w) for w in probes)

    class_of = {signature(()): 0}
    reps: List[Prefix] = [()]
    steps: List[List[int]] = []
    outs: List[List[Dyadic]] = []
    i = 0
    while i < len(reps):
        s = reps[i]
        if len(s) > close_depth:
            return None
        row_step = []
        row_out = []
        for a in letters:
            child = s + (a,)
            sg = signature(child)
            j = class_of.get(sg)
            if j is None:
                j = len(reps)
                if j >= max_states:
                    return None
                class_of[sg] = j
                reps.append(child)
            row_step.append(j)
            row_out.append(state.u(child))
        steps.append(row_step)
        outs.append(row_out)
        i += 1
    machine = make_automaton(0, steps, outs)
    layer = [((), 0)]
    for _ in range(verify_depth):
        nxt = []
        for s, q in layer:
            for a in letters:
                child = s + (a,)
                if machine.output(q, a) != state.u(child):
                    return None
                nxt.append((child, machine.step(q, a)))
        layer = nxt
    return machine


def apply_op(op: str, a: Dyadic, b: Dyadic) -> Dyadic:
    if op == "sum":
        return a + b
    if op == "min":
        return min(a, b)
    if op == "max":
        return max(a, b)
    raise ValueError(f"op must be one of {ALGEBRA_OPS}")


@dataclass(frozen=True)
class AlgebraFunction:
    """Constructed labeling representing op(f1, f2), with exact evaluation."""

    op: str
    factors: Tuple[NodeAutomaton, NodeAutomaton]
    family: GridLscFamily
    state: ConstructionState

    def u(self, s: Prefix) -> Dyadic:
        return self.state.u(s)

    def value_on(self, x: EventuallyPeriodicBranch, cap: int = 4096) -> Dyadic:
        return branch_limsup(self.family, x, cap=cap)[0]

    def expected_on(self, x: EventuallyPeriodicBranch) -> Dyadic:
        f1 = eval_limsup(self.factors[0], x)
        f2 = eval_limsup(self.factors[1], x)
        return apply_op(self.op, f1, f2)


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
