"""Non-increasing families of lower semicontinuous functions on branch space.

A family is presented computationally: node_inf(n, s) is the exact infimum of
the level-n function over the cylinder of branches extending s, always an
attained, grid-valued minimum for the automaton-derived families built here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .automata import NodeAutomaton
from .dyadic import Dyadic, ExtValue
from .kernels import ProductKernel
from .trees import Prefix, TreeSpec, binary_tree


@dataclass(frozen=True)
class GridLscFamily:
    """Oracle presentation of a non-increasing sequence of lsc functions.

    Invariants relied on everywhere: node_inf(n, s) <= node_inf(n, s + (a,))
    (shrinking cylinders), node_inf(n+1, s) <= node_inf(n, s) (non-increasing
    levels), finite values of level n lie on the 2^{-grid_exponent(n)} grid,
    and inf_all(s) is the exact infimum over n.

    stabilization_index(s) bounds the level scans of the threshold
    construction: for n past the index, node_inf(n, s) stays at or below the
    scanned values and the per-level threshold intervals repeat the status
    they had at the index (constant families past their reach stabilization;
    empty or dominated for the synthetic fixtures).

    grid_settle is the least n0 such that grid_exponent(m) <= m for all
    m >= n0, i.e. the point past which per-level grid rounding is a no-op.
    """

    node_inf: Callable[[int, Prefix], ExtValue]
    inf_all: Callable[[Prefix], ExtValue]
    grid_exponent: Callable[[int], int]
    stabilization_index: Callable[[Prefix], int]
    tree: TreeSpec
    grid_settle: int = 0
    kernel: Optional[ProductKernel] = field(default=None, compare=False)
    discretized: bool = False
    label: str = "family"


def family_from_kernel(ker: ProductKernel, label: str) -> GridLscFamily:
    """Tail-sup family over a kernel: level n scores output positions >= n."""
    walks = {(): (ker.initial, ())}

    def _walk(s: Prefix):
        got = walks.get(s)
        if got is None:
            J, outs = _walk(s[:-1])
            a = s[-1]
            got = (ker.step(J, a), outs + (ker.outputs_on(J, a),))
            walks[s] = got
        return got

    memo = {}

    def node_inf(n: int, s: Prefix) -> ExtValue:
        key = (n, s)
        got = memo.get(key)
        if got is None:
            J, outs = _walk(s)
            if n >= len(s):
                v = ker.tail_value(J, n - len(s))
            else:
                fixed = tuple(max(vec[d] for vec in outs[n:])
                              for d in range(ker.dims))
                v = ker.value(J, fixed)
            got = ExtValue.finite(ker.from_grid(v))
            memo[key] = got
        return got

    def inf_all(s: Prefix) -> ExtValue:
        J, _ = _walk(s)
        return ExtValue.finite(ker.from_grid(ker.tail_limit(J)))

    def stabilization_index(s: Prefix) -> int:
        J, _ = _walk(s)
        return len(s) + ker.tail_entry(J)

    E = ker.grid_exponent
    return GridLscFamily(node_inf, inf_all, lambda n: E, stabilization_index,
                         ker.tree, grid_settle=E, kernel=ker, label=label)


def family_from_automaton(u: NodeAutomaton, tree: Optional[TreeSpec] = None) -> GridLscFamily:
    """The tail-sup presentation of the limsup function of u.

    Level n is g_n(x) = sup of u's outputs at positions t >= n along x; its
    cylinder infimum at s combines the suffix maximum of the outputs fixed by
    s with the minmax continuation value, or scans the states reachable in
    exactly n - |s| free steps when the level starts below the prefix.
    """
    tree = tree if tree is not None else binary_tree()
    return family_from_kernel(ProductKernel([u], tree), "tailsup")


def discretize(fam: GridLscFamily) -> GridLscFamily:
    """Round level n up to the 2^{-n} grid, pointwise.

    Infima are attained, so the rounded node_inf is the rounding of the
    original; inf_all is unchanged because rounding is a no-op once n passes
    both the stabilization index and grid_settle.
    """
    if fam.discretized:
        return fam

    def node_inf(n: int, s: Prefix) -> ExtValue:
        return fam.node_inf(n, s).ceil_to_grid(n)

    settle = fam.grid_settle

    def stabilization_index(s: Prefix) -> int:
        return max(fam.stabilization_index(s), settle)

    def grid_exponent(n: int) -> int:
        return min(n, fam.grid_exponent(n))

    return GridLscFamily(node_inf, fam.inf_all, grid_exponent,
                         stabilization_index, fam.tree, grid_settle=0,
                         kernel=fam.kernel, discretized=True,
                         label=fam.label + "+grid")


@dataclass(frozen=True)
class LscLevel:
    """A single lsc function: the everywhere-sup of an automaton's outputs.

    g(x) = sup of u's outputs along x (all positions); its node infimum at s
    is max(suffix max over the whole prefix, minmax continuation).
    """

    u: NodeAutomaton


def regularize_nonincreasing(levels: Sequence[LscLevel],
                             tree: Optional[TreeSpec] = None,
                             tail_rule: Optional[int] = None) -> GridLscFamily:
    """Tail suprema of a finite level list: level n = pointwise max of levels
    m >= n, with levels past the end repeating levels[tail_rule] (default the
    last).  Node infima of pointwise maxes are joint threshold searches over
    the product of the involved machines.
    """
    if not levels:
        raise ValueError("regularize_nonincreasing needs at least one level")
    tree = tree if tree is not None else binary_tree()
    N = len(levels) - 1
    if tail_rule is None:
        tail_rule = N
    if not (0 <= tail_rule <= N):
        raise ValueError(f"tail_rule {tail_rule} out of range")

    machines = tuple(lv.u for lv in levels)
    kernels = {}

    def _kernel(n: int) -> ProductKernel:
        idx = tuple(sorted(set(range(min(n, N), N + 1)) | {tail_rule})) if n <= N \
            else (tail_rule,)
        got = kernels.get(idx)
        if got is None:
            got = ProductKernel([machines[i] for i in idx], tree, "max")
            kernels[idx] = got
        return got

    memo = {}

    def node_inf(n: int, s: Prefix) -> ExtValue:
        key = (min(n, N + 1), s)
        got = memo.get(key)
        if got is None:
            ker = _kernel(n)
            # per-machine max output along s; the floor at the root
            J, fixed = ker.initial, ker.floor
            for a in s:
                fixed = tuple(max(f, o) for f, o in zip(fixed, ker.outputs_on(J, a)))
                J = ker.step(J, a)
            got = ExtValue.finite(ker.from_grid(ker.value(J, fixed)))
            memo[key] = got
        return got

    def inf_all(s: Prefix) -> ExtValue:
        return node_inf(N + 1, s)

    E = max(o.exp for u in machines for row in u.outputs for o in row)
    return GridLscFamily(node_inf, inf_all, lambda n: E,
                         lambda s: N + 1, tree, grid_settle=E,
                         label="regularized")


def constant_family(c: Dyadic, tree: Optional[TreeSpec] = None) -> GridLscFamily:
    """Every level identically c."""
    tree = tree if tree is not None else binary_tree()
    v = ExtValue.finite(c)
    return GridLscFamily(lambda n, s: v, lambda s: v, lambda n: c.exp,
                         lambda s: 0, tree, grid_settle=c.exp,
                         label=f"const:{c}")

