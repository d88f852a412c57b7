"""Non-increasing families of lower semicontinuous functions on branch space.

A family is presented computationally: node_inf(n, s) is the exact infimum of
the level-n function over the cylinder of branches extending s, always an
attained, grid-valued minimum for the automaton-derived families built here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .automata import NodeAutomaton
from .dyadic import ExtValue
from .kernels import ProductKernel
from .trees import Prefix, TreeSpec, binary_tree


@dataclass(frozen=True)
class GridLscFamily:
    """Oracle presentation of a non-increasing sequence of lsc functions
    over a kernel.

    Invariants relied on everywhere: node_inf(n, s) <= node_inf(n, s + (a,))
    (shrinking cylinders), node_inf(n+1, s) <= node_inf(n, s) (non-increasing
    levels), finite values lie on the kernel's grid (and level n on the
    2^-n grid once discretized), and inf_all(s) is the exact infimum over n.

    stabilization_index(s) bounds the level scans of the threshold
    construction: for n past the index, node_inf(n, s) stays at or below the
    scanned values and the per-level threshold intervals repeat the status
    they had at the index.
    """

    node_inf: Callable[[int, Prefix], ExtValue]
    inf_all: Callable[[Prefix], ExtValue]
    stabilization_index: Callable[[Prefix], int]
    kernel: ProductKernel = field(compare=False)
    discretized: bool = False
    label: str = "family"


def family_from_kernel(ker: ProductKernel, label: str) -> GridLscFamily:
    """Tail-sup family over a kernel: level n scores output positions >= n."""
    walks = {(): (ker.initial, ())}

    def _walk(s: Prefix):
        got = walks.get(s)
        if got is None:
            J, outs = _walk(s[:-1])
            J2, o = ker.edge(J, s[-1])
            got = walks[s] = (J2, outs + (o,))
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
        return ExtValue.finite(ker.from_grid(ker.tail(J)[0][-1]))

    def stabilization_index(s: Prefix) -> int:
        J, _ = _walk(s)
        return len(s) + ker.tail_entry(J)

    return GridLscFamily(node_inf, inf_all, stabilization_index, ker,
                         label=label)


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
    both the stabilization index and the kernel's grid exponent.
    """
    if fam.discretized:
        return fam

    def node_inf(n: int, s: Prefix) -> ExtValue:
        return fam.node_inf(n, s).ceil_to_grid(n)

    settle = fam.kernel.grid_exponent

    def stabilization_index(s: Prefix) -> int:
        return max(fam.stabilization_index(s), settle)

    return GridLscFamily(node_inf, fam.inf_all, stabilization_index,
                         fam.kernel, discretized=True,
                         label=fam.label + "+grid")
