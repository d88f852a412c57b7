"""The two searches behind every exact answer in the package.

A deterministic map on a finite set repeats a value, so an orbit is a lasso
(`first_repeat`); an infimum of future sups is attained on a lasso, so it is
settled by asking which nodes keep an infinite path in a threshold-filtered
graph (`live_states`), once per threshold vector for every node at once
(`min_sup_cycle`).  `periodic_start` rolls a detected lasso back to the
earliest position where the observed columns are already periodic.

Nodes are arbitrary hashables and successor lists come from a callback, so
product constructions never have to materialize anything up front.  Sizes
here are tiny (products of machine state sets), so the algorithms favor
clarity over asymptotics.
"""

from __future__ import annotations

from operator import le
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

Node = Hashable


class StabilizationCapError(RuntimeError):
    """An orbit failed to repeat within its declared cap (a construction error)."""


def first_repeat(start: Node, step: Callable[[Node], Node],
                 cap: Optional[int] = None) -> Tuple[List[Node], int]:
    """Orbit start, step(start), ... up to its first repeat.

    Returns (orbit, entry): the orbit's distinct values in order, and the
    index of the value the next step returns again, so orbit[entry:] is the
    cycle.  With a cap, an orbit that shows no repeat within cap steps
    raises StabilizationCapError.
    """
    seen: Dict[Node, int] = {}
    orbit: List[Node] = []
    x = start
    while x not in seen:
        seen[x] = len(orbit)
        orbit.append(x)
        if cap is not None and len(orbit) > cap:
            raise StabilizationCapError(f"orbit failed to repeat within {cap} steps")
        x = step(x)
    return orbit, seen[x]


def live_states(nodes: Iterable[Node],
                succ: Callable[[Node], Iterable[Node]]) -> set:
    """The nodes with an infinite path: a counter-based trim, O(nodes +
    edges), kills a node once all its successors (among nodes) are dead."""
    left: Dict[Node, int] = {}
    preds: Dict[Node, list] = {}
    for q in nodes:
        left[q] = 0
        for r in succ(q):
            left[q] += 1
            preds.setdefault(r, []).append(q)
    dead = [q for q, n in left.items() if n == 0]
    for q in dead:
        for p in preds.get(q, ()):
            left[p] -= 1
            if left[p] == 0:
                dead.append(p)
    return {q for q, n in left.items() if n}


def periodic_start(columns: Sequence[Sequence], start: int, period: int) -> int:
    """Least s <= start with col[i] == col[i + period] in every column, for
    s <= i < start."""
    while start > 0:
        i = start - 1
        for c in columns:
            if not c[i] == c[i + period]:
                return start
        start = i
    return start


def min_sup_cycle(nodes: Iterable[Node], thresholds: Iterable[tuple],
                  succ_under: Callable[[tuple, Node], Iterable[Node]]
                  ) -> Dict[Node, List[tuple]]:
    """Each node's componentwise-minimal threshold vectors under which it
    has an infinite path (live_states); a node live under none gets no entry.

    succ_under(theta, q) lists q's successors along the edges allowed under
    theta.  Every vector must come after the vectors below it, as in
    itertools.product over sorted grids.  Future sups are attained on
    lassos, so the least objective over infinite paths from q is its least
    value over q's vectors.
    """
    nodes = list(nodes)
    table: Dict[Node, List[tuple]] = {}
    for theta in thresholds:
        # liveness is upward closed: a vector at or above one of every
        # node's vectors is minimal for none, so it needs no search
        if len(table) == len(nodes) and all(
                any(all(map(le, lo, theta)) for lo in mins)
                for mins in table.values()):
            continue
        for q in live_states(nodes, lambda p: succ_under(theta, p)):
            mins = table.setdefault(q, [])
            if not any(all(map(le, lo, theta)) for lo in mins):
                mins.append(theta)
    return table
