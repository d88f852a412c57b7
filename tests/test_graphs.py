"""The shared searches: orbit to first repeat, the live-state trim and the
threshold search built on it, each against a one-node cycle search."""

import itertools
import random

import pytest

from limsupgames.graphs import (StabilizationCapError, first_repeat,
                                live_states, min_sup_cycle)


def cycle_reachable(succ, start) -> bool:
    """Whether a cycle is reachable from start, i.e. an infinite path
    exists: the oracle the searches are checked against."""
    # iterative DFS, gray/black marks; an edge back to a gray node closes a cycle
    color = {start: 1}
    stack = [(start, iter(succ(start)))]
    while stack:
        node, nbrs = stack[-1]
        for nxt in nbrs:
            c = color.get(nxt)
            if c == 1:
                return True
            if c is None:
                color[nxt] = 1
                stack.append((nxt, iter(succ(nxt))))
                break
        else:
            color[node] = 2
            stack.pop()
    return False


def test_first_repeat_orbit_and_entry():
    # 0 -> 1 -> 2 -> 3 -> 4 -> 2: a stem of two, then a 3-cycle
    orbit, entry = first_repeat(0, lambda x: x + 1 if x < 4 else 2)
    assert orbit == [0, 1, 2, 3, 4]
    assert entry == 2
    assert first_repeat(7, lambda x: x) == ([7], 0)


def test_first_repeat_cap():
    def step(x):
        return (x + 1) % 5

    assert first_repeat(0, step, cap=5) == ([0, 1, 2, 3, 4], 0)
    with pytest.raises(StabilizationCapError):
        first_repeat(0, step, cap=4)


def test_cycle_reachable_self_loop_versus_dag():
    dag = {0: [1, 2], 1: [3], 2: [3], 3: []}
    assert not cycle_reachable(dag.__getitem__, 0)
    looped = {**dag, 3: [3]}
    assert cycle_reachable(looped.__getitem__, 0)
    # a cycle that start cannot reach does not count
    assert not cycle_reachable({0: [1], 1: [], 2: [2]}.__getitem__, 0)


def test_live_states_match_cycle_reachable():
    # the trim against one cycle search per node: the empty graph, a sink,
    # a self-loop, a part no other node reaches, then seeded random graphs
    # with sinks, self-loops and repeated edges
    graphs = [{}, {0: []}, {0: [0]}, {0: [1], 1: [], 2: [2, 0]}]
    rng = random.Random(41)
    for _ in range(400):
        n = rng.randint(1, 9)
        graphs.append({q: [rng.randrange(n) for _ in range(rng.randint(0, 3))]
                       for q in range(n)})
    for g in graphs:
        want = {q for q in g if cycle_reachable(g.__getitem__, q)}
        assert live_states(g, g.__getitem__) == want, g
    assert live_states(iter([0, 1]), {0: [1], 1: [1]}.__getitem__) == {0, 1}


def brute_min_sup_cycle(g, thresholds):
    """Per node and per threshold vector, one cycle search under it; then
    each node's feasible vectors with no other feasible vector below."""
    out = {}
    for q in g:
        ok = [theta for theta in thresholds
              if cycle_reachable(lambda p: [r for r, w in g[p] if all(
                  map(int.__le__, w, theta))], q)]
        mins = [t for t in ok if not any(
            lo != t and all(map(int.__le__, lo, t)) for lo in ok)]
        if mins:
            out[q] = mins
    return out


@pytest.mark.parametrize("dims", [1, 2])
def test_min_sup_cycle_matches_a_search_per_node_and_threshold(dims):
    # seeded random graphs whose edges carry a weight vector; a threshold
    # allows the edges whose weights lie at or below it in every coordinate
    rng = random.Random(43 + dims)
    for _ in range(150):
        n = rng.randint(1, 7)
        g = {q: [(rng.randrange(n), tuple(rng.randrange(4) for _ in range(dims)))
                 for _ in range(rng.randint(0, 3))] for q in range(n)}
        # 5 lies above every weight, so the top vector allows every edge
        grids = [sorted({w[d] for es in g.values() for _, w in es} | {5})
                 for d in range(dims)]
        thresholds = list(itertools.product(*grids))
        got = min_sup_cycle(g, iter(thresholds), lambda theta, q: [
            r for r, w in g[q] if all(map(int.__le__, w, theta))])
        assert got == brute_min_sup_cycle(g, thresholds), g
        if dims == 1:
            # scalar thresholds are totally ordered: one least vector a node
            assert all(len(v) == 1 for v in got.values())
