"""The shared searches: orbit to first repeat, cycle reachability and the
live-state trim."""

import random

import pytest

from limsupgames.graphs import (StabilizationCapError, cycle_reachable,
                                first_repeat, live_states)


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
