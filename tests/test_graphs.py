"""The shared searches: orbit to first repeat and cycle reachability."""

import pytest

from limsupgames.graphs import (StabilizationCapError, cycle_reachable,
                                first_repeat)


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

