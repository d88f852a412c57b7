"""Level families: node infima vs brute branch sweeps, discretization."""

import itertools

from conftest import constant_automaton
from limsupgames.corpus import random_automaton, rng_stream
from limsupgames.dyadic import Dyadic, half_pow
from limsupgames.families import discretize, family_from_automaton
from limsupgames.trees import EventuallyPeriodicBranch, binary_tree

TREE = binary_tree()

# extensions long enough that every exact-k-step reach (k <= 2) composed
# with an optimal simple lasso of a 3-state machine appears
EXTENSIONS = [
    (stem, cyc)
    for ls in range(6)
    for stem in itertools.product((0, 1), repeat=ls)
    for lc in range(1, 4)
    for cyc in itertools.product((0, 1), repeat=lc)
]


def brute_node_inf(u, n, s):
    """inf over branches through s of the sup of outputs at positions >= n."""
    best = None
    for ext_stem, cyc in EXTENSIONS:
        x = EventuallyPeriodicBranch(s + ext_stem, cyc)
        window = u.num_states * len(cyc) + 1
        warmup = len(x.stem) + window
        q = u.initial
        outputs = []
        for t in range(warmup + window):
            a = x.letter_at(t)
            outputs.append(u.output(q, a))
            q = u.step(q, a)
        val = max(outputs[n:])
        if best is None or val < best:
            best = val
    return best


def test_node_inf_matches_brute():
    rng = rng_stream(11, "families-brute")
    prefixes = [(), (1,), (0, 1), (1, 1, 0)]
    for _ in range(8):
        u = random_automaton(rng, 3)
        fam = family_from_automaton(u, TREE)
        for s in prefixes:
            for n in range(len(s) + 3):
                got = fam.node_inf(n, s).require_finite()
                assert got == brute_node_inf(u, n, s), (u, n, s)


def test_levels_non_increasing():
    rng = rng_stream(12, "families-mono")
    for _ in range(10):
        u = random_automaton(rng, 4)
        fam = family_from_automaton(u, TREE)
        for s in [(), (0,), (1, 0)]:
            vals = [fam.node_inf(n, s) for n in range(12)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_inf_all_is_tail_limit():
    rng = rng_stream(13, "families-tail")
    for _ in range(10):
        u = random_automaton(rng, 3)
        fam = family_from_automaton(u, TREE)
        for s in [(), (1,), (0, 0)]:
            stab = fam.stabilization_index(s)
            tail = [fam.node_inf(n, s) for n in range(stab, stab + 8)]
            assert fam.inf_all(s) == min(tail)


def test_discretize_grid_membership():
    rng = rng_stream(14, "families-grid")
    for _ in range(10):
        u = random_automaton(rng, 3)
        raw = family_from_automaton(u, TREE)
        fam = discretize(raw)
        assert fam.discretized
        for s in [(), (0,), (1, 1)]:
            for n in range(8):
                a = raw.node_inf(n, s).require_finite()
                b = fam.node_inf(n, s).require_finite()
                assert b.exp <= n
                assert a <= b < a + half_pow(n)
            assert fam.inf_all(s) == raw.inf_all(s)


def test_discretize_idempotent():
    fam = discretize(family_from_automaton(constant_automaton(Dyadic(1)), TREE))
    assert discretize(fam) is fam


def test_constant_family():
    c = Dyadic(-3, 2)
    fam = family_from_automaton(constant_automaton(c), TREE)
    for s in [(), (0, 1)]:
        assert fam.inf_all(s).require_finite() == c
        assert fam.node_inf(5, s).require_finite() == c
