"""Node automata: serialization, exact limsup evaluation, minmax values."""

import re

import pytest

from conftest import (constant_automaton, letter_output_automaton,
                      reference_lasso, state_after)
from limsupgames.automata import (NodeAutomaton, _passes, eval_limsup,
                                  lasso_summary, limsup_rank, make_automaton,
                                  minmax_value)
from limsupgames.corpus import (branch_corpus, random_automaton,
                                random_dyadic, rng_stream)
from limsupgames.dyadic import Dyadic
from limsupgames.graphs import first_repeat
from limsupgames.kernels import ProductKernel
from limsupgames.trees import EventuallyPeriodicBranch, binary_tree

BRANCHES = branch_corpus(3, 3)
# naturals-tree branches: the corpus machines read every letter >= 1 as
# their default class
NAT_BRANCHES = branch_corpus(2, 2, alphabet=(0, 2, 7))


def brute_limsup(u: NodeAutomaton, x: EventuallyPeriodicBranch) -> Dyadic:
    """Simulate far enough that the joint (state, cycle phase) run is purely
    periodic, then max one full joint period."""
    window = u.num_states * len(x.cycle) + 1
    warmup = len(x.stem) + window
    q = u.initial
    outputs = []
    for t in range(warmup + window):
        a = x.letter_at(t)
        outputs.append(u.output(q, a))
        q = u.step(q, a)
    return max(outputs[warmup:])


def brute_minmax(u: NodeAutomaton, q0: int) -> Dyadic:
    """Min over eventually periodic continuations of the whole-future sup
    (transient outputs included).

    Stems to depth 3 and cycles to length 3 exhaust simple paths and simple
    cycles of a 3-state machine, where the optimum lives.
    """
    best = None
    for x in BRANCHES:
        q = q0
        window = u.num_states * len(x.cycle) + 1
        warmup = len(x.stem) + window
        outputs = []
        for t in range(warmup + window):
            a = x.letter_at(t)
            outputs.append(u.output(q, a))
            q = u.step(q, a)
        val = max(outputs)
        if best is None or val < best:
            best = val
    return best


def test_json_round_trip():
    rng = rng_stream(99, "json")
    for _ in range(20):
        u = random_automaton(rng, 4)
        assert NodeAutomaton.from_json_dict(u.to_json_dict()) == u


def test_save_load(tmp_path):
    u = letter_output_automaton()
    path = tmp_path / "m.json"
    u.save(path)
    assert NodeAutomaton.load(path) == u


def test_eval_limsup_standard_machines():
    letter = letter_output_automaton()
    assert eval_limsup(letter, EventuallyPeriodicBranch((), (0, 1))) == Dyadic(1)
    assert eval_limsup(letter, EventuallyPeriodicBranch((1, 1), (0,))) == Dyadic(0)
    const = constant_automaton(Dyadic(3, 1))
    for x in BRANCHES[:10]:
        assert eval_limsup(const, x) == Dyadic(3, 1)


def test_eval_limsup_against_brute():
    rng = rng_stream(7, "limsup-brute")
    for _ in range(25):
        u = random_automaton(rng, 4)
        for x in BRANCHES[::5] + NAT_BRANCHES[::5]:
            assert eval_limsup(u, x) == brute_limsup(u, x)


def test_default_letter_class():
    # binary machines clamp every letter >= 1 into the default class
    rng = rng_stream(8, "classes")
    u = random_automaton(rng, 3)
    a = EventuallyPeriodicBranch((0, 1), (1, 0))
    b = EventuallyPeriodicBranch((0, 7), (9, 0))
    assert eval_limsup(u, a) == eval_limsup(u, b)


def test_minmax_against_brute():
    # minmax_value, a one-machine kernel and a two-machine min-mode kernel
    # (each machine paired with the one before it) read the same tables
    rng = rng_stream(21, "minmax-brute")
    prev = None
    for _ in range(30):
        u = random_automaton(rng, 3)
        ker = ProductKernel((u,), binary_tree())
        brute = [brute_minmax(u, q) for q in range(u.num_states)]
        for q in range(u.num_states):
            assert minmax_value(u, q).require_finite() == brute_minmax(u, q)
            assert ker.from_grid(ker.value((q,), ker.floor)) == brute[q]
        if prev is not None:
            v, brute_v = prev
            pair = ProductKernel((v, u), binary_tree(), "min")
            for p in range(v.num_states):
                for q in range(u.num_states):
                    got = pair.from_grid(pair.value((p, q), pair.floor))
                    assert got == min(brute_v[p], brute[q])
        prev = (u, brute)


def test_lasso_summary_consistency():
    rng = rng_stream(5, "summary")
    for _ in range(10):
        u = random_automaton(rng, 4)
        for x in BRANCHES[::7] + NAT_BRANCHES[::7]:
            cert = lasso_summary(u, x)
            assert max(cert.cycle_outputs) == eval_limsup(u, x)
            # replaying the machine reproduces transient then cycle outputs
            q = u.initial
            replay = []
            need = cert.start + 2 * cert.period
            for t in range(need):
                a = x.letter_at(t)
                replay.append(u.output(q, a))
                q = u.step(q, a)
            assert tuple(replay[:cert.start]) == cert.transient_outputs
            assert tuple(replay[cert.start:cert.start + cert.period]) == \
                cert.cycle_outputs
            assert tuple(replay[cert.start + cert.period:need]) == \
                cert.cycle_outputs


def _wide_machines(seed, count):
    """Seeded machines of 1..64 states with three explicit letters and a
    default class, with branches over letters 0..5 (3..5 read the default
    class), stems to 6 letters and cycles to 12."""
    rng = rng_stream(seed, "wide-machines")

    def word(lo, hi):
        return tuple(rng.randrange(6) for _ in range(rng.randint(lo, hi)))

    for _ in range(count):
        n = rng.choice((rng.randint(1, 8), rng.randint(9, 64)))
        u = make_automaton(
            0, [[rng.randrange(n) for _ in range(4)] for _ in range(n)],
            [[random_dyadic(rng, 4, 3) for _ in range(4)] for _ in range(n)])
        yield u, [EventuallyPeriodicBranch(word(0, 6), word(1, 12))
                  for _ in range(8)]


def test_the_pass_walk_matches_the_state_phase_lasso():
    for u, branches in _wide_machines(31, 80):
        for x in branches:
            start, period, transient, cycle = reference_lasso(u, x)
            assert eval_limsup(u, x) == max(cycle), (u, x)
            cert = lasso_summary(u, x)
            assert cert == (start, period, transient, cycle), (u, x)
            assert cert.limsup == eval_limsup(u, x)


def test_the_pass_orbit_is_first_repeat_over_one_pass():
    for u, branches in _wide_machines(33, 60):
        for x in branches:
            cls, orbit, entry, top = _passes(u, x)
            assert cls == [u.letter_class(a) for a in x.cycle]

            def one_pass(q):
                for c in cls:
                    q = u.steps[q][c]
                return q

            want, want_entry = first_repeat(state_after(u, x.stem), one_pass)
            assert (list(orbit), entry) == (want, want_entry), (u, x)
            assert orbit == {q: i for i, q in enumerate(want)}
            # each pass's top rank, read off the states it passes
            for q, best in zip(want, top):
                ranks = []
                for c in cls:
                    ranks.append(u.ranks[q][c])
                    q = u.steps[q][c]
                assert best == max(ranks), (u, x)
            assert len(top) == len(want)


def test_limsup_rank_indexes_eval_limsup_in_levels():
    for u, branches in _wide_machines(34, 40):
        for x in branches + BRANCHES[::11] + NAT_BRANCHES[::11]:
            rank = limsup_rank(u, x)
            assert type(rank) is int
            assert u.levels[rank] == eval_limsup(u, x) == brute_limsup(u, x)


def test_levels_and_ranks_index_the_outputs():
    rng = rng_stream(32, "ranks")
    for _ in range(40):
        u = random_automaton(rng, 4, span=2, max_exp=1)
        assert all(a < b for a, b in zip(u.levels, u.levels[1:]))
        assert set(u.levels) == {o for row in u.outputs for o in row}
        for q, row in enumerate(u.outputs):
            for c, out in enumerate(row):
                assert u.levels[u.ranks[q][c]] == out


def test_levels_and_ranks_stay_out_of_equality_hash_repr_and_json():
    u = make_automaton(0, [[1, 0], [1, 1]], [[0, "1/2^1"], [1, 0]])
    w = make_automaton(0, [[1, 0], [1, 1]], [[0, "1/2^1"], [1, 0]])
    object.__setattr__(w, "levels", ())
    object.__setattr__(w, "ranks", ())
    assert u == w and hash(u) == hash(w)
    assert repr(u) == repr(w) == (
        "NodeAutomaton(initial=0, steps=((1, 0), (1, 1)), "
        "outputs=((Dyadic(0, 0), Dyadic(1, 1)), (Dyadic(1, 0), Dyadic(0, 0))))")
    assert u.to_json_dict() == w.to_json_dict() == {
        "states": 2, "initial": 0, "letters": 1,
        "transitions": [[0, 0, 1, "0/2^0"], [0, "default", 0, "1/2^1"],
                        [1, 0, 1, "1/2^0"], [1, "default", 1, "0/2^0"]]}


def test_make_automaton_validation():
    with pytest.raises(ValueError):
        make_automaton(0, [[0, 2]], [[0, 0]])  # target state out of range
    with pytest.raises(ValueError):
        make_automaton(3, [[0, 0]], [[0, 0]])  # initial out of range


@pytest.mark.parametrize("initial, steps, what", [
    (0, [[True, 0], [0, 1]], "bad successor True at (0,0)"),
    (True, [[0, 0], [1, 1]], "bad initial state True"),
    (0.0, [[0, 0], [1, 1]], "bad initial state 0.0"),
], ids=["bool-successor", "bool-initial", "float-initial"])
def test_make_automaton_needs_exact_int_states(initial, steps, what):
    # a bool would quietly alias state 1 and a float would crash in run
    with pytest.raises(ValueError, match=re.escape(what)):
        make_automaton(initial, steps, [[0, 1], [1, 0]])
