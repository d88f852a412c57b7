"""Shared test fixtures and the small machines many tests build."""

from types import SimpleNamespace

import pytest

from limsupgames.automata import NodeAutomaton, make_automaton
from limsupgames.construction import ConstructionState, apply_op
from limsupgames.dyadic import NEG_INF, Dyadic, ExtValue
from limsupgames.graphs import first_repeat


def letter_output_automaton() -> NodeAutomaton:
    """One state, output equals the letter just consumed."""
    return make_automaton(0, [[0, 0]], [[0, 1]])


def constant_automaton(value) -> NodeAutomaton:
    return make_automaton(0, [[0, 0]], [[value, value]])


def state_after(u, s):
    """u's state after reading the prefix s."""
    q = u.initial
    for a in s:
        q = u.step(q, a)
    return q


def node_value(u, s):
    """The label u(s) of a nonempty prefix: the output of the transition
    that read its last letter."""
    return u.output(state_after(u, s[:-1]), s[-1])


def reference_suffix_key(x, pos):
    """EventuallyPeriodicBranch.suffix_key's formula, a fresh tuple a call."""
    if pos < len(x.stem):
        return (x.stem[pos:], x.cycle)
    k = (pos - len(x.stem)) % len(x.cycle)
    return ((), x.cycle[k:] + x.cycle[:k])


def reference_lasso(u, x):
    """(start, period, transient outputs, cycle outputs) of the run along
    x, read off the lasso of (state, cycle phase) pairs: the formula the
    pass walk of eval_limsup and lasso_summary replaced."""
    cls = [u.letter_class(a) for a in x.cycle]
    orbit, entry = first_repeat(
        (state_after(u, x.stem), 0),
        lambda key: (u.steps[key[0]][cls[key[1]]], (key[1] + 1) % len(cls)))
    outs = [u.outputs[q][cls[i]] for q, i in orbit]
    stem = tuple(node_value(u, x.stem[:t + 1]) for t in range(len(x.stem)))
    return (len(x.stem) + entry, len(orbit) - entry,
            stem + tuple(outs[:entry]), tuple(outs[entry:]))


def reference_expected(op, u1, u2, x):
    """op of the factor limsups off one (state pair, cycle phase) lasso of
    both factors: the joint walk AlgebraFunction.expected_on replaced."""
    c1 = [u1.letter_class(a) for a in x.cycle]
    c2 = [u2.letter_class(a) for a in x.cycle]

    def step(key):
        p1, p2, i = key
        return u1.steps[p1][c1[i]], u2.steps[p2][c2[i]], (i + 1) % len(c1)

    orbit, entry = first_repeat(
        (state_after(u1, x.stem), state_after(u2, x.stem), 0), step)
    cyc = orbit[entry:]
    return apply_op(op, max(u1.outputs[p1][c1[i]] for p1, _, i in cyc),
                    max(u2.outputs[p2][c2[i]] for _, p2, i in cyc))


def branch_labels(fam, x, horizon: int) -> tuple:
    """Labels of the prefixes of x of lengths 1 .. horizon."""
    state = ConstructionState(fam)
    q = 0
    out = []
    for t in range(horizon):
        label, q = state.move(q, x.letter_at(t))
        out.append(state.ker.from_grid(label))
    return tuple(out)


@pytest.fixture
def drop_family() -> SimpleNamespace:
    """Synthetic family over binary prefixes, in the duck-typed shape that
    construct_u reads: level n identically -n, so inf_all is -infinity.

    Every non-root threshold interval is empty and the persistent set is
    empty too, which drives the constructed labeling to its -length fallback
    on every nonempty prefix.  Index 0 is a sound scan bound: levels only
    sink as n grows, and no strict parent/child gap ever appears.
    """
    return SimpleNamespace(node_inf=lambda n, s: ExtValue.finite(Dyadic(-n)),
                           inf_all=lambda s: NEG_INF,
                           stabilization_index=lambda s: 0, label="drop")
