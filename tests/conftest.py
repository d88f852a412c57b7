"""Shared test fixtures and the small machines many tests build."""

from types import SimpleNamespace

import pytest

from limsupgames.automata import NodeAutomaton, make_automaton
from limsupgames.construction import transducer
from limsupgames.dyadic import NEG_INF, Dyadic, ExtValue


def letter_output_automaton() -> NodeAutomaton:
    """One state, output equals the letter just consumed."""
    return make_automaton(0, [[0, 0]], [[0, 1]])


def constant_automaton(value) -> NodeAutomaton:
    return make_automaton(0, [[0, 0]], [[value, value]])


def reference_suffix_key(x, pos):
    """EventuallyPeriodicBranch.suffix_key's formula, a fresh tuple a call."""
    if pos < len(x.stem):
        return (x.stem[pos:], x.cycle)
    k = (pos - len(x.stem)) % len(x.cycle)
    return ((), x.cycle[k:] + x.cycle[:k])


def branch_labels(fam, x, horizon: int) -> tuple:
    """Labels of the prefixes of x of lengths 1 .. horizon."""
    tr = transducer(fam)
    q = 0
    out = []
    for t in range(horizon):
        label, q = tr.move(q, x.letter_at(t))
        out.append(tr.ker.from_grid(label))
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
