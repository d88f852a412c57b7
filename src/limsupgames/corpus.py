"""Deterministic fixture generators: seeded machine corpora, eventually
periodic branch sweeps, and two-sided prefix-table pairs."""

from __future__ import annotations

import hashlib
import itertools
import random
from typing import Callable, List, NamedTuple, Sequence, Tuple

from .automata import NodeAutomaton, eval_limsup, make_automaton
from .dyadic import Dyadic
from .strategies import LetterFSM, MachineResponder, ValueFSM
from .trees import EventuallyPeriodicBranch

# the master seed of the acceptance suite and of config files
DEFAULT_SEED = 1729


def rng_stream(seed: int, name: str) -> random.Random:
    """Independent named substream of one master seed."""
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_dyadic(rng: random.Random, span: int = 4, max_exp: int = 2) -> Dyadic:
    exp = rng.randint(0, max_exp)
    return Dyadic(rng.randint(-(span << exp), span << exp), exp)


def random_automaton(rng: random.Random, max_states: int = 4,
                     span: int = 4, max_exp: int = 2) -> NodeAutomaton:
    n = rng.randint(1, max_states)
    steps = [[rng.randrange(n) for _ in range(2)] for _ in range(n)]
    outs = [[random_dyadic(rng, span, max_exp) for _ in range(2)]
            for _ in range(n)]
    return make_automaton(0, steps, outs)


def automaton_corpus(seed: int, count: int, max_states: int = 4,
                     span: int = 4, max_exp: int = 2) -> List[NodeAutomaton]:
    rng = rng_stream(seed, "automata")
    return [random_automaton(rng, max_states, span, max_exp)
            for _ in range(count)]


def letter_fsm(rng: random.Random, n: int, thresholds: Sequence) -> LetterFSM:
    """n-state letter machine on the given thresholds; draws the emitted
    letters, then the transition rows."""
    emits = [rng.randrange(2) for _ in range(n)]
    trans = [[rng.randrange(n) for _ in range(len(thresholds) + 2)]
             for _ in range(n)]
    return LetterFSM(emits, trans, thresholds)


def letter_fsm_corpus(seed: int, count: int, max_states: int = 3) -> List[LetterFSM]:
    rng = rng_stream(seed, "letter-fsm")
    out = []
    for _ in range(count):
        n = rng.randint(1, max_states)
        thresholds = [random_dyadic(rng, 2, 2) for _ in range(rng.randint(0, 1))]
        out.append(letter_fsm(rng, n, thresholds))
    return out


def value_fsm(rng: random.Random, n: int, draw: Callable[[], Dyadic],
              pairs: bool) -> MachineResponder:
    """n-state value machine; draws the transition rows from rng, then each
    state's value and, for pairs, each state's covalue from draw()."""
    trans = [[rng.randrange(n) for _ in range(2)] for _ in range(n)]
    values = [draw() for _ in range(n)]
    covalues = [draw() for _ in range(n)] if pairs else None
    return ValueFSM(trans, values, covalues)


def value_fsm_corpus(seed: int, count: int, max_states: int = 3,
                     natural: bool = False) -> List[MachineResponder]:
    rng = rng_stream(seed, "value-fsm" + ("-nat" if natural else ""))
    draw = (lambda: Dyadic(rng.randint(0, 3))) if natural else \
        (lambda: random_dyadic(rng, 2, 2))
    return [value_fsm(rng, rng.randint(1, max_states), draw, False)
            for _ in range(count)]


def pair_fsm_corpus(seed: int, count: int, max_states: int = 3) -> List[MachineResponder]:
    rng = rng_stream(seed, "pair-fsm")
    return [value_fsm(rng, rng.randint(1, max_states),
                      lambda: random_dyadic(rng, 2, 2), True)
            for _ in range(count)]


def canonical_form(stem: tuple, cycle: tuple) -> Tuple[tuple, tuple]:
    """The shortest (stem, cycle) of the branch stem + cycle^omega: one key
    per branch.  The cycle is cut to its primitive root, then the stem's
    trailing letters that the cycle repeats are rolled into it."""
    n = len(cycle)
    d = next(d for d in range(1, n + 1)
             if n % d == 0 and cycle == cycle[:d] * (n // d))
    cycle = cycle[:d]
    while stem and stem[-1] == cycle[-1]:
        stem, cycle = stem[:-1], cycle[-1:] + cycle[:-1]
    return stem, cycle


def branch_corpus(max_stem: int = 3, max_cycle: int = 3,
                  alphabet: Sequence[int] = (0, 1)
                  ) -> List[EventuallyPeriodicBranch]:
    """Every stem up to max_stem and cycle up to max_cycle, one description
    per branch: the first met, keyed by canonical_form."""
    seen = {}
    for ls in range(max_stem + 1):
        for stem in itertools.product(alphabet, repeat=ls):
            for lc in range(1, max_cycle + 1):
                for cyc in itertools.product(alphabet, repeat=lc):
                    key = canonical_form(stem, cyc)
                    if key not in seen:
                        seen[key] = EventuallyPeriodicBranch(stem, cyc)
    return list(seen.values())


def prefix_table_machine(table, negate: bool = False) -> NodeAutomaton:
    """Binary machine whose limsup depends only on the first two letters.

    One start state, two middle states, four absorbing states; from the
    second transition on, every output equals the table entry of the
    prefix, so the limsup and liminf both equal it.  The negated twin
    therefore represents exactly the negation.
    """

    def s(v):
        v = v if isinstance(v, Dyadic) else Dyadic(v)
        return -v if negate else v

    steps = [[1, 2]]
    outs = [[Dyadic(0), Dyadic(0)]]
    for a in (0, 1):
        steps.append([3 + 2 * a, 3 + 2 * a + 1])
        outs.append([s(table[a][0]), s(table[a][1])])
    for a in (0, 1):
        for b in (0, 1):
            q = 3 + 2 * a + b
            steps.append([q, q])
            outs.append([s(table[a][b]), s(table[a][b])])
    return make_automaton(0, steps, outs)


class PairFixture(NamedTuple):
    table: Tuple[Tuple[Dyadic, Dyadic], Tuple[Dyadic, Dyadic]]
    u_f: NodeAutomaton
    u_neg: NodeAutomaton


def baire_pair_fixtures(seed: int, count: int) -> List[PairFixture]:
    rng = rng_stream(seed, "baire-pairs")
    out = []
    for _ in range(count):
        table = tuple(tuple(random_dyadic(rng, 2, 2) for _ in range(2))
                      for _ in range(2))
        out.append(PairFixture(table, prefix_table_machine(table),
                               prefix_table_machine(table, negate=True)))
    return out


def certify_pair(u_f: NodeAutomaton, u_neg: NodeAutomaton,
                 branches: Sequence[EventuallyPeriodicBranch]) -> bool:
    """Check limsup u_neg = -limsup u_f on every given branch."""
    return all(eval_limsup(u_neg, x) == -eval_limsup(u_f, x)
               for x in branches)
