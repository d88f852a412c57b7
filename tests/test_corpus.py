"""Fixture generators: the branch corpus holds each branch once."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from limsupgames import corpus as corpus_module
from limsupgames.corpus import (branch_corpus, canonical_form, letter_fsm_corpus,
                               pair_fsm_corpus, value_fsm_corpus)
from limsupgames.trees import EventuallyPeriodicBranch, parse_branch


@st.composite
def branch_pairs(draw):
    """Two branches, the second often another description of the first: a
    cycle repeated and rotated, its first letters unrolled into the stem."""
    letters = st.integers(0, 1)
    stem = tuple(draw(st.lists(letters, max_size=6)))
    cyc = tuple(draw(st.lists(letters, min_size=1, max_size=4)))
    x = EventuallyPeriodicBranch(stem, cyc)
    if draw(st.booleans()):
        unroll = draw(st.integers(0, 4))
        reps = draw(st.integers(1, 3))
        k = len(stem) + unroll
        y = EventuallyPeriodicBranch(
            x.first(k), tuple(x.letter_at(k + i) for i in range(len(cyc)))
            * reps)
    else:
        y = EventuallyPeriodicBranch(
            tuple(draw(st.lists(letters, max_size=6))),
            tuple(draw(st.lists(letters, min_size=1, max_size=4))))
    return x, y


@settings(max_examples=400, deadline=None)
@given(branch_pairs())
def test_canonical_form_keys_branches_exactly(pair):
    # by Fine and Wilf, two eventually periodic words equal on their first
    # max stem + both periods letters are equal
    x, y = pair
    n = max(len(x.stem), len(y.stem)) + len(x.cycle) + len(y.cycle)
    same = canonical_form(x.stem, x.cycle) == canonical_form(y.stem, y.cycle)
    assert same == (x.first(n) == y.first(n)), (x, y)


def test_long_branch_corpus_keeps_branches_past_sixteen_letters():
    # all zeros for 16 letters, then a 1 in every eighth letter: a key on
    # the first 16 letters took it for the all-zero branch and dropped it
    corpus = branch_corpus(9, 8)
    assert parse_branch("stem=0,0,0,0,0,0,0,0,0;cycle=0,0,0,0,0,0,0,1") \
        in corpus
    # stems of at most 9 and cycles of at most 8 letters decide equality
    # on the first 9 + 8 + 8 letters
    assert len({x.first(25) for x in corpus}) == len(corpus) > 2 ** 16


def test_short_branch_corpus_keeps_first_descriptions():
    # one description per branch, the first in stem-then-cycle order
    corpus = branch_corpus(3, 3)
    assert len(corpus) == 80
    assert corpus[:3] == [parse_branch("stem=;cycle=0"),
                          parse_branch("stem=;cycle=1"),
                          parse_branch("stem=;cycle=0,1")]
    assert parse_branch("stem=0;cycle=1,0") not in corpus


def _texts(values):
    return None if values is None else tuple(str(v) for v in values)


def _value_fsm_args(monkeypatch, make):
    """The (trans, values, covalues) each value machine of make() is built
    from, read off the ValueFSM builder's arguments."""
    seen = []

    def record(trans, values, covalues=None):
        seen.append((tuple(map(tuple, trans)), values, covalues))
        return real(trans, values, covalues)

    real = corpus_module.ValueFSM
    monkeypatch.setattr(corpus_module, "ValueFSM", record)
    made = make()
    monkeypatch.setattr(corpus_module, "ValueFSM", real)
    # rows of one width: the machine steps on trans itself
    assert [m.u.steps for m in made] == [t for t, _, _ in seen]
    return [SimpleNamespace(trans=t, values=v, covalues=w) for t, v, w in seen]


def test_fsm_corpus_tables_are_pinned(monkeypatch):
    # literals taken from the corpus generators at seed 2; a change in the
    # order of the random draws changes them
    assert [(f.emits, f.trans, _texts(f.thresholds))
            for f in letter_fsm_corpus(2, 5)] == [
        ((0, 0, 0), ((1, 1, 2), (0, 1, 1), (1, 1, 0)), ("-2/2^0",)),
        ((0, 0), ((0, 1, 0), (0, 0, 1)), ("-3/2^1",)),
        ((1,), ((0, 0),), ()),
        ((0, 0, 1), ((0, 1, 2), (1, 2, 1), (2, 1, 1)), ("-2/2^0",)),
        ((1, 0, 1), ((2, 1), (0, 2), (0, 0)), ())]
    assert [(f.trans, _texts(f.values), f.covalues)
            for f in _value_fsm_args(
                monkeypatch, lambda: value_fsm_corpus(2, 4))] == [
        (((0, 0),), ("1/2^1",), None),
        (((1, 0), (0, 0), (0, 1)), ("-1/2^0", "-5/2^2", "-2/2^0"), None),
        (((0, 1), (1, 1)), ("1/2^0", "1/2^0"), None),
        (((0, 0),), ("2/2^0",), None)]
    assert [(f.trans, _texts(f.values), f.covalues)
            for f in _value_fsm_args(
                monkeypatch, lambda: value_fsm_corpus(2, 4, natural=True))] == [
        (((0, 0),), ("3/2^0",), None),
        (((0, 1), (2, 2), (1, 0)), ("2/2^0", "1/2^0", "2/2^0"), None),
        (((0, 0),), ("1/2^0",), None),
        (((0, 0),), ("2/2^0",), None)]
    assert [(f.trans, _texts(f.values), _texts(f.covalues))
            for f in _value_fsm_args(
                monkeypatch, lambda: pair_fsm_corpus(2, 4))] == [
        (((0, 0), (1, 0)), ("7/2^2", "1/2^0"), ("1/2^0", "3/2^1")),
        (((0, 0),), ("0/2^0",), ("-2/2^0",)),
        (((0, 0), (1, 0)), ("2/2^0", "1/2^0"), ("5/2^2", "-2/2^0")),
        (((2, 0), (0, 1), (2, 0)), ("3/2^1", "0/2^0", "-2/2^0"),
         ("1/2^0", "3/2^1", "2/2^0"))]
