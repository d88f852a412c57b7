"""Prefix text, tree membership, eventually periodic branches."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_suffix_key
from limsupgames.dyadic import Dyadic
from limsupgames.games import gamma, play
from limsupgames.strategies import ConstantII, LetterFSM
from limsupgames.trees import (EventuallyPeriodicBranch, PrefixView, TreeSpec,
                               binary_tree, format_prefix, full_tree, nat_tree,
                               parse_branch, parse_prefix)


def test_prefix_text_round_trip():
    for s in [(), (0,), (1, 0, 2), (7, 7)]:
        assert parse_prefix(format_prefix(s)) == s
    with pytest.raises(ValueError):
        parse_prefix("1,-2")
    with pytest.raises(ValueError):
        parse_prefix("a,b")


@pytest.mark.parametrize("text", [
    "stem=1_0;cycle=0",        # int() reads this as 10
    "stem=+1;cycle=0",
    "stem=\u0661;cycle=0",     # an Arabic-Indic digit one
    "stem=;cycle=\uff11",      # a fullwidth digit one
    "cycle=1;stem=0;cycle=0",  # a repeated key used to keep the last
    "stem=0;stem=0;cycle=1",
])
def test_branch_text_rejects_aliases(text):
    with pytest.raises(ValueError):
        parse_branch(text)


BRANCH_TOKENS = ["stem", "cycle", "=", ";", ",", " ", "0", "1", "7", "42",
                 "+", "-", "_", "\u0661", "\uff11", "x", "\n"]


@given(st.lists(st.sampled_from(BRANCH_TOKENS), max_size=14))
def test_branch_text_parses_exactly_or_raises(tokens):
    text = "".join(tokens)
    try:
        x = parse_branch(text)
    except ValueError:
        return
    assert parse_branch(str(x)) == x
    # a text that parses names each key once and spells letters in ASCII
    # digits, so no other spelling aliases the same branch
    assert text.count("stem") == 1 and text.count("cycle") == 1
    assert set(text) <= set("stemcycl=;,0123456789 \n")


def test_tree_membership():
    b = binary_tree()
    assert b.contains((0, 1, 1))
    assert not b.contains((0, 2))
    assert b.alphabet == (0, 1)
    n = nat_tree()
    assert n.contains((0, 99, 3))
    assert n.all_naturals
    t = full_tree([0, 2])
    assert t.contains((2, 0, 2))
    assert not t.contains((1,))
    assert t.alphabet == (0, 2)


@pytest.mark.parametrize("letters", [(), (0, -1), (-2,)],
                         ids=["empty", "negative", "only-negative"])
def test_full_tree_needs_natural_letters(letters):
    with pytest.raises(ValueError, match="natural letters"):
        full_tree(letters)
    assert full_tree((0,)).alphabet == (0,)


@pytest.mark.parametrize("stem, cycle", [((-1,), (0,)), ((0,), (1, -1))],
                         ids=["stem", "cycle"])
def test_branch_letters_are_naturals(stem, cycle):
    with pytest.raises(ValueError, match="naturals, got -1"):
        EventuallyPeriodicBranch(stem, cycle)
    assert EventuallyPeriodicBranch((0,), (0, 1)).letter_at(0) == 0


def test_branch_expansion():
    x = EventuallyPeriodicBranch((0,), (1, 0))
    assert x.first(6) == (0, 1, 0, 1, 0, 1)
    assert [x.letter_at(t) for t in range(5)] == [0, 1, 0, 1, 0]
    with pytest.raises(ValueError):
        EventuallyPeriodicBranch((), ())


def test_equivalent_descriptors_expand_alike():
    a = EventuallyPeriodicBranch((0,), (0,))
    b = EventuallyPeriodicBranch((), (0,))
    assert a != b
    assert a.first(16) == b.first(16)


def test_suffix_key_shift_invariance():
    x = EventuallyPeriodicBranch((1, 0), (0, 1))
    # from inside the cycle, keys at positions one period apart coincide
    assert x.suffix_key(2) == x.suffix_key(4)
    assert x.suffix_key(2) != x.suffix_key(3)


@given(st.lists(st.integers(0, 3), max_size=5),
       st.lists(st.integers(0, 3), min_size=1, max_size=5))
def test_suffix_keys_are_shared_per_cycle_phase(stem, cycle):
    x = EventuallyPeriodicBranch(tuple(stem), tuple(cycle))
    end = len(stem) + 3 * len(cycle)
    keys = [x.suffix_key(pos) for pos in range(end + 1)]
    assert keys == [reference_suffix_key(x, pos) for pos in range(end + 1)]
    for pos in range(len(stem), end + 1 - len(cycle)):
        assert keys[pos] is keys[pos + len(cycle)]
    # the kept keys are no part of the branch's value
    fresh = EventuallyPeriodicBranch(tuple(stem), tuple(cycle))
    assert x == fresh and hash(x) == hash(fresh)
    assert repr(x) == repr(fresh) and str(x) == str(fresh)


def test_parse_branch():
    x = parse_branch("stem=0,1;cycle=1,0")
    assert x.stem == (0, 1) and x.cycle == (1, 0)
    assert parse_branch("stem=;cycle=0").stem == ()
    for bad in ["nonsense", "stem=0", "cycle=1", "stem=0;cycle=",
                "stem=0;loop=1"]:
        with pytest.raises(ValueError):
            parse_branch(bad)


# --- one-letter membership steps ------------------------------------------


@given(st.sets(st.integers(0, 20), min_size=1, max_size=5), st.data())
def test_admits_matches_contains_on_full_trees(alphabet, data):
    tree = full_tree(alphabet)
    p = data.draw(st.lists(st.sampled_from(sorted(alphabet)), max_size=8))
    a = data.draw(st.integers(-2, 22))
    want = tree.contains(tuple(p) + (a,))
    assert tree.admits(p, a) == want
    assert tree.admits(tuple(p), a) == want


@given(st.lists(st.integers(0, 10 ** 6), max_size=8),
       st.one_of(st.integers(-5, 10 ** 6), st.just("1"), st.just(1.0)))
def test_admits_matches_contains_on_the_nat_tree(p, a):
    tree = nat_tree()
    assert tree.admits(p, a) == tree.contains(tuple(p) + (a,))


def _no_double_one(s):
    return all(a in (0, 1) for a in s) and \
        all(not (x == 1 and y == 1) for x, y in zip(s, s[1:]))


# the binary tree without two consecutive ones: neither alphabet nor
# all_naturals is set, so admits has to ask contains
FIBONACCI = TreeSpec(contains=_no_double_one, name="no-11")


@given(st.lists(st.integers(0, 1), max_size=10), st.integers(0, 2))
def test_admits_matches_contains_on_a_custom_tree(raw, a):
    p = []
    for b in raw:
        p.append(0 if p and p[-1] == 1 else b)
    assert FIBONACCI.contains(tuple(p))
    assert FIBONACCI.admits(p, a) == FIBONACCI.contains(tuple(p) + (a,))


def _refuse(s):
    raise AssertionError(f"contains asked about a prefix of length {len(s)}")


def test_play_on_a_full_tree_never_calls_contains():
    tree = dataclasses.replace(binary_tree(), contains=_refuse)
    alternate = LetterFSM([0, 1], [[1, 1], [0, 0]])
    tr = play(gamma(tree), alternate, ConstantII(Dyadic(0)), 1000)
    assert tr.fault is None and len(tr.values) == 1000
    assert tr.letters[:4] == (1, 0, 1, 0)
    tr = play(gamma(tree), LetterFSM([2], [[0, 0]]), ConstantII(Dyadic(0)), 10)
    assert tr.fault is not None and tr.fault.blame == "I"


def test_prefix_view_reads_through_and_stays_read_only():
    letters = [0, 1]
    view = PrefixView(letters)
    letters.append(1)
    assert len(view) == 3 and view[-1] == 1 and list(view) == [0, 1, 1]
    assert view[1:] == (1, 1)
    with pytest.raises(TypeError):
        view[0] = 1
