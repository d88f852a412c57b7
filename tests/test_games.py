"""Game loop semantics: rounds, faults, lassos, trace certificates."""

import copy
import dataclasses
import json
import time
import tracemalloc
from itertools import count, repeat
from types import SimpleNamespace
from typing import Optional

import pytest

from conftest import node_value
from limsupgames import games
from limsupgames.cli import _emit_trace
from limsupgames.corpus import (automaton_corpus, baire_pair_fixtures,
                               letter_fsm, letter_fsm_corpus, random_automaton,
                               rng_stream, value_fsm_corpus)
from limsupgames.dyadic import Dyadic, as_dyadic
from limsupgames.games import (MAX_TRACE_ROUNDS, TABLE_TYPES,
                                CertificateMismatchError, FaultRecord,
                                FiniteValueSet, Outcome, RunRow, RunTrace,
                                Strategy, StrategyI, StrategyII, check_win,
                                exact_verdict, finite_value_set, gamma,
                                gamma_prime, gamma_restricted, play)
from limsupgames.strategies import (ConstantII, CopycatI, IndicatorPayoff,
                                     LetterFSM, MachineResponder, ValueFSM,
                                     copycat_strategy, pair_strategies,
                                     strategy_ii_from_u)
from limsupgames.trees import (EventuallyPeriodicBranch, TreeSpec, binary_tree,
                               full_tree, nat_tree)

BIN = gamma(binary_tree())
NAT = gamma(nat_tree())


def const_letter(a=0):
    return LetterFSM([a], [[0, 0]])


def test_play_runs_to_horizon_by_default():
    c = Dyadic(3, 1)
    tr = play(BIN, const_letter(), ConstantII(c), 10)
    assert len(tr.rows) == 10
    assert tr.lasso == (0, 1)
    assert tr.fault is None
    for t, row in enumerate(tr.rows):
        assert (row.t, row.letter, row.value, row.covalue) == (t, 0, c, None)


def test_stop_after_lasso_cuts_short():
    c = Dyadic(3, 1)
    tr = play(BIN, const_letter(), ConstantII(c), 10, stop_after_lasso=0)
    assert tr.lasso == (0, 1)
    assert len(tr.rows) == 2  # detection point, nothing past it
    tr = play(BIN, const_letter(), ConstantII(c), 10, stop_after_lasso=3)
    assert len(tr.rows) == 5
    # the cut never exceeds the horizon
    tr = play(BIN, const_letter(), ConstantII(c), 4, stop_after_lasso=50)
    assert len(tr.rows) == 4


def test_lasso_start_rolls_back_over_periodic_rows():
    # two internal states, one announced value: the joint key repeats with
    # period two but the recorded columns are constant, so the start is 0
    sII = ValueFSM([[1, 1], [0, 0]], [Dyadic(5), Dyadic(5)])
    tr = play(BIN, const_letter(), sII, 12)
    assert tr.fault is None
    start, period = tr.lasso
    assert start == 0 and period == 2
    assert set(tr.letters) == {0} and set(tr.values) == {Dyadic(5)}
    assert tr.covalues is None
    # in the pair game the covalue column stops the rollback: covalues run
    # 0, 1, 2, 1, 2, ... under a constant letter and value
    sII = ValueFSM([[1, 1], [2, 2], [3, 3], [2, 2]], [Dyadic(5)] * 4,
                   covalues=[Dyadic(9), Dyadic(0), Dyadic(1), Dyadic(2)])
    tr = play(gamma_prime(binary_tree()), const_letter(), sII, 12)
    assert tr.covalues[:5] == tuple(map(Dyadic, (0, 1, 2, 1, 2)))
    assert tr.lasso == (1, 2)


def test_copycat_echoes_and_loses_exactly():
    tr = play(NAT, copycat_strategy(), ConstantII(Dyadic(3)), 8)
    assert tr.fault is None
    assert tr.letters[1:] == (3,) * 7
    v = exact_verdict(NAT, copycat_strategy(), ConstantII(Dyadic(3)),
                      lambda x: Dyadic(3))
    assert v.exact and v.outcome is Outcome.WIN_II
    assert v.limsup_value == Dyadic(3) == v.payoff_of_witness
    # a payoff disagreeing with the announced limsup convicts player II
    v = exact_verdict(NAT, copycat_strategy(), ConstantII(Dyadic(3)),
                      lambda x: Dyadic(4))
    assert v.outcome is Outcome.WIN_I


def test_letter_leaving_tree_faults_player_i():
    tr = play(BIN, const_letter(5), ConstantII(Dyadic(0)), 6)
    assert tr.fault is not None
    assert tr.fault.blame == "I" and tr.fault.round_index == 0
    assert "leaves the tree" in tr.fault.detail
    assert tr.rows == () and tr.letters == tr.values == ()


class _Letters(StrategyI):
    """Plays the given letters in order, whatever II announces."""

    def __init__(self, letters):
        self.letters = letters
        self.t = 0

    def reset(self) -> None:
        self.t = 0

    def move(self, last_value):
        self.t += 1
        return self.letters[self.t - 1]


class _MyInt(int):
    pass


@pytest.mark.parametrize("bad", [-1, True, False, 1.0, "1", None, _MyInt(1)])
def test_letter_that_is_no_natural_faults_player_i(bad):
    tr = play(NAT, _Letters([2, bad]), ConstantII(Dyadic(0)), 6)
    assert tr.fault is not None
    assert tr.fault.blame == "I" and tr.fault.round_index == 1
    assert tr.fault.detail == f"letter {bad!r} is not a natural"
    assert [r.letter for r in tr.rows] == [2]


def test_answer_shape_faults_player_ii():
    tr = play(BIN, const_letter(), ConstantII(Dyadic(1), Dyadic(0)), 6)
    assert tr.fault.blame == "II"
    assert "single-value" in tr.fault.detail
    tr = play(gamma_prime(binary_tree()), const_letter(), ConstantII(Dyadic(1)), 6)
    assert tr.fault.blame == "II"
    assert "pair" in tr.fault.detail


class _AnswersThenFaults(StrategyII):
    """Announces `good` for k rounds, then `bad`, which faults."""

    def __init__(self, k, good, bad):
        self.k, self.good, self.bad = k, good, bad
        self.t = 0

    def reset(self) -> None:
        self.t = 0

    def move(self, letter):
        self.t += 1
        return self.good if self.t <= self.k else self.bad


@pytest.mark.parametrize("kind, good, bad, what", [
    (BIN, Dyadic(1), 0.5, "a dyadic"),
    (BIN, Dyadic(1), None, "a dyadic"),
    (BIN, Dyadic(1), "zz", "a dyadic"),
    (gamma_prime(binary_tree()), (Dyadic(1), Dyadic(0)), (0.5, 1),
     "a pair of dyadics"),
    (gamma_prime(binary_tree()), (Dyadic(1), Dyadic(0)), (Dyadic(1), None),
     "a pair of dyadics"),
    (gamma_prime(binary_tree()), (Dyadic(1), Dyadic(0)), ("zz", 0),
     "a pair of dyadics"),
], ids=["float", "none", "bad-text", "pair-float", "pair-none",
        "pair-bad-text"])
def test_an_answer_that_is_no_dyadic_faults_player_ii(kind, good, bad, what):
    want = FaultRecord("II", 2, f"answer {bad!r} is not {what}")
    tr = play(kind, const_letter(), _AnswersThenFaults(2, good, bad), 6)
    assert tr.fault == want and len(tr.values) == 2
    v = exact_verdict(kind, const_letter(), _AnswersThenFaults(2, good, bad),
                      lambda x: Dyadic(1))
    assert v.outcome is Outcome.WIN_I and v.fault == want
    # a table player answering one faults the same way on the table walk
    table = ConstantII(0)
    table.answers = ((bad,),)
    v = exact_verdict(kind, const_letter(), table, lambda x: Dyadic(1))
    assert v.outcome is Outcome.WIN_I and v.fault == want._replace(round_index=0)


class _Half(StrategyII):
    def move(self, letter):
        return 0.5


class _Pairs(StrategyII):
    def move(self, letter):
        return (Dyadic(0), Dyadic(0))


@pytest.mark.parametrize("part", [_Half, _Pairs], ids=["float", "pair"])
def test_a_pair_part_that_is_no_machine_responder_is_refused(part):
    # hand-written parts: what they answer is unknown until play, so the
    # pair refuses them when it is built
    for sf, sg in ((part(), ConstantII(0)), (ConstantII(0), part())):
        with pytest.raises(ValueError, match="single values"):
            pair_strategies(sf, sg)


def row_by_row_outputs(rows):
    """The CSV text and --trace json rows, formatted one row at a time from
    (t, letter, value, covalue) tuples."""
    csv_text = "t,x_t,v_t,w_t\n" + "".join(
        f"{t},{x},{v},{'' if w is None else w}\n" for t, x, v, w in rows)
    json_rows = [{"t": t, "x_t": x, "v_t": str(v),
                  "w_t": None if w is None else str(w)} for t, x, v, w in rows]
    return csv_text, json_rows


def written_outputs(tr, tmp_path):
    """What the play command writes for the trace, as CSV and as JSON."""
    for fmt in ("csv", "json"):
        # the command makes its output directory before it plays
        (tmp_path / fmt).mkdir(parents=True)
        _emit_trace(tr, SimpleNamespace(out_dir=str(tmp_path / fmt),
                                        trace_format=fmt), tr.sidecar())
    csv_side = json.loads((tmp_path / "csv" / "trace.json").read_text())
    data = json.loads((tmp_path / "json" / "trace.json").read_text())
    assert csv_side["rounds"] == data["rounds"] == len(tr.values)
    return (tmp_path / "csv" / "trace.csv").read_text(), data["rows"]


LETTERS = [1, 0, 1, 1, 0, 0, 1, 0]


@pytest.mark.parametrize("k", [0, 1, 5])
@pytest.mark.parametrize("kind, good, bad", [
    (BIN, Dyadic(3, 1), (Dyadic(1), Dyadic(0))),
    (gamma_prime(binary_tree()), (Dyadic(3, 1), Dyadic(-1)), Dyadic(1)),
    (gamma_restricted(finite_value_set([0, 1]), binary_tree()),
     Dyadic(1), Dyadic(1, 1)),
], ids=["gamma", "gamma_prime", "gamma_restricted"])
def test_the_letter_of_a_round_player_ii_faults_is_not_recorded(
        kind, good, bad, k, tmp_path):
    tr = play(kind, _Letters(LETTERS), _AnswersThenFaults(k, good, bad), 8)
    assert tr.fault.blame == "II" and tr.fault.round_index == k
    assert len(tr.letters) == len(tr.values) == k
    assert tr.letters == tuple(LETTERS[:k])
    v, w = good if kind.uses_pairs else (good, None)
    assert tr.covalues == ((w,) * k if kind.uses_pairs else None)
    want = [(t, LETTERS[t], v, w) for t in range(k)]
    assert tr.rows == tuple(RunRow(*row) for row in want)
    assert written_outputs(tr, tmp_path) == row_by_row_outputs(want)


def test_player_i_fault_and_zero_horizon_record_only_whole_rounds(tmp_path):
    # a letter off the binary tree in round 2
    tr = play(BIN, _Letters([1, 0, 5]), ConstantII(Dyadic(1)), 8)
    assert tr.fault.blame == "I" and tr.fault.round_index == 2
    assert tr.letters == (1, 0) and tr.values == (Dyadic(1),) * 2
    want = [(0, 1, Dyadic(1), None), (1, 0, Dyadic(1), None)]
    assert written_outputs(tr, tmp_path / "i") == row_by_row_outputs(want)
    for kind, sII in ((BIN, ConstantII(Dyadic(1))),
                      (gamma_prime(binary_tree()),
                       ConstantII(Dyadic(1), Dyadic(0)))):
        tr = play(kind, const_letter(), sII, 0)
        assert tr.letters == tr.values == tr.rows == ()
        assert tr.covalues == (() if kind.uses_pairs else None)
        assert tr.lasso is None and tr.fault is None
        assert tr.to_csv_text() == "t,x_t,v_t,w_t\n"
        assert tr.sidecar()["rounds"] == 0


def test_restricted_game_faults_on_escape():
    R = finite_value_set([Dyadic(0), Dyadic(1)])
    kind = gamma_restricted(R, binary_tree())
    tr = play(kind, const_letter(), ConstantII(Dyadic(1, 1)), 6)
    assert tr.fault.blame == "II"
    assert "outside the allowed set" in tr.fault.detail
    # fault verdicts settle immediately and exactly
    v = exact_verdict(kind, const_letter(), ConstantII(Dyadic(1, 1)),
                      lambda x: Dyadic(0))
    assert v.exact and v.outcome is Outcome.WIN_I
    assert v.fault is not None and v.fault.blame == "II"


def test_check_win_recomputes_and_detects_tampering():
    c = Dyadic(3, 1)
    tr = play(BIN, const_letter(), ConstantII(c), 10)
    v = check_win(tr, lambda x: c)
    assert v.outcome is Outcome.WIN_II and v.lasso == (0, 1)

    # the message names the first row t whose round t + period differs
    def tamper(trace, name, i, new):
        col = list(getattr(trace, name))
        col[i] = new
        return trace._replace(**{name: tuple(col)})

    for name, i, new, row in (("letters", 8, 1, 7), ("values", 7, Dyadic(9), 6),
                              ("values", 0, Dyadic(9), 0)):
        with pytest.raises(CertificateMismatchError,
                           match=f"^row {row} breaks period 1$"):
            check_win(tamper(tr, name, i, new), lambda x: c)
    pair = play(gamma_prime(binary_tree()), const_letter(),
                ConstantII(c, Dyadic(0)), 10)
    assert check_win(pair, lambda x: c).outcome is Outcome.WIN_I
    with pytest.raises(CertificateMismatchError, match="^row 7 breaks period 1$"):
        check_win(tamper(pair, "covalues", 8, c), lambda x: c)

    uneven = tr._replace(letters=tr.letters + (0,))
    with pytest.raises(CertificateMismatchError, match="differ in length"):
        check_win(uneven, lambda x: c)

    short = tr._replace(letters=tr.letters[:1], values=tr.values[:1])
    with pytest.raises(CertificateMismatchError, match="too short"):
        check_win(short, lambda x: c)

    bare = tr._replace(lasso=None)
    with pytest.raises(ValueError):
        check_win(bare, lambda x: c)

    for lasso in ((0, 0), (-1, 1), (2, -1)):
        with pytest.raises(CertificateMismatchError, match="^malformed lasso"):
            check_win(tr._replace(lasso=lasso), lambda x: c)
    with pytest.raises(CertificateMismatchError, match="do not fit its game"):
        check_win(pair._replace(covalues=None), lambda x: c)


def test_witness_branch():
    tr = play(BIN, const_letter(), ConstantII(Dyadic(0)), 10)
    assert tr.witness_branch() == EventuallyPeriodicBranch((), (0,))
    with pytest.raises(ValueError):
        RunTrace(BIN, (), ()).witness_branch()


@dataclasses.dataclass(frozen=True, slots=True)
class FrozenRow:
    """The frozen dataclass RunRow replaced, as the memory yardstick."""

    t: int
    letter: int
    value: Dyadic
    covalue: Optional[Dyadic] = None


def test_run_rows_are_immutable_values():
    row = RunRow(3, 1, Dyadic(1, 1))
    assert (row.t, row.letter, row.value, row.covalue) == \
        (3, 1, Dyadic(1, 1), None)
    for name in ("t", "letter", "value", "covalue"):
        with pytest.raises(AttributeError):
            setattr(row, name, 0)
        with pytest.raises(AttributeError):
            delattr(row, name)
    with pytest.raises(AttributeError):
        row.extra = 0
    twin = RunRow(3, 1, Dyadic(2, 2), None)
    assert row == twin and hash(row) == hash(twin)
    assert row != RunRow(3, 1, Dyadic(1, 1), Dyadic(0))
    assert row != (3, 1, Dyadic(1, 1), None)
    assert repr(row) == \
        "RunRow(t=3, letter=1, value=Dyadic(1, 1), covalue=None)"


def bytes_per_row(make, n=10 ** 5) -> int:
    """Bytes a list of n rows holds, per row, rounded to a whole byte (the
    rounding absorbs a few bytes of unrelated allocations)."""
    value, covalue = Dyadic(1, 1), Dyadic(-3, 2)
    tracemalloc.start()
    try:
        rows = [make(t, t & 1, value, covalue if t & 2 else None)
                for t in range(n)]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == n
    return round(size / n)


def test_run_rows_are_no_larger_than_a_frozen_dataclass():
    # RunTrace.rows builds one row a round, so a row may not grow
    assert bytes_per_row(RunRow) <= bytes_per_row(FrozenRow)


def trace_bytes_per_round(kind, sII, n=10 ** 5) -> float:
    """Bytes a play of n rounds leaves held in its trace, per round."""
    tracemalloc.start()
    try:
        tr = play(kind, const_letter(), sII, n)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tr.values) == n
    return size / n


def test_a_trace_holds_one_pointer_a_round_per_column():
    # letters and values in the single-value game, plus covalues in the
    # pair game: 8 B a column when the values are shared objects
    assert trace_bytes_per_round(BIN, ConstantII(Dyadic(3, 1))) <= 24
    assert trace_bytes_per_round(gamma_prime(binary_tree()),
                                 ConstantII(Dyadic(1), Dyadic(0))) <= 32


def test_csv_golden():
    tr = play(BIN, const_letter(), ConstantII(Dyadic(3, 1)), 3)
    assert tr.to_csv_text() == (
        "t,x_t,v_t,w_t\n"
        "0,0,3/2^1,\n"
        "1,0,3/2^1,\n"
        "2,0,3/2^1,\n")
    tr = play(gamma_prime(binary_tree()), const_letter(),
              ConstantII(Dyadic(1), Dyadic(-1)), 2)
    assert tr.to_csv_text() == (
        "t,x_t,v_t,w_t\n"
        "0,0,1/2^0,-1/2^0\n"
        "1,0,1/2^0,-1/2^0\n")


def csv_oracle(tr: RunTrace) -> str:
    # row-by-row formatting, one str() per field
    return "t,x_t,v_t,w_t\n" + "".join(
        f"{r.t},{r.letter},{r.value},{'' if r.covalue is None else r.covalue}\n"
        for r in tr.rows)


def test_pair_csv_matches_row_by_row_formatting():
    pair = gamma_prime(binary_tree())
    alternate = LetterFSM([0, 1], [[1, 1], [0, 0]])
    sf = ValueFSM([[0, 1], [1, 0]], [Dyadic(1, 1), Dyadic(-3, 2)])
    sg = ValueFSM([[1, 1], [0, 0]], [Dyadic(5, 3), Dyadic(0)])
    # the responder negates the covalue, so equal covalues are fresh objects
    fresh = play(pair, alternate, pair_strategies(sf, sg), 40)
    assert fresh.covalues[0] == fresh.covalues[2]
    assert fresh.covalues[0] is not fresh.covalues[2]
    shared = play(pair, alternate, ConstantII(Dyadic(7, 2), Dyadic(-1, 5)), 40)
    assert shared.covalues[0] is shared.covalues[1]
    for tr in (fresh, shared):
        assert tr.fault is None and len(tr.values) == 40
        assert tr.to_csv_text() == csv_oracle(tr)
    assert fresh.to_csv_text().startswith(
        "t,x_t,v_t,w_t\n0,1,-3/2^2,0/2^0\n1,0,-3/2^2,-5/2^3\n")


def _lasso_pairs():
    """Two table pairs whose walk lassos with a stem and a period > 1:
    (kind, I, II, lasso)."""
    u = random_automaton(rng_stream(5, "million"), 3, 2, 2)
    fx = baire_pair_fixtures(11, 2)[0]
    return [
        (BIN, letter_fsm(rng_stream(24, "random-fsm"), 3,
                         [Dyadic(-1, 1), Dyadic(1, 2)]),
         strategy_ii_from_u(u), (2, 4)),
        (gamma_prime(binary_tree()), letter_fsm_corpus(11, 5)[4],
         pair_strategies(strategy_ii_from_u(fx.u_f),
                         strategy_ii_from_u(fx.u_neg)), (1, 3)),
    ]


def _rows_of(tr):
    return [(r.t, r.letter, r.value, r.covalue) for r in tr.rows]


@pytest.mark.parametrize("pair", range(2), ids=["gamma", "gamma_prime"])
def test_a_walk_trace_is_stored_as_its_lasso_and_written_in_full(
        pair, tmp_path):
    kind, sI, sII, (s, p) = _lasso_pairs()[pair]
    # the rounds up to the repeat, which a play cut at the lasso records
    stored = play(kind, copy.deepcopy(sI), copy.deepcopy(sII), 10 ** 4,
                  stop_after_lasso=0).columns()
    m = len(stored[0])
    # every phase of the period, and a horizon far past the repeat
    for horizon in [*range(m + 1, m + 2 * p + 1), 10 ** 4 + 1]:
        tr = play(kind, copy.deepcopy(sI), copy.deepcopy(sII), horizon)
        assert tr.lasso == (s, p) and tr.rounds == horizon
        assert tr._columns == stored
        assert len(tr.letters) == len(tr.values) == horizon
        assert tr.to_csv_text() == csv_oracle(tr)
        out = tmp_path / str(horizon)
        assert written_outputs(tr, out) == row_by_row_outputs(_rows_of(tr))


def test_a_lasso_trace_expands_once_and_refuses_a_bad_round_count():
    kind, sI, sII, _ = _lasso_pairs()[0]
    tr = play(kind, sI, sII, 1000)
    letters, values = tr._columns
    assert tr._full is None
    assert tr.values is tr.columns()[1] and tr.letters is tr.columns()[0]
    assert tr == RunTrace(kind, tr.letters, tr.values, lasso=tr.lasso)
    # no lasso, a period the stored rounds do not hold, too few rounds
    for lasso, rounds in [(None, 1000), ((0, 0), 1000),
                          ((0, len(values) + 1), 1000),
                          (tr.lasso, len(values) - 1)]:
        with pytest.raises(ValueError, match="rounds need a lasso"):
            RunTrace(kind, letters, values, lasso=lasso, rounds=rounds)
    # a first cycle past the stored rounds: the witness would read (0,),
    # the expanded columns (0, 1)
    with pytest.raises(ValueError, match="rounds need a lasso"):
        RunTrace(gamma(binary_tree()), (0, 1, 0),
                 (Dyadic(0), Dyadic(1), Dyadic(0)), lasso=(2, 2), rounds=10)


def test_a_replace_keeps_a_lasso_trace_stored_unless_it_changes_a_column():
    kind, sI, sII, _ = _lasso_pairs()[0]
    tr = play(kind, sI, sII, 10 ** 6)
    got = tr._replace(fault=None)
    # stem plus period stored, the round count kept, nothing expanded
    assert got.rounds == 10 ** 6 and got.lasso == tr.lasso
    assert got._columns == tr._columns
    assert len(got._columns[0]) <= sum(tr.lasso) + 1
    assert got._full is None and tr._full is None
    # a replaced column is taken as given, beside the others in full
    short = play(kind, sI, sII, 40)
    letters = short.letters[:-1] + (0,)
    bare = short._replace(letters=letters)
    assert bare.letters is letters and bare.values == short.values
    assert bare.rounds == 40


def _outcome(trace, payoff):
    try:
        return check_win(trace, payoff)
    except CertificateMismatchError as exc:
        return str(exc)


@pytest.mark.parametrize("pair", range(2), ids=["gamma", "gamma_prime"])
def test_check_win_reads_a_lasso_trace_as_stored(pair):
    kind, sI, sII, _ = _lasso_pairs()[pair]
    payoff = sII.u
    tr = play(kind, sI, sII, MAX_TRACE_ROUNDS)
    verdict = check_win(tr, payoff)
    assert tr._full is None and verdict.outcome is not Outcome.UNDECIDED
    assert check_win(RunTrace(kind, *tr.columns(), lasso=tr.lasso),
                     payoff) == verdict
    # tamper each stored entry: the stored trace and its expanded twin give
    # the same verdict or name the same first row that breaks the period
    broken = set()
    for i, col in enumerate(tr._columns):
        for t in range(len(col)):
            cols = list(tr._columns)
            cols[i] = col[:t] + (col[t] + 1,) + col[t + 1:]
            bad = RunTrace(kind, *cols, lasso=tr.lasso, rounds=1000)
            got = _outcome(bad, payoff)
            assert bad._full is None
            assert _outcome(RunTrace(kind, *bad.columns(), lasso=tr.lasso),
                            payoff) == got
            if isinstance(got, str):
                broken.add(got)
    assert broken == {f"row {tr.lasso[0]} breaks period {tr.lasso[1]}"}


def test_faulted_and_empty_walk_traces_write_row_by_row(tmp_path):
    # 0, then 2 off the binary tree: player I's fault in round 1
    climb = LetterFSM([0, 1, 2], [[1, 1], [2, 2], [2, 2]])
    faulted = play(BIN, climb, ConstantII(Dyadic(1)), 100)
    empty = play(BIN, const_letter(), ConstantII(Dyadic(1)), 0)
    assert faulted.fault.round_index == 1 and faulted.rounds == 1
    assert empty.rounds == 0 and empty.lasso is None
    for i, tr in enumerate((faulted, empty)):
        assert tr.to_csv_text() == csv_oracle(tr)
        assert written_outputs(tr, tmp_path / str(i)) == \
            row_by_row_outputs(_rows_of(tr))


class _ParityKeyedLetters(_Letters):
    """Declares finite state but keys only the parity of its round count,
    which leaves out how far into its letters it stands."""

    finite_state = True

    def state_key(self):
        return self.t % 2


def test_the_csv_writer_checks_a_declared_lasso_and_does_not_trust_it():
    # the key repeats at round 3, while the letters only settle at round 5
    lying = _ParityKeyedLetters((0, 1, 0, 1, 0) + (0,) * 35)
    sII = pair_strategies(ValueFSM([[0, 0]], [1]), ValueFSM([[0, 0]], [0]))
    tr = play(gamma_prime(binary_tree()), lying, sII, 40)
    assert tr.lasso == (0, 2) and tr.rounds == 40
    assert tr.letters[:6] == (0, 1, 0, 1, 0, 0)
    assert tr.letters[:-2] != tr.letters[2:]
    assert tr.to_csv_text() == csv_oracle(tr)
    with pytest.raises(CertificateMismatchError, match="breaks period 2"):
        check_win(tr, IndicatorPayoff())


def full_csv_writer(cols) -> str:
    """The writer the lasso writer replaced: one f-string a row, over
    columns held in full."""
    vs = games._texts(cols[1])
    ws = repeat("") if len(cols) == 2 else games._texts(cols[2])
    return "t,x_t,v_t,w_t\n" + "".join([
        f"{t},{x},{v},{w}\n" for t, x, v, w in zip(count(), cols[0], vs, ws)])


def traced_peak(fn):
    """(fn's result, bytes held after it, peak bytes during it)."""
    tracemalloc.start()
    try:
        out = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def test_a_million_round_table_trace_keeps_its_lasso_only():
    kind, sI, sII, (s, p) = _lasso_pairs()[0]
    tr, held, _ = traced_peak(lambda: play(kind, sI, sII, MAX_TRACE_ROUNDS))
    assert tr.rounds == MAX_TRACE_ROUNDS and tr.lasso == (s, p)
    # the rounds up to the repeat, against 8 MB a column held in full
    assert all(len(c) < s + 2 * p for c in tr._columns)
    assert held < 64 * 1024
    # tracemalloc costs about 3 us an allocation, so the writers, which
    # allocate a few objects a row, are compared over 10^5 rounds
    tr = play(kind, sI, sII, 10 ** 5)
    text, _, peak = traced_peak(tr.to_csv_text)
    cols = tr.columns()
    want, _, full_peak = traced_peak(lambda: full_csv_writer(cols))
    assert text == want
    assert peak < full_peak


@pytest.mark.parametrize("block", [1, 3, 7, games.CSV_BLOCK])
def test_the_csv_writer_numbers_rows_block_by_block(block, monkeypatch):
    monkeypatch.setattr(games, "CSV_BLOCK", block)
    kind, sI, sII, (s, p) = _lasso_pairs()[1]
    for horizon in [0, 1, s + p, s + p + 1, 20, 21, 2 * block + 1]:
        tr = play(kind, copy.deepcopy(sI), copy.deepcopy(sII), horizon)
        assert tr.to_csv_text() == csv_oracle(tr)


def test_a_lasso_csv_peaks_near_twice_its_size():
    # the chunks and their join; the one-pass writer held about five times
    # the text, on a tuple of every round number and the whole format
    kind, sI, sII, _ = _lasso_pairs()[0]
    tr = play(kind, sI, sII, 10 ** 5)
    text, _, peak = traced_peak(tr.to_csv_text)
    assert len(text) > 1.5e6 and peak < 2.2 * len(text)


def test_pair_game_verdict_needs_both_limits():
    kind = gamma_prime(binary_tree())
    # matched value and covalue hit the payoff from both sides
    v = exact_verdict(kind, const_letter(), ConstantII(Dyadic(1), Dyadic(1)),
                      lambda x: Dyadic(1))
    assert v.outcome is Outcome.WIN_II
    assert v.liminf_covalue == Dyadic(1)
    # covalue stuck below the payoff loses for player II
    v = exact_verdict(kind, const_letter(), ConstantII(Dyadic(1), Dyadic(0)),
                      lambda x: Dyadic(1))
    assert v.outcome is Outcome.WIN_I


def test_undecided_without_finite_state_claim():
    class Opaque(MachineResponder):
        finite_state = False

    v = exact_verdict(BIN, const_letter(), Opaque(ConstantII(Dyadic(0)).u),
                      lambda x: Dyadic(0), cap=50)
    assert not v.exact and v.outcome is Outcome.UNDECIDED
    assert "unclaimed_lasso" in v.diagnostics
    assert v.diagnostics["value_max"] == "0/2^0"


def test_labeling_from_responder_reads_machine_outputs():
    # a machine responder's answer after s is its machine's label of s
    machines = automaton_corpus(31, 6, max_states=3)
    prefixes = [(0,), (1,), (0, 1), (1, 1, 0), (0, 0, 1, 0, 1, 1)]
    for m in machines:
        for s in prefixes:
            sII = strategy_ii_from_u(m)
            assert [sII.move(a) for a in s] == \
                [node_value(m, s[:t + 1]) for t in range(len(s))]


def test_finite_value_set_nearest():
    R = finite_value_set([1, 0, Dyadic(1, 1)])
    assert R.values == (Dyadic(0), Dyadic(1, 1), Dyadic(1))
    assert R.contains(Dyadic(1, 1)) and not R.contains(Dyadic(3, 2))
    assert R.nearest(Dyadic(3, 2)) == Dyadic(1, 1)
    # equidistant points resolve to the smaller member
    assert R.nearest(Dyadic(1, 2)) == Dyadic(0)
    assert R.nearest(Dyadic(3, 1)) == Dyadic(1)
    assert R.nearest(Dyadic(-5)) == Dyadic(0)
    with pytest.raises(ValueError):
        finite_value_set([])


def test_kind_validation():
    R = finite_value_set([0, 1])
    assert gamma_restricted(R).restriction is R
    assert not gamma(binary_tree()).uses_pairs
    assert gamma_prime(binary_tree()).uses_pairs


class RoundByRound(Strategy):
    """A plain wrapper, not a table player: play calls its move every round,
    so a run through it is the round loop's run of the wrapped player.
    keys counts state_key calls, one a round until the lasso closes."""

    def __init__(self, inner):
        self.inner = inner
        self.finite_state = inner.finite_state
        self.keys = 0

    def reset(self):
        self.inner.reset()

    def move(self, seen):
        return self.inner.move(seen)

    def state_key(self):
        self.keys += 1
        return self.inner.state_key()

    def counters(self):
        return self.inner.counters()


# a million binary-tree rounds take about 1.5 s on a 2-core host round by
# round, and well under 0.1 s stored as its lasso; a round that grew with
# the prefix would take hours
MILLION_ROUND_BUDGET_S = 60.0


def test_play_reaches_the_round_cap_in_linear_time():
    u = random_automaton(rng_stream(5, "million"), 3, 2, 2)
    traces = []
    # stored as its lasso, then the same game moved round by round
    for wrap in (lambda s: s, RoundByRound):
        sI = letter_fsm(rng_stream(24, "random-fsm"), 3,
                        [Dyadic(-1, 1), Dyadic(1, 2)])
        t0 = time.perf_counter()
        traces.append(play(BIN, wrap(sI), wrap(strategy_ii_from_u(u)),
                           MAX_TRACE_ROUNDS))
        elapsed = time.perf_counter() - t0
        assert elapsed < MILLION_ROUND_BUDGET_S, f"{elapsed:.1f} s"
    tr, looped = traces
    assert tr == looped
    assert len(tr.values) == MAX_TRACE_ROUNDS == 10 ** 6
    assert tr.fault is None and tr.lasso == (2, 4)
    # check_win re-checks that the columns repeat from the lasso start on
    assert check_win(tr, u).outcome is Outcome.WIN_II


# --- a lasso between two table players fixes the rest of the run ---------


def _fresh(proto):
    return lambda: copy.deepcopy(proto)


def _families():
    """(kind, I makers, II makers) for each game the lasso run serves."""
    seed = 11
    letters = [_fresh(s) for s in letter_fsm_corpus(seed, 5)]
    us = automaton_corpus(seed, 3, max_states=4)
    responders = [_fresh(strategy_ii_from_u(u)) for u in us]
    pairs = [_fresh(pair_strategies(strategy_ii_from_u(fx.u_f),
                                    strategy_ii_from_u(fx.u_neg)))
             for fx in baire_pair_fixtures(seed, 2)]
    pairs += [_fresh(pair_strategies(strategy_ii_from_u(f), v))
              for f, v in zip(us, value_fsm_corpus(seed, 2))]
    return {
        "letter-fsm-vs-value-fsm": (
            BIN, letters, [_fresh(s) for s in value_fsm_corpus(seed, 3)]
            + [_fresh(ConstantII(Dyadic(3, 1)))]),
        "letter-fsm-vs-responder": (BIN, letters, responders),
        "copycat-vs-natural-value-fsm": (
            NAT, [copycat_strategy],
            [_fresh(s) for s in value_fsm_corpus(seed, 6, natural=True)]),
        "letter-fsm-vs-pair": (gamma_prime(binary_tree()), letters, pairs),
    }


@pytest.mark.parametrize("family", sorted(_families()))
def test_a_filled_run_equals_the_round_by_round_run(family):
    kind, makers_i, makers_ii = _families()[family]
    checked = 0
    for make_i in makers_i:
        for make_ii in makers_ii:
            wI, wII = RoundByRound(make_i()), RoundByRound(make_ii())
            lasso = play(kind, wI, wII, 1000).lasso
            detected = wI.keys - 1  # the round the joint key repeated
            assert lasso is not None and detected < 1000
            for horizon in sorted({0, 1, detected, detected + 1,
                                   detected + lasso[1], 1000}):
                for stop in (None, 1, 3):
                    sI, sII = make_i(), make_ii()
                    assert type(sI) in TABLE_TYPES
                    assert type(sII) in TABLE_TYPES
                    filled = play(kind, sI, sII, horizon, stop)
                    wI, wII = RoundByRound(make_i()), RoundByRound(make_ii())
                    looped = play(kind, wI, wII, horizon, stop)
                    # columns, lasso and fault
                    assert filled == looped
                    for s, w in ((sI, wI), (sII, wII)):
                        assert s.counters() == w.counters()
                        assert s.state_key() == w.inner.state_key()
                    checked += 1
    # at least four distinct horizons a pair, three stops each
    assert checked >= 12 * len(makers_i) * len(makers_ii)


def test_a_table_lasso_ends_the_round_loop(monkeypatch):
    sI = const_letter(1)
    sII = ValueFSM([[1, 1], [2, 2], [1, 1]], [0, 1, 2])
    wI = RoundByRound(copy.deepcopy(sI))
    play(BIN, wI, RoundByRound(copy.deepcopy(sII)), 1000)
    detected = wI.keys - 1
    moves = []
    for cls in (LetterFSM, MachineResponder):
        def counted(self, seen, move=cls.move):
            moves.append(seen)
            return move(self, seen)
        monkeypatch.setattr(cls, "move", counted)
    tr = play(BIN, sI, sII, 1000)
    assert len(tr.values) == 1000 and tr.lasso == (0, 2)
    # both players moved in the rounds before the repeat, and never after
    assert len(moves) == 2 * detected == 6


def test_a_tree_that_is_not_full_keeps_the_round_loop():
    # a later letter can leave a tree that is not full, so no lasso fixes
    # the rest of the run: the third 1 is I's fault
    kind = gamma(TreeSpec(contains=lambda s: s.count(1) <= 2))
    tr = play(kind, const_letter(1), ConstantII(0), 100)
    looped = play(kind, RoundByRound(const_letter(1)),
                  RoundByRound(ConstantII(0)), 100)
    assert tr == looped
    assert tr.fault.blame == "I" and tr.fault.round_index == 2


def test_a_lasso_on_a_tree_that_is_not_full_certifies_nothing():
    # the joint key leaves out where the prefix stands in the tree: I plays
    # 1 forever and the key repeats at once, but the witness 1^w leaves the
    # tree "at most three 1s", and the fourth 1 is I's fault
    tree = TreeSpec(contains=lambda s: all(a in (0, 1) for a in s)
                    and sum(s) <= 3)
    kind = gamma(tree)

    def payoff(x):
        return max(x.cycle)

    v = exact_verdict(kind, const_letter(1), ConstantII(0), payoff)
    assert v.outcome is Outcome.UNDECIDED and v.lasso is None
    assert v.diagnostics["unclaimed_lasso"] == {"start": 0, "period": 1}
    short = play(kind, const_letter(1), ConstantII(0), 3)
    assert short.lasso == (0, 1) and short.fault is None
    with pytest.raises(CertificateMismatchError, match="full tree"):
        check_win(short, payoff)
    full = play(kind, const_letter(1), ConstantII(0), 50)
    assert full.fault.blame == "I" and full.fault.round_index == 3
    assert check_win(full, payoff).outcome is Outcome.WIN_II


class _SwitchesAtFifty(MachineResponder):
    """Keeps a 1-state machine's one state but answers 1 from round 50 on:
    a subclass may override move, so it is no table player."""

    def reset(self):
        super().reset()
        self.t = 0

    def move(self, letter):
        self.t += 1
        return Dyadic(1) if self.t > 50 else super().move(letter)


def test_a_subclass_that_overrides_move_keeps_the_round_loop():
    tr = play(BIN, const_letter(), _SwitchesAtFifty(ConstantII(0).u), 100)
    assert tr.lasso == (0, 1)
    assert tr.values[49] == Dyadic(0) and tr.values[50] == Dyadic(1)


# --- a verdict between two table players walks their tables --------------


def _limsup_letters(x):
    return Dyadic(max(x.cycle))


def _verdict_families():
    """(kind, payoff, I makers, II makers, reasons it must reach) for each
    game whose verdict between table players comes from the table walk."""
    seed = 5
    letters = [_fresh(s) for s in letter_fsm_corpus(seed, 6)]
    us = automaton_corpus(seed, 4, max_states=4, span=2, max_exp=3)
    responders = [_fresh(strategy_ii_from_u(u)) for u in us]
    fixtures = baire_pair_fixtures(seed, 4)
    naturals = [_fresh(s) for s in value_fsm_corpus(seed, 6, natural=True)]
    # the last state of each machine plays 2, off the binary alphabet
    off = [_fresh(LetterFSM(s.emits[:-1] + (2,), s.trans, s.thresholds))
           for s in letter_fsm_corpus(seed + 1, 6)]
    lasso, cap = "lasso-certified", "no certified lasso within cap"
    return {
        "letter-fsm-vs-responder": (
            BIN, us[0], letters, responders, {lasso, cap}),
        "letter-fsm-vs-pair": (
            gamma_prime(binary_tree()), fixtures[0].u_f, letters,
            [_fresh(pair_strategies(strategy_ii_from_u(fx.u_f),
                                    strategy_ii_from_u(fx.u_neg)))
             for fx in fixtures], {lasso, cap}),
        "copycat-vs-natural-value-fsm": (
            NAT, _limsup_letters, [copycat_strategy], naturals, {lasso, cap}),
        "restricted-answers-outside-the-set": (
            gamma_restricted(finite_value_set([0, 1]), binary_tree()), us[1],
            letters, naturals, {lasso, cap, "player II fault"}),
        "letters-off-the-alphabet": (
            gamma(full_tree((0, 1))), us[2], off, responders,
            {lasso, cap, "player I fault"}),
    }


@pytest.mark.parametrize("family", sorted(_verdict_families()))
def test_a_walked_verdict_equals_the_played_verdict(family):
    kind, payoff, makers_i, makers_ii, reasons = _verdict_families()[family]
    reached = set()
    for make_i in makers_i:
        for make_ii in makers_ii:
            wI = RoundByRound(make_i())
            exact_verdict(kind, wI, RoundByRound(make_ii()), payoff, 5000)
            ended = wI.keys - 1  # the round of the repeat or of the fault
            for cap in sorted({0, 1, max(ended - 1, 0), ended, ended + 1,
                               ended + 2, 5000}):
                sI, sII = make_i(), make_ii()
                assert type(sI) in TABLE_TYPES and type(sII) in TABLE_TYPES
                walked = exact_verdict(kind, sI, sII, payoff, cap)
                # wrapped players are no table players: the play path
                wI, wII = RoundByRound(make_i()), RoundByRound(make_ii())
                played = exact_verdict(kind, wI, wII, payoff, cap)
                assert walked.to_json_dict() == played.to_json_dict()
                assert walked == played
                for s, w in ((sI, wI), (sII, wII)):
                    assert s.state_key() == w.inner.state_key()
                    assert s.counters() == w.counters()
                reached.add(walked.reason)
    assert reached == reasons


def test_a_verdict_between_table_players_never_calls_play(monkeypatch):
    played = []
    real = games.play

    def counted(*args, **kw):
        played.append(args)
        return real(*args, **kw)

    monkeypatch.setattr(games, "play", counted)
    for kind, payoff, makers_i, makers_ii, _ in _verdict_families().values():
        for make_i in makers_i:
            for make_ii in makers_ii:
                exact_verdict(kind, make_i(), make_ii(), payoff)
    # nor does any other pair: every verdict runs the round loop itself
    exact_verdict(BIN, RoundByRound(const_letter()),
                  RoundByRound(ConstantII(0)), lambda x: Dyadic(0))
    assert played == []
