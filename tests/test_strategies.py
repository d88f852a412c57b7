"""Strategy zoo: copycats, spiral enumeration, lifting, relabeling, and the
two attack strategies, each against hand-checked traces."""

import copy
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import reference_suffix_key
from limsupgames import corpus
from limsupgames.corpus import (automaton_corpus, baire_pair_fixtures,
                                branch_corpus, certify_pair, letter_fsm_corpus,
                                pair_fsm_corpus, value_fsm_corpus)
from limsupgames.dyadic import Dyadic, as_dyadic, half_pow
from limsupgames.games import (TABLE_TYPES, FiniteValueSet, Outcome,
                                StrategyFault, StrategyI, StrategyII,
                                check_win, exact_verdict, finite_value_set,
                                gamma, gamma_prime, play)
from limsupgames.strategies import (ConstantII, IndicatorPayoff, LetterFSM,
                                     MachineResponder, SpiralEnumeration,
                                     ValueFSM, approx_copycat, copycat_strategy,
                                     eventually_zero_instance,
                                     indicator_oscillation_instance,
                                     lift_strategy, pair_strategies,
                                     relabel_strategy, strategy_i_meager_dense,
                                     strategy_i_oscillation,
                                     strategy_ii_from_u)
from limsupgames.trees import (EventuallyPeriodicBranch, PrefixView,
                               binary_tree, nat_tree)

BIN = gamma(binary_tree())
NAT = gamma(nat_tree())
PAIR = gamma_prime(binary_tree())


# --- switching attack ---------------------------------------------------


def test_meager_dense_hand_trace():
    # against a constant 29/32 the piece index climbs while the switch
    # threshold 1 - 2^-m stays below the value, then freezes at m = 4
    md = strategy_i_meager_dense(eventually_zero_instance())
    tr = play(BIN, md, ConstantII(Dyadic(29, 5)), 40)
    assert tr.fault is None
    assert tr.letters[:8] == (0, 1, 1, 1, 1, 1, 0, 0)
    assert [e.round_index for e in md.history] == [0, 2, 3, 4, 5]
    assert [e.m for e in md.history] == [0, 1, 2, 3, 4]
    assert tr.lasso == (6, 1)
    assert md.counters() == {"m": 4, "switches": 4, "round": 40}

    v = check_win(tr, IndicatorPayoff())
    assert v.outcome is Outcome.WIN_I
    assert v.payoff_of_witness == Dyadic(1)
    assert v.limsup_value == Dyadic(29, 5)
    assert all(a == 0 for a in v.witness.cycle)


def test_meager_dense_never_settles_at_the_target_value():
    md = strategy_i_meager_dense(eventually_zero_instance())
    tr = play(BIN, md, ConstantII(Dyadic(1)), 64)
    assert tr.fault is None and tr.lasso is None
    assert md.counters()["m"] >= 10


def _replay_switching(values):
    """The eventually-zero switching rule replayed with the threshold
    r - 2^-m as a Dyadic and a freshly built tail per switch, fed the
    values a run announced: its letters, and one (round, m, prefix length,
    tail) per switch."""
    inst = eventually_zero_instance()
    letters, m, events = [], 0, []
    for t in range(len(values)):
        if t == 0 or (inst.r - half_pow(m) < values[t - 1]
                      and inst.s_disjoint(letters, m)):
            if t > 0:
                m += 1
            offset = len(letters)
            tail = EventuallyPeriodicBranch(
                (0,) * max(0, m + 1 - offset) + (1,), (0,))
            events.append((t, m, offset, tail))
        letters.append(tail.letter_at(len(letters) - offset))
    return tuple(letters), events


def test_meager_dense_long_divergent_run_matches_the_dyadic_replay():
    md = strategy_i_meager_dense(eventually_zero_instance())
    tr = play(BIN, md, ConstantII(1), 5000)
    assert tr.fault is None and tr.lasso is None
    letters, events = _replay_switching(tr.values)
    assert tr.letters == letters
    assert [(e.round_index, e.m, e.prefix_len) for e in md.history] == \
        [e[:3] for e in events]
    assert md.history[-1].m > 4000
    for ev, want in list(zip(md.history, events))[::97]:
        assert ev.tail.first(40) == want[3].first(40)


# the divergent and the stalled opponent, and seeded value machines
SWITCH_OPPONENTS = [ConstantII(1), ConstantII(Dyadic(29, 5)),
                    *value_fsm_corpus(5, 8), *value_fsm_corpus(6, 8, natural=True)]


def _counting_instance():
    """eventually_zero_instance whose s_disjoint, also its digest, counts
    its calls."""
    inst = eventually_zero_instance()
    calls = []

    def s_disjoint(s, m):
        calls.append((len(s), m))
        return inst.s_disjoint(s, m)

    return inst._replace(s_disjoint=s_disjoint, prefix_digest=s_disjoint), calls


def test_a_switching_round_asks_the_instance_once():
    # the state key's digest is the switch test's answer at the same
    # (prefix length, m), so the test reads it instead of asking again
    inst, calls = _counting_instance()
    md = strategy_i_meager_dense(inst)
    tr = play(BIN, md, ConstantII(1), 500)
    assert tr.lasso is None and md.switches == 498
    assert len(calls) <= 501 and len(set(calls)) == len(calls)


def test_a_distinct_digest_switches_as_the_shared_one_and_the_replay():
    # a digest that is not s_disjoint itself never stands in for the
    # switch test, and both instances play the replay's rounds
    shared = eventually_zero_instance()
    distinct = shared._replace(
        prefix_digest=lambda s, m: shared.s_disjoint(s, m))
    for opp in SWITCH_OPPONENTS:
        runs = []
        for inst in (shared, distinct):
            md = strategy_i_meager_dense(inst)
            tr = play(BIN, md, opp, 300)
            letters, events = _replay_switching(tr.values)
            assert tr.fault is None and tr.letters == letters
            assert list(map(tuple, md.history)) == events
            assert md.counters() == {"m": events[-1][1], "round": 300,
                                     "switches": len(events) - 1}
            runs.append((tr.columns(), tr.lasso, md.history))
        assert runs[0] == runs[1]
    md = strategy_i_meager_dense(distinct)
    assert play(BIN, md, ConstantII(Dyadic(29, 5)), 40).lasso == (6, 1)


@pytest.mark.parametrize("every", [None, 2, 3])
def test_the_switches_need_no_state_key(every):
    # move alone, or state_key asked on some rounds only, as play does
    # once it has found a lasso: the same switches as a played run
    for opp in SWITCH_OPPONENTS:
        md = strategy_i_meager_dense(eventually_zero_instance())
        tr = play(BIN, md, opp, 300)
        want = (md.history, md.counters())
        md.reset()
        opp.reset()
        letters, last = [], None
        for t in range(300):
            if every and t % every == 1:
                md.state_key()
            letters.append(md.move(last))
            last = opp.move(letters[-1])
        assert tuple(letters) == tr.letters
        assert (md.history, md.counters()) == want


def test_one_switching_attacker_plays_alike_twice():
    md = strategy_i_meager_dense(eventually_zero_instance())
    runs = []
    for opp in SWITCH_OPPONENTS[:3] * 2:
        tr = play(BIN, md, opp, 200)
        runs.append((tr.columns(), tr.lasso, md.history, md.counters()))
    assert runs[:3] == runs[3:]


@given(st.lists(st.integers(0, 1), max_size=40), st.integers(0, 45))
def test_s_disjoint_matches_the_positionwise_scan(s, m):
    # the cylinder at s misses piece m iff some letter past position m is 1;
    # m may lie at or past the end of s, where nothing is scanned
    s_disjoint = eventually_zero_instance().s_disjoint
    want = any(s[i] == 1 for i in range(m + 1, len(s)))
    for prefix in (s, tuple(s), PrefixView(list(s))):
        assert s_disjoint(prefix, m) is want


# --- oscillation attack -------------------------------------------------


def test_oscillation_triggers_every_round_when_crowded():
    osc = strategy_i_oscillation(indicator_oscillation_instance())
    tr = play(PAIR, osc, ConstantII(Dyadic(1), Dyadic(0)), 50)
    assert tr.fault is None
    assert tr.letters == (0,) * 50
    assert osc.trigger_rounds == list(range(1, 50))
    assert osc.counters()["phase"] == 49


def test_oscillation_stall_is_a_period_one_loss_for_ii():
    # a pair stuck at (1/2, 1/2) never closes either gap: phase 0 forever,
    # the all-zero witness pays 1, the announced limsup is 1/2
    osc = strategy_i_oscillation(indicator_oscillation_instance())
    opp = ConstantII(Dyadic(1, 1), Dyadic(1, 1))
    v = exact_verdict(PAIR, osc, opp, IndicatorPayoff())
    assert v.exact and v.outcome is Outcome.WIN_I
    assert v.lasso is not None and v.lasso[1] == 1
    assert v.payoff_of_witness == Dyadic(1)
    assert v.limsup_value == Dyadic(1, 1)


class _FollowingOscillation(StrategyI):
    """The oscillation attack played round by round as a target follower:
    the prefix at the last retarget followed by the tail of the phase's
    parity, whose letter it reads at pos - offset.  No table type, so play
    runs it to the horizon: the oracle for OscillationI's table."""

    finite_state = True

    def __init__(self, instance):
        self.tails = (instance.high, instance.low)
        eps = instance.epsilon
        self.windows = ((instance.sup_f - eps, instance.sup_f + eps),
                        (instance.inf_f - eps, instance.inf_f + eps))
        self.reset()

    def reset(self):
        self.pos = self.offset = self.phase = 0
        self.tail = None
        self.trigger_rounds = []

    def move(self, last):
        retarget = last is None
        if not retarget:
            if not isinstance(last, tuple):
                raise StrategyFault("II", "oscillation attack needs value pairs")
            lo, hi = self.windows[self.phase % 2]
            if lo < last[self.phase % 2] < hi:
                self.trigger_rounds.append(self.pos)
                self.phase += 1
                retarget = True
        if retarget:
            self.offset = self.pos
            self.tail = self.tails[self.phase % 2]
        self.pos += 1
        return self.tail.letter_at(self.pos - 1 - self.offset)

    def state_key(self):
        return (self.phase % 2, None if self.tail is None else
                reference_suffix_key(self.tail, self.pos - self.offset))

    def counters(self):
        return {"phase": self.phase, "round": self.pos,
                "triggers": len(self.trigger_rounds)}


def _two_tail_instances(seed, count):
    rng = random.Random(seed)

    def tail():
        return EventuallyPeriodicBranch(
            tuple(rng.randrange(2) for _ in range(rng.randrange(4))),
            tuple(rng.randrange(2) for _ in range(rng.randint(1, 3))))

    def value():
        return Dyadic(rng.randint(-4, 4), 2)

    return [indicator_oscillation_instance()._replace(
        sup_f=value(), inf_f=value(), epsilon=Dyadic(rng.randint(1, 8), 2),
        high=tail(), low=tail()) for _ in range(count)]


def _same_run(kind, inst, opp, horizon):
    table, oracle = strategy_i_oscillation(inst), _FollowingOscillation(inst)
    assert type(table) in TABLE_TYPES
    tr = play(kind, table, copy.deepcopy(opp), horizon)
    want = play(kind, oracle, copy.deepcopy(opp), horizon)
    assert tr.columns() == want.columns()
    assert (tr.lasso, tr.fault, tr.rounds) == \
        (want.lasso, want.fault, want.rounds)
    assert table.counters() == oracle.counters()
    assert table.trigger_rounds == oracle.trigger_rounds
    # a consistently wrong key plays the same letters; the state shows it
    assert table.q == oracle.state_key()
    return tr


def test_the_oscillation_table_plays_as_the_round_by_round_follower():
    opponents = pair_fsm_corpus(7, 12) + [ConstantII(Dyadic(1), Dyadic(0))]
    for inst in _two_tail_instances(3, 12) + [indicator_oscillation_instance()]:
        for opp in opponents:
            full = _same_run(PAIR, inst, opp, 200)
            s, p = full.lasso
            # the round after every cut inside the first periods, and a
            # horizon that cuts a late period in the middle
            for horizon in [0, 1, 2, 3, *range(s + p, s + 3 * p + 2),
                            997 + p // 2]:
                _same_run(PAIR, inst, opp, horizon)
            table, oracle = (strategy_i_oscillation(inst),
                             _FollowingOscillation(inst))
            got = exact_verdict(PAIR, table, copy.deepcopy(opp), inst.payoff)
            want = exact_verdict(PAIR, oracle, copy.deepcopy(opp),
                                 inst.payoff)
            assert got == want and got.exact
            assert table.counters() == oracle.counters()
            assert table.trigger_rounds == oracle.trigger_rounds
        # single values: player II's fault in round 1, on both
        tr = _same_run(BIN, inst, ConstantII(Dyadic(1)), 50)
        assert tr.fault.blame == "II" and tr.fault.round_index == 1


def test_the_oscillation_step_table_matches_the_suffix_key_formula():
    # the table is keyed by the tails' shared suffix keys; built from the
    # fresh tuples of the formula it is the same table
    for inst in _two_tail_instances(11, 30) + [indicator_oscillation_instance()]:
        tails = (inst.high, inst.low)
        want = {reference_suffix_key(x, i):
                (x.letter_at(i), reference_suffix_key(x, i + 1))
                for x in tails for i in range(len(x.stem) + len(x.cycle))}
        want[None] = want[reference_suffix_key(inst.high, 0)]
        osc = strategy_i_oscillation(inst)
        assert osc.step == want
        assert osc.starts == tuple(reference_suffix_key(x, 0) for x in tails)


def test_a_million_round_oscillation_keeps_its_lasso_only():
    osc = strategy_i_oscillation(indicator_oscillation_instance())
    tr = play(PAIR, osc, ConstantII(Dyadic(1), Dyadic(0)), 10 ** 6)
    assert tr.rounds == 10 ** 6 and tr.lasso == (0, 2)
    assert all(len(c) == 3 for c in tr._columns)
    assert osc.phase == 10 ** 6 - 1 and osc.t == 10 ** 6
    assert osc.trigger_rounds == list(range(1, 10 ** 6))


def test_a_million_round_oscillation_holds_no_trigger_per_round():
    # the trace keeps 3 rounds; a trigger record of one int a round held
    # 38 MB here, so the triggers past the repeat are kept as a period
    tracemalloc.start()
    try:
        osc = strategy_i_oscillation(indicator_oscillation_instance())
        tr = play(PAIR, osc, ConstantII(Dyadic(1), Dyadic(0)), 10 ** 6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tr.rounds == 10 ** 6 and osc.counters()["triggers"] == 10 ** 6 - 1
    assert held < 1 << 20, held


def test_oscillation_refuses_a_tail_that_is_not_a_branch():
    # a low pick that reads the prefix, as in a probe whose declared key
    # certified a wrong verdict: the tails are data, so it is no instance
    zeros, ones = (EventuallyPeriodicBranch((), (a,)) for a in (0, 1))
    inst = indicator_oscillation_instance()._replace(
        high=zeros, low=lambda s: ones if len(s) < 5 else zeros)
    with pytest.raises(TypeError, match="eventually periodic"):
        strategy_i_oscillation(inst)


# --- copycats -----------------------------------------------------------


def test_copycat_rejects_non_naturals():
    tr = play(NAT, copycat_strategy(), ConstantII(Dyadic(1, 1)), 6)
    assert tr.fault is not None and tr.fault.blame == "II"
    assert "natural" in tr.fault.detail
    tr = play(NAT, copycat_strategy(), ConstantII(Dyadic(-2)), 6)
    assert tr.fault.blame == "II"


def test_approx_copycat_tracks_within_budget():
    enum = SpiralEnumeration()
    target = Dyadic(3, 2)
    tr = play(NAT, approx_copycat(), ConstantII(target), 12)
    assert tr.fault is None
    for t in range(1, 12):
        approx = enum.value(tr.letters[t])
        gap = approx - target if target < approx else target - approx
        assert gap <= half_pow(t - 1), t
    # unbounded state declared, so no exact verdict without a fault
    v = exact_verdict(NAT, approx_copycat(), ConstantII(target),
                      lambda x: target, cap=40)
    assert v.outcome is Outcome.UNDECIDED


def test_approx_copycat_search_cap_faults_itself():
    tr = play(NAT, approx_copycat(search_cap=3), ConstantII(Dyadic(3, 2)), 30)
    assert tr.fault is not None and tr.fault.blame == "I"
    assert "cap" in tr.fault.detail


# --- spiral enumeration -------------------------------------------------


def test_spiral_enumeration_round_trips():
    enum = SpiralEnumeration()
    seen = set()
    for i in range(300):
        v = enum.value(i)
        assert enum.least_index(v, Dyadic(0)) <= i
        assert enum.value(enum.least_index(v, Dyadic(0))) == v
        seen.add(v)
    # level 4 is fully enumerated by index 300, so everything on its grid
    # with magnitude at most 5 has appeared
    for num in range(-5, 6):
        for exp in range(3):
            assert Dyadic(num, exp) in seen
    with pytest.raises(ValueError):
        enum.value(-1)
    with pytest.raises(ValueError):
        enum.least_index(Dyadic(0), Dyadic(-1, 1))


def test_least_index_matches_linear_scan():
    enum = SpiralEnumeration()
    probe = [Dyadic(0), Dyadic(1), Dyadic(-3, 1), Dyadic(5, 3), Dyadic(-7, 2)]
    for v in probe:
        for tol in [Dyadic(0), Dyadic(1, 2), Dyadic(1, 1)]:
            want = next(i for i in range(2000)
                        if _within(enum.value(i), v, tol))
            assert enum.least_index(v, tol) == want, (v, tol)


def _within(a: Dyadic, b: Dyadic, tol: Dyadic) -> bool:
    gap = a - b if b < a else b - a
    return gap <= tol


# --- lifting into the restricted game -----------------------------------


def test_lifted_strategy_replays_base_on_rounded_values():
    R = finite_value_set([Dyadic(0), Dyadic(1)])
    base = LetterFSM([0, 1], [[1, 1, 0], [0, 1, 1]],
                     thresholds=[Dyadic(1, 1)])
    opp = ValueFSM([[1, 0], [0, 1]], [Dyadic(3, 2), Dyadic(7, 3)])
    tr = play(BIN, lift_strategy(base, R), opp, 30)
    assert tr.fault is None
    base.reset()
    letters = [base.move(None)]
    for t in range(1, 30):
        letters.append(base.move(R.nearest(tr.values[t - 1])))
    assert tuple(letters) == tr.letters


def test_lifted_strategy_faults_when_oracle_escapes():
    class Escaping(FiniteValueSet):
        def nearest(self, v):
            return Dyadic(99)

    base = LetterFSM([0], [[0, 0]])
    lifted = lift_strategy(base, Escaping((Dyadic(0), Dyadic(1))))
    tr = play(BIN, lifted, ConstantII(Dyadic(1, 1)), 6)
    assert tr.fault is not None and tr.fault.blame == "I"
    assert "escaped the answer set" in tr.fault.detail


# --- relabeling ---------------------------------------------------------


def test_relabeled_copycat_plays_preimages():
    mapping = {Dyadic(n): Dyadic(n, 1) for n in range(8)}
    rel = relabel_strategy(copycat_strategy(), mapping)
    tr = play(NAT, rel, ConstantII(Dyadic(3, 1)), 10)
    assert tr.fault is None
    assert tr.letters[:2] == (0, 3)
    assert set(tr.letters[1:]) == {3}
    # same letters as the unrelabeled copycat hearing the preimage
    ref = play(NAT, copycat_strategy(), ConstantII(Dyadic(3)), 10)
    assert tr.letters == ref.letters


def test_relabeling_image_and_monotonicity():
    mapping = {Dyadic(n): Dyadic(n, 1) for n in range(8)}
    rel = relabel_strategy(copycat_strategy(), mapping)
    tr = play(NAT, rel, ConstantII(Dyadic(1, 2)), 6)
    assert tr.fault is not None and tr.fault.blame == "II"
    assert "image" in tr.fault.detail
    with pytest.raises(ValueError):
        relabel_strategy(copycat_strategy(), {Dyadic(0): Dyadic(1),
                                              Dyadic(1): Dyadic(1)})
    with pytest.raises(ValueError):
        relabel_strategy(copycat_strategy(), {Dyadic(0): Dyadic(2),
                                              Dyadic(1): Dyadic(1)})


# --- lifting and relabeling in the pair game ----------------------------


class Heard(StrategyI):
    """Plays 0 and keeps every input it hears."""

    def reset(self):
        self.heard = []

    def move(self, last):
        self.heard.append(last)
        return 0


def test_lift_and_relabel_map_both_coordinates_of_a_pair():
    R = finite_value_set([Dyadic(0), Dyadic(1)])
    base = Heard()
    # 3/4 rounds to 1 and 1/4 to 0
    tr = play(PAIR, lift_strategy(base, R),
              ConstantII(Dyadic(3, 2), Dyadic(1, 2)), 3)
    assert tr.fault is None
    assert base.heard == [None] + [(Dyadic(1), Dyadic(0))] * 2
    mapping = {Dyadic(n): Dyadic(n, 1) for n in range(4)}
    tr = play(PAIR, relabel_strategy(base, mapping),
              ConstantII(Dyadic(3, 1), Dyadic(1, 1)), 3)
    assert tr.fault is None
    assert base.heard == [None] + [(Dyadic(3), Dyadic(1))] * 2


def test_a_pair_coordinate_outside_the_map_is_the_right_players_fault():
    mapping = {Dyadic(n): Dyadic(n, 1) for n in range(4)}
    # the value 3/2 has a preimage, the covalue 1/4 none
    tr = play(PAIR, relabel_strategy(Heard(), mapping),
              ConstantII(Dyadic(3, 1), Dyadic(1, 2)), 3)
    assert tr.fault == ("II", 1, "value 1/2^2 outside the relabeling image")

    class EscapesBelowZero(FiniteValueSet):
        def nearest(self, v):
            return Dyadic(99) if v < 0 else super().nearest(v)

    R = EscapesBelowZero((Dyadic(0), Dyadic(1)))
    tr = play(PAIR, lift_strategy(Heard(), R),
              ConstantII(Dyadic(1), Dyadic(-1)), 3)
    assert tr.fault == ("I", 1, "near oracle escaped the answer set: 99/2^0")


# --- paired responders --------------------------------------------------


def test_pair_fixtures_certify_negation():
    branches = branch_corpus(2, 2)
    for fx in baire_pair_fixtures(41, 10):
        assert certify_pair(fx.u_f, fx.u_neg, branches)


def test_pair_responder_announces_two_sided_certificates():
    fx = baire_pair_fixtures(42, 1)[0]
    sII = pair_strategies(strategy_ii_from_u(fx.u_f),
                          strategy_ii_from_u(fx.u_neg))
    tr = play(PAIR, LetterFSM([0], [[0, 0]]), sII, 12)
    assert tr.fault is None
    assert len(tr.covalues) == len(tr.values) == 12
    # covalue = -(negated machine's output) = the function's own output
    assert tr.values == tr.covalues
    v = check_win(tr, fx.u_f)
    assert v.outcome is Outcome.WIN_II


# --- table players are total -------------------------------------------


@pytest.mark.parametrize("make", [
    lambda dst: ValueFSM([[dst, 0], [1, 1]], [0, 1]),
    lambda dst: LetterFSM([0, 1], [[0, dst], [1, 1]]),
], ids=["ValueFSM", "LetterFSM"])
@pytest.mark.parametrize("dst", [-1, 2, 3, True, 1.0, None])
def test_table_machines_refuse_a_successor_outside_their_states(make, dst):
    # -1 would alias the last state, 2 and 3 would raise mid-play, and a
    # bool or a float is no exact state number
    with pytest.raises(ValueError, match="bad successor"):
        make(dst)


def test_table_machines_refuse_an_empty_table():
    with pytest.raises(ValueError, match="at least one state"):
        ValueFSM([], [])
    with pytest.raises(ValueError, match="at least one state"):
        LetterFSM([], [])


@pytest.mark.parametrize("letter", [1.7, True, "1", -1],
                         ids=["float", "bool", "str", "negative"])
def test_letter_fsm_refuses_a_letter_that_is_not_a_natural(letter):
    # int() would emit 1.7, True and '1' as the letter 1
    with pytest.raises(ValueError, match="bad letter"):
        LetterFSM([0, letter], [[1, 1], [0, 0]])


def test_value_fsm_refuses_a_state_with_no_letter_class():
    with pytest.raises(ValueError, match="no letter class"):
        ValueFSM([[0], []], [0, 1])


class _NotATable(MachineResponder):
    """A subclass may override move, so it is no table player."""


def test_pairs_of_table_players_are_table_players():
    u = automaton_corpus(3, 1)[0]
    table = pair_strategies(strategy_ii_from_u(u), ValueFSM([[0]], [1]))
    assert type(table) in TABLE_TYPES
    assert table.state_key() == (u.initial, 0)
    # a pair of anything else would be no table, so it is refused
    with pytest.raises(ValueError, match="single values"):
        pair_strategies(strategy_ii_from_u(u), _NotATable(ConstantII(1).u))


def test_one_table_class_plays_player_ii():
    # II's strategy is a labeling: every II table is a machine responder
    assert [c for c in TABLE_TYPES if issubclass(c, StrategyII)] == \
        [MachineResponder]


def test_a_machine_part_that_answers_pairs_is_refused():
    # a pair announces two single values: a part with a covalue machine, a
    # pair among them, is a build error
    single = ConstantII(0)
    for part in (ConstantII(0, 0), pair_fsm_corpus(3, 1)[0],
                 pair_strategies(ConstantII(0), ConstantII(1))):
        for sf, sg in ((part, single), (single, part)):
            with pytest.raises(ValueError, match="single values"):
                pair_strategies(sf, sg)


# --- value machines are node automata -----------------------------------


class _ValueTable:
    """The value machine as a table of its own, for reference: step on the
    letter's class, then announce the new state's value (and covalue);
    letters past a row's width share its last class."""

    def __init__(self, trans, values, covalues=None):
        self.trans, self.values, self.covalues = trans, values, covalues
        self.q = 0

    def move(self, letter):
        row = self.trans[self.q]
        self.q = row[min(letter, len(row) - 1)]
        v = as_dyadic(self.values[self.q])
        if self.covalues is None:
            return v
        return (v, as_dyadic(self.covalues[self.q]))


def _first_rounds(player, keys, letters):
    """The answers along letters, and for each round the first round at
    which the player's key stood where it stands now."""
    first, seen, answers = {}, [], []
    for t, a in enumerate(letters):
        answers.append(player.move(a))
        seen.append(first.setdefault(keys(player), t))
    return answers, seen


def test_value_machines_answer_as_their_tables(monkeypatch):
    # the corpus' (trans, values, covalues), read off the builder's
    # arguments, and two tables whose rows differ in width
    monkeypatch.setattr(corpus, "ValueFSM", lambda *args: args)
    tables = value_fsm_corpus(7, 12, max_states=4) + pair_fsm_corpus(7, 12)
    monkeypatch.undo()
    tables += [([[1], [2, 0, 1], [0, 2]], [0, Dyadic(1, 1), 2]),
               ([[0, 1, 1, 2], [2], [1, 0]], [1, 0, 3],
                [Dyadic(-1, 2), 4, 0])]
    rng = random.Random(26)
    for args in tables:
        for _ in range(4):
            letters = [rng.randrange(5) for _ in range(40)]
            got = _first_rounds(ValueFSM(*args), lambda s: s.state_key(),
                                letters)
            want = _first_rounds(_ValueTable(*args), lambda s: s.q, letters)
            assert got == want


# --- state keys decide the future ---------------------------------------
#
# Exact verdicts trust a finite_state strategy's state_key: two copies that
# report equal keys must move alike on equal inputs from then on.


def _equal_key_copies(make, inputs, opening, seed, runs=30, length=24,
                      limit=40):
    """Pairs of fresh copies driven by random inputs of different lengths
    to equal state keys."""
    rng = random.Random(seed)
    first = {}
    found = []
    for _ in range(runs):
        stream = opening + [rng.choice(inputs) for _ in range(length)]
        s = make()
        for i, x in enumerate(stream, 1):
            s.move(x)
            p = first.setdefault(s.state_key(), stream[:i])
            if len(p) != i and len(found) < limit:
                found.append((p, stream[:i]))
    pairs = []
    for p, q in found:
        a, b = make(), make()
        for x in p:
            a.move(x)
        for x in q:
            b.move(x)
        assert a.state_key() == b.state_key()
        pairs.append((a, b))
    return pairs


def _assert_same_future(a, b, inputs, rng, rounds=50):
    for _ in range(rounds):
        x = rng.choice(inputs)
        assert a.move(x) == b.move(x)
        assert a.state_key() == b.state_key()


def _fresh(proto):
    def make():
        s = copy.deepcopy(proto)
        s.reset()
        return s
    return make


PAIR_INPUTS = [(Dyadic(1), Dyadic(0)), (Dyadic(1), Dyadic(1)),
               (Dyadic(0), Dyadic(0)), (Dyadic(0), Dyadic(1)),
               (Dyadic(1, 1), Dyadic(1, 1))]
QUARTERS = [Dyadic(k, 2) for k in range(-9, 10)]


def test_oscillation_state_key_decides_the_future():
    pairs = _equal_key_copies(
        lambda: strategy_i_oscillation(indicator_oscillation_instance()),
        PAIR_INPUTS, [None], seed=5)
    # equal states q met at different rounds, in different phases, and at
    # different positions inside the current tail: the letters played
    # since the last retarget, in round 0 or at the last trigger
    assert all(a.q == b.q for a, b in pairs)
    assert any(a.phase != b.phase for a, b in pairs)
    assert any(a.t - (a.trigger_rounds or [0])[-1] !=
               b.t - (b.trigger_rounds or [0])[-1] for a, b in pairs)
    rng = random.Random(6)
    for a, b in pairs:
        _assert_same_future(a, b, PAIR_INPUTS, rng)


def _responders(seed):
    us = automaton_corpus(seed, 8, max_states=4)
    return [strategy_ii_from_u(u) for u in us]


def _pair_responders(seed):
    us = automaton_corpus(seed, 8, max_states=3)
    return [pair_strategies(strategy_ii_from_u(f), strategy_ii_from_u(g))
            for f, g in zip(us[::2], us[1::2])]


EIGHTHS = [Dyadic(k, 3) for k in range(-9, 10)]


def _lifted(seed):
    # answers rounded into a coarser set than the inputs, so distinct
    # inputs reach the base as the same letter
    R = finite_value_set([Dyadic(k, 1) for k in range(-4, 5)])
    return [lift_strategy(s, R)
            for s in letter_fsm_corpus(seed, 4, max_states=4)]


def _relabeled(seed):
    # the base hears quarters while II announces eighths
    mapping = {q: e for q, e in zip(QUARTERS, EIGHTHS)}
    return [relabel_strategy(s, mapping)
            for s in letter_fsm_corpus(seed, 4, max_states=4)]


@pytest.mark.parametrize("protos, inputs, opening", [
    (letter_fsm_corpus(7, 8, max_states=4), QUARTERS, [None]),
    (value_fsm_corpus(7, 6, max_states=4) + pair_fsm_corpus(7, 3),
     [0, 1, 2], []),
    (_responders(7), [0, 1], []),
    (_pair_responders(7), [0, 1], []),
    ([ConstantII(Dyadic(1, 1)), ConstantII(Dyadic(0), Dyadic(1))],
     [0, 1, 2], []),
    ([copycat_strategy()], [Dyadic(n) for n in range(4)], [None]),
    (_lifted(9), QUARTERS, [None]),
    (_relabeled(9), EIGHTHS, [None]),
], ids=["LetterFSM", "ValueFSM", "strategy_ii_from_u", "pair_strategies",
        "ConstantII", "CopycatI", "LiftedI", "RelabeledI"])
def test_finite_state_keys_decide_the_future(protos, inputs, opening):
    rng = random.Random(8)
    checked = 0
    for i, proto in enumerate(protos):
        assert proto.finite_state
        for a, b in _equal_key_copies(_fresh(proto), inputs, opening, seed=i):
            _assert_same_future(a, b, inputs, rng)
            checked += 1
    assert checked >= 10 * len(protos)
