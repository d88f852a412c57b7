"""Strategy zoo.  Player II's strategy is a node labeling, so a II that
reads letters through a table is one MachineResponder over node automata.
Player I has letter machines, copycats, lifts, relabelings, and the
meager-dense and oscillation attacks."""

from __future__ import annotations

import bisect
from functools import lru_cache
from itertools import chain
from typing import (Callable, Dict, Hashable, List, NamedTuple, Optional,
                    Sequence)

from .automata import NodeAutomaton, check_steps
from .dyadic import Dyadic, as_dyadic, crowd_depth, half_pow
from .games import (FiniteValueSet, StrategyFault, StrategyI, StrategyII,
                    TableStrategy)
from .trees import EventuallyPeriodicBranch, PrefixView, TreeSpec, binary_tree


class MachineResponder(TableStrategy, StrategyII, table=True):
    """Player II's strategy as a node labeling, run as a machine: in state q
    it reads the letter's class c once, announces the answer on (q, c) and
    steps.  u labels the values; in the pair game w joins it.  One walk: q
    is u's state, and answers[q][c] is u's output or, for a covalue machine
    w on u's own steps, both outputs.  Two walks (negated, pair_strategies):
    w labels the negated function, q is the pair of their states, and the
    covalue is minus w's output, negated per move."""

    neg = None

    def __init__(self, u: NodeAutomaton, w: Optional[NodeAutomaton] = None,
                 negated: bool = False):
        self.u, self.w, self.k = u, w, u.num_letters
        self.steps, self.answers, self.initial = u.steps, u.outputs, u.initial
        if negated:
            self.neg = (w.steps, w.outputs, w.num_letters)
            self.initial = (u.initial, w.initial)
        elif w is not None:
            if (w.initial, w.steps) != (u.initial, u.steps):
                raise ValueError("a covalue machine walks its value machine's steps")
            self.answers = tuple(tuple(zip(a, b))
                                 for a, b in zip(u.outputs, w.outputs))
        self.q = self.initial

    def move(self, letter: int):
        c = letter if letter < self.k else self.k
        if self.neg is None:
            q = self.q
            self.q = self.steps[q][c]
            return self.answers[q][c]
        (p, q), (steps, outputs, k) = self.q, self.neg
        d = letter if letter < k else k  # w's class, if w is wider or narrower
        self.q = (self.steps[p][c], steps[q][d])
        return (self.answers[p][c], -outputs[q][d])


def strategy_ii_from_u(u: NodeAutomaton) -> MachineResponder:
    return MachineResponder(u)


def ConstantII(value, covalue=None) -> MachineResponder:
    """One state, one answer: a 1-state machine."""
    return ValueFSM([[0]], [value], None if covalue is None else [covalue])


def ValueFSM(trans: Sequence[Sequence[int]], values: Sequence,
             covalues: Optional[Sequence] = None) -> MachineResponder:
    """Mealy value machine: step on the letter's class, then announce the
    new state's value (and covalue).  Letters past a row's width share its
    last class, so each row is padded with its last entry."""
    width = max(map(len, trans), default=0)
    steps = tuple(tuple(row) + tuple(row[-1:]) * (width - len(row))
                  for row in trans)
    check_steps(steps)  # the successors index the values below
    machines = []
    for labels, what in ((values, "value"), (covalues, "covalue")):
        if labels is not None:
            labels = tuple(map(as_dyadic, labels))
            if len(labels) != len(steps):
                raise ValueError(f"one {what} per state required")
            machines.append(NodeAutomaton(0, steps, tuple(
                tuple(labels[dst] for dst in row) for row in steps)))
    return MachineResponder(*machines)


class LetterFSM(TableStrategy, StrategyI, table=True):
    """Moore letter machine driven by threshold buckets of II's values.

    Bucket 0 is the opening round (no announcement yet); value v lands in
    bucket 1 + #(thresholds <= v).  Pairs are bucketed by their first
    coordinate.
    """

    def __init__(self, emits: Sequence[int], trans: Sequence[Sequence[int]],
                 thresholds: Sequence = ()):
        self.emits = tuple(emits)
        if any(type(a) is not int or a < 0 for a in self.emits):
            raise ValueError(f"bad letter in {self.emits!r}")
        self.trans = tuple(map(tuple, trans))
        width = check_steps(self.trans)
        self.thresholds = tuple(sorted(as_dyadic(c) for c in thresholds))
        if len(self.emits) != len(self.trans):
            raise ValueError("one emitted letter per state required")
        if width != len(self.thresholds) + 2:
            raise ValueError(f"transition rows must have width {len(self.thresholds) + 2}")
        self.q = 0

    def _bucket(self, last) -> int:
        if last is None:
            return 0
        v = last[0] if isinstance(last, tuple) else last
        return 1 + bisect.bisect_right(self.thresholds, v)

    def move(self, last) -> int:
        self.q = self.trans[self.q][self._bucket(last)]
        return self.emits[self.q]


class CopycatI(TableStrategy, StrategyI, table=True):
    """Echoes II's previous value as the next letter; first letter 0.

    Only natural announcements are legal input, so a fractional or negative
    value is II's fault.  The one state is 0: the round counter t is only
    reported, never read by move.
    """

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.q = self.t = 0

    def skip(self, q, rounds: int, period: int) -> None:
        self.t += rounds

    def move(self, last) -> int:
        self.t += 1
        if last is None:
            return 0
        v = last[0] if isinstance(last, tuple) else last
        if v.exp != 0 or v.num < 0:
            raise StrategyFault("II", f"copycat needs a natural, got {v}")
        return v.num

    def counters(self) -> Dict[str, int]:
        return {"round": self.t}


def copycat_strategy() -> CopycatI:
    return CopycatI()


class SpiralEnumeration:
    """Enumeration of the dyadic rationals by grid level.

    Level j lists z / 2^j for integer z in [-(j+1) 2^j, (j+1) 2^j], ordered
    0, 1, -1, 2, -2, ...; levels are concatenated.  Every dyadic appears,
    and any target interval of width 2^-n is hit by level max(n, size
    bound), so least_index needs no scanning.
    """

    def __init__(self):
        self._offsets = [0]

    @staticmethod
    def _bound(j: int) -> int:
        return (j + 1) << j

    @staticmethod
    def _position(z: int) -> int:
        if z > 0:
            return 2 * z - 1
        return -2 * z

    def _offset(self, j: int) -> int:
        while len(self._offsets) <= j:
            k = len(self._offsets) - 1
            self._offsets.append(self._offsets[-1] + 2 * self._bound(k) + 1)
        return self._offsets[j]

    def value(self, i: int) -> Dyadic:
        if i < 0:
            raise ValueError("index must be a natural")
        j = 0
        while self._offset(j + 1) <= i:
            j += 1
        pos = i - self._offset(j)
        if pos == 0:
            z = 0
        elif pos % 2 == 1:
            z = (pos + 1) // 2
        else:
            z = -(pos // 2)
        return Dyadic(z, j)

    @staticmethod
    def _scaled_ceil(v: Dyadic, j: int) -> int:
        """ceil(v * 2^j); floor(v * 2^j) is -_scaled_ceil(-v, j)."""
        c = v.ceil_to_grid(j)
        return c.num << (j - c.exp)

    def least_index(self, v: Dyadic, tol: Dyadic) -> int:
        """Smallest i with |value(i) - v| <= tol.

        Indices of level j all precede those of level j+1, and inside a
        level smaller |z| comes first, so it suffices to test levels in
        order and pick the admissible z closest to zero.
        """
        if tol.num < 0:
            raise ValueError("tolerance must be nonnegative")
        j = 0
        while True:
            bound = self._bound(j)
            lo = max(self._scaled_ceil(v - tol, j), -bound)
            hi = min(-self._scaled_ceil(-(v + tol), j), bound)
            if lo <= hi:
                if lo <= 0 <= hi:
                    z = 0
                elif lo > 0:
                    z = lo
                else:
                    z = hi
                return self._offset(j) + self._position(z)
            j += 1


class ApproxCopycatI(StrategyI):
    """Plays the least enumeration index within 2^-(t-1) of II's last value.

    The tolerance shrinks each round, so the state is genuinely unbounded.
    An optional search_cap bounds how deep into the enumeration the
    strategy may reach; needing a larger index is its own fault.
    """

    finite_state = False

    def __init__(self, enum: Optional[SpiralEnumeration] = None,
                 search_cap: Optional[int] = None):
        self.enum = enum if enum is not None else SpiralEnumeration()
        self.search_cap = search_cap
        self.t = 0

    def reset(self) -> None:
        self.t = 0

    def move(self, last) -> int:
        t = self.t
        self.t += 1
        if last is None:
            return 0
        v = last[0] if isinstance(last, tuple) else last
        idx = self.enum.least_index(v, half_pow(t - 1))
        if self.search_cap is not None and idx > self.search_cap:
            raise StrategyFault(
                "I", f"no enumeration index within cap at round {t} for {v}")
        return idx

    def state_key(self):
        return self.t

    def counters(self) -> Dict[str, int]:
        return {"round": self.t}


def approx_copycat(enum: Optional[SpiralEnumeration] = None,
                   search_cap: Optional[int] = None) -> ApproxCopycatI:
    return ApproxCopycatI(enum, search_cap)


class _MappedI(StrategyI):
    """A letter strategy run on mapped announcements: each value, or each
    coordinate of a pair, goes through the subclass's _map before the base
    strategy sees it.  State, key and counters are the base's."""

    def __init__(self, base: StrategyI):
        self.base = base
        self.finite_state = base.finite_state

    def reset(self) -> None:
        self.base.reset()

    def move(self, last) -> int:
        if last is not None:
            f = self._map
            last = (f(last[0]), f(last[1])) if isinstance(last, tuple) else f(last)
        return self.base.move(last)

    def state_key(self):
        return self.base.state_key()

    def counters(self) -> Dict[str, int]:
        return self.base.counters()


class LiftedI(_MappedI):
    """Plays a restricted-answer letter strategy against unrestricted values.

    Each announced value is rounded into the finite answer set through the
    set's near oracle before the base strategy sees it.  The round-n
    precision budget shrinks like 1/(n+2), which nearest-point rounding
    beats at every round; the wrapper still checks that the oracle's pick
    lands inside the set and converts any escape into a fault.
    """

    def __init__(self, base: StrategyI, restriction: FiniteValueSet):
        super().__init__(base)
        self.restriction = restriction

    def _map(self, v) -> Dyadic:
        picked = self.restriction.nearest(as_dyadic(v))
        if not self.restriction.contains(picked):
            raise StrategyFault(
                "I", f"near oracle escaped the answer set: {picked}")
        return picked


def lift_strategy(base: StrategyI, restriction: FiniteValueSet) -> LiftedI:
    return LiftedI(base, restriction)


class RelabeledI(_MappedI):
    """Feeds a letter strategy the preimages of announced values; values
    outside the relabeling's image are the announcer's fault."""

    def __init__(self, base: StrategyI, mapping: Dict[Dyadic, Dyadic]):
        super().__init__(base)
        pairs = sorted((as_dyadic(k), as_dyadic(v)) for k, v in mapping.items())
        for (_, va), (_, vb) in zip(pairs, pairs[1:]):
            if not va < vb:
                raise ValueError("relabeling must be strictly increasing")
        self.inverse: Dict[Dyadic, Dyadic] = {v: k for k, v in pairs}

    def _map(self, v) -> Dyadic:
        v = as_dyadic(v)
        got = self.inverse.get(v)
        if got is None:
            raise StrategyFault("II", f"value {v} outside the relabeling image")
        return got


def relabel_strategy(base: StrategyI, mapping: Dict[Dyadic, Dyadic]) -> RelabeledI:
    return RelabeledI(base, mapping)


def pair_strategies(sf: MachineResponder, sg: MachineResponder) -> MachineResponder:
    """II for the pair game from a machine for the function and one for its
    negation: one responder over both.  Any other part is refused."""
    if not (type(sf) is type(sg) is MachineResponder and sf.w is sg.w is None):
        raise ValueError("pair parts must be machine responders that answer "
                         "single values")
    return MachineResponder(sf.u, sg.u, negated=True)


class IndicatorPayoff:
    """1 on branches that are eventually all zero, else 0."""

    label = "eventually-zero indicator"

    def value_on(self, x: EventuallyPeriodicBranch) -> Dyadic:
        return Dyadic(1 if all(a == 0 for a in x.cycle) else 0)


class MeagerDenseInstance(NamedTuple):
    """Inputs for the switching attack against a value r approached through
    a countable union of closed nowhere-covering pieces.

    s_disjoint(s, m) must answer whether the cylinder at s misses piece m.
    pick_y(s, m) returns only the continuation after s: the branch of
    letters from position len(s) on, chosen so that s followed by it lies
    outside pieces 0..m; branches are immutable, so it may hand back one
    shared tail for every prefix that needs the same continuation.
    prefix_digest(s, m) compresses the prefix to exactly the information
    future queries need, so stalled runs can lasso.  Callbacks receive the
    prefix as a read-only sequence.  All three are pure functions of (s, m),
    so when prefix_digest is s_disjoint the attack reuses the digest.
    """

    tree: TreeSpec
    r: Dyadic
    s_disjoint: Callable[[Sequence[int], int], bool]
    pick_y: Callable[[Sequence[int], int], EventuallyPeriodicBranch]
    prefix_digest: Callable[[Sequence[int], int], Hashable]
    label: str = "meager-dense"


def eventually_zero_instance() -> MeagerDenseInstance:
    """Pieces S_m = branches with no 1 past position m; their union is the
    eventually-zero set, dense but meager in the binary branch space."""

    def s_disjoint(s: Sequence[int], m: int) -> bool:
        return 1 in s[m + 1:]

    @lru_cache(maxsize=None)
    def tail(zeros: int) -> EventuallyPeriodicBranch:
        return EventuallyPeriodicBranch((0,) * zeros + (1,), (0,))

    # pick_y: zeros up to position m + 1 (if s stops short of it), a 1, 0^w
    return MeagerDenseInstance(binary_tree(), Dyadic(1), s_disjoint,
                               lambda s, m: tail(max(0, m + 1 - len(s))),
                               prefix_digest=s_disjoint, label="eventually-zero")


class SwitchEvent(NamedTuple):
    """A retarget: the new target is the first prefix_len played letters
    followed by tail."""

    round_index: int
    m: int
    prefix_len: int
    tail: EventuallyPeriodicBranch


class MeagerDenseI(StrategyI):
    """Switching attacker: follow a branch outside pieces 0..m until II's
    value crowds r while the prefix already escapes piece m, then bump m
    and retarget (as in round 0).

    A target is the prefix at its retarget followed by pick_y's tail, so it
    extends the prefix by construction: the strategy keeps (offset, tail)
    and reads the letter at pos - offset.  It tests r - 2^-m < v as
    m <= crowd_depth(r, v), kept per announced value (the last one first,
    by identity), so a round costs the same at any depth.  When the digest
    is s_disjoint, the switch test reads the round's state key.  The piece
    index can grow forever, so the strategy declares unbounded state;
    stalled runs still lasso in play because the state key keeps only the
    digest of the prefix.
    """

    finite_state = False

    def __init__(self, instance: MeagerDenseInstance):
        self.instance = instance
        # read every round, and a NamedTuple field read costs about twice an
        # instance attribute read, so both are bound once
        self.s_disjoint = instance.s_disjoint
        self.prefix_digest = instance.prefix_digest
        self.reuse = instance.prefix_digest is instance.s_disjoint
        self.depths: Dict[Dyadic, float] = {}
        self.reset()

    def reset(self) -> None:
        self.prefix: List[int] = []
        self.view = PrefixView(self.prefix)
        self.offset = 0
        self.tail: Optional[EventuallyPeriodicBranch] = None
        self.t = 0
        self.m = 0
        self.switches = 0
        # one (round, m, prefix length, tail) tuple per switch
        self.events: List[tuple] = []
        self.key, self.key_len = None, -1  # the last state key, at this length
        self.last_v = self.last_depth = None

    history = property(lambda self: tuple(map(SwitchEvent._make, self.events)))

    def move(self, last) -> int:
        n = len(self.prefix)
        if last is None or self._switch(last, n):
            self.offset = n
            self.tail = self.instance.pick_y(self.view, self.m)
            self.events.append((self.t, self.m, n, self.tail))
        letter = self.tail.letter_at(n - self.offset)
        self.prefix.append(letter)
        self.t += 1
        return letter

    def _switch(self, last, n: int) -> bool:
        v = last[0] if isinstance(last, tuple) else last
        if v is not self.last_v:
            depth = self.depths.get(v)
            if depth is None:
                depth = self.depths[v] = crowd_depth(self.instance.r, v)
            self.last_v, self.last_depth = v, depth
        m = self.m
        if m > self.last_depth:
            return False
        key = self.key
        escaped = key[2] if self.reuse and self.key_len == n and key[0] == m \
            else self.s_disjoint(self.view, m)
        if escaped:
            self.m = m + 1
            self.switches += 1
        return escaped

    def state_key(self):
        n = len(self.prefix)
        tail = None if self.tail is None else self.tail.suffix_key(n - self.offset)
        self.key_len = n
        self.key = key = (self.m, tail, self.prefix_digest(self.view, self.m))
        return key

    def counters(self) -> Dict[str, int]:
        return {"m": self.m, "switches": self.switches, "round": self.t}


def strategy_i_meager_dense(instance: MeagerDenseInstance) -> MeagerDenseI:
    return MeagerDenseI(instance)


class OscillationInstance(NamedTuple):
    """Inputs for the two-sided attack on a set whose closure keeps both a
    value-sup and a value-inf witness above every node.

    high and low are the continuations the attack plays from its first
    letter on after each retarget: any prefix followed by high is a branch
    with payoff sup_f, and followed by low one with payoff inf_f.  Fixed
    tails make the attack a finite table; picks that read the prefix wait
    for tails indexed by a letter automaton's states (ROADMAP item 9(b)).
    """

    tree: TreeSpec
    sup_f: Dyadic
    inf_f: Dyadic
    epsilon: Dyadic
    high: EventuallyPeriodicBranch
    low: EventuallyPeriodicBranch
    payoff: object
    label: str = "oscillation"


def indicator_oscillation_instance() -> OscillationInstance:
    return OscillationInstance(binary_tree(), Dyadic(1), Dyadic(0),
                               Dyadic(1, 3), EventuallyPeriodicBranch((), (0,)),
                               EventuallyPeriodicBranch((), (0, 1)),
                               IndicatorPayoff(), label="indicator-oscillation")


class OscillationI(TableStrategy, StrategyI, table=True):
    """Alternating attacker for the pair game: chase the high tail until
    the first coordinate crowds sup_f, then the low tail until the second
    coordinate crowds inf_f, and repeat.

    The state q is (phase parity, the suffix_key of the chased tail's
    remaining letters), and (0, None) before round 0.  A trigger flips the
    parity and restarts the other tail; the letter is the head of the
    remaining tail.  The round t and the trigger rounds (so the phase) are
    only reported, never read by move; past a skip they are kept as
    periods, and trigger_rounds expands them on demand.
    """

    initial = (0, None)

    def __init__(self, instance: OscillationInstance):
        tails = (instance.high, instance.low)
        if not all(isinstance(x, EventuallyPeriodicBranch) for x in tails):
            raise TypeError("oscillation tails are eventually periodic branches")
        self.instance = instance
        # a coordinate crowds its target when it lies strictly inside
        # (target - epsilon, target + epsilon)
        eps = instance.epsilon
        self.windows = ((instance.sup_f - eps, instance.sup_f + eps),
                        (instance.inf_f - eps, instance.inf_f + eps))
        # suffix key -> (its head letter, the key one letter on), over both
        # tails; None, before round 0, stands at the start of the high tail
        self.starts = tuple(x.suffix_key(0) for x in tails)
        self.step = {}
        for x in tails:
            for i in range(len(x.stem) + len(x.cycle)):
                self.step[x.suffix_key(i)] = (x.letter_at(i), x.suffix_key(i + 1))
        self.step[None] = self.step[self.starts[0]]
        self.reset()

    def reset(self) -> None:
        super().reset()
        self.t = 0
        # the triggers met move by move, then one range per trigger that
        # the rounds skipped at the lasso repeat
        self._trig: List[int] = []
        self._more: List[range] = []

    trigger_rounds = property(
        lambda self: self._trig + sorted(chain.from_iterable(self._more)))
    phase = property(lambda self: len(self._trig) + sum(map(len, self._more)))

    def move(self, last) -> int:
        parity, key = self.q
        if last is not None:
            if not isinstance(last, tuple):
                raise StrategyFault("II", "oscillation attack needs value pairs")
            lo, hi = self.windows[parity]
            if lo < last[parity] < hi:
                parity ^= 1
                key = self.starts[parity]
                if self._more:
                    self._trig, self._more = self.trigger_rounds, []
                self._trig.append(self.t)
        letter, key = self.step[key]
        self.q = (parity, key)
        self.t += 1
        return letter

    def skip(self, q, rounds: int, period: int) -> None:
        # the skipped rounds repeat the last `period` rounds, triggers too
        self.q = q
        trig, t = self.trigger_rounds, self.t
        self._trig, self._more = trig, [
            range(r + period, t + rounds, period)
            for r in trig[bisect.bisect_left(trig, t - period):]]
        self.t = t + rounds

    def counters(self) -> Dict[str, int]:
        return {"phase": self.phase, "round": self.t, "triggers": self.phase}


def strategy_i_oscillation(instance: OscillationInstance) -> OscillationI:
    return OscillationI(instance)
