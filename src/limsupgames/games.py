"""Two-player limsup games on pruned trees, with lasso-certified verdicts.

Player I extends the branch one letter per round; player II answers with a
claimed value (or a value pair in the two-sided variant).  II wins when the
payoff of the emitted branch equals the limsup of the claimed values (and,
for pairs, the liminf of the second coordinates).  Verdicts are exact only
when the joint strategy state lassos; everything else is reported undecided
with window diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain, count, cycle, islice, repeat
from operator import attrgetter
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .automata import NodeAutomaton, eval_limsup
from .dyadic import Dyadic, as_dyadic
from .graphs import periodic_start
from .trees import EventuallyPeriodicBranch, TreeSpec, nat_tree

MAX_TRACE_ROUNDS = 10 ** 6
CSV_BLOCK = 1 << 14  # CSV rows numbered in one formatting pass

GAMMA = "gamma"
GAMMA_PRIME = "gamma_prime"
GAMMA_RESTRICTED = "gamma_restricted"
VARIANTS = (GAMMA, GAMMA_PRIME, GAMMA_RESTRICTED)


@dataclass(frozen=True)
class FiniteValueSet:
    """Finite set of dyadic values, for the restricted-answer variant."""

    values: Tuple[Dyadic, ...]

    def __post_init__(self):
        vals = tuple(sorted(set(self.values)))
        if not vals:
            raise ValueError("value set must be nonempty")
        object.__setattr__(self, "values", vals)

    def contains(self, v: Dyadic) -> bool:
        return v in self.values

    def nearest(self, v: Dyadic) -> Dyadic:
        # ties broken toward the smaller member
        best = self.values[0]
        bestd = abs(v - best)
        for cand in self.values[1:]:
            d = abs(v - cand)
            if d < bestd:
                best, bestd = cand, d
        return best


def finite_value_set(values: Iterable) -> FiniteValueSet:
    return FiniteValueSet(tuple(as_dyadic(v) for v in values))


@dataclass(frozen=True)
class GameKind:
    variant: str
    tree: TreeSpec
    restriction: Optional[FiniteValueSet] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if (self.variant == GAMMA_RESTRICTED) != (self.restriction is not None):
            raise ValueError("restriction is for gamma_restricted only")

    @property
    def uses_pairs(self) -> bool:
        return self.variant == GAMMA_PRIME


def gamma(tree: Optional[TreeSpec] = None) -> GameKind:
    return GameKind(GAMMA, tree if tree is not None else nat_tree())


def gamma_prime(tree: Optional[TreeSpec] = None) -> GameKind:
    return GameKind(GAMMA_PRIME, tree if tree is not None else nat_tree())


def gamma_restricted(restriction: FiniteValueSet,
                     tree: Optional[TreeSpec] = None) -> GameKind:
    return GameKind(GAMMA_RESTRICTED, tree if tree is not None else nat_tree(),
                    restriction)


class StrategyFault(Exception):
    """A player left the game's legal move space."""

    def __init__(self, blame: str, detail: str):
        if blame not in ("I", "II"):
            raise ValueError("blame must be 'I' or 'II'")
        self.blame = blame
        self.detail = detail
        super().__init__(f"player {blame} fault: {detail}")


class CertificateMismatchError(Exception):
    """A trace contradicts its own lasso certificate."""


class Strategy:
    """A player.  finite_state means state_key ranges over a finite set and
    fully determines future behavior; only then do lassos yield exact
    verdicts.  A TableStrategy makes that a fact of its tables rather than
    a declaration."""

    finite_state = False

    def reset(self) -> None:
        pass

    def move(self, seen):
        raise NotImplementedError

    def state_key(self):
        return None

    def counters(self) -> Dict[str, int]:
        return {}


# the exact classes whose move is a pure function of (q, input) over
# immutable tables checked when the player is built; a subclass is not one,
# since it may override move
TABLE_TYPES = set()


class TableStrategy(Strategy):
    """A finite-state player over explicit tables: its whole state is q;
    counters beside q are only reported, and skip brings them up to date.

    A class joins TABLE_TYPES by passing table=True in its class statement.
    Two such players on a full tree play a run that repeats from their
    first joint-state repeat on, so play stops calling move there and
    stores the run as that lasso, and exact_verdict reads the verdict off
    the rounds before that repeat (_rounds).
    """

    finite_state = True
    initial = 0

    def __init_subclass__(cls, table: bool = False, **kw):
        super().__init_subclass__(**kw)
        if table:
            TABLE_TYPES.add(cls)

    def reset(self) -> None:
        self.q = self.initial

    def state_key(self):
        return self.q

    def skip(self, q, rounds: int, period: int) -> None:
        """Stand where `rounds` more moves would have left the player, in
        state q; those rounds repeat the last `period` rounds."""
        self.q = q


class StrategyI(Strategy):
    """Letter player.  move sees II's previous announcement (None in round 0)."""


class StrategyII(Strategy):
    """Value player.  move sees the letter just played and answers a dyadic
    value, or a (value, covalue) pair in the two-sided variant."""


class _Record:
    """An immutable slotted record.  A subclass names its fields in
    __slots__, each as "_" + field, in field order; every field is then a
    read-only property over its slot, which only __init__ writes.  Records
    compare, hash and print like the frozen dataclasses they replaced.  A
    subclass may name its fields in _names instead: it defines each field
    that is not a slot, and its other slots stay private."""

    __slots__ = ()

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        if "_names" not in cls.__dict__:
            cls._names = tuple(slot[1:] for slot in cls.__slots__)
        for name in cls._names:
            if name not in cls.__dict__:
                setattr(cls, name, property(attrgetter("_" + name)))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self._names, self._fields()))
        return f"{self.__class__.__name__}({shown})"


class RunRow(_Record):
    """Round t: the letter I played, II's value and, in the pair game, II's
    covalue (else None).

    play records no rows; RunTrace.rows builds them on demand from the
    trace's columns, for output and tests.
    """

    __slots__ = ("_t", "_letter", "_value", "_covalue")

    def __init__(self, t: int, letter: int, value: Dyadic,
                 covalue: Optional[Dyadic] = None):
        self._t = t
        self._letter = letter
        self._value = value
        self._covalue = covalue


class FaultRecord(NamedTuple):
    blame: str
    round_index: int
    detail: str

    def to_json_dict(self) -> dict:
        return {"blame": self.blame, "round": self.round_index,
                "detail": self.detail}


def _texts(col) -> List[str]:
    """str of each entry, computed once per distinct object.  Keying by id
    is safe because col keeps every keyed object alive for the whole call."""
    ids = list(map(id, col))
    text = dict(zip(ids, col))
    for k, v in text.items():
        text[k] = str(v)
    return list(map(text.__getitem__, ids))


class RunTrace(_Record):
    """A recorded play, one flat column per observable: in round t I played
    letters[t] and II announced values[t] and, in the pair game only,
    covalues[t] (covalues is None in the other games).  play appends to the
    columns and builds no per-round object; readers slice the columns.

    Given `rounds`, the trace is stored as its lasso: the columns hold only
    the rounds up to the repeat, and the rest of the `rounds` rounds repeat
    their last lasso period.  columns() expands them on its first call and
    keeps the result, which the column fields and rows read; rounds, the
    CSV writer, the witness and check_win read the stored rounds.  A RunTrace is not
    a tuple: it neither unpacks nor indexes.
    """

    __slots__ = ("_kind", "_columns", "_lasso", "_fault", "_rounds", "_full")
    _names = ("kind", "letters", "values", "covalues", "lasso", "fault")

    def __init__(self, kind: GameKind, letters: tuple, values: tuple,
                 covalues: Optional[tuple] = None, lasso: Optional[tuple] = None,
                 fault: Optional[FaultRecord] = None, rounds: Optional[int] = None):
        cols = (letters, values) if covalues is None else \
            (letters, values, covalues)
        if rounds is not None and (lasso is None or not (
                0 < lasso[1] <= sum(lasso) <= min(map(len, cols))
                and max(map(len, cols)) <= rounds)):
            raise ValueError(f"{rounds} rounds need a lasso whose first cycle "
                             "the stored rounds hold, and no fewer rounds")
        self._kind, self._lasso, self._fault, self._rounds = \
            kind, lasso, fault, rounds
        self._columns = cols
        self._full = cols if rounds is None else None

    def _replace(self, **fields) -> "RunTrace":
        """A copy with fields replaced.  A replaced column or lasso is taken
        as given, beside the other columns in full; a replace of neither
        keeps the stored columns and round count, expanding nothing."""
        if fields.keys() <= {"kind", "fault"}:
            old = dict(zip(("letters", "values", "covalues"), self._columns),
                       kind=self._kind, lasso=self._lasso, fault=self._fault,
                       rounds=self._rounds)
        else:
            old = dict(zip(self._names, self._fields()))
        return RunTrace(**{**old, **fields})

    letters = property(lambda self: self.columns()[0])
    values = property(lambda self: self.columns()[1])
    covalues = property(lambda self: self.columns()[2]
                        if len(self._columns) == 3 else None)
    rounds = property(lambda self: len(self._columns[1])
                      if self._rounds is None else self._rounds)

    @property
    def rows(self) -> Tuple[RunRow, ...]:
        """The rounds as RunRows, rebuilt on every access: read it once."""
        return tuple(map(RunRow, count(), *self.columns()))

    def columns(self) -> Tuple[Tuple, ...]:
        """letters and values, then covalues in the pair game."""
        if self._full is None:
            p, n = self._lasso[1], self._rounds
            self._full = tuple(col + (col[-p:] * ((n - len(col)) // p + 1))
                               [:n - len(col)] for col in self._columns)
        return self._full

    def witness_branch(self) -> EventuallyPeriodicBranch:
        if self.lasso is None:
            raise ValueError("no lasso, no witness branch")
        start, period = self.lasso
        letters = self._columns[0]
        return EventuallyPeriodicBranch(letters[:start],
                                        letters[start:start + period])

    def to_csv_text(self) -> str:
        """The trace as CSV.  When the stored columns are periodic from
        lasso start s with period p (checked here, never assumed), only rows
        0..s+p-1 are formatted: the later rows repeat the tails of rows
        s..s+p-1, and round numbers go in one pass per CSV_BLOCK rows.  No
        field holds a comma, quote, newline or percent sign: none is quoted."""
        cols = self._columns
        m = min(map(len, cols))
        s, p = self.lasso or (0, 0)
        if p > 0 <= s and s + p <= m and \
                all(c[s:m - p] == c[s + p:m] for c in cols):
            n, end = m if self._rounds is None else self._rounds, s + p
        else:
            cols = self.columns()
            n = end = min(map(len, cols))
        vs = _texts(cols[1][:end])
        ws = repeat("") if len(cols) == 2 else _texts(cols[2][:end])
        # each row's tail; a round number goes before each
        tails = [f",{x},{v},{w}\n" for x, v, w in zip(cols[0], vs, ws)]
        rows = chain(tails, cycle(tails[s:]))
        out = ["t,x_t,v_t,w_t\n"]
        for i in range(0, n, CSV_BLOCK):
            ts = range(i, min(i + CSV_BLOCK, n))
            out.append(("%d" + "%d".join(islice(rows, len(ts)))) % tuple(ts))
        return "".join(out)

    def sidecar(self) -> dict:
        return {
            "variant": self.kind.variant,
            "rounds": self.rounds,
            "lasso": None if self.lasso is None else
                {"start": self.lasso[0], "period": self.lasso[1]},
            "fault": None if self.fault is None else self.fault.to_json_dict(),
        }


def _coerce_answer(kind: GameKind, raw):
    """II's answer as a Dyadic, or as a pair of them in the pair game; any
    other answer is II's fault."""
    pairs = kind.uses_pairs
    if pairs and not (isinstance(raw, tuple) and len(raw) == 2):
        raise StrategyFault("II", f"expected a (value, covalue) pair, got {raw!r}")
    if not pairs and isinstance(raw, tuple):
        raise StrategyFault("II", "pair answered in a single-value game")
    try:
        return (as_dyadic(raw[0]), as_dyadic(raw[1])) if pairs else as_dyadic(raw)
    except (TypeError, ValueError):
        what = "a pair of dyadics" if pairs else "a dyadic"
        raise StrategyFault("II", f"answer {raw!r} is not {what}") from None


def _full(tree: TreeSpec) -> bool:
    """Whether the tree is full.  Only then is a lasso's witness sure to be a
    branch of it: the lasso key leaves out where the prefix stands."""
    return tree.alphabet is not None or tree.all_naturals


def _tables(kind: GameKind, sI: StrategyI, sII: StrategyII) -> bool:
    """Whether both players are exactly table classes (TABLE_TYPES) and the
    tree is full.  Then the first repeat of the joint key fixes every later
    round: each repeats a round of the cycle, with the same moves and so no
    fault."""
    return (type(sI) in TABLE_TYPES and type(sII) in TABLE_TYPES
            and type(kind.tree) is TreeSpec and _full(kind.tree))


def play(kind: GameKind, sI: StrategyI, sII: StrategyII, horizon: int,
         stop_after_lasso: Optional[int] = None) -> RunTrace:
    """Run the game round by round, recording moves, faults, and the lasso.

    The joint key recorded before each round is (I state, II state, last
    announcement); the first repeat fixes the lasso, whose start is then
    rolled back as far as the recorded columns stay periodic.  By default
    the run continues to the horizon; stop_after_lasso=k cuts it k periods
    past the detection point instead.  The tree is asked only whether the
    new letter may follow the letters so far (TreeSpec.admits), which full
    trees answer without reading the prefix.

    Between two table players on a full tree (_tables), the round loop
    stops at the repeat and leaves both players in the state a full run
    would reach; the trace keeps the rounds up to the repeat and the round
    count, and move is called no more.
    """
    columns, lasso, fault, n = _rounds(
        kind, sI, sII, min(horizon, MAX_TRACE_ROUNDS), stop_after_lasso,
        _tables(kind, sI, sII))
    return RunTrace(kind, tuple(columns[0]), tuple(columns[1]),
                    tuple(columns[2]) if kind.uses_pairs else None,
                    lasso, fault, len(columns[1]) + n if n else None)


def _rounds(kind: GameKind, sI: StrategyI, sII: StrategyII, stop_at: int,
            stop_after_lasso: Optional[int], tables: bool):
    """play's round loop: (columns, lasso, fault, n).  Between two table
    players on a full tree (_tables) the first repeat of the joint key fixes
    every later round, so the loop stops there: n counts the rounds the
    cycle repeats up to the stop round, and both players are left where
    those rounds would leave them.  Else n is 0."""
    sI.reset()
    sII.reset()
    # per-game invariants, looked up once instead of once a round
    pairs = kind.uses_pairs
    allowed = kind.restriction
    admits = kind.tree.admits
    move_i, move_ii = sI.move, sII.move
    key_i, key_ii = sI.state_key, sII.state_key
    letters, values, covalues = [], [], []
    columns = (letters, values, covalues) if pairs else (letters, values)
    seen: Dict[object, int] = {}
    last = None
    lasso = None
    fault = None
    t = 0
    while t < stop_at:
        if lasso is None:
            try:
                first = seen.setdefault((key_i(), key_ii(), last), t)
            except TypeError:
                first = t  # an unhashable key neither closes nor opens a lasso
            if first != t:
                period = t - first
                lasso = (periodic_start(columns, first, period), period)
                if stop_after_lasso is not None:
                    stop_at = min(stop_at, t + stop_after_lasso * period)
                if tables:
                    # seen holds one key a round, in round order, and a table
                    # player's key is its state q; n rounds on, the players
                    # stand n % period rounds into the cycle
                    n = max(0, stop_at - t)
                    q_i, q_ii, _ = next(islice(seen, first + n % period, None))
                    sI.skip(q_i, n, period)
                    sII.skip(q_ii, n, period)
                    return columns, lasso, None, n
                if stop_at <= t:
                    break
        try:
            letter = move_i(last)
            # exact ints only: a bool or another int subclass is no letter
            if type(letter) is not int or letter < 0:
                raise StrategyFault("I", f"letter {letter!r} is not a natural")
            if not admits(letters, letter):
                raise StrategyFault("I", f"letter {letter} leaves the tree")
            raw = move_ii(letter)
            if not pairs:
                if type(raw) is not Dyadic:
                    raw = _coerce_answer(kind, raw)
                if allowed is not None and not allowed.contains(raw):
                    raise StrategyFault("II", f"value {raw} outside the allowed set")
            elif not (type(raw) is tuple and len(raw) == 2
                      and type(raw[0]) is Dyadic and type(raw[1]) is Dyadic):
                raw = _coerce_answer(kind, raw)
        except StrategyFault as exc:
            fault = FaultRecord(exc.blame, t, exc.detail)
            break
        letters.append(letter)
        if pairs:
            values.append(raw[0])
            covalues.append(raw[1])
        else:
            values.append(raw)
        last = raw
        t += 1
    return columns, lasso, fault, 0


Payoff = Union[NodeAutomaton, object]


def payoff_value(payoff: Payoff, x: EventuallyPeriodicBranch) -> Dyadic:
    if isinstance(payoff, NodeAutomaton):
        return eval_limsup(payoff, x)
    if hasattr(payoff, "value_on"):
        return payoff.value_on(x)
    if callable(payoff):
        return as_dyadic(payoff(x))
    raise TypeError(f"cannot evaluate payoff {payoff!r}")


class Outcome(str, Enum):
    WIN_I = "WinI"
    WIN_II = "WinII"
    UNDECIDED = "UndecidedAtHorizon"


class Verdict(_Record):
    """How a game is decided: the outcome and why, at which cap; for a
    lasso its witness branch, the payoff there, the cycle's limsup of
    values and, in the pair game, its liminf of covalues; for a fault its
    record; for an undecided game the window diagnostics.  The hash leaves
    out diagnostics, a dict."""

    __slots__ = ("_outcome", "_reason", "_horizon", "_lasso", "_witness",
                 "_fault", "_payoff_of_witness", "_limsup_value",
                 "_liminf_covalue", "_diagnostics")

    def __init__(self, outcome: Outcome, reason: str, horizon: int,
                 lasso: Optional[Tuple[int, int]] = None,
                 witness: Optional[EventuallyPeriodicBranch] = None,
                 fault: Optional[FaultRecord] = None,
                 payoff_of_witness: Optional[Dyadic] = None,
                 limsup_value: Optional[Dyadic] = None,
                 liminf_covalue: Optional[Dyadic] = None,
                 diagnostics: Optional[dict] = None):
        self._outcome = outcome
        self._reason = reason
        self._horizon = horizon
        self._lasso = lasso
        self._witness = witness
        self._fault = fault
        self._payoff_of_witness = payoff_of_witness
        self._limsup_value = limsup_value
        self._liminf_covalue = liminf_covalue
        self._diagnostics = {} if diagnostics is None else diagnostics

    def __hash__(self) -> int:
        return hash(self._fields()[:-1])

    @property
    def exact(self) -> bool:
        return self.outcome is not Outcome.UNDECIDED

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "reason": self.reason,
            "horizon": self.horizon,
            "lasso": None if self.lasso is None else
                {"start": self.lasso[0], "period": self.lasso[1]},
            "witness": None if self.witness is None else str(self.witness),
            "fault": None if self.fault is None else self.fault.to_json_dict(),
            "payoff_of_witness":
                None if self.payoff_of_witness is None else str(self.payoff_of_witness),
            "limsup_value":
                None if self.limsup_value is None else str(self.limsup_value),
            "liminf_covalue":
                None if self.liminf_covalue is None else str(self.liminf_covalue),
            "diagnostics": self.diagnostics,
        }


def _fault_verdict(fault: FaultRecord, horizon: int) -> Verdict:
    winner = Outcome.WIN_I if fault.blame == "II" else Outcome.WIN_II
    return Verdict(winner, f"player {fault.blame} fault", horizon,
                   fault=fault)


def _lasso_verdict(columns: Tuple, lasso: Tuple[int, int], payoff: Payoff,
                   horizon: int) -> Verdict:
    """The verdict read off a lasso of the columns: letters, values, then
    covalues in the pair game."""
    start, period = lasso
    end = start + period
    letters = columns[0]
    witness = EventuallyPeriodicBranch(tuple(letters[:start]),
                                       tuple(letters[start:end]))
    f = payoff_value(payoff, witness)
    limsup_v = max(columns[1][start:end])
    liminf_w = None
    ok = (f == limsup_v)
    if len(columns) == 3:
        liminf_w = min(columns[2][start:end])
        ok = ok and (f == liminf_w)
    outcome = Outcome.WIN_II if ok else Outcome.WIN_I
    return Verdict(outcome, "lasso-certified", horizon, lasso, witness,
                   None, f, limsup_v, liminf_w)


def _window_diagnostics(columns: Tuple, sI: StrategyI,
                        sII: StrategyII) -> dict:
    half = len(columns[1]) // 2
    vs = columns[1][half:]
    diag = {"window_rounds": len(vs)}
    if vs:
        diag["value_max"] = str(max(vs))
        diag["value_min"] = str(min(vs))
        if len(columns) == 3:
            ws = columns[2][half:]
            diag["covalue_max"] = str(max(ws))
            diag["covalue_min"] = str(min(ws))
    diag["counters_I"] = sI.counters()
    diag["counters_II"] = sII.counters()
    return diag


def exact_verdict(kind: GameKind, sI: StrategyI, sII: StrategyII,
                  payoff: Payoff, cap: int = 50000) -> Verdict:
    """Play to a fault, a certified lasso, or the cap.

    Exact outcomes need either a fault or a lasso on a full tree between
    two strategies that both declare finite state; anything else is
    UndecidedAtHorizon with tail-window diagnostics and the strategies' own
    counters.  The verdict comes from play's round loop (_rounds), cut one
    period past the lasso, with no trace.  Between two table players on a
    full tree the loop stops at the first repeat: the verdict rests on the
    tables, and the players are left where play(..., stop_after_lasso=1)
    leaves them.
    """
    exact = sI.finite_state and sII.finite_state and _full(kind.tree)
    # undecided diagnostics read every round, so only exact verdicts stop at
    # a table lasso
    columns, lasso, fault, _ = _rounds(kind, sI, sII, min(cap, MAX_TRACE_ROUNDS),
                                       1, exact and _tables(kind, sI, sII))
    if fault is not None:
        return _fault_verdict(fault, cap)
    if lasso is not None and exact:
        return _lasso_verdict(columns, lasso, payoff, cap)
    diag = _window_diagnostics(columns, sI, sII)
    if lasso is not None:
        diag["unclaimed_lasso"] = {"start": lasso[0], "period": lasso[1]}
    return Verdict(Outcome.UNDECIDED, "no certified lasso within cap", cap,
                   diagnostics=diag)


def check_win(trace: RunTrace, payoff: Payoff) -> Verdict:
    """Re-derive the verdict from a recorded trace alone.

    Fault traces settle by blame.  Lasso traces must lie on a full tree and
    exhibit at least one full repeated period in their columns; any
    deviation raises CertificateMismatchError, naming the first row that
    breaks the period.  Works for strategies of any declared state size
    since only the recorded columns are consulted.
    """
    horizon = trace.rounds
    if trace.fault is not None:
        return _fault_verdict(trace.fault, horizon)
    if trace.lasso is None:
        raise ValueError("trace carries neither fault nor lasso")
    start, period = trace.lasso
    if start < 0 or period < 1:
        raise CertificateMismatchError(f"malformed lasso ({start}, {period})")
    if not _full(trace.kind.tree):
        raise CertificateMismatchError("a lasso certifies only on a full tree")
    if horizon < start + 2 * period:
        raise CertificateMismatchError(
            f"trace too short to witness lasso ({start}, {period})")
    # the stored columns: the rounds past them repeat their last period, so
    # the whole run breaks the period iff they do, and first at the same row
    cols = trace._columns
    n = len(cols[1])
    if (len(cols) == 3) != trace.kind.uses_pairs:
        raise CertificateMismatchError("trace covalues do not fit its game")
    if any(len(c) != n for c in cols):
        raise CertificateMismatchError("trace columns differ in length")
    if any(c[start:n - period] != c[start + period:] for c in cols):
        t = next(t for t in range(start, n - period)
                 if any(c[t] != c[t + period] for c in cols))
        raise CertificateMismatchError(f"row {t} breaks period {period}")
    return _lasso_verdict(cols, trace.lasso, payoff, horizon)
