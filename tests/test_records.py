"""The plain record classes are NamedTuples, and Verdict and RunTrace
slotted records: they compare, hash, refuse assignment and print as the
frozen dataclasses they replaced did."""

import pytest

from limsupgames.acceptance import CriterionResult
from limsupgames.automata import LassoSummary
from limsupgames.construction import (AlgebraFunction, BranchCheck,
                                      ConstructionReport)
from limsupgames.corpus import PairFixture
from limsupgames.dyadic import Dyadic
from limsupgames.games import (FaultRecord, Outcome, RunTrace, Verdict,
                               exact_verdict, gamma, gamma_prime, payoff_value)
from limsupgames.strategies import (ConstantII, IndicatorPayoff, LetterFSM,
                                    MeagerDenseInstance, OscillationInstance,
                                    ValueFSM, copycat_strategy)
from limsupgames.trees import EventuallyPeriodicBranch, binary_tree, nat_tree

X = EventuallyPeriodicBranch((1,), (0,))


CHECK = BranchCheck(X, Dyadic(1), Dyadic(1), True, False)

# each record class with one instance's fields, in the dataclass's field
# order; every field value is hashable and compares by value or identity
RECORDS = {
    LassoSummary: dict(start=1, period=2, transient_outputs=(Dyadic(0),),
                       cycle_outputs=(Dyadic(1), Dyadic(1, 1))),
    BranchCheck: dict(branch=X, expected=Dyadic(1), got=None, equal=False,
                      inconclusive=True),
    ConstructionReport: dict(rows=(CHECK,), label="algebra:sum",
                             machine="machine"),
    AlgebraFunction: dict(op="min", factors=("u1", "u2"), family="fam",
                          state="state"),
    PairFixture: dict(table=((Dyadic(1), Dyadic(0)), (Dyadic(0), Dyadic(1))),
                      u_f="u_f", u_neg="u_neg"),
    FaultRecord: dict(blame="II", round_index=4, detail="left the tree"),
    RunTrace: dict(kind=gamma(binary_tree()), letters=(0, 1),
                   values=(Dyadic(1), Dyadic(0)), covalues=None,
                   lasso=(0, 2), fault=None),
    MeagerDenseInstance: dict(tree=binary_tree(), r=Dyadic(1),
                              s_disjoint=max, pick_y=min,
                              prefix_digest=len, label="eventually-zero"),
    OscillationInstance: dict(tree=binary_tree(), sup_f=Dyadic(1),
                              inf_f=Dyadic(0), epsilon=Dyadic(1, 3),
                              high=X, low=X, payoff="payoff",
                              label="oscillation"),
    CriterionResult: dict(name="c1", passed=True, details="all exact",
                          count=7, seconds=0.5, budget=10.0),
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_record_compares_hashes_freezes_and_prints_as_before(cls):
    fields = RECORDS[cls]
    rec, twin = cls(**fields), cls(*fields.values())
    assert rec == twin and hash(rec) == hash(twin) and rec
    assert [getattr(rec, name) for name in fields] == list(fields.values())
    first = next(iter(fields))
    assert rec != rec._replace(**{first: "changed"})
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    with pytest.raises(AttributeError):
        rec.extra = 0
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(rec) == f"{cls.__name__}({shown})"


def test_record_defaults_and_methods_survive():
    trace = RunTrace(gamma(binary_tree()), (0,), (Dyadic(1),))
    assert (trace.covalues, trace.lasso, trace.fault) == (None, None, None)
    assert [r.value for r in trace.rows] == [Dyadic(1)]
    summary = LassoSummary(**RECORDS[LassoSummary])
    assert summary.limsup == Dyadic(1)
    report = ConstructionReport(**RECORDS[ConstructionReport])
    assert report.all_equal
    assert report.summary() == "equal on all 1 corpus branches"
    fault = FaultRecord(**RECORDS[FaultRecord])
    assert fault.to_json_dict() == \
        {"blame": "II", "round": 4, "detail": "left the tree"}
    fields = dict(RECORDS[MeagerDenseInstance])
    del fields["label"]
    assert MeagerDenseInstance(**fields).label == "meager-dense"


def test_indicator_payoff_is_a_truthy_payoff():
    # a plain class: an empty NamedTuple would be falsy
    payoff = IndicatorPayoff()
    assert payoff and payoff.label == "eventually-zero indicator"
    assert payoff_value(payoff, EventuallyPeriodicBranch((1, 1), (0,))) == \
        Dyadic(1)
    assert payoff_value(payoff, EventuallyPeriodicBranch((), (0, 1))) == \
        Dyadic(0)


# a lasso verdict's fields in the frozen dataclass's field order
VERDICT = dict(outcome=Outcome.WIN_II, reason="lasso-certified",
               horizon=50000, lasso=(0, 2),
               witness=EventuallyPeriodicBranch((), (0, 1)), fault=None,
               payoff_of_witness=Dyadic(1), limsup_value=Dyadic(1),
               liminf_covalue=Dyadic(1), diagnostics={})


def test_verdict_compares_hashes_freezes_and_prints_as_before():
    v, twin = Verdict(**VERDICT), Verdict(*VERDICT.values())
    assert v == twin and hash(v) == hash(twin)
    assert [getattr(v, name) for name in VERDICT] == list(VERDICT.values())
    assert v != Verdict(**{**VERDICT, "reason": "changed"})
    assert v != Verdict(**{**VERDICT, "diagnostics": {"window_rounds": 0}})
    for name in VERDICT:
        with pytest.raises(AttributeError):
            setattr(v, name, None)
    with pytest.raises(AttributeError):
        v.extra = 0
    # the frozen dataclass's repr, taken before the change
    assert repr(v) == (
        "Verdict(outcome=<Outcome.WIN_II: 'WinII'>, reason='lasso-certified', "
        "horizon=50000, lasso=(0, 2), "
        "witness=EventuallyPeriodicBranch(stem=(), cycle=(0, 1)), fault=None, "
        "payoff_of_witness=Dyadic(1, 0), limsup_value=Dyadic(1, 0), "
        "liminf_covalue=Dyadic(1, 0), diagnostics={})")


def test_verdicts_do_not_share_a_diagnostics_dict():
    a = Verdict(Outcome.UNDECIDED, "no certified lasso within cap", 3)
    b = Verdict(Outcome.UNDECIDED, "no certified lasso within cap", 3)
    assert a.diagnostics == b.diagnostics == {}
    assert a.diagnostics is not b.diagnostics
    a.diagnostics["window_rounds"] = 1
    assert b.diagnostics == {} and not b.exact and a != b


def test_verdict_json_is_as_before():
    # each literal is the parent's to_json_dict() of the same verdict
    lasso = exact_verdict(gamma_prime(binary_tree()),
                          LetterFSM([1, 0], [[1, 1], [0, 0]]),
                          ConstantII(Dyadic(1), Dyadic(1)), lambda x: Dyadic(1))
    assert lasso.to_json_dict() == {
        "outcome": "WinII", "reason": "lasso-certified", "horizon": 50000,
        "lasso": {"start": 0, "period": 2}, "witness": "stem=;cycle=0,1",
        "fault": None, "payoff_of_witness": "1/2^0",
        "limsup_value": "1/2^0", "liminf_covalue": "1/2^0",
        "diagnostics": {}}
    assert lasso == Verdict(**VERDICT)
    fault = exact_verdict(gamma(binary_tree()), LetterFSM([5], [[0, 0]]),
                          ConstantII(Dyadic(0)), lambda x: Dyadic(0))
    assert fault.to_json_dict() == {
        "outcome": "WinII", "reason": "player I fault", "horizon": 50000,
        "lasso": None, "witness": None,
        "fault": {"blame": "I", "round": 0,
                  "detail": "letter 5 leaves the tree"},
        "payoff_of_witness": None, "limsup_value": None,
        "liminf_covalue": None, "diagnostics": {}}
    undecided = exact_verdict(gamma(nat_tree()), copycat_strategy(),
                              ValueFSM([[1], [2], [0]], [1, 2, 0]),
                              lambda x: Dyadic(0), cap=2)
    assert undecided.to_json_dict() == {
        "outcome": "UndecidedAtHorizon",
        "reason": "no certified lasso within cap", "horizon": 2,
        "lasso": None, "witness": None, "fault": None,
        "payoff_of_witness": None, "limsup_value": None,
        "liminf_covalue": None,
        "diagnostics": {"window_rounds": 1, "value_max": "0/2^0",
                        "value_min": "0/2^0", "counters_I": {"round": 2},
                        "counters_II": {}}}
