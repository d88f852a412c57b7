"""Exact limsup games on pruned trees: representations, constructions,
strategies, and lasso-certified verdicts."""

from .automata import (NodeAutomaton, eval_limsup, lasso_summary,
                       make_automaton, minmax_value)
from .construction import (ALGEBRA_OPS, AlgebraFunction, ConstructionReport,
                           ConstructionState, InconclusiveLassoError, algebra,
                           branch_limsup, construct_u, minimize_labeling,
                           verify_construction)
from .dyadic import NEG_INF, POS_INF, Dyadic, ExtValue, as_dyadic, half_pow
from .families import (GridLscFamily, discretize, family_from_automaton,
                       family_from_kernel)
from .games import (FiniteValueSet, GameKind, Outcome, RunTrace, StrategyFault,
                    StrategyI, StrategyII, Verdict, check_win, exact_verdict,
                    finite_value_set, gamma, gamma_prime, gamma_restricted,
                    play)
from .strategies import (approx_copycat, copycat_strategy, lift_strategy,
                         pair_strategies, relabel_strategy,
                         strategy_i_meager_dense, strategy_i_oscillation,
                         strategy_ii_from_u)
from .trees import (EventuallyPeriodicBranch, TreeSpec, binary_tree,
                    full_tree, nat_tree, parse_branch)

__version__ = "0.1.0"


def __getattr__(name: str):
    # lazy, so `python -m limsupgames.cli` finds no cli in sys.modules yet
    if name in ("ExperimentConfig", "entry"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALGEBRA_OPS", "AlgebraFunction", "ConstructionReport",
    "ConstructionState", "Dyadic", "EventuallyPeriodicBranch",
    "ExperimentConfig", "ExtValue", "FiniteValueSet", "GameKind",
    "GridLscFamily", "InconclusiveLassoError", "NEG_INF",
    "NodeAutomaton", "Outcome", "POS_INF", "RunTrace", "StrategyFault",
    "StrategyI", "StrategyII", "TreeSpec", "Verdict", "algebra",
    "approx_copycat", "as_dyadic", "binary_tree", "branch_limsup",
    "check_win", "construct_u", "copycat_strategy", "discretize",
    "entry", "eval_limsup", "exact_verdict", "family_from_automaton",
    "family_from_kernel", "finite_value_set", "full_tree", "gamma",
    "gamma_prime", "gamma_restricted", "half_pow", "lasso_summary",
    "lift_strategy", "make_automaton", "minimize_labeling",
    "minmax_value", "nat_tree", "pair_strategies", "parse_branch",
    "play", "relabel_strategy", "strategy_i_meager_dense",
    "strategy_i_oscillation", "strategy_ii_from_u", "verify_construction",
]
