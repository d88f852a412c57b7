"""Acceptance criteria: fixed-size corpora, exact expectations, wall budgets.

Every check is an exact dyadic equality; a criterion passes only if all its
checks hold and it finishes inside its budget.  run_all executes the eight
criteria in name order with independent seeded substreams.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, List, NamedTuple

from .construction import (ConstructionState, algebra, scan_bound,
                           verify_construction)
from .corpus import (DEFAULT_SEED, automaton_corpus, baire_pair_fixtures,
                     branch_corpus, certify_pair, letter_fsm_corpus,
                     pair_fsm_corpus, random_automaton, rng_stream,
                     value_fsm_corpus)
from .dyadic import Dyadic, half_pow
from .families import discretize, family_from_automaton
from .games import (Outcome, check_win, exact_verdict, finite_value_set,
                    gamma, gamma_prime, play)
from .strategies import (ConstantII, IndicatorPayoff, SpiralEnumeration,
                         approx_copycat, copycat_strategy,
                         eventually_zero_instance,
                         indicator_oscillation_instance, lift_strategy,
                         pair_strategies, strategy_i_meager_dense,
                         strategy_i_oscillation, strategy_ii_from_u)
from .trees import binary_tree, nat_tree


class CriterionResult(NamedTuple):
    name: str
    passed: bool
    details: str
    count: int
    seconds: float
    budget: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"{mark} {self.name}: {self.details} "
                f"[{self.count} checks, {self.seconds:.2f}s / {self.budget:.0f}s]")


Check = Callable[[bool, str], bool]


def _run(name: str, budget: float, body: Callable[[Check], None]) -> CriterionResult:
    """Run body with a check(ok, msg) tally: each call counts one check,
    records msg when ok is false, and returns ok."""
    count = 0
    problems: List[str] = []

    def check(ok: bool, msg: str) -> bool:
        nonlocal count
        count += 1
        if not ok:
            problems.append(msg)
        return ok

    start = time.perf_counter()
    try:
        body(check)
        seconds = time.perf_counter() - start
        ok = not problems and seconds < budget
        if problems:
            detail = f"{len(problems)} failures, first: {problems[0]}"
        elif seconds >= budget:
            detail = "over budget"
        else:
            detail = "all exact"
        return CriterionResult(name, ok, detail, count, seconds, budget)
    except Exception:
        seconds = time.perf_counter() - start
        tail = traceback.format_exc().strip().splitlines()[-1]
        return CriterionResult(name, False, f"error: {tail}", 0, seconds, budget)


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Value responders win the one-sided game against every opponent."""

    def body(check):
        machines = automaton_corpus(seed, 100, max_states=4, span=2, max_exp=3)
        opponents = letter_fsm_corpus(seed, 20, max_states=3)
        kind = gamma(binary_tree())
        for i, u in enumerate(machines):
            sII = strategy_ii_from_u(u)
            for j, sI in enumerate(opponents):
                v = exact_verdict(kind, sI, sII, u, cap=5000)
                check(v.outcome is Outcome.WIN_II and v.exact,
                      f"machine {i} vs opponent {j}: {v.outcome.value}")
            # lasso soundness: replaying three extra periods past the lasso
            # start must stay on the certified cycle (check_win re-verifies)
            tr = play(kind, opponents[i % len(opponents)], sII, 5000,
                      stop_after_lasso=3)
            if tr.lasso is None:
                check(False, f"machine {i}: no lasso in replay")
                continue
            w = check_win(tr, u)
            check(w.outcome is Outcome.WIN_II,
                  f"machine {i}: replay verdict {w.outcome.value}")

    return _run("c1_responder_always_wins", 10.0, body)


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Constructed labels: exact branch sweep against black-box limsups, plus
    a dumb grid scan of the threshold sets on every short prefix.

    The scan tests every sixty-fourth in [-8, 8] against the defining
    conditions on level infima; the construction must sit exactly one grid
    step above the scan's best member.  Scanning downward is sound because
    the first admissible value met from above is the maximum.
    """

    def body(check):
        machines = automaton_corpus(seed, 50, max_states=3, span=4, max_exp=2)
        tree = binary_tree()
        branches = branch_corpus(3, 3)
        prefixes = [()]
        frontier = [()]
        for _ in range(4):
            frontier = [s + (a,) for s in frontier for a in (0, 1)]
            prefixes.extend(frontier)

        def to64(ext):
            v = ext.require_finite()
            return v.num << (6 - v.exp)

        for i, u in enumerate(machines):
            fam = discretize(family_from_automaton(u, tree))
            for r in verify_construction(fam, branches).rows:
                check(r.equal and not r.inconclusive,
                      f"machine {i} on {r.branch}: got {r.got}, "
                      f"expected {r.expected}")
            state = ConstructionState(fam)
            for s in prefixes:
                got = state.u(s)
                bound = scan_bound(fam, s) + 4
                a_int = [to64(fam.node_inf(n, s)) for n in range(bound + 1)]
                p_int = None if not s else \
                    [to64(fam.node_inf(n, s[:-1])) for n in range(bound + 1)]
                inf_int = to64(fam.inf_all(s))
                best = None
                for r in range(min(512, max(a_int) - 1), -513, -1):
                    ok = r < inf_int
                    if not ok:
                        for n in range(bound + 1):
                            if r < a_int[n] and (p_int is None or p_int[n] <= r):
                                ok = True
                                break
                    if ok:
                        best = r
                        break
                if best is None:
                    check(got == Dyadic(-len(s)),
                          f"machine {i} at {s}: empty scan, got {got}")
                else:
                    check(got == Dyadic(best + 1, 6), f"machine {i} at {s}: "
                          f"got {got}, scan max {Dyadic(best, 6)}")

    return _run("c2_threshold_construction_grid", 60.0, body)


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Sum/min/max of two machine payoffs via the joint construction equals
    the pointwise combination on a branch sweep."""

    def body(check):
        rng = rng_stream(seed, "algebra-pairs")
        pairs = [(random_automaton(rng, 3, 2, 2), random_automaton(rng, 3, 2, 2))
                 for _ in range(50)]
        branches = branch_corpus(3, 3)
        for i, (u1, u2) in enumerate(pairs):
            for op in ("sum", "min", "max"):
                af = algebra(u1, u2, op)
                for x in branches:
                    got = af.value_on(x)
                    want = af.expected_on(x)
                    check(got == want,
                          f"pair {i} {op} on {x}: got {got}, want {want}")

    return _run("c3_algebra_three_ops", 60.0, body)


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Switching attacker: the hand trace, the divergent run, and the
    instance invariants along recorded histories."""

    def body(check):
        inst = eventually_zero_instance()
        kind = gamma(binary_tree())
        payoff = IndicatorPayoff()

        # stalled run against the constant 29/32 responder
        md = strategy_i_meager_dense(inst)
        tr = play(kind, md, ConstantII(Dyadic(29, 5)), 400)
        check(tr.letters[:8] == (0, 1, 1, 1, 1, 1, 0, 0),
              f"trace letters {tr.letters[:8]}")
        check(md.m == 4, f"final m {md.m}")
        check(md.switches == 4, f"switches {md.switches}")
        check(tr.lasso == (6, 1), f"lasso {tr.lasso}")
        w = check_win(tr, payoff)
        check(w.outcome is Outcome.WIN_I, f"stalled verdict {w.outcome.value}")
        check(w.payoff_of_witness == Dyadic(1) and w.limsup_value == Dyadic(29, 5),
              "stalled witness values")
        md_u = strategy_i_meager_dense(inst)
        und = exact_verdict(kind, md_u, ConstantII(Dyadic(29, 5)), payoff, cap=400)
        check(und.outcome is Outcome.UNDECIDED, "declared-unbounded exactness")
        check(und.diagnostics.get("counters_I", {}).get("m") == 4,
              "diagnostics m counter")

        # divergent run against the constant 1 responder
        md1 = strategy_i_meager_dense(inst)
        play(kind, md1, ConstantII(Dyadic(1)), 1000)
        m_1000 = md1.m
        md2 = strategy_i_meager_dense(inst)
        tr2 = play(kind, md2, ConstantII(Dyadic(1)), 2000)
        check(tr2.lasso is None, "divergent run found a lasso")
        check(md2.m - m_1000 >= 5, f"index growth {m_1000} -> {md2.m}")

        # invariants along histories, stalled plus a few seeded opponents
        runs = [(md, tr)]
        for fsm in value_fsm_corpus(seed, 5, max_states=3):
            mdr = strategy_i_meager_dense(inst)
            trr = play(kind, mdr, fsm, 300)
            runs.append((mdr, trr))
        for mdx, trx in runs:
            letters = trx.letters
            hist = mdx.history
            for k, ev in enumerate(hist):
                prefix = letters[:ev.round_index]
                check(ev.m == k, f"piece index not consecutive at event {k}")
                # the target is the switch prefix followed by the tail
                check(ev.prefix_len == ev.round_index,
                      "tail not anchored at the switch round")
                target = letters[:ev.prefix_len] + ev.tail.first(40)
                check(any(target[t] == 1
                          for t in range(ev.m + 1, ev.prefix_len + 40)),
                      f"target not disjoint from pieces 0..{ev.m}")
                if k > 0:
                    prev_v = trx.values[ev.round_index - 1]
                    check(inst.r - half_pow(ev.m - 1) < prev_v,
                          f"value condition failed at event {k}")
                    check(inst.s_disjoint(prefix, ev.m - 1),
                          f"disjointness failed at event {k}")

    return _run("c4_meager_dense_attack", 5.0, body)


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Oscillating attacker: alternation trace, stall trace, and exact wins
    against every small pair machine."""

    def body(check):
        inst = indicator_oscillation_instance()
        kind = gamma_prime(binary_tree())

        # perpetual triggering against (1, 0)
        osc = strategy_i_oscillation(inst)
        v = exact_verdict(kind, osc, ConstantII(Dyadic(1), Dyadic(0)), inst.payoff)
        check(v.outcome is Outcome.WIN_I and v.exact, f"(1,0) verdict {v.outcome.value}")
        osc_tr = strategy_i_oscillation(inst)
        tr = play(kind, osc_tr, ConstantII(Dyadic(1), Dyadic(0)), 2000)
        check(osc_tr.trigger_rounds[:10] == list(range(1, 11)),
              f"trigger rounds {osc_tr.trigger_rounds[:10]}")
        # each even-phase trigger saw the value crowd the sup, each odd-phase
        # trigger saw the covalue crowd the inf
        for idx, r in enumerate(osc_tr.trigger_rounds[:10]):
            if idx % 2 == 0:
                check(inst.sup_f - tr.values[r - 1] < inst.epsilon,
                      f"even trigger {idx} gap too wide")
            else:
                check(tr.covalues[r - 1] - inst.inf_f < inst.epsilon,
                      f"odd trigger {idx} gap too wide")
        # the value that fired an even-phase trigger clears the covalue that
        # fired the next one by at least epsilon, for every completed stage
        trig = osc_tr.trigger_rounds
        for k in range(0, len(trig) - 1, 2):
            vk = tr.values[trig[k] - 1]
            wk = tr.covalues[trig[k + 1] - 1]
            check(vk >= wk + inst.epsilon,
                  f"stage {k}: value {vk} does not clear covalue {wk}")

        # stall against (1/2, 1/2)
        osc2 = strategy_i_oscillation(inst)
        v2 = exact_verdict(kind, osc2, ConstantII(Dyadic(1, 1), Dyadic(1, 1)),
                           inst.payoff)
        check(v2.outcome is Outcome.WIN_I and v2.exact and v2.lasso[1] == 1,
              f"(1/2,1/2) verdict {v2.outcome.value} lasso {v2.lasso}")
        check(v2.payoff_of_witness == Dyadic(1) and v2.limsup_value == Dyadic(1, 1),
              "(1/2,1/2) witness values")

        # every small pair machine loses, exactly when lassoed; an undecided
        # run must at least show the opponent stalled a full epsilon away
        # from the trigger line over the diagnostic window
        for j, fsm in enumerate(pair_fsm_corpus(seed, 20, max_states=2)):
            oscj = strategy_i_oscillation(inst)
            vj = exact_verdict(kind, oscj, fsm, inst.payoff, cap=5000)
            if vj.exact:
                check(vj.outcome is Outcome.WIN_I,
                      f"pair opponent {j}: {vj.outcome.value} ({vj.reason})")
            else:
                diag = vj.diagnostics
                vmax = Dyadic.parse(diag.get("value_max", "0/2^0"))
                wmin = Dyadic.parse(diag.get("covalue_min", "0/2^0"))
                check(inst.sup_f - vmax >= inst.epsilon
                      or wmin - inst.inf_f >= inst.epsilon,
                      f"pair opponent {j}: undecided without a stall gap")

    return _run("c5_oscillation_attack", 10.0, body)


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Two-sided certificates from prefix-table pairs beat every opponent."""

    def body(check):
        fixtures = baire_pair_fixtures(seed, 20)
        branches = branch_corpus(3, 3)
        opponents = letter_fsm_corpus(seed + 1, 10, max_states=3)
        kind = gamma_prime(binary_tree())
        for i, fx in enumerate(fixtures):
            if not check(certify_pair(fx.u_f, fx.u_neg, branches),
                         f"fixture {i}: negation certificate failed"):
                continue
            for j, sI in enumerate(opponents):
                pr = pair_strategies(strategy_ii_from_u(fx.u_f),
                                     strategy_ii_from_u(fx.u_neg))
                v = exact_verdict(kind, sI, pr, fx.u_f, cap=5000)
                check(v.outcome is Outcome.WIN_II and v.exact,
                      f"fixture {i} vs opponent {j}: {v.outcome.value}")

    return _run("c6_two_sided_pairs", 20.0, body)


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Lifting a restricted-answer strategy into the unrestricted game:
    replaying the rounded value stream through the original strategy gives
    the same letters bit for bit, and cycle limsups already in the answer
    set survive the rounding."""

    def body(check):
        R = finite_value_set([0, 1])
        bases = letter_fsm_corpus(seed, 5, max_states=3)
        opponents = value_fsm_corpus(seed + 2, 20, max_states=3)
        kind = gamma(binary_tree())
        for i, base in enumerate(bases):
            for j, opp in enumerate(opponents):
                lifted = lift_strategy(base, R)
                tr = play(kind, lifted, opp, 200)
                if tr.fault is not None:
                    check(False, f"base {i} vs opp {j}: {tr.fault.detail}")
                    continue
                base.reset()
                letters = [base.move(None)]
                for v in tr.values[:-1]:
                    letters.append(base.move(R.nearest(v)))
                check(tuple(letters) == tr.letters,
                      f"base {i} vs opp {j}: replay diverged")
                if tr.lasso is None:
                    check(False, f"base {i} vs opp {j}: no lasso recorded")
                    continue
                start, period = tr.lasso
                cyc = tr.values[start:start + period]
                raw = max(cyc)
                if R.contains(raw):
                    check(max(R.nearest(v) for v in cyc) == raw,
                          f"base {i} vs opp {j}: rounding moved the limsup")

    return _run("c7_lift_restricted", 5.0, body)


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Copycat identities: exact echo wins on natural announcements, and the
    indexed approximation stays within its per-round tolerance."""

    def body(check):
        kind = gamma(nat_tree())

        def limsup_letters(x):
            return Dyadic(max(x.cycle))

        for j, fsm in enumerate(value_fsm_corpus(seed, 10, max_states=3,
                                                 natural=True)):
            cc = copycat_strategy()
            v = exact_verdict(kind, cc, fsm, limsup_letters, cap=2000)
            check(v.outcome is Outcome.WIN_II and v.exact,
                  f"copycat vs fsm {j}: {v.outcome.value}")
            tr = play(kind, copycat_strategy(), fsm, 60)
            check(all(x == v.num for x, v in zip(tr.letters[1:], tr.values)),
                  f"echo identity broke vs fsm {j}")

        enum = SpiralEnumeration()
        for j, fsm in enumerate(value_fsm_corpus(seed + 4, 10, max_states=3)):
            tr = play(kind, approx_copycat(enum), fsm, 40)
            check(len(tr.values) == 40, f"approx run {j} truncated")
            for t in range(1, len(tr.values)):
                q = enum.value(tr.letters[t])
                prev = tr.values[t - 1]
                check(abs(q - prev) <= half_pow(t - 1),
                      f"approx bound broke at round {t} vs fsm {j}")

    return _run("c8_copycat_identities", 5.0, body)


ALL_CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
                criterion_5, criterion_6, criterion_7, criterion_8)


def run_all(seed: int = DEFAULT_SEED) -> List[CriterionResult]:
    results = [c(seed) for c in ALL_CRITERIA]
    return sorted(results, key=lambda r: r.name)
