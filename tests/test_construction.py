"""Node labeling construction: threshold scans, the construction state's
transducer, branch limsups, the three-operation algebra, and machine
minimization."""

import itertools
from itertools import groupby
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (branch_labels, constant_automaton,
                      letter_output_automaton, reference_expected)
from limsupgames.automata import eval_limsup, lasso_summary, make_automaton
from limsupgames.construction import (ALGEBRA_OPS, ConstructionState,
                                       InconclusiveLassoError, algebra,
                                       apply_op, branch_limsup, construct_u,
                                       minimize_labeling, scan_bound,
                                       verify_construction)
from limsupgames.corpus import (automaton_corpus, branch_corpus,
                                 random_automaton, random_dyadic, rng_stream)
from limsupgames.dyadic import Dyadic
from limsupgames.families import (discretize, family_from_automaton,
                                  family_from_kernel)
from limsupgames.kernels import ProductKernel
from limsupgames.trees import (EventuallyPeriodicBranch, binary_tree, full_tree,
                               nat_tree, parse_branch)

TREE = binary_tree()
BRANCHES = branch_corpus(2, 2)


def prefixes_to(depth):
    out = [()]
    frontier = [()]
    for _ in range(depth):
        frontier = [s + (a,) for s in frontier for a in (0, 1)]
        out.extend(frontier)
    return out


def test_label_matches_strict_threshold_scan():
    # independent oracle: walk the 1/64 grid downward, accept the first
    # value meeting the defining conditions (it is the set's maximum)
    machines = automaton_corpus(21, 6, max_states=3, span=4, max_exp=2)
    for u in machines:
        fam = discretize(family_from_automaton(u, TREE))
        state = ConstructionState(fam)
        for s in prefixes_to(3):
            got = state.u(s)
            bound = scan_bound(fam, s) + 4

            def to64(ext):
                v = ext.require_finite()
                return v.num << (6 - v.exp)

            a_int = [to64(fam.node_inf(n, s)) for n in range(bound + 1)]
            p_int = None if not s else \
                [to64(fam.node_inf(n, s[:-1])) for n in range(bound + 1)]
            inf_int = to64(fam.inf_all(s))
            best = None
            for r in range(512, -513, -1):
                ok = r < inf_int
                if not ok:
                    for n in range(bound + 1):
                        if r < a_int[n] and (p_int is None or p_int[n] <= r):
                            ok = True
                            break
                if ok:
                    best = r
                    break
            assert best is not None
            assert got == Dyadic(best + 1, 6), (u, s)


def test_fast_labeler_matches_generic_scan():
    machines = automaton_corpus(22, 5, max_states=3)
    walks = [parse_branch("stem=;cycle=0,1"),
             parse_branch("stem=1,1,0;cycle=1"),
             parse_branch("stem=0;cycle=1,1,0")]
    for u in machines:
        fam = discretize(family_from_automaton(u, TREE))
        for x in walks:
            labels = branch_labels(fam, x, 24)
            # labels[k] belongs to the prefix of length k + 1
            for k, lab in enumerate(labels):
                assert lab == construct_u(fam, x.first(k + 1)), (u, x, k)


def _kernel_families():
    for u in automaton_corpus(26, 6, max_states=3, span=4, max_exp=2):
        raw = family_from_automaton(u, TREE)
        yield raw
        yield discretize(raw)
    # joint families are the ones whose labels depend on staircase
    # segments inside the prefix
    machines = automaton_corpus(27, 4, max_states=3, span=3, max_exp=2)
    for u1, u2 in zip(machines[::2], machines[1::2]):
        for op in ("sum", "min", "max"):
            yield algebra(u1, u2, op, TREE).family


# stems and cycles longer than the grid exponent (at most 2 here) plus one,
# so the walks leave the short-prefix regime of the staircase summary
LONG_WALKS = [parse_branch("stem=0,1,1,0,1;cycle=1,0,0"),
              parse_branch("stem=1,1,1,0;cycle=0,1,1,0,1"),
              parse_branch("stem=;cycle=0,0,1,0")]


def test_transducer_labels_match_generic_scan_to_40():
    # raw and discretized families of one kernel are labeled in turn in
    # one process, so a memo shared across the flag would show here
    first = {}
    differ = False
    for fam in _kernel_families():
        for x in LONG_WALKS:
            labels = branch_labels(fam, x, 40)
            for k, lab in enumerate(labels):
                assert lab == construct_u(fam, x.first(k + 1)), \
                    (fam.label, x, k)
            differ |= first.setdefault((fam.kernel, x), labels) != labels
            # the audited scan bound, read off the joint orbit, is the
            # largest scan bound over the prefixes out to the horizon
            _, info = branch_limsup(fam, x)
            assert info["max_scan"] == max(
                scan_bound(fam, x.first(n))
                for n in range(1, info["horizon"] + 1)), (fam.label, x)
    assert differ


@st.composite
def small_machines(draw):
    n = draw(st.integers(1, 3))
    steps = [[draw(st.integers(0, n - 1)) for _ in range(2)] for _ in range(n)]
    outs = [[Dyadic(draw(st.integers(-8, 8)), draw(st.integers(0, 2)))
             for _ in range(2)] for _ in range(n)]
    return make_automaton(0, steps, outs)


@settings(max_examples=150, deadline=None)
@given(small_machines(), small_machines(), st.sampled_from(["sum", "min", "max"]),
       st.lists(st.integers(0, 1), max_size=8),
       st.lists(st.integers(0, 1), min_size=1, max_size=6))
def test_branch_limsup_is_op_of_limsups(u1, u2, op, stem, cycle):
    x = EventuallyPeriodicBranch(tuple(stem), tuple(cycle))
    value, _ = branch_limsup(algebra(u1, u2, op, TREE).family, x)
    assert value == apply_op(op, eval_limsup(u1, x), eval_limsup(u2, x))


def test_construction_state_matches_generic_scan():
    # the per-prefix segment labels against the level scan
    prefixes = prefixes_to(7)
    for fam in _kernel_families():
        state = ConstructionState(fam)
        for s in prefixes:
            assert state.u(s) == construct_u(fam, s), (fam.label, s)


def test_empty_threshold_set_labels_by_depth(drop_family):
    fam = drop_family
    for s in [(), (0,), (1, 0), (0, 1, 1, 0)]:
        assert construct_u(fam, s) == Dyadic(-len(s))


def constant_family(c):
    return family_from_automaton(constant_automaton(c), TREE)


def test_constant_family_construction():
    c = Dyadic(5, 3)
    fam = constant_family(c)
    report = verify_construction(fam, BRANCHES, target_fn=lambda x: c)
    assert report.all_equal
    for row in report.rows:
        assert row.got == c == row.expected
    value, info = branch_limsup(fam, parse_branch("stem=0;cycle=1"))
    assert value == c
    assert info["period"] >= 1


def test_rstar_and_level_sups_on_constant():
    c = Dyadic(-1, 1)
    fam = constant_family(c)
    # the persistent threshold set's sup is the infimum over all levels
    assert fam.inf_all((0, 1)).require_finite() == c
    # away from the root the level intervals are empty: parent and child
    # infima coincide; at the root the interval reaches up to c
    assert fam.node_inf(0, (0,)) == fam.node_inf(0, ())
    assert fam.node_inf(0, ()).require_finite() == c
    state = ConstructionState(fam)
    for s in [(), (0,), (0, 1)]:
        assert state.u(s) == construct_u(fam, s) == c


def test_branch_limsup_matches_machine():
    machines = automaton_corpus(23, 8, max_states=3)
    for u in machines:
        fam = discretize(family_from_automaton(u, TREE))
        for x in BRANCHES:
            value, _ = branch_limsup(fam, x)
            assert value == eval_limsup(u, x), (u, x)


def test_branch_limsup_cap_raises():
    u = letter_output_automaton()
    fam = discretize(family_from_automaton(u, TREE))
    with pytest.raises(InconclusiveLassoError):
        branch_limsup(fam, parse_branch("stem=0,1,0,1,1;cycle=1,0"), cap=3)


def joint_orbit_info(fam, x, cap=4096):
    """branch_limsup's audit info from a walk of its own: the (branch
    phase, joint kernel state) orbit stepped with the kernel, and the
    largest scan bound over the prefixes out to the horizon."""
    ker = fam.kernel
    end = len(x.stem) + len(x.cycle)
    seen = {}
    t, J = 0, ker.initial
    while (t, J) not in seen:
        seen[(t, J)] = len(seen)
        J = ker.edge(J, x.letter_at(t))[0]
        t = t + 1 if t + 1 < end else len(x.stem)
    t0 = seen[(t, J)]
    p = len(seen) - t0
    horizon = min(max(t0 + 4 * p + 16, 6 * p, 32), cap)
    return {"lasso_start": t0, "period": p, "horizon": horizon,
            "max_scan": max(scan_bound(fam, x.first(n))
                            for n in range(1, horizon + 1))}


def _trees():
    """The binary and naturals trees, each with branches over its tree's
    letters; the naturals branches use letters past every machine's
    declared ones."""
    return [(TREE, BRANCHES + LONG_WALKS),
            (nat_tree(), branch_corpus(1, 2, alphabet=(0, 1, 4)))]


def _audit_cases():
    """Raw and discretized sum/min/max families on the trees of _trees."""
    machines = automaton_corpus(27, 4, max_states=3, span=3, max_exp=2)
    for tree, branches in _trees():
        for u1, u2 in zip(machines[::2], machines[1::2]):
            for op in ("sum", "min", "max"):
                raw = family_from_kernel(ProductKernel([u1, u2], tree, op),
                                         label=op)
                for fam in (raw, discretize(raw)):
                    yield fam, branches


def test_branch_limsup_audit_info_matches_joint_orbit():
    for fam, branches in _audit_cases():
        for x in branches:
            _, info = branch_limsup(fam, x)
            assert info == joint_orbit_info(fam, x), (fam.label, x)


def test_branch_limsup_value_is_the_minimal_machine_value():
    # seeded stage families, raw and discretized, beside the joint ones
    machines = automaton_corpus(35, 4, max_states=3, span=4, max_exp=2)
    stage = [(fam, branches) for tree, branches in _trees() for u in machines
             for fam in (family_from_automaton(u, tree),
                         discretize(family_from_automaton(u, tree)))]
    for fam, branches in stage + list(_audit_cases()):
        for x in branches:
            assert branch_limsup(fam, x)[0] == eval_limsup(
                minimize_labeling(ConstructionState(fam)), x), (fam.label, x)


def test_branch_limsup_cap_boundary():
    # the (branch phase, transducer state) walk has n keys: a cap of n - 1
    # admits it and a cap of n - 2 does not, with or without the audit
    fam = discretize(family_from_automaton(letter_output_automaton(), TREE))
    x = parse_branch("stem=0,1,0,1,1;cycle=1,0")
    tr = ConstructionState(fam)
    end = len(x.stem) + len(x.cycle)
    seen = set()
    t, q = 0, 0
    while (t, q) not in seen:
        seen.add((t, q))
        q = tr.move(q, x.letter_at(t))[1]
        t = t + 1 if t + 1 < end else len(x.stem)
    n = len(seen)
    want = eval_limsup(letter_output_automaton(), x)
    assert branch_limsup(fam, x, cap=n - 1)[0] == want
    with pytest.raises(InconclusiveLassoError):
        branch_limsup(fam, x, cap=n - 2)


def test_min_kernel_tails_are_per_machine():
    # a two-machine min kernel against one single-machine kernel per
    # factor: tail values are the min of theirs, entries the max
    rng = rng_stream(29, "min-tails")
    machines = [random_automaton(rng, 3, span=3, max_exp=2) for _ in range(12)]
    for tree in (TREE, nat_tree()):
        for u1, u2 in zip(machines[::2], machines[1::2]):
            ker = ProductKernel([u1, u2], tree, "min")
            ones = [ProductKernel([u], tree, "min") for u in (u1, u2)]
            for J in itertools.product(range(u1.num_states),
                                       range(u2.num_states)):
                entry = ker.tail_entry(J)
                assert entry == max(k.tail_entry((q,))
                                    for k, q in zip(ones, J))
                for j in range(entry + 4):
                    assert ker.from_grid(ker.tail_value(J, j)) == min(
                        k.from_grid(k.tail_value((q,), j))
                        for k, q in zip(ones, J)), (u1, u2, J, j)


def allowed_classes(u, tree):
    # the letter classes the tree's letters realize, as the kernel once
    # computed them apart from its joint letter representatives
    k = u.num_letters
    if tree.all_naturals:
        return tuple(range(k + 1))
    return tuple(sorted({u.letter_class(a) for a in tree.alphabet}))


def test_kernel_letter_classes_cover_the_tree():
    # machines with 0..3 explicit letters, alone, in pairs and in triples
    machines = [make_automaton(0, [[0] * (k + 1)], [[k] * (k + 1)])
                for k in range(4)]
    for tree in (TREE, nat_tree(), full_tree((0, 2))):
        for dims in (1, 2, 3):
            for group in itertools.product(machines, repeat=dims):
                ker = ProductKernel(group, tree)
                for u in group:
                    assert {u.letter_class(a) for a in ker.reps} == \
                        set(allowed_classes(u, tree)), (tree.name, group)


def _wide_pairs(seed, count):
    """Seeded pairs of machines with 1..3 states whose explicit letter
    counts differ: the first reads 0..2 apart, the second only 0."""
    rng = rng_stream(seed, "wide-pairs")

    def machine(k):
        n = rng.randint(1, 3)
        return make_automaton(
            0, [[rng.randrange(n) for _ in range(k + 1)] for _ in range(n)],
            [[random_dyadic(rng, 3, 2) for _ in range(k + 1)]
             for _ in range(n)])
    return [(machine(3), machine(1)) for _ in range(count)]


@pytest.mark.parametrize("tree", [TREE, nat_tree()], ids=["binary", "naturals"])
def test_kernel_edge_is_each_machines_own_step(tree):
    # every joint state, each representative letter and, on the naturals,
    # letters past every machine's width
    for u1, u2 in _wide_pairs(41, 6):
        for group in ((u1,), (u2, u1), (u1, u2)):
            ker = ProductKernel(group, tree)
            letters = set(ker.reps)
            if tree.all_naturals:
                letters |= set(range(max(u.num_letters for u in group) + 3))
            for J in itertools.product(*(range(u.num_states) for u in group)):
                for a in sorted(letters):
                    want = (tuple(u.step(q, a) for u, q in zip(group, J)),
                            tuple(ker.to_grid(u.output(q, a))
                                  for u, q in zip(group, J)))
                    assert ker.edge(J, a) == want, (group, J, a)
                    assert ker.edge(J, a) is ker.edge(J, a)


@pytest.mark.parametrize("op", ["sum", "min", "max"])
def test_expected_on_is_the_op_of_the_factor_limsups(op):
    branches = branch_corpus(3, 4) + branch_corpus(1, 2, alphabet=range(6))
    for u1, u2 in _wide_pairs(42, 4):
        f = algebra(u1, u2, op, nat_tree())
        for x in branches:
            want = reference_expected(op, u1, u2, x)
            assert f.expected_on(x) == want, (u1, u2, x)
            assert want == apply_op(
                op, eval_limsup(u1, x), eval_limsup(u2, x)), (u1, u2, x)


def _grid_pair(rng, e1, e2):
    """Seeded 1..3-state machines whose outputs are odd multiples of
    2**-e1 and of 2**-e2: each factor sits on its own grid."""
    def machine(e):
        n = rng.randint(1, 3)
        return make_automaton(
            0, [[rng.randrange(n) for _ in range(2)] for _ in range(n)],
            [[Dyadic(2 * rng.randint(-4, 4) + 1, e) for _ in range(2)]
             for _ in range(n)])
    return machine(e1), machine(e2)


@pytest.mark.parametrize("op", ["sum", "min", "max"])
def test_the_op_table_reads_factors_on_different_grids(op):
    # expected_on reads op's table at the factors' limsup ranks; the
    # reference walks both factors and applies op to their limsups
    rng = rng_stream(44, "grid-pairs")
    for e1, e2 in ((1, 3), (2, 1), (1, 2), (3, 1)):
        u1, u2 = _grid_pair(rng, e1, e2)
        f = algebra(u1, u2, op, TREE)
        assert f.table == tuple(tuple(apply_op(op, a, b) for b in u2.levels)
                                for a in u1.levels)
        for x in branch_corpus(3, 3):
            want = reference_expected(op, u1, u2, x)
            assert f.expected_on(x) == want, (u1, u2, x)
            assert f.value_on(x) == want, (u1, u2, x)
        cells = {v for row in f.table for v in row}
        if op == "sum":
            # an odd multiple of 2**-e1 plus one of 2**-e2 is an odd
            # multiple of 2**-max(e1, e2) when the grids differ, so no
            # sum sits on the coarser factor's grid
            assert all(v.exp == max(e1, e2) for v in cells), cells
        else:
            assert cells <= set(u1.levels) | set(u2.levels)


def test_labels_are_grid_ints_until_they_leave_the_construction():
    u1, u2 = _wide_pairs(43, 1)[0]
    f = algebra(u1, u2, "sum", TREE)
    for x in BRANCHES:
        assert type(f.value_on(x)) is Dyadic
        assert type(branch_limsup(f.family, x)[0]) is Dyadic
    tr = f.state
    for q in range(len(tr.states)):
        assert all(type(tr.move(q, a)[0]) is int for a in (0, 1))
    for s in prefixes_to(3):
        assert type(f.state.u(s)) is Dyadic
        assert f.state.u(s) == construct_u(f.family, s)
    machine = minimize_labeling(f.state)
    assert all(type(o) is Dyadic for row in machine.outputs for o in row)


def test_algebra_letter_plus_constant():
    f = algebra(letter_output_automaton(), constant_automaton(Dyadic(1)),
                "sum", TREE)
    for x in BRANCHES:
        v = f.value_on(x)
        assert v == f.expected_on(x)
        # the letter machine's limsup sorts branches into two classes
        assert v == (Dyadic(2) if any(x.cycle) else Dyadic(1))


@pytest.mark.parametrize("op", ["sum", "min", "max"])
def test_algebra_ops_match_pointwise(op):
    rng = rng_stream(24, "algebra-ops")
    machines = automaton_corpus(25, 8, max_states=3, span=3, max_exp=1)
    pairs = [(machines[i], machines[i + 1]) for i in range(0, 8, 2)]
    for u1, u2 in pairs:
        f = algebra(u1, u2, op, TREE)
        for x in BRANCHES:
            assert f.value_on(x) == f.expected_on(x), (op, u1, u2, x)
    del rng


def test_algebra_rejects_unknown_op():
    with pytest.raises(ValueError):
        algebra(letter_output_automaton(), constant_automaton(Dyadic(0)),
                "quotient", TREE)


def lasso_tops(ker, J):
    """Per-machine max outputs of every letter lasso from J with stem and
    cycle up to the product's state count."""
    size = 1
    for u in ker.machines:
        size *= u.num_states
    words = [w for k in range(size + 1)
             for w in itertools.product(ker.reps, repeat=k)]
    tops = set()
    for stem in words:
        for cycle in words[1:]:
            top = []
            for u, q in zip(ker.machines, J):
                seen = []
                for a in stem:
                    seen.append(u.output(q, a))
                    q = u.step(q, a)
                # the state at each pass's start follows a map on at most
                # size states, so size passes meet every start it ever takes
                for a in cycle * size:
                    seen.append(u.output(q, a))
                    q = u.step(q, a)
                top.append(max(seen))
            tops.add(tuple(top))
    return tops


def pair_tops(ker, J, letters):
    """The same tops, read off the graph of (joint state, running max)
    pairs: a lasso from J with top t passes a pair carrying t that lies on
    a cycle, because the running max cannot rise and come back."""
    def succ(node):
        K, top = node
        for a in letters:
            out = tuple(u.output(q, a) for u, q in zip(ker.machines, K))
            yield (tuple(u.step(q, a) for u, q in zip(ker.machines, K)),
                   out if top is None else tuple(map(max, top, out)))

    start = (J, None)
    seen, todo = {start}, [start]
    while todo:
        for nxt in succ(todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    tops = set()
    for node in seen:
        back, todo = set(), list(succ(node))
        while todo and node not in back:
            nxt = todo.pop()
            if nxt not in back:
                back.add(nxt)
                todo.extend(succ(nxt))
        if node in back:
            tops.add(node[1])
    return tops


def brute_value(mode, tops, fixed):
    """min over lassos of the objective of max(fixed_i, top_i), in Dyadic
    arithmetic; None in fixed stands for no fixed part."""
    best = None
    for top in tops:
        parts = [t if f is None else max(f, t) for f, t in zip(fixed, top)]
        if mode == "sum":
            v = parts[0]
            for p in parts[1:]:
                v = v + p
        else:
            v = max(parts) if mode == "max" else min(parts)
        best = v if best is None or v < best else best
    return best


def wide_automaton(rng, n, width):
    # n states and width letter columns, the last the default class
    return make_automaton(
        0, [[rng.randrange(n) for _ in range(width)] for _ in range(n)],
        [[random_dyadic(rng, 3, 2) for _ in range(width)] for _ in range(n)])


def kernel_oracle_cases(rng, ker, outs):
    nothing = (None,) * ker.dims
    return [nothing, (outs[0],) + nothing[1:], nothing[:-1] + (outs[-1],),
            tuple(rng.choice(outs) for _ in range(ker.dims))]


def check_kernel_value(rng, ker, tops_of, mode):
    # every joint state, reachable from the initial one or not
    outs = sorted({o for u in ker.machines for row in u.outputs for o in row})
    for J in itertools.product(*(range(u.num_states) for u in ker.machines)):
        tops = tops_of(J)
        for fixed in kernel_oracle_cases(rng, ker, outs):
            grid = tuple(ker.floor[i] if f is None else ker.to_grid(f)
                         for i, f in enumerate(fixed))
            got = ker.from_grid(ker.value(J, grid))
            assert got == brute_value(mode, tops, fixed), \
                (mode, ker.machines, ker.tree.name, J, fixed)


def kernel_oracle_groups():
    """((rng, pairs), (rng, groups)): five pairs of 2-state machines on the
    binary tree, then wider (tree, machines) groups: 3-state pairs, pairs
    on the naturals (letters past every explicit column share the default
    class), and three machines.  Each rng goes on to draw the fixed parts
    of its machines' value checks."""
    rng = rng_stream(28, "kernel-oracle")
    machines = [u for u in (random_automaton(rng, 2, span=3, max_exp=2)
                            for _ in range(40)) if u.num_states == 2]
    pairs = list(zip(machines[:5], machines[5:10]))
    wide = rng_stream(28, "kernel-oracle-wide")
    threes = [wide_automaton(wide, 3, 2) for _ in range(8)]
    groups = [(TREE, pair) for pair in zip(threes[::2], threes[1::2])]
    groups += [(nat_tree(), (wide_automaton(wide, wide.randint(1, 3), w1),
                             wide_automaton(wide, wide.randint(1, 3), w2)))
               for w1, w2 in ((2, 3), (3, 4), (1, 3), (4, 2))]
    groups += [(TREE, tuple(wide_automaton(wide, 2, 2) for _ in range(3)))
               for _ in range(4)]
    return (rng, pairs), (wide, groups)


def oracle_letters(ker):
    # on the naturals one letter beyond every column stands for the rest
    if ker.tree.alphabet is not None:
        return ker.reps
    return range(max(u.num_letters for u in ker.machines) + 2)


@pytest.mark.parametrize("mode", ["sum", "max", "min"])
def test_kernel_value_matches_brute_lassos(mode):
    # an oracle apart from the kernel: enumerate lassos, add and compare in
    # Dyadic arithmetic, and convert the kernel's grid ints back to compare
    (rng, pairs), (wide, groups) = kernel_oracle_groups()
    for u1, u2 in pairs:
        ker = ProductKernel([u1, u2], TREE, mode)
        # the word enumeration and the pair graph agree
        for J in itertools.product(range(2), range(2)):
            assert lasso_tops(ker, J) == pair_tops(ker, J, ker.reps)
        check_kernel_value(rng, ker, lambda J: lasso_tops(ker, J), mode)
    # wider kernels against the pair graph
    for tree, group in groups:
        ker = ProductKernel(group, tree, mode)
        letters = oracle_letters(ker)
        check_kernel_value(wide, ker, lambda J: pair_tops(ker, J, letters),
                           mode)


@pytest.mark.parametrize("mode", ["sum", "max", "min"])
def test_kernel_tails_match_brute_reach_sets(mode):
    # tail_value(J, j) is the least objective over the lassos from the
    # joint states that j letters reach from J, read off the pair graph
    (_, pairs), (_, groups) = kernel_oracle_groups()
    for tree, group in [(TREE, pair) for pair in pairs] + groups:
        ker = ProductKernel(group, tree, mode)
        letters = oracle_letters(ker)
        least = {}
        for J in itertools.product(*(range(u.num_states) for u in group)):
            reach = {J}
            for j in range(ker.tail_entry(J) + 4):
                for K in reach - least.keys():
                    least[K] = brute_value(mode, pair_tops(ker, K, letters),
                                           (None,) * ker.dims)
                assert ker.from_grid(ker.tail_value(J, j)) == min(
                    least[K] for K in reach), (mode, group, tree.name, J, j)
                reach = {tuple(u.step(q, a) for u, q in zip(group, K))
                         for K in reach for a in letters}


def segment_label(ker, E, J, S, a):
    """(label, J', S'): the child's label and state along letter a from
    the transducer state (J, S) with its stair vectors as tuples, reading
    the kernel per call; the reference that the rows are checked against.
    """
    J2, o = ker.edge(J, a)
    vecs = [tuple(map(max, d, o)) for d in S] + [o]
    S2 = tuple(vecs[:E]) + tuple(v for v, _ in groupby(vecs[E:]))
    cvals, centry = ker.tail(J2)
    pvals, pentry = ker.tail(J)
    jmax = max(1 + centry, pentry, E - len(S))
    # level reads 0 .. len(S) + jmax; tail tables are constant past entry
    curs = [ker.value(J2, v) for v in vecs]
    curs += cvals + cvals[-1:] * (jmax - 1 - centry)
    pars = [ker.value(J, d) for d in S]
    pars += pvals + pvals[-1:] * (jmax - pentry)
    best = cvals[-1]
    last = None
    for k, (cur, par) in enumerate(zip(curs, pars)):
        if k < E:
            # round up to the 2**-k grid: k < E, so the shift is positive
            shift = E - k
            cur = -((-cur) >> shift) << shift
            par = -((-par) >> shift) << shift
        if last is not None and last < cur:
            raise AssertionError(f"levels not non-increasing at level read {k}")
        last = cur
        if par < cur and best < cur:
            best = cur
    return best, J2, S2


def _row_families():
    """Seeded stage families, raw and discretized, and sum/min/max
    families of seeded and _wide_pairs machines, on the binary tree, the
    tree over 0, 2, 5 and the naturals."""
    machines = automaton_corpus(36, 4, max_states=3, span=4, max_exp=2)
    pairs = list(zip(machines[::2], machines[1::2])) + _wide_pairs(44, 2)
    for tree in (TREE, full_tree((0, 2, 5)), nat_tree()):
        for u in machines:
            raw = family_from_automaton(u, tree)
            yield raw
            yield discretize(raw)
        for u1, u2 in pairs:
            for op in ALGEBRA_OPS:
                yield algebra(u1, u2, op, tree).family


def test_rows_match_the_reference_segment_label():
    # every reachable state's row, class by class, and on the naturals
    # the moves on letters past every machine's declared ones
    for fam in _row_families():
        tr = ConstructionState(fam)
        ker, E = tr.ker, tr.exponent

        def decode(q):
            j, S = tr.states[q]
            return tr.joints[j], tuple(tr.vectors[v] for v in S)

        assert decode(0) == (ker.initial, ())
        K = max(u.num_letters for u in ker.machines)
        extra = (K, K + 1, K + 7) if ker.tree.all_naturals else ()
        seen, todo = {0}, [0]
        while todo:
            q = todo.pop()
            J, S = decode(q)
            for a, (label, r) in zip(ker.reps, tr.row(q)):
                want = segment_label(ker, E, J, S, a)
                assert (label, *decode(r)) == want, (fam.label, J, S, a)
                if r not in seen:
                    seen.add(r)
                    todo.append(r)
            for a in extra:
                label, r = tr.move(q, a)
                assert (label, *decode(r)) == segment_label(ker, E, J, S, a), \
                    (fam.label, J, S, a)


def test_moves_refuse_letters_off_the_tree():
    # letter 1 has a class of its own, and letter 5 shares letter 2's
    u = make_automaton(0, [[0, 0, 0]], [[0, 1, 2]])
    tr = ConstructionState(family_from_automaton(u, full_tree((0, 2))))
    assert tr.move(0, 2)[0] == 2
    for a in (1, 5):
        with pytest.raises(ValueError, match=f"letter {a} "):
            tr.move(0, a)


class _StubKernel:
    """Joint states (0,), (1,), (2,) along the one letter 0, then (2,)
    again; every stair level reads 0, and the tail table reads 0 at (0,)
    and (1,) and `tail` at (2,)."""

    machines = ()
    reps = (0,)
    initial = (0,)
    tree = full_tree((0,))

    def __init__(self, tail):
        self.tail_vals = (tail,)

    def edge(self, J, a):
        return (min(J[0] + 1, 2),), (0,)

    def tail(self, J):
        return ((0,) if J[0] < 2 else self.tail_vals), 0

    def value(self, J, fixed):
        return 0


def _stub_family(tail):
    # the family fields a ConstructionState reads off a raw family
    return SimpleNamespace(kernel=_StubKernel(tail), discretized=False)


def test_rows_refuse_rising_level_reads():
    # the child's stair levels read 0; a tail of 0 keeps them
    # non-increasing, a tail of 5 rises past them at read 2, the first
    # tail read from the depth-one state
    tr = ConstructionState(_stub_family(0))
    assert tr.move(tr.move(0, 0)[1], 0)[0] == Dyadic(0)
    tr = ConstructionState(_stub_family(5))
    q = tr.move(0, 0)[1]
    with pytest.raises(AssertionError, match="non-increasing at level read 2"):
        tr.move(q, 0)


def test_kernel_grid_rejects_off_grid_values():
    ker = ProductKernel([constant_automaton(Dyadic(3, 1))], TREE)
    assert ker.to_grid(Dyadic(5, 1)) == 5 and ker.to_grid(Dyadic(2)) == 4
    with pytest.raises(ValueError):
        ker.to_grid(Dyadic(1, 2))


def test_verify_summary_wording():
    fam = constant_family(Dyadic(0))
    report = verify_construction(fam, BRANCHES, target_fn=lambda x: Dyadic(0))
    n = len(BRANCHES)
    assert report.summary() == f"equal on all {n} corpus branches"


def test_minimize_letter_labeling():
    fam = discretize(family_from_automaton(letter_output_automaton(), TREE))
    machine = minimize_labeling(ConstructionState(fam))
    assert machine.num_states == 1
    for x in branch_corpus(3, 3):
        cert = lasso_summary(machine, x)
        assert max(cert.cycle_outputs) == branch_limsup(fam, x)[0]


def _minimize_cases():
    """(id, family, letters, depth): raw, discretized and sum/min/max
    families on the binary tree, to depth 12; then two on the naturals
    tree, shallower, over letters past every machine's declared ones.  The
    seed is one whose discretized, sum, min and max labelings need more
    than one round of refinement by successor blocks."""
    u = automaton_corpus(34, 6, max_states=3, span=4, max_exp=2)
    yield "raw", family_from_automaton(u[3], TREE), (0, 1), 12
    yield "discretized", discretize(family_from_automaton(u[3], TREE)), \
        (0, 1), 12
    for op in ("sum", "min", "max"):
        yield op, algebra(u[2], u[3], op, TREE).family, (0, 1), 12
    nat = nat_tree()
    yield "nat", discretize(family_from_automaton(u[3], nat)), range(4), 5
    yield "nat-min", algebra(u[2], u[3], "min", nat).family, range(4), 5


MINIMIZE_CASES = [pytest.param(*case[1:], id=case[0])
                  for case in _minimize_cases()]


@pytest.mark.parametrize("fam, letters, depth", MINIMIZE_CASES)
def test_minimized_machine_matches_generic_scan(fam, letters, depth):
    machine = minimize_labeling(ConstructionState(fam))
    layer = [((), machine.initial)]
    for _ in range(depth):
        nxt = []
        for s, q in layer:
            for a in letters:
                child = s + (a,)
                assert machine.output(q, a) == construct_u(fam, child), \
                    (fam.label, child)
                nxt.append((child, machine.step(q, a)))
        layer = nxt


def distinguishable(machine, p, q):
    """Whether some word labels differently from p and from q: a search of
    the pairs of states that one word reaches from (p, q)."""
    classes = range(machine.num_letters + 1)
    seen = {(p, q)}
    todo = [(p, q)]
    while todo:
        p, q = todo.pop()
        for c in classes:
            if machine.outputs[p][c] != machine.outputs[q][c]:
                return True
            pair = (machine.steps[p][c], machine.steps[q][c])
            if pair not in seen:
                seen.add(pair)
                todo.append(pair)
    return False


@pytest.mark.parametrize("fam, letters, depth", MINIMIZE_CASES)
def test_minimized_machine_is_minimal(fam, letters, depth):
    # every state is reachable and no two states are equivalent
    machine = minimize_labeling(ConstructionState(fam))
    n = machine.num_states
    reached = {machine.initial}
    todo = [machine.initial]
    while todo:
        for r in machine.steps[todo.pop()]:
            if r not in reached:
                reached.add(r)
                todo.append(r)
    assert len(reached) == n
    for p, q in itertools.combinations(range(n), 2):
        assert distinguishable(machine, p, q), (fam.label, p, q)


def test_minimize_rejects_non_contiguous_alphabet():
    fam = family_from_automaton(letter_output_automaton(), full_tree((0, 2)))
    with pytest.raises(ValueError):
        minimize_labeling(ConstructionState(fam))
