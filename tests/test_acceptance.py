"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with pytest -s or in captured output on failure) alongside the
usual assertion.  Runtime budgets are asserted per criterion.
"""

import itertools
import math
import random
import statistics
import time

import pytest

from cogpat.cofo import (
    InconsistencyError,
    extend_dataset,
    promising_set,
    quality,
    make_cofo_dds,
    two_hypothesis_problem,
)
from cogpat.cogkit import (
    agglomerate,
    backward_chain_tv,
    ecan_run,
    evolve,
    one_max,
    point_mutation,
    uniform_crossover,
)
from cogpat.dds import (
    chrono_solve,
    exact_dp,
    gd1,
    gd1_noisy,
    greedy_run,
    random_problem,
    stochastic_dp,
)
from cogpat.metagraph import StaleSnapshotError, TypedMetagraph
from cogpat.morphisms import (
    Algebra,
    Coalgebra,
    Expansion,
    chrono,
    complete,
    fold,
    fold_run,
    futu_unfold,
    histo_fold,
    run_steps,
)
from cogpat.relalg import (
    fname,
    random_dp_instance,
    random_greedy_instance,
    random_preorder,
    random_relation,
    sum_fixture,
    verify_dp_theorem,
    verify_greedy_theorem,
)
from cogpat.subpattern import (
    SimplicityMeasure,
    alignment_score,
    build_subpattern_dag,
    check_mutual_associativity,
    disjoint_union,
)

import operator

SUM = Algebra(unit=0.0, combine=lambda acc, ctx: acc + ctx.atom.sti,
              merge=operator.add, declared_associative=True)


def report(num, ok, limit, elapsed, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) - {detail}"
    print(line)
    assert ok, line
    assert elapsed < limit, f"criterion {num} exceeded {limit}s: {elapsed:.1f}s"


def weighted_view(weights):
    mg = TypedMetagraph()
    for w in weights:
        mg.add_node("N", sti=w)
    return mg.snapshot()


def test_criterion_1_galois_theorem_suites():
    t0 = time.monotonic()
    stats = {}
    for name, make, verify in (
        ("greedy", random_greedy_instance,
         lambda c, f, s, r: verify_greedy_theorem(s, r, f, c)),
        ("dp", random_dp_instance,
         lambda c, f, s, t, r: verify_dp_theorem(s, t, r, f, c)),
    ):
        satisfied = 0
        violations = 0
        for seed in itertools.count():
            rep = verify(*make(seed))
            if rep.preconditions_hold:
                satisfied += 1
                violations += rep.violated
            if satisfied >= 100:
                break
        stats[name] = (satisfied, violations)
    carriers, f, _ = sum_fixture()
    found = 0
    for seed in range(60):
        rng = random.Random(seed)
        r = random_preorder(rng, carriers, "B", 0.3)
        s0 = random_relation(rng, carriers, fname("B"), "B", 0.25)
        rep = verify_greedy_theorem(s0, r, f, carriers)
        if not rep.monotone and not rep.inclusion_holds:
            found += 1
    elapsed = time.monotonic() - t0
    ok = (stats["greedy"] == (100, 0) and stats["dp"] == (100, 0) and found >= 1)
    report(1, ok, 30, elapsed,
           f"greedy {stats['greedy']}, dp {stats['dp']}, "
           f"{found} non-monotone strict violations")


def test_criterion_2_greedy_vs_dp_gap():
    t0 = time.monotonic()
    p = gd1()
    greedy_total = greedy_run(p, "A").total
    exact_value = exact_dp(p).value(1, "A")
    chrono_value = chrono_solve(p).value(1, "A")
    ok = (greedy_total == 3.0 and exact_value == 5.0
          and abs(chrono_value - exact_value) <= 1e-9)
    mismatches = 0
    for seed in range(200):
        rp = random_problem(seed, stochastic=(seed % 2 == 0))
        vf, cf = exact_dp(rp), chrono_solve(rp)
        for key, cell in vf.table.items():
            if abs(cf.table[key].value - cell.value) > 1e-9:
                mismatches += 1
        if seed % 2 == 1:  # deterministic: trajectory total is exact
            s0 = rp.states(1)[0]
            if greedy_run(rp, s0).total > vf.value(1, rp.state_key(s0)) + 1e-9:
                mismatches += 1
    elapsed = time.monotonic() - t0
    report(2, ok and mismatches == 0, 10, elapsed,
           f"gd1 greedy={greedy_total} exact={exact_value}, "
           f"{mismatches} mismatches over 200 instances")


def test_criterion_3_stochastic_dp_convergence():
    t0 = time.monotonic()
    p = gd1_noisy()
    exact_v = exact_dp(p).value(1, "A")
    medians = []
    for rollouts in (100, 1000, 10_000):
        errs = [
            abs(stochastic_dp(p, rollouts, seed).value(1, "A") - exact_v)
            for seed in range(20)
        ]
        medians.append(statistics.median(errs))
    ok = (medians[0] >= medians[1] >= medians[2]
          and medians[2] <= 0.05 * abs(exact_v))
    elapsed = time.monotonic() - t0
    report(3, ok, 60, elapsed, f"median errors {[round(m, 4) for m in medians]}")


def test_criterion_4_fold_order_invariance():
    t0 = time.monotonic()
    view = weighted_view([0.5, 1.5, 2.5, 3.5, 4.5])
    sti = [view.atoms[i].sti for i in sorted(view.atoms)]
    audited = check_mutual_associativity({"add": operator.add}, sti).passed
    base = fold(view, SUM)
    invariant = all(fold(view, SUM, ("random", s)) == base for s in range(100))
    maxmin = check_mutual_associativity({"max": max, "min": min}, [0, 3, 5])
    witness_found = not maxmin.passed and maxmin.witness is not None
    elapsed = time.monotonic() - t0
    report(4, audited and invariant and witness_found, 10, elapsed,
           f"100 orders invariant, max/min witness {maxmin.witness[:3]}")


def test_criterion_5_memory_scheme_equivalence():
    t0 = time.monotonic()
    fixtures = [weighted_view([i * 0.5 for i in range(n)]) for n in range(9)]
    histo_ok = all(
        histo_fold(v, SUM, order)[0] == fold(v, SUM, order)
        for v in fixtures
        for order in ["insertion", ("random", 3)]
    )

    def unit_piece(sti):
        m = TypedMetagraph()
        m.add_node("Unit", sti=sti)
        return m

    fused_ok = True
    for trial in range(20):
        rng = random.Random(trial)
        depth = rng.randint(0, 4)
        fanout = rng.randint(1, 2)
        weightof = {k: rng.uniform(0, 3) for k in range(depth + 1)}

        def expand(k):
            children = [(k - 1, None)] * fanout if k > 0 else []
            return Expansion([unit_piece(weightof[k])], children)

        fused, _ = chrono(depth, Coalgebra(expand), SUM, budget=10_000)
        counter = itertools.count()

        def expand_uniq(k):
            lvl = k[0]
            children = (
                [((lvl - 1, next(counter)), None)] * fanout if lvl > 0 else []
            )
            return Expansion([unit_piece(weightof[lvl])], children)

        graph = futu_unfold((depth, -1), Coalgebra(expand_uniq), 10_000)
        unfused, _ = histo_fold(graph.snapshot(), SUM)
        if abs(fused - unfused) > 1e-9:
            fused_ok = False

    def fib_expand(n):
        if n <= 2:
            return Expansion([unit_piece(1.0)], [])
        return Expansion([], [(n - 1, None), (n - 2, None)])

    fib_value, fib_hits = chrono(10, Coalgebra(fib_expand), SUM, budget=500)
    elapsed = time.monotonic() - t0
    ok = histo_ok and fused_ok and fib_value == 55 and fib_hits > 0
    report(5, ok, 10, elapsed,
           f"histo==fold, fused==pipeline, fib(10)={fib_value} hits={fib_hits}")


def all_datasets(p, max_size):
    pairs = [(x, p.f(x)) for x in p.points]
    out = [()]
    for r in range(1, max_size + 1):
        out.extend(itertools.combinations(pairs, r))
    return out


def test_criterion_6_cofo_monotone_narrowing():
    t0 = time.monotonic()
    p = two_hypothesis_problem()
    datasets = []
    for d in all_datasets(p, 3):
        try:
            promising_set(p, d)
        except InconsistencyError:
            continue
        datasets.append(d)
    narrowing_ok = all(
        set(promising_set(p, d2).support) <= set(promising_set(p, d).support)
        and quality(p, d2) <= quality(p, d) + 1e-12
        for d in datasets
        for d2 in datasets
        if set(d) <= set(d2)
    )
    # rewards summed along a seeded uniform draw over each stage's actions
    dds = make_cofo_dds(p, horizon=3)
    rng = random.Random(7)
    d, total = (), 0.0
    for t in range(1, dds.n + 1):
        x, y, c = rng.choice(dds.actions(t, d))
        total += dds.reward(t, d, (x, y, c))
        z = p.combinators[c](x, y)
        d = extend_dataset(d, (z, p.f(z)))
    telescopes = abs(total - (quality(p, ()) - quality(p, d))) <= 1e-9
    elapsed = time.monotonic() - t0
    report(6, narrowing_ok and telescopes, 30, elapsed,
           f"{len(datasets)} datasets narrow monotonically, rewards telescope")


def test_criterion_7_cognitive_instance_oracles():
    t0 = time.monotonic()
    checks = {}

    pts = {0: (0.0, 0.0), 1: (0.0, 1.0), 2: (10.0, 0.0), 3: (10.0, 1.0)}
    dist = lambda x, y: math.dist(pts[x], pts[y])
    pair = frozenset({frozenset({0, 1}), frozenset({2, 3})})
    checks["cluster fixture"] = all(
        agglomerate(list(pts), dist, 2, e).blocks == pair
        for e in ("greedy", "dp")
    )
    rng = random.Random(0)
    exact_wins = True
    for _ in range(10):
        n = rng.randint(3, 7)
        rpts = {i: (rng.uniform(0, 5), rng.uniform(0, 5)) for i in range(n)}
        rdist = lambda x, y: math.dist(rpts[x], rpts[y])
        k = rng.randint(1, n - 1)
        g = agglomerate(list(rpts), rdist, k, "greedy")
        e = agglomerate(list(rpts), rdist, k, "dp")
        exact_wins &= e.quality >= g.quality - 1e-9
    checks["cluster exact >= greedy"] = exact_wins

    from cogpat.cogkit import conj, pattern_frequency
    from tests.test_cogkit import brute_force_frequency, likes_kb

    view = likes_kb()
    patterns = [
        conj(("likes", ("X", "Y"))),
        conj(("likes", ("X", "Y")), ("knows", ("Y", "Z"))),
    ]
    checks["mining brute force"] = all(
        abs(pattern_frequency(view, p) - brute_force_frequency(view, p)) < 1e-12
        for p in patterns
    )

    kb = TypedMetagraph.from_dict({"atoms": [
        {"id": 0, "kind": "node", "type": "A", "tv": {"s": 0.5, "c": 0.9}},
        {"id": 1, "kind": "node", "type": "B", "tv": {"s": 0.5, "c": 0.9}},
        {"id": 2, "kind": "node", "type": "C", "tv": {"s": 0.6, "c": 0.9}},
        {"id": 3, "kind": "edge", "type": "implies", "targets": [0, 1], "tv": {"s": 0.8, "c": 0.9}},
        {"id": 4, "kind": "edge", "type": "implies", "targets": [1, 2], "tv": {"s": 0.9, "c": 0.9}},
    ]})
    tv, _ = backward_chain_tv(kb, ("A", "C"), budget=3, seed=1)
    checks["backchain 0.78"] = abs(tv.s - 0.78) < 1e-9

    mg = TypedMetagraph()
    ns = [mg.add_node("N", sti=float(i)) for i in range(5)]
    for i in range(4):
        mg.add_edge("link", [ns[i], ns[i + 1]])
    view = mg.snapshot()
    total0 = sum(a.sti for a in view.atoms.values())
    res = ecan_run(view, q=0.7, steps=100, seed=3)
    checks["ecan conserved"] = abs(sum(res.sti.values()) - total0) <= 1e-9

    solved = 0
    for seed in range(100):
        prng = random.Random(10_000 + seed)
        pop0 = [tuple(prng.randint(0, 1) for _ in range(8)) for _ in range(20)]
        r = evolve(one_max, pop0, budget=2000, seed=seed,
                   mutate=point_mutation(1 / 8), crossover=uniform_crossover)
        solved += r.best_fitness == 8.0
    checks["onemax >= 95"] = solved >= 95

    elapsed = time.monotonic() - t0
    failed = [k for k, v in checks.items() if not v]
    report(7, not failed, 180, elapsed,
           f"onemax {solved}/100" + (f", failed: {failed}" if failed else ""))


def test_criterion_8_suspend_resume_determinism():
    t0 = time.monotonic()
    view = weighted_view([0.1, 0.2, 0.3, 0.4, 0.5])
    single = fold(view, SUM)
    sliced_ok = True
    for slices in [(1, 1, 1, 1, 1), (2, 3), (5,), (3, 1, 1), (4, 2)]:
        run = fold_run(view, SUM)
        for k in slices:
            run_steps(run, k)
        sliced_ok &= complete(run) == single
    sub = Algebra(unit=0.0, combine=lambda acc, ctx: acc - ctx.atom.sti)
    solo = (fold(view, SUM), fold(view, sub))
    r1, r2 = fold_run(view, SUM), fold_run(view, sub)
    while r1.status != "done" or r2.status != "done":
        if r1.status != "done":
            run_steps(r1, 1)
        if r2.status != "done":
            run_steps(r2, 1)
    interleave_ok = (r1.value, r2.value) == solo
    stale_flags = 0
    for prefix in range(5):
        mg = TypedMetagraph()
        for w in (1.0, 2.0, 3.0, 4.0, 5.0):
            mg.add_node("N", sti=w)
        run = fold_run(mg.snapshot(), SUM)
        run_steps(run, prefix)
        mg.add_node("N")
        try:
            complete(run)
        except StaleSnapshotError:
            stale_flags += 1
    elapsed = time.monotonic() - t0
    ok = sliced_ok and interleave_ok and stale_flags == 5
    report(8, ok, 10, elapsed,
           f"slicings bit-exact, interleave matches solo, {stale_flags}/5 stale")


def test_criterion_9_subpattern_alignment():
    t0 = time.monotonic()
    union_ok = check_mutual_associativity(
        {"merge": disjoint_union},
        [frozenset({0}), frozenset({1}), frozenset({2})],
    ).passed
    maxmin = check_mutual_associativity({"max": max, "min": min}, [0, 3, 5])
    maxmin_ok = not maxmin.passed and maxmin.witness is not None

    def double(y, z):
        if z != "":
            raise ValueError("needs the unit")
        return y + y

    sm = SimplicityMeasure(sigma=len, sigma_star=lambda name, y, z: 1.0)
    abab = build_subpattern_dag(["ab", "abab", ""], {"double": double}, sm)
    abab_ok = ("abab", "ab", ("double", "")) in abab.edges
    cat = build_subpattern_dag(["a", "b", "ab", "abab"],
                               {"cat": lambda y, z: y + z}, sm)
    cat_ok = cat.edges == []

    from tests.test_subpattern import five_item_trace

    trace = five_item_trace()
    f = frozenset
    hand_edges = {
        (f({0, 1}), f({0})), (f({0, 1}), f({1})),
        (f({2, 3}), f({2})), (f({2, 3}), f({3})),
        (f({2, 3, 4}), f({2, 3})), (f({2, 3, 4}), f({4})),
    }
    items = sorted({v for e in trace for v in e}, key=sorted)
    block_sm = SimplicityMeasure(sigma=lambda b: float(len(b) ** 2),
                                 sigma_star=lambda name, y, z: 1.0)
    dag = build_subpattern_dag(items, {"merge": disjoint_union}, block_sm)
    align_ok = (set(trace) == hand_edges
                and {(x, y) for x, y, _ in dag.edges} == hand_edges
                and alignment_score(trace, dag, {v: v for v in items}) == 1.0)
    elapsed = time.monotonic() - t0
    ok = union_ok and maxmin_ok and abab_ok and cat_ok and align_ok
    report(9, ok, 10, elapsed,
           "audits discriminate, doubling edge present, alignment 1.0")
