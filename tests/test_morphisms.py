import itertools
import operator
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cogpat import morphisms
from cogpat.metagraph import (
    StaleSnapshotError,
    TruthValue,
    TypedMetagraph,
    canonical_form,
    ref_slot,
    slot_ref,
)
from cogpat.morphisms import (
    Algebra,
    Coalgebra,
    Expansion,
    UnfoldError,
    chrono,
    chrono_run,
    complete,
    fold,
    fold_run,
    futu_unfold,
    futu_unfold_run,
    histo_fold,
    histo_fold_run,
    memo_recurse,
    order_atoms,
    run_steps,
    unfold,
)
from cogpat.subpattern import check_mutual_associativity


def weighted_view(weights):
    mg = TypedMetagraph()
    for w in weights:
        mg.add_node("N", sti=w)
    return mg.snapshot()


SUM = Algebra(unit=0.0, combine=lambda acc, ctx: acc + ctx.atom.sti,
              merge=operator.add, declared_associative=True)
SUB = Algebra(unit=0.0, combine=lambda acc, ctx: acc - ctx.atom.sti)


class TestFold:
    def test_commutative_sum_every_order(self):
        view = weighted_view([1.0, 2.0, 3.0])
        for order in ["insertion", "topological", ("random", 5), ("random", 9)]:
            assert fold(view, SUM, order) == 6.0

    def test_order_dependence_flagged_by_audit(self):
        view = weighted_view([1.0, 2.0, 3.0])
        # random traversal orders are the audit; subtraction is
        # exchange-symmetric ((v-a)-b == (v-b)-a) so compare against a
        # genuinely order-sensitive combine: string append
        appender = Algebra(unit="", combine=lambda acc, ctx: acc + str(ctx.atom.sti))
        vals = {fold(view, appender, ("random", s)) for s in range(5)}
        assert len(vals) > 1

    def test_empty_view_is_unit(self):
        assert fold(TypedMetagraph().snapshot(), SUM) == 0.0

    def test_stale_view_rejected(self):
        mg = TypedMetagraph()
        mg.add_node("N")
        view = mg.snapshot()
        mg.add_node("N")
        with pytest.raises(StaleSnapshotError):
            fold(view, SUM)

    def test_audit_passes_for_sum(self):
        view = weighted_view([1.0, 2.0, 3.0, 4.0])
        sti = [view.atoms[i].sti for i in sorted(view.atoms)]
        assert check_mutual_associativity({"add": operator.add}, sti).passed

    def test_order_invariance_for_audited_algebra(self):
        view = weighted_view([0.5, 1.5, 2.5, 3.5, 4.5])
        sti = [view.atoms[i].sti for i in sorted(view.atoms)]
        assert check_mutual_associativity({"add": operator.add}, sti).passed
        base = fold(view, SUM)
        for s in range(100):
            assert fold(view, SUM, ("random", s)) == base


def diamond_view():
    mg = TypedMetagraph()
    d = mg.add_node("N", sti=1.0)
    b = mg.add_edge("E", [d], sti=2.0)
    c = mg.add_edge("E", [d], sti=3.0)
    mg.add_edge("Top", [b, c], sti=4.0)
    return mg.snapshot()


class TestHisto:
    def test_equals_fold_exhaustive_small_views(self):
        # all fixtures <= 8 atoms: paths, stars, diamonds
        fixtures = [weighted_view([i * 0.5 for i in range(n)]) for n in range(9)]
        fixtures.append(diamond_view())
        for view in fixtures:
            for order in ["insertion", "topological", ("random", 3)]:
                value, _ = histo_fold(view, SUM, order)
                assert value == fold(view, SUM, order)

    def test_diamond_sharing_hits(self):
        _, hits = histo_fold(diamond_view(), SUM)
        assert hits >= 1

    def test_empty_view(self):
        value, hits = histo_fold(TypedMetagraph().snapshot(), SUM)
        assert value == 0.0
        assert hits == 0

    def test_deep_edge_chain_in_random_order(self):
        mg = TypedMetagraph()
        top = mg.add_node("N", sti=1.0)
        for _ in range(3_000):
            top = mg.add_edge("E", [top], sti=1.0)
        view = mg.snapshot()
        for s in range(3):
            value, hits = histo_fold(view, SUM, ("random", s))
            assert value == fold(view, SUM, ("random", s)) == 3_001.0
            assert hits == 3_000


def single_node_piece(label="N", sti=0.0):
    m = TypedMetagraph()
    m.add_node(label, sti=sti)
    return m


def linked_piece():
    """A node plus an edge hooking it to the parent port."""
    m = TypedMetagraph()
    s = m.declare_dangling("N")
    n = m.add_node("N")
    m.add_edge("E", [n, slot_ref(s)])
    return m


def chain_coalg(n):
    """Seed k emits one node (and a link to its parent) and recurses."""

    def expand(k):
        if k <= 0:
            return Expansion([], [])
        piece = single_node_piece() if k == n else linked_piece()
        return Expansion([piece], [(k - 1, 0)])

    return Coalgebra(expand)


class TestUnfold:
    def test_empty_emission(self):
        coalg = Coalgebra(lambda s: Expansion([], []))
        assert len(unfold(0, coalg, 10)) == 0

    def test_budget_zero(self):
        assert len(unfold(3, chain_coalg(3), 0)) == 0

    def test_chain_matches_handbuilt(self):
        # expected: n2 <- e <- n1 (3 atoms: two nodes, one edge) from 2 steps
        got = unfold(2, chain_coalg(2), 10)
        expect = TypedMetagraph()
        a = expect.add_node("N")
        b = expect.add_node("N")
        expect.add_edge("E", [b, a])
        assert canonical_form(got) == canonical_form(expect)

    def test_budget_counts_pieces(self):
        run_mg = unfold(5, chain_coalg(5), 3)
        assert len(run_mg) <= 5  # 3 pieces, the linked ones carry 2 atoms


class TestFutu:
    def test_degenerate_futu_equals_unfold(self):
        coalg = chain_coalg(3)
        assert canonical_form(futu_unfold(3, coalg, 10)) == canonical_form(
            unfold(3, coalg, 10)
        )

    def test_two_generations_budget(self):
        # each step emits two node pieces
        def expand(k):
            if k <= 0:
                return Expansion([], [])
            return Expansion([single_node_piece(), single_node_piece()], [(k - 1, None)])

        got = futu_unfold(5, Coalgebra(expand), 4)
        assert len(got) == 4

    def test_budget_zero_empty(self):
        assert len(futu_unfold(3, chain_coalg(3), 0)) == 0


def fib_coalg():
    def expand(n):
        if n <= 2:
            return Expansion([single_node_piece("Unit", sti=1.0)], [])
        return Expansion([], [(n - 1, None), (n - 2, None)])

    return Coalgebra(expand)


class TestChrono:
    def test_fibonacci(self):
        def fib(n):
            return 1 if n <= 2 else fib(n - 1) + fib(n - 2)

        value, hits = chrono(10, fib_coalg(), SUM, budget=500)
        assert value == fib(10) == 55
        assert hits > 0

    def test_budget_zero(self):
        value, _ = chrono(10, fib_coalg(), SUM, budget=0)
        assert value == SUM.unit

    def test_deep_seed_chain_without_recursion_limit(self):
        coalg = Coalgebra(lambda k: Expansion([single_node_piece(sti=1.0)],
                                              [(k - 1, None)] if k > 0 else []))
        assert chrono(5_000, coalg, SUM, budget=10_000) == (5_001.0, 0)
        run = chrono_run(5_000, coalg, SUM, budget=10_000)
        while run_steps(run, 7) != "done":
            pass
        assert (run.value, run.frames_done, len(run.memo)) == (5_001.0, 5_001, 5_001)

    def test_cyclic_seeds_rejected(self):
        coalg = Coalgebra(lambda k: Expansion([single_node_piece()], [((k + 1) % 3, None)]))
        with pytest.raises(ValueError, match="cycle"):
            chrono(0, coalg, SUM, budget=100)

    def test_fused_equals_pipeline_random_fixtures(self):
        import random as _r

        for trial in range(50):
            rng = _r.Random(trial)
            depth = rng.randint(0, 4)
            fanout = rng.randint(1, 2)
            weightof = {k: rng.uniform(0, 3) for k in range(depth + 1)}

            def expand(k):
                piece = single_node_piece("N", sti=weightof[k])
                children = [(k - 1, None)] * fanout if k > 0 else []
                return Expansion([piece], children)

            coalg = Coalgebra(expand, seed_key=lambda s: s)
            fused, _ = chrono(depth, coalg, SUM, budget=10_000)
            # unfused pipeline needs per-occurrence expansion: disable memo
            # sharing by making seeds unique
            counter = itertools.count()

            def expand_uniq(k):
                lvl = k[0]
                piece = single_node_piece("N", sti=weightof[lvl])
                children = (
                    [((lvl - 1, next(counter)), None)] * fanout if lvl > 0 else []
                )
                return Expansion([piece], children)

            graph = futu_unfold((depth, -1), Coalgebra(expand_uniq), 10_000)
            unfused, _ = histo_fold(graph.snapshot(), SUM)
            assert fused == pytest.approx(unfused)


class TestRunSteps:
    def test_single_step_increments_match_single_shot(self):
        view = weighted_view([1.0, 2.0, 3.0, 4.0])
        run = fold_run(view, SUM)
        while run.status not in ("done",):
            run_steps(run, 1)
        assert run.value == fold(view, SUM)
        assert run.frames_done == 4

    def test_round_robin_interleave(self):
        view = weighted_view([1.0, 2.0, 3.0])
        solo_sum = fold(view, SUM)
        solo_sub = fold(view, SUB)
        r1, r2 = fold_run(view, SUM), fold_run(view, SUB)
        while r1.status != "done" or r2.status != "done":
            if r1.status != "done":
                run_steps(r1, 1)
            if r2.status != "done":
                run_steps(r2, 1)
        assert r1.value == solo_sum
        assert r2.value == solo_sub

    def test_mutation_marks_stale(self):
        mg = TypedMetagraph()
        for w in (1.0, 2.0, 3.0):
            mg.add_node("N", sti=w)
        run = fold_run(mg.snapshot(), SUM)
        run_steps(run, 1)
        mg.add_node("N")
        assert run_steps(run, 1) == "stale"
        with pytest.raises(StaleSnapshotError):
            complete(run)

    def test_any_slicing_bit_identical(self):
        view = weighted_view([0.1, 0.2, 0.3, 0.4, 0.5])
        single = fold(view, SUM)
        for slices in [(1, 1, 1, 1, 1), (2, 3), (5,), (3, 1, 1), (4, 2)]:
            run = fold_run(view, SUM)
            for k in slices:
                run_steps(run, k)
            assert complete(run) == single

    def test_report_shape(self):
        view = weighted_view([1.0])
        run = fold_run(view, SUM)
        run_steps(run, 1)
        rep = run.report()
        assert set(rep) == {"kind", "frames_done", "memo_hits", "status"}
        assert rep["kind"] == "fold"


class TestMemoRecurse:
    def test_fib_with_memo(self):
        value, memo, hits = memo_recurse(
            10,
            lambda n: [n - 1, n - 2] if n > 2 else [],
            lambda n, vals: sum(vals) if vals else 1,
        )
        assert value == 55
        assert hits > 0
        assert memo[10] == 55


    def test_deep_chain_without_recursion_limit(self):
        value, memo, hits = memo_recurse(
            10_000,
            lambda n: [n - 1] if n > 0 else [],
            lambda n, vals: vals[0] + 1 if vals else 0,
        )
        assert value == 10_000
        assert len(memo) == 10_001
        assert hits == 0

    def test_matches_recursive_reference_on_random_dags(self):
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(1, 25)
            kids = {i: [rng.randrange(i + 1, n + 1) for _ in range(rng.randint(0, 3))]
                    if i < n else [] for i in range(n + 1)}
            compute = lambda i, vals: i + 2 * sum(vals)
            memo, hits = {}, 0

            def visit(i):
                nonlocal hits
                if i in memo:
                    hits += 1
                    return memo[i]
                memo[i] = v = compute(i, [visit(c) for c in kids[i]])
                return v

            value = visit(0)
            got = memo_recurse(0, kids.__getitem__, compute)
            assert got[0] == value
            assert list(got[1].items()) == list(memo.items())  # same post-order
            assert got[2] == hits

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            memo_recurse(0, lambda n: [(n + 1) % 3], lambda n, vals: 0)


class TestOrderAtoms:
    def test_topological_places_targets_first(self):
        mg = TypedMetagraph()
        a = mg.add_node("N")
        b = mg.add_node("N")
        e = mg.add_edge("E", [a, b])
        top = mg.add_edge("T", [e])
        view = mg.snapshot()
        order = order_atoms(view, "topological")
        assert order.index(a) < order.index(e) < order.index(top)


# -- bulk emission and the local frame loop against their step-wise references


def ref_emit_piece(acc, piece, port):
    """`_emit_piece` as one `add_atom` (and `declare_dangling`) per atom."""
    id_map, slot_map, new_ids = {}, {}, []
    for old_id in sorted(piece.atoms):
        a = piece.atoms[old_id]
        targets = []
        for t in a.targets:
            if t >= 0:
                if t not in id_map:
                    raise UnfoldError(f"piece target {t} emitted out of order", acc)
                targets.append(id_map[t])
                continue
            label = piece.dangling[ref_slot(t)].type_label
            if port is not None:
                if acc.atoms[port].type_label != label:
                    raise UnfoldError(
                        f"port type {acc.atoms[port].type_label!r} != slot type {label!r}", acc)
                targets.append(port)
            else:
                if ref_slot(t) not in slot_map:
                    slot_map[ref_slot(t)] = acc.declare_dangling(label)
                targets.append(slot_ref(slot_map[ref_slot(t)]))
        id_map[old_id] = acc.add_atom(a.kind, a.type_label, tuple(targets), a.tv, a.sti, a.lti)
        new_ids.append(id_map[old_id])
    return new_ids


def step_to_end(run):
    """`complete` as one `step()` per frame."""
    while run.status not in ("done", "stale"):
        run.step()
    if run.status == "stale":
        raise StaleSnapshotError("snapshot changed during run")
    return run.value


def same_store(a, b):
    return (a.atoms == b.atoms and a.dangling == b.dangling and a._next_id == b._next_id
            and a.to_json() == b.to_json())


LABELS = ("A", "B")


@st.composite
def small_stores(draw, max_atoms=5, max_slots=2):
    """A store with edges on nodes, edges and slots; sometimes its ids are
    reversed, so an edge targets a later atom."""
    mg = TypedMetagraph()
    for _ in range(draw(st.integers(0, max_slots))):
        mg.declare_dangling(draw(st.sampled_from(LABELS)))
    for _ in range(draw(st.integers(1, max_atoms))):
        refs = sorted(mg.atoms) + [slot_ref(s) for s in range(len(mg.dangling))]
        label = draw(st.sampled_from(LABELS))
        sti = draw(st.sampled_from([0.0, 1.0, 2.5]))
        if refs and draw(st.booleans()):
            mg.add_edge(label, draw(st.lists(st.sampled_from(refs), min_size=1, max_size=3)),
                        sti=sti, tv=draw(st.none() | st.just(TruthValue(0.5, 0.5))))
        else:
            mg.add_node(label, sti=sti)
    if len(mg) > 1 and draw(st.integers(0, 9)) == 0:
        n = len(mg)
        flip = {i: n - 1 - i for i in mg.atoms}
        mg.atoms = {flip[i]: mg.atoms[i]._replace(
            id=flip[i], targets=tuple(flip.get(t, t) for t in mg.atoms[i].targets))
            for i in sorted(mg.atoms, reverse=True)}
    return mg


@st.composite
def coalgebras(draw):
    """Integer seeds; seed k emits some of a few pieces and has children
    below k, bound to one of its emitted atoms or unattached."""
    pieces = draw(st.lists(small_stores(), min_size=1, max_size=4))
    plan = {}
    for k in range(draw(st.integers(1, 6))):
        emit = draw(st.lists(st.sampled_from(range(len(pieces))), max_size=3))
        n_atoms = sum(len(pieces[j]) for j in emit)
        ports = st.none() | st.integers(0, n_atoms - 1) if n_atoms else st.none()
        kids = draw(st.lists(st.tuples(st.integers(0, max(k - 1, 0)), ports),
                             max_size=3 if k else 0))
        plan[k] = ([pieces[j] for j in emit], kids)
    return Coalgebra(lambda k: Expansion(*plan[k])), max(plan)


def outcome(make_run, finish):
    """What a run leaves: its result or error, and its counters."""
    run = make_run()
    try:
        finish(run)
        result = ("value", run.value)
    except (UnfoldError, StaleSnapshotError, IndexError) as exc:
        partial = getattr(exc, "partial", None)
        result = (type(exc).__name__, str(exc), partial is not None and partial.to_json())
    return result, run.frames_done, run.memo_hits, run.status, run.truncated


class TestBulkEmissionMatchesAddAtom:
    @settings(max_examples=80, deadline=None)
    @given(case=coalgebras(), budget=st.integers(0, 12))
    def test_futu_unfold(self, case, budget):
        coalg, root = case
        runs = []
        for emit in (morphisms._emit_piece, ref_emit_piece):
            saved, morphisms._emit_piece = morphisms._emit_piece, emit
            try:
                runs.append(outcome(lambda: futu_unfold_run(root, coalg, budget), complete))
            finally:
                morphisms._emit_piece = saved
        (got, *got_counts), (want, *want_counts) = runs
        assert got_counts == want_counts
        if got[0] == "value":
            assert want[0] == "value" and same_store(got[1], want[1])
            assert got[1].version > 0 or not got[1].atoms
        else:
            assert got == want

    @settings(max_examples=80, deadline=None)
    @given(acc=small_stores(max_atoms=4), piece=small_stores(), data=st.data())
    def test_emit_piece(self, acc, piece, data):
        port = data.draw(st.none() | st.sampled_from(sorted(acc.atoms)))
        got, want = acc.clone(), acc.clone()
        view = got.snapshot()
        try:
            ids = list(morphisms._emit_piece(got, piece, port))
        except UnfoldError as exc:
            with pytest.raises(UnfoldError, match=re.escape(str(exc))):
                ref_emit_piece(want, piece, port)
            assert exc.partial is got
        else:
            assert ids == ref_emit_piece(want, piece, port)
        assert same_store(got, want)
        assert got.version > view.stamp and view.is_stale()


@st.composite
def fold_cases(draw):
    mg = TypedMetagraph()
    for _ in range(draw(st.integers(0, 12))):
        if mg.atoms and draw(st.booleans()):
            mg.add_edge("E", draw(st.lists(st.sampled_from(sorted(mg.atoms)), min_size=1,
                                           max_size=3)), sti=draw(st.floats(0, 4)))
        else:
            mg.add_node(draw(st.sampled_from(LABELS)), sti=draw(st.floats(0, 4)))
    order = draw(st.sampled_from(["insertion", ("random", 3), ("random", 8)]))
    return (mg, order, draw(st.integers(0, 14)), draw(st.none() | st.integers(0, 14)),
            draw(st.booleans()))


class TestCompleteMatchesStepping:
    @settings(max_examples=120, deadline=None)
    @given(case=fold_cases())
    def test_fold_and_histo(self, case):
        mg, order, head, mutate_at, histo = case
        results = []
        for finish in (complete, step_to_end):
            store = mg.clone()
            frames = []

            def combine(acc, ctx):
                frames.append(ctx.atom.id)
                if len(frames) == mutate_at:  # edits the origin mid-run: stale
                    store.set_sti(ctx.atom.id, -1.0)
                return acc + ctx.atom.sti + (len(ctx.key) if histo else 0)

            algebra = Algebra(0.0, combine)
            make = histo_fold_run if histo else fold_run

            def make_run():
                run = make(store.snapshot(), algebra, order)
                run_steps(run, head)
                return run

            results.append((outcome(make_run, finish), frames))
        assert results[0] == results[1]
        (result, frames_done, _, status, _), frames = results[0]
        assert frames_done == len(frames)
        if mutate_at is not None and 0 < mutate_at <= len(mg):
            assert status == "stale" and result[0] == "StaleSnapshotError"
        else:
            assert status == "done" and frames_done == len(mg)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 60), head=st.integers(0, 20), budget=st.integers(0, 80))
    def test_chrono(self, n, head, budget):
        coalg = Coalgebra(lambda k: Expansion([single_node_piece(sti=float(k))],
                                              [(k // 2, None), (k // 3, None)] if k > 1 else []))
        results = []
        for finish in (complete, step_to_end):
            def make_run():
                run = chrono_run(n, coalg, SUM, budget)
                run_steps(run, head)
                return run
            results.append(outcome(make_run, finish))
        assert results[0] == results[1]
        assert results[0][3] == "done"

    def test_completed_run_returns_its_value_again(self):
        run = fold_run(weighted_view([1.0, 2.0]), SUM)
        assert complete(run) == 3.0 and complete(run) == 3.0
        assert (run.frames_done, run.status) == (2, "done")
