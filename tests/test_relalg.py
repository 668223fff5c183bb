import itertools
import math
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cogpat.relalg import (
    MU,
    X_SLOT,
    Carriers,
    CarrierMismatchError,
    FinRel,
    FunctorSpec,
    compose,
    converse,
    dp_spec_relation,
    empty,
    fname,
    full,
    identity,
    is_transitive,
    lfp_dp,
    list_functor,
    meet,
    monotone_check,
    random_dp_instance,
    random_functional,
    random_preorder,
    random_relation,
    register_functor_carriers,
    rel_fold,
    residual,
    sandwich_monotone,
    shrink,
    subset,
    sum_fixture,
    transitive_closure,
    union,
    verify_dp_theorem,
    verify_greedy_theorem,
)


ABC = Carriers({"A": ["a", "b", "c"], "B": [1, 2, 3], "C": ["x", "y", "z"]})


def all_relations(carriers, src, tgt):
    cells = list(itertools.product(carriers.get(src), carriers.get(tgt)))
    for bits in itertools.product([0, 1], repeat=len(cells)):
        yield FinRel(src, tgt, frozenset(c for c, b in zip(cells, bits) if b))


class TestCoreOps:
    def test_converse_involution(self):
        rng = random.Random(0)
        for _ in range(100):
            r = random_relation(rng, ABC, "A", "B", rng.random())
            assert converse(converse(r)) == r

    def test_compose_identity(self):
        rng = random.Random(1)
        r = random_relation(rng, ABC, "A", "B", 0.5)
        assert compose(identity(ABC, "A"), r) == r
        assert compose(r, identity(ABC, "B")) == r

    def test_hand_composition(self):
        s = FinRel("A", "B", frozenset({("a", 1), ("b", 2)}))
        r = FinRel("B", "C", frozenset({(1, "x")}))
        assert compose(s, r).pairs == {("a", "x")}

    def test_carrier_mismatch(self):
        r = FinRel("A", "B", frozenset())
        with pytest.raises(CarrierMismatchError):
            compose(r, r)
        with pytest.raises(CarrierMismatchError):
            meet(r, converse(r))

    def test_registry_validates_pairs(self):
        with pytest.raises(CarrierMismatchError):
            ABC.rel("A", "B", [("a", 99)])

    def test_meet_union_dom(self):
        r1 = FinRel("A", "B", frozenset({("a", 1), ("b", 2)}))
        r2 = FinRel("A", "B", frozenset({("a", 1), ("c", 3)}))
        assert meet(r1, r2).pairs == {("a", 1)}
        assert union(r1, r2).pairs == {("a", 1), ("b", 2), ("c", 3)}
        assert r1.dom() == {"a", "b"}
        assert r1.ran() == {1, 2}


class TestResidual:
    def test_residual_of_empty_divisor_is_full(self):
        rng = random.Random(2)
        r = random_relation(rng, ABC, "A", "C", 0.4)
        assert residual(ABC, r, empty("B", "C")) == full(ABC, "A", "B")

    def test_residual_by_identity_is_original(self):
        rng = random.Random(3)
        r = random_relation(rng, ABC, "A", "C", 0.5)
        assert residual(ABC, r, identity(ABC, "C")).pairs == r.pairs

    def test_residual_is_maximum_solution(self):
        # brute force over all 2^9 candidates on 3-element carriers
        rng = random.Random(4)
        for _ in range(5):
            r = random_relation(rng, ABC, "A", "C", 0.5)
            s = random_relation(rng, ABC, "B", "C", 0.5)
            res = residual(ABC, r, s)
            assert subset(compose(res, s), r)
            for x in all_relations(ABC, "A", "B"):
                if subset(compose(x, s), r):
                    assert subset(x, res)

    def test_galois_property_exhaustive(self):
        rng = random.Random(5)
        r = random_relation(rng, ABC, "A", "C", 0.5)
        s = random_relation(rng, ABC, "B", "C", 0.5)
        res = residual(ABC, r, s)
        for x in all_relations(ABC, "A", "B"):
            assert subset(compose(x, s), r) == subset(x, res)


NUM = Carriers({"N": [1, 2], "V": [1, 2, 3]})
GEQ = FinRel("V", "V", frozenset((a, b) for a in [1, 2, 3] for b in [1, 2, 3] if a >= b))


class TestShrink:
    def test_keeps_the_best_output(self):
        s = FinRel("N", "V", frozenset({(1, 1), (1, 2)}))
        assert shrink(s, GEQ).pairs == {(1, 2)}

    def test_shrink_by_full_keeps_everything(self):
        rng = random.Random(6)
        s = random_relation(rng, NUM, "N", "V", 0.6)
        assert shrink(s, full(NUM, "V", "V")) == s

    def test_shrink_of_empty(self):
        assert shrink(empty("N", "V"), GEQ).pairs == frozenset()

    def test_always_a_subset(self):
        rng = random.Random(7)
        for _ in range(50):
            s = random_relation(rng, NUM, "N", "V", rng.random())
            r = random_relation(rng, NUM, "V", "V", rng.random())
            assert subset(shrink(s, r), s)

    def test_idempotent_on_preorders(self):
        rng = random.Random(8)
        for _ in range(30):
            s = random_relation(rng, NUM, "N", "V", rng.random())
            r = random_preorder(rng, NUM, "V", 0.4)
            once = shrink(s, r)
            assert shrink(once, r) == once


class TestRelEval:
    """The forms a relation expression is built from, called directly; the
    ones `TestCoreOps` does not already cover."""

    def test_expression_forms(self):
        s = FinRel("A", "B", frozenset({("a", 1), ("b", 2)}))
        assert subset(s, full(ABC, "A", "B")) is True
        assert meet(s, empty("A", "B")).pairs == frozenset()
        assert union(s, s) == s
        assert identity(ABC, "B").pairs == {(1, 1), (2, 2), (3, 3)}

    def test_lift_of_identity_is_identity(self):
        carriers, f, _ = sum_fixture()
        lifted = f.lift(carriers, identity(carriers, "B"))
        assert lifted == identity(carriers, fname("B"))


class TestFunctor:
    def test_mu_enumeration_counts_lists(self):
        carriers, f, _ = sum_fixture()
        # depth 3 over a 2-element alphabet: lists of length <= 2
        assert len(f.mu(carriers)) == 1 + 2 + 4
        assert len(f.mu(carriers, depth=2)) == 1 + 2

    def test_apply_size(self):
        carriers, f, _ = sum_fixture()
        assert len(f.apply(carriers, carriers.get("B"))) == 1 + 2 * 5

    def test_children(self):
        f = list_functor("A")
        assert f.children((0,)) == ()
        assert f.children((1, 2, (0,))) == ((0,),)

    def test_depth_validated(self):
        with pytest.raises(Exception):
            FunctorSpec(summands=((),), depth=0)


class TestRelFold:
    def test_sum_of_list(self):
        carriers, f, s = sum_fixture()
        fold = rel_fold(s, f, carriers)
        assert [v for m, v in fold.pairs if m == (1, 1, (1, 2, (0,)))] == [3]

    def test_matches_direct_recursion(self):
        carriers, f, s = sum_fixture()
        fold = rel_fold(s, f, carriers)

        def direct(m):
            if m == (0,):
                return 0
            _, a, rest = m
            return min(a + direct(rest), 4)

        for m in f.mu(carriers):
            assert {v for m2, v in fold.pairs if m2 == m} == {direct(m)}

    def test_empty_inductive_summand(self):
        carriers, f, _ = sum_fixture()
        s = FinRel(fname("B"), "B", frozenset({((0,), 0)}))
        fold = rel_fold(s, f, carriers)
        assert fold.pairs == {((0,), 0)}

    def test_functional_preserved(self):
        carriers, f, s = sum_fixture()
        assert len(s.dom()) == len(s.pairs)
        fold = rel_fold(s, f, carriers)
        assert len(fold.dom()) == len(fold.pairs)

    def test_depth_independence(self):
        carriers2 = Carriers({"A": [1, 2], "B": [0, 1, 2, 3, 4]})
        f2 = list_functor("A", depth=2)
        carriers3, f3, s = sum_fixture()
        register_functor_carriers(carriers2, f2, "B")
        s2 = FinRel(fname("B"), "B", s.pairs)
        shallow = rel_fold(s2, f2, carriers2)
        deep = rel_fold(s, f3, carriers3)
        mu2 = f2.mu(carriers2)
        assert {p for p in deep.pairs if p[0] in mu2} == shallow.pairs


def greedy_instance(seed):
    rng = random.Random(seed)
    nb = rng.choice([2, 3, 4])
    carriers = Carriers({"A": [1, 2], "B": list(range(nb))})
    f = list_functor("A", depth=rng.choice([2, 3]))
    register_functor_carriers(carriers, f, "B")
    r = random_preorder(rng, carriers, "B", 0.4)
    s0 = random_relation(rng, carriers, fname("B"), "B", 0.3)
    s = sandwich_monotone(s0, r, f, carriers)
    return carriers, f, s, r


class TestGreedyTheorem:
    def test_hundred_instances_no_violations(self):
        satisfied = 0
        for seed in range(120):
            carriers, f, s, r = greedy_instance(seed)
            report = verify_greedy_theorem(s, r, f, carriers)
            if report.preconditions_hold:
                satisfied += 1
                assert not report.violated, f"seed {seed}"
        assert satisfied >= 100

    def test_sum_fixture_satisfies_and_holds(self):
        carriers, f, s = sum_fixture()
        geq = carriers.rel(
            "B", "B",
            [(a, b) for a in carriers.get("B") for b in carriers.get("B") if a >= b],
        )
        report = verify_greedy_theorem(s, geq, f, carriers)
        assert report.preconditions_hold
        assert report.inclusion_holds

    def test_nonmonotone_search_finds_strict_failure(self):
        carriers, f, _ = sum_fixture()
        found = 0
        for seed in range(60):
            rng = random.Random(seed)
            r = random_preorder(rng, carriers, "B", 0.3)
            s0 = random_relation(rng, carriers, fname("B"), "B", 0.25)
            report = verify_greedy_theorem(s0, r, f, carriers)
            if not report.monotone and not report.inclusion_holds:
                assert report.inclusion_counterexample is not None
                found += 1
        assert found >= 1

    def test_identity_order_with_functional_algebra(self):
        carriers, f, s = sum_fixture()
        report = verify_greedy_theorem(s, identity(carriers, "B"), f, carriers)
        assert report.transitive
        assert report.inclusion_holds

    def test_report_serializes(self):
        import json

        carriers, f, s, r = greedy_instance(0)
        report = verify_greedy_theorem(s, r, f, carriers)
        json.dumps(report.to_dict())


def dp_instance(seed):
    rng = random.Random(seed)
    nb, nc = rng.choice([2, 3]), rng.choice([2, 3])
    carriers = Carriers({"A": [1, 2], "B": list(range(nb)), "C": list(range(nc))})
    f = list_functor("A", depth=2)
    register_functor_carriers(carriers, f, "B")
    carriers.register(fname("C"), sorted(f.apply(carriers, carriers.get("C")), key=repr))
    r = random_preorder(rng, carriers, "B", 0.4)
    s0 = random_relation(rng, carriers, fname("B"), "B", 0.4)
    s = sandwich_monotone(s0, converse(r), f, carriers)
    t = random_functional(rng, carriers, fname("C"), "C")
    return carriers, f, s, t, r


class TestLfpDp:
    def test_empty_subproblem_decomposition(self):
        carriers, f, s, t, r = dp_instance(0)
        res = lfp_dp(s, empty(fname("C"), "C"), r, f, carriers)
        assert res.converged
        assert res.rel.pairs == frozenset()

    def test_cap_zero_not_converged(self):
        carriers, f, s, t, r = dp_instance(1)
        res = lfp_dp(s, t, r, f, carriers, cap=0)
        assert not res.converged
        assert res.rel.pairs == frozenset()

    def test_fixture_fixed_point_equals_direct_evaluation(self):
        carriers, f, s = sum_fixture()
        carriers.register("C", carriers.get("B"))
        carriers.register(fname("C"), sorted(f.apply(carriers, carriers.get("C")), key=repr))
        geq = carriers.rel(
            "B", "B",
            [(a, b) for a in carriers.get("B") for b in carriers.get("B") if a >= b],
        )
        t = FinRel(fname("C"), "C", s.pairs)
        m = dp_spec_relation(s, t, geq, f, carriers)
        res = lfp_dp(s, t, geq, f, carriers)
        assert res.converged
        assert res.rel.pairs == m.pairs


class TestDpTheorem:
    def test_hundred_instances_no_violations(self):
        satisfied = 0
        for seed in range(800):
            carriers, f, s, t, r = dp_instance(seed)
            report = verify_dp_theorem(s, t, r, f, carriers)
            if report.preconditions_hold:
                satisfied += 1
                assert not report.violated, f"seed {seed}"
            if satisfied >= 100:
                break
        assert satisfied >= 100

    def test_domain_condition_violation_flagged(self):
        # S empty makes M empty, so any nonempty total T escapes the domain
        carriers = Carriers({"A": [1], "B": [0], "C": [0]})
        f = list_functor("A", depth=2)
        register_functor_carriers(carriers, f, "B")
        carriers.register(fname("C"), sorted(f.apply(carriers, carriers.get("C")), key=repr))
        s = empty(fname("B"), "B")
        t = FinRel(fname("C"), "C", frozenset({((0,), 0)}))
        r = identity(carriers, "B")
        report = verify_dp_theorem(s, t, r, f, carriers)
        assert not report.domain_condition
        assert not report.preconditions_hold
        assert not report.violated

    def test_fixture_report(self):
        carriers, f, s = sum_fixture()
        carriers.register("C", carriers.get("B"))
        carriers.register(fname("C"), sorted(f.apply(carriers, carriers.get("C")), key=repr))
        geq = carriers.rel(
            "B", "B",
            [(a, b) for a in carriers.get("B") for b in carriers.get("B") if a >= b],
        )
        t = FinRel(fname("C"), "C", s.pairs)
        report = verify_dp_theorem(s, t, geq, f, carriers)
        assert report.converged
        assert report.inclusion_holds


class TestHelpers:
    def test_transitive_closure(self):
        r = FinRel("V", "V", frozenset({(1, 2), (2, 3)}))
        assert transitive_closure(r).pairs == {(1, 2), (2, 3), (1, 3)}
        assert is_transitive(transitive_closure(r))

    def test_random_preorder_is_preorder(self):
        rng = random.Random(9)
        for _ in range(20):
            r = random_preorder(rng, NUM, "V", rng.random())
            assert is_transitive(r)
            assert subset(identity(NUM, "V"), r)

    def test_sandwich_is_monotone(self):
        for seed in range(30):
            carriers, f, s, r = greedy_instance(seed)
            ok, ce = monotone_check(s, r, f, carriers)
            assert ok, ce


# ---------------------------------------------------------------------------
# Fast paths against the straightforward code they replace

def kleene_mu(f, carriers):
    seen = set()
    for _ in range(f.depth):
        seen |= f.apply(carriers, seen)
    return frozenset(seen)


def kleene_fold(s, f, carriers):
    """The fold as a Kleene fixpoint: whole rounds over muF from empty."""
    s_by_in = {}
    for fin, out in s.pairs:
        s_by_in.setdefault(fin, []).append(out)
    pairs = set()
    while True:
        x_out = {}
        for m, v in pairs:
            x_out.setdefault(m, []).append(v)
        new = set()
        for m in kleene_mu(f, carriers):
            pools = [x_out.get(v, ()) if slot == X_SLOT else (v,)
                     for v, slot in zip(m[1:], f.summands[m[0]])]
            for combo in itertools.product(*pools):
                new.update((m, out) for out in s_by_in.get((m[0], *combo), ()))
        if new == pairs:
            return FinRel(MU, s.tgt, frozenset(pairs))
        pairs = new


def plain_compose(r1, r2):
    return FinRel(r1.src, r2.tgt, frozenset(
        (x, z) for x, y in r1.pairs for y2, z in r2.pairs if y == y2))


def plain_shrink(s, r):
    return FinRel(s.src, s.tgt, frozenset(
        (a, b) for a, b in s.pairs
        if all((b, c) in r.pairs for a2, c in s.pairs if a2 == a)))


def plain_lift(f, carriers, r):
    out = set()
    for i, slots in enumerate(f.summands):
        pools = [sorted(r.pairs, key=repr) if slot == X_SLOT
                 else [(v, v) for v in carriers.get(slot[1])] for slot in slots]
        for combo in itertools.product(*pools):
            out.add(((i, *(a for a, _ in combo)), (i, *(b for _, b in combo))))
    return FinRel(fname(r.src), fname(r.tgt), frozenset(out))


def plain_closure(r):
    pairs = set(r.pairs)
    while True:
        extra = {(x, z) for x, y in pairs for y2, z in pairs if y == y2} - pairs
        if not extra:
            return FinRel(r.src, r.tgt, frozenset(pairs))
        pairs |= extra


def capped_lfp(s, t, r, f, carriers, cap):
    """lfp_dp's iteration run to convergence or to the cap, step by step."""
    x = empty(t.tgt, s.tgt)
    for k in range(cap):
        x2 = plain_shrink(plain_compose(plain_compose(converse(t), plain_lift(f, carriers, x)), s), r)
        if x2.pairs == x.pairs:
            return x2, k + 1, True
        x = x2
    return x, cap, False


CONSTS = {"A": [1, 2], "K": ["k"]}
CONST_SLOT = st.sampled_from([("const", "A"), ("const", "K")])
# a base summand with no recursion slot, then 1-2 with one or two
RECURSIVE_SUMMAND = st.tuples(
    st.lists(CONST_SLOT, max_size=1), st.integers(1, 2), st.randoms(use_true_random=False),
).map(lambda d: tuple(d[2].sample(d[0] + [X_SLOT] * d[1], len(d[0]) + d[1])))


def mu_size(summands, depth):
    size = 0
    for _ in range(depth):
        size = sum(math.prod(size if sl == X_SLOT else len(CONSTS[sl[1]]) for sl in slots)
                   for slots in summands)
    return size


@st.composite
def functor_instances(draw):
    base = tuple(draw(st.lists(CONST_SLOT, max_size=2)))
    summands = (base, *draw(st.lists(RECURSIVE_SUMMAND, min_size=1, max_size=2)))
    depth = draw(st.integers(1, 4))
    assume(mu_size(summands, depth) <= 150)
    carriers = Carriers(dict(CONSTS, B=list(range(draw(st.integers(1, 3))))))
    f = FunctorSpec(summands, depth)
    register_functor_carriers(carriers, f, "B")
    rng = random.Random(draw(st.integers(0, 2**32)))
    s = random_relation(rng, carriers, fname("B"), "B", draw(st.floats(0.3, 1.0)))
    return carriers, f, s


# the seeds in 595220-595759 whose lfp_dp iteration does not stabilize
NONCONVERGING = [
    595225, 595244, 595245, 595263, 595269, 595287, 595293, 595298, 595338,
    595388, 595404, 595414, 595430, 595437, 595440, 595441, 595452, 595475,
    595481, 595491, 595520, 595543, 595551, 595570, 595598, 595612, 595664,
    595665, 595668, 595675, 595702, 595709, 595735, 595736,
]
PROPERTY = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def _dp_args(seed):
    carriers, f, s, t, r = random_dp_instance(seed)
    return s, t, r, f, carriers


class TestFastPathOracles:
    @PROPERTY
    @given(functor_instances())
    def test_rel_fold_is_the_kleene_fixpoint(self, instance):
        carriers, f, s = instance
        assert f.mu(carriers) == kleene_mu(f, carriers)
        assert carriers.get(MU) == tuple(sorted(kleene_mu(f, carriers), key=repr))
        assert rel_fold(s, f, carriers) == kleene_fold(s, f, carriers)

    @PROPERTY
    @given(functor_instances(), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_lift_compose_shrink_closure(self, instance, density, seed):
        carriers, f, s = instance
        rng = random.Random(seed)
        r = random_relation(rng, carriers, "B", "B", density)
        assert f.lift(carriers, r) == plain_lift(f, carriers, r)
        lifted = f.lift(carriers, r)
        assert compose(lifted, s) == plain_compose(lifted, s)
        assert shrink(s, r) == plain_shrink(s, r)
        assert transitive_closure(r) == plain_closure(r)

    def test_nonconverging_seeds(self):
        found = [seed for seed in range(595220, 595760)
                 if not lfp_dp(*_dp_args(seed)).converged]
        assert found == NONCONVERGING

    @PROPERTY
    @given(st.one_of(st.sampled_from(NONCONVERGING), st.integers(595220, 595759)),
           st.integers(0, 12))
    def test_lfp_dp_matches_the_capped_loop(self, seed, cap):
        s, t, r, f, carriers = _dp_args(seed)
        res = lfp_dp(s, t, r, f, carriers, cap)
        assert (res.rel, res.iterations, res.converged) == capped_lfp(s, t, r, f, carriers, cap)


class TestLaws:
    @PROPERTY
    @given(st.integers(0, 2**32), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_residual_galois_connection(self, seed, dr, ds, dx):
        rng = random.Random(seed)
        r = random_relation(rng, ABC, "A", "C", dr)
        s = random_relation(rng, ABC, "B", "C", ds)
        x = random_relation(rng, ABC, "A", "B", dx)
        assert subset(compose(x, s), r) == subset(x, residual(ABC, r, s))

    @PROPERTY
    @given(st.integers(0, 2**32), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_shrink_universal_property(self, seed, ds, dr, dx):
        rng = random.Random(seed)
        s = random_relation(rng, ABC, "A", "B", ds)
        r = random_relation(rng, ABC, "B", "B", dr)
        x = random_relation(rng, ABC, "A", "B", dx)
        assert subset(x, shrink(s, r)) == (
            subset(x, s) and subset(compose(converse(x), s), r))
