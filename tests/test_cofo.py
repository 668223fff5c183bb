import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from cogpat import cofo
from cogpat.cofo import (
    CofoError,
    CofoProblem,
    Hypothesis,
    InconsistencyError,
    combinator_lift,
    extend_dataset,
    info_gain,
    make_cofo_dds,
    promising_set,
    quality,
    top_set,
    two_hypothesis_problem,
)
from cogpat.dds import chrono_solve, exact_dp, greedy_run


def uniform_domain(xs):
    return [(x, 1.0 / len(xs)) for x in xs]


def multiples_of_four_problem():
    """X = {0..15}; four hypotheses, each spiking at one multiple of 4, so
    the joint support is the additive subgroup {0, 4, 8, 12}."""
    xs = list(range(16))
    objective = {x: float(x) for x in xs}
    hyps = [
        Hypothesis(f"spike{k}", {x: (1.0 if x == 4 * k else 0.0) for x in xs}, 0.25)
        for k in range(4)
    ]
    return CofoProblem(
        domain=uniform_domain(xs),
        objective=objective,
        hypotheses=hyps,
        rho=0.06,
        combinators={"addmod": lambda x, y: (x + y) % 16},
    )


class TestTopSet:
    def test_identity_top_quantile(self):
        dom = uniform_domain(list(range(1, 11)))
        f = {x: float(x) for x in range(1, 11)}
        assert top_set(f, dom, 0.3) == {8, 9, 10}

    def test_constant_all_tied(self):
        dom = uniform_domain([1, 2, 3, 4])
        assert top_set({x: 7.0 for x in [1, 2, 3, 4]}, dom, 0.5) == {1, 2, 3, 4}

    def test_mirror_quarter(self):
        dom = uniform_domain([1, 2, 3, 4])
        assert top_set({x: 5.0 - x for x in [1, 2, 3, 4]}, dom, 0.25) == {1}

    def test_rho_bounds(self):
        dom = uniform_domain([1, 2])
        with pytest.raises(CofoError):
            top_set({1: 1.0, 2: 2.0}, dom, 1.0)


class TestPromisingSet:
    def test_empty_dataset_unions_all(self):
        p = two_hypothesis_problem()
        ps = promising_set(p, ())
        assert set(ps.support) == {4, 1}
        assert ps.chi[4] == pytest.approx(0.5)
        assert ps.chi[1] == pytest.approx(0.5)

    def test_dataset_filters_hypotheses(self):
        p = two_hypothesis_problem()
        ps = promising_set(p, ((2, 2.0),))
        assert ps.support == [4]
        assert ps.chi[4] == pytest.approx(1.0)

    def test_inconsistent_pair_raises(self):
        p = two_hypothesis_problem()
        with pytest.raises(InconsistencyError) as exc:
            promising_set(p, ((2, 7.0),))
        assert exc.value.pair == (2, 7.0)

    def test_matches_direct_enumeration(self):
        # oracle: recompute chi by hand over the alive hypotheses
        p = multiples_of_four_problem()
        ps = promising_set(p, ())
        expected = {x: 0.0 for x in p.points}
        for h in p.hypotheses:
            peak = max(h.table, key=h.table.get)
            expected[peak] += h.prior
        for x in p.points:
            assert ps.chi[x] == pytest.approx(expected[x])

    def test_chi_in_unit_interval(self):
        p = two_hypothesis_problem()
        ps = promising_set(p, ())
        assert all(0.0 <= v <= 1.0 for v in ps.chi.values())


class TestQuality:
    def test_singleton_zero_bits(self):
        p = two_hypothesis_problem()
        assert quality(p, ((2, 2.0),)) == pytest.approx(0.0)

    def test_uniform_four_points_two_bits(self):
        xs = [1, 2, 3, 4]
        obj = {x: float(x) for x in xs}
        hyps = [
            Hypothesis(f"h{x}", {y: (1.0 if y == x else 0.0) for y in xs}, 1.0)
            for x in xs
        ]
        p = CofoProblem(uniform_domain(xs), obj, hyps, 0.25, {})
        assert quality(p, ()) == pytest.approx(2.0)

    def test_two_hypothesis_example(self):
        p = two_hypothesis_problem()
        assert quality(p, ()) == pytest.approx(1.0)
        assert quality(p, ((2, 2.0),)) == pytest.approx(0.0)

    def test_bounded_by_log_domain(self):
        for p in (two_hypothesis_problem(), multiples_of_four_problem()):
            q = quality(p, ())
            assert 0.0 <= q <= math.log2(len(p.points)) + 1e-12


class TestInfoGain:
    def test_no_change_zero(self):
        p = two_hypothesis_problem()
        g = info_gain(p, (), ())
        assert g.bits == pytest.approx(0.0)
        assert g.kl_bits == pytest.approx(0.0)

    def test_one_bit_example(self):
        p = two_hypothesis_problem()
        g = info_gain(p, (), ((2, 2.0),))
        assert g.bits == pytest.approx(1.0)

    def test_pair_consistent_with_all_gains_nothing(self):
        # both hypotheses send 1 to 1, so the pair filters nothing
        xs = [1, 2, 3, 4]
        obj = {1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}
        a = Hypothesis("a", {1: 1.0, 2: 2.0, 3: 3.0, 4: 9.0}, 0.5)
        b = Hypothesis("b", {1: 1.0, 2: 9.0, 3: 3.0, 4: 4.0}, 0.5)
        p = CofoProblem(uniform_domain(xs), obj, [a, b], 0.25, {})
        g = info_gain(p, (), ((1, 1.0),))
        assert g.bits == pytest.approx(0.0)
        assert g.kl_bits == pytest.approx(0.0)

    def test_subset_violation(self):
        p = two_hypothesis_problem()
        with pytest.raises(CofoError):
            info_gain(p, ((2, 2.0),), ())

    def test_kl_value_against_hand_computation(self):
        # three singleton-top hypotheses with priors 1/2, 1/4, 1/4; the
        # added pair kills the third, re-weighting the first two to 2/3, 1/3
        xs = [1, 2, 3, 4]
        obj = {1: 0.0, 2: 2.0, 3: 3.0, 4: 4.0}
        h1 = Hypothesis("h1", {1: 0.0, 2: 9.0, 3: 1.0, 4: 1.0}, 0.5)
        h2 = Hypothesis("h2", {1: 0.0, 2: 1.0, 3: 9.0, 4: 1.0}, 0.25)
        h3 = Hypothesis("h3", {1: 5.0, 2: 1.0, 3: 1.0, 4: 9.0}, 0.25)
        p = CofoProblem(uniform_domain(xs), obj, [h1, h2, h3], 0.25, {})
        g = info_gain(p, (), ((1, 0.0),))
        # KL = 2/3 log2((2/3)/(1/2)) + 1/3 log2((1/3)/(1/4)) = log2(4/3)
        assert g.kl_bits == pytest.approx(math.log2(4 / 3), abs=1e-12)
        h_before = -(0.5 * math.log2(0.5) + 2 * 0.25 * math.log2(0.25))
        h_after = -(2 / 3 * math.log2(2 / 3) + 1 / 3 * math.log2(1 / 3))
        assert g.bits == pytest.approx(h_before - h_after, abs=1e-12)


class TestCombinatorLift:
    def test_projection_closure(self):
        p = two_hypothesis_problem()
        p_cond, _ = combinator_lift(p, "left", (), trials=500, seed=0)
        assert p_cond == 1.0

    def test_full_support_both_one(self):
        xs = [1, 2, 3, 4]
        obj = {x: float(x) for x in xs}
        h = Hypothesis("flat", {x: 1.0 for x in xs}, 1.0)
        p = CofoProblem(
            uniform_domain(xs), obj, [h], 0.5, {"left": lambda x, y: x}
        )
        p_cond, p_base = combinator_lift(p, "left", (), trials=200, seed=1)
        assert p_cond == 1.0
        assert p_base == pytest.approx(1.0)

    def test_subgroup_closure(self):
        p = multiples_of_four_problem()
        ps = promising_set(p, ())
        assert set(ps.support) == {0, 4, 8, 12}
        p_cond, p_base = combinator_lift(p, "addmod", (), trials=1000, seed=2)
        assert p_cond == 1.0
        assert p_base == pytest.approx(0.25)

    def test_trials_validated(self):
        p = two_hypothesis_problem()
        with pytest.raises(CofoError):
            combinator_lift(p, "left", (), trials=0, seed=0)


class TestMakeCofoDds:
    def test_horizon_one_exact_dp_finds_the_bit(self):
        p = two_hypothesis_problem()
        dds = make_cofo_dds(p, horizon=1)
        vf = exact_dp(dds)
        assert vf.value(1, dds.state_key(())) == pytest.approx(1.0)

    def test_horizon_zero_rejected(self):
        with pytest.raises(CofoError):
            make_cofo_dds(two_hypothesis_problem(), horizon=0)

    def test_constant_gain_greedy_equals_exact(self):
        # single hypothesis: every action gains exactly 0 bits
        xs = [1, 2, 3, 4]
        obj = {x: float(x) for x in xs}
        h = Hypothesis("only", obj, 1.0)
        p = CofoProblem(
            uniform_domain(xs), obj, [h], 0.25, {"left": lambda x, y: x}
        )
        dds = make_cofo_dds(p, horizon=2)
        vf = exact_dp(dds)
        traj = greedy_run(dds, ())
        assert traj.total == pytest.approx(vf.value(1, dds.state_key(())))
        assert traj.total == pytest.approx(0.0)

    def test_rewards_telescope(self):
        p = two_hypothesis_problem()
        dds = make_cofo_dds(p, horizon=3)
        traj = greedy_run(dds, (), mode="proportional", seed=7)
        d = ()
        for _t, action, _r in traj.steps:
            x, y, c = action
            z = p.combinators[c](x, y)
            d = extend_dataset(d, (z, p.f(z)))
        assert traj.total == pytest.approx(quality(p, ()) - quality(p, d), abs=1e-9)

    def test_sampled_actions_subset_of_exhaustive(self):
        p = two_hypothesis_problem()
        full = make_cofo_dds(p, horizon=1)
        sub = make_cofo_dds(p, horizon=1, sampler=("sample", 6), seed=3)
        all_actions = set(full.actions(1, ()))
        assert set(sub.actions(1, ())) <= all_actions
        # bit-identical under the same seed
        again = make_cofo_dds(p, horizon=1, sampler=("sample", 6), seed=3)
        assert sub.actions(1, ()) == again.actions(1, ())


def all_datasets(p, max_size):
    pairs = [(x, p.f(x)) for x in p.points]
    out = [()]
    for r in range(1, max_size + 1):
        for combo in itertools.combinations(pairs, r):
            out.append(combo)
    return out


class TestMonotoneNarrowing:
    def test_exhaustive_on_fixtures(self):
        for p in (two_hypothesis_problem(), multiples_of_four_problem()):
            datasets = []
            for d in all_datasets(p, 3):
                try:
                    promising_set(p, d)
                except InconsistencyError:
                    continue
                datasets.append(d)
            for d in datasets:
                for d2 in datasets:
                    if set(d) <= set(d2):
                        sup = set(promising_set(p, d).support)
                        sup2 = set(promising_set(p, d2).support)
                        assert sup2 <= sup
                        assert quality(p, d2) <= quality(p, d) + 1e-12

    def test_info_gain_nonnegative(self):
        p = two_hypothesis_problem()
        for d in all_datasets(p, 2):
            try:
                promising_set(p, d)
            except InconsistencyError:
                continue
            for x in p.points:
                d2 = extend_dataset(d, (x, p.f(x)))
                assert info_gain(p, d, d2).bits >= -1e-12


class TestDatasetHelpers:
    def test_extend_deduplicates(self):
        d = extend_dataset((), (1, 1.0))
        assert extend_dataset(d, (1, 1.0)) == d


class TestMalformedProblem:
    @staticmethod
    def build(domain=(1, 2, 3), objective=(1, 2, 3), table=(1, 2, 3)):
        return CofoProblem(
            domain=[(x, 1.0) for x in domain],
            objective={x: float(x) for x in objective},
            hypotheses=[Hypothesis("h", {x: float(x) for x in table}, 1.0)],
            rho=0.3,
            combinators={},
        )

    def test_well_formed(self):
        assert self.build().weight(2) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("kwargs, message", [
        ({"table": (1, 3)}, "hypothesis 'h' has no value at domain point 2"),
        ({"objective": (1, 2)}, "objective has no value at domain point 3"),
        ({"domain": (1, 2, 3, 2)}, "domain repeats a point"),
    ])
    def test_rejected(self, kwargs, message):
        with pytest.raises(CofoError, match=message):
            self.build(**kwargs)


class TestAdapterMemo:
    """The adapter evaluates each distinct dataset once; what it returns
    must equal the uncached computations it stands for."""

    def test_each_dataset_evaluated_once(self, monkeypatch):
        calls = {"promising_set": [], "top_set": 0}
        real_ps, real_top = cofo.promising_set, cofo.top_set

        def counting_ps(p, d):
            calls["promising_set"].append(cofo.dataset_key(d))
            return real_ps(p, d)

        def counting_top(*args):
            calls["top_set"] += 1
            return real_top(*args)

        monkeypatch.setattr(cofo, "promising_set", counting_ps)
        monkeypatch.setattr(cofo, "top_set", counting_top)
        p = two_hypothesis_problem()
        assert calls["top_set"] == len(p.hypotheses)
        dds = make_cofo_dds(p, horizon=3)
        exact_dp(dds)
        chrono_solve(dds)
        greedy_run(dds, ())
        keys = calls["promising_set"]
        assert len(keys) == len(set(keys)) > 1
        assert calls["top_set"] == len(p.hypotheses)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_memo_matches_uncached(self, data):
        n = data.draw(st.integers(2, 8), label="points")
        xs = list(range(n))
        values = st.integers(0, 3).map(float)
        objective = {x: data.draw(values) for x in xs}
        # h0 is the objective, so every reachable dataset stays consistent;
        # the others agree with it on a random part of the domain
        hyps = [
            Hypothesis(f"h{i}", {x: objective[x] if i == 0 or data.draw(st.booleans())
                                 else data.draw(values) for x in xs},
                       data.draw(st.integers(1, 5)))
            for i in range(data.draw(st.integers(1, 6), label="hypotheses"))
        ]
        # "sum" can leave the domain, which the action filter must drop
        names = data.draw(st.lists(st.sampled_from(["left", "right", "min", "sum"]),
                                   min_size=1, max_size=2, unique=True))
        combs = {"left": lambda x, y: x, "right": lambda x, y: y,
                 "min": min, "sum": lambda x, y: x + y}
        p = CofoProblem(
            domain=[(x, data.draw(st.integers(1, 4))) for x in xs],
            objective=objective,
            hypotheses=hyps,
            rho=data.draw(st.floats(0.05, 0.95)),
            combinators={c: combs[c] for c in names},
            tol=data.draw(st.sampled_from([0.0, 0.5, 1.0])),
        )
        horizon = data.draw(st.integers(1, 3), label="horizon")
        sampler = data.draw(st.sampled_from(["exhaustive", ("sample", 6)]))
        dds = make_cofo_dds(p, horizon, sampler=sampler, seed=3)
        for t in range(1, horizon + 1):
            for d in dds.states(t):
                brute = {x: 0.0 for x in p.points}
                alive = [h for h in p.hypotheses
                         if all(abs(h(x) - y) <= p.tol for x, y in d)]
                mass = sum(h.prior for h in alive)
                for h in alive:
                    for x in top_set(h.table, p.domain, p.rho):
                        brute[x] += h.prior / mass
                assert promising_set(p, d).chi == brute
                fresh = make_cofo_dds(p, 1, sampler=sampler, seed=3)
                assert dds.actions(t, d) == fresh.actions(1, d)
                for a in dds.actions(t, d):
                    (d2, _), = dds.transition(t, d, a)
                    assert dds.reward(t, d, a) == info_gain(p, d, d2).bits
