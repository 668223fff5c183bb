import collections
import gc
import importlib
import itertools
import json
import random
import statistics
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cogpat.dds import (
    GD1_TABLES,
    NEG_INF,
    Cell,
    DdsError,
    DeadEndError,
    DdsProblem,
    PolicyGapError,
    SizeError,
    ValueFunction,
    chrono_solve,
    evaluate_policy,
    exact_dp,
    gd1,
    gd1_noisy,
    greedy,
    greedy_run,
    plan,
    policy_from,
    random_problem,
    reachable_problem,
    single_peak_audit,
    stochastic_dp,
)
from cogpat.cogkit import chain
from cogpat.fixtures import load_rules
from cogpat.metagraph import TypedMetagraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# ---------------------------------------------------------------------------
# Oracle: expected total reward by explicit policy enumeration


def enumerate_policies(p):
    keys = []
    choices = []
    for t in range(1, p.n + 1):
        for s in p.states(t):
            acts = p.sorted_actions(t, s)
            if acts:
                keys.append((t, p.state_key(s)))
                choices.append(acts)
    for combo in itertools.product(*choices):
        yield dict(zip(keys, combo))


def expected_total(p, policy, t, s):
    x = policy[(t, p.state_key(s))]
    r = p.reward(t, s, x)
    if t >= p.n:
        return r
    cont = sum(
        pr * expected_total(p, policy, t + 1, s2)
        for s2, pr in p.transition(t, s, x)
    )
    return r + p.alpha * cont


def oracle_optimum(p, s0):
    return max(expected_total(p, pol, 1, s0) for pol in enumerate_policies(p))


# ---------------------------------------------------------------------------
# Reference: the stage loop the solvers must agree with byte for byte


def stage_loop(p, estimate):
    """Stages descending, states in layer order, actions in key order, one
    Bellman cell each.  `estimate(dist, value)` is the continuation, where
    `value(s2)` reads the solved next-stage value of s2."""
    vf = ValueFunction()
    for t in range(p.n, 0, -1):
        def value(s2, t=t):
            return vf.table[(t + 1, p.state_key(s2))].value
        for s in p.states(t):
            vals = []
            for x in p.sorted_actions(t, s):
                v = p.reward(t, s, x)
                if t < p.n:
                    v += p.alpha * estimate(list(p.transition(t, s, x)), value)
                vals.append((v, x))
            best = max((v for v, _ in vals), default=NEG_INF)
            argmax = tuple(x for v, x in vals if v == best or abs(v - best) <= 1e-12)
            vf.table[(t, p.state_key(s))] = Cell(best, argmax)
    return vf


def expectation(dist, value):
    cont = 0.0
    for s2, pr in dist:
        cont += pr * value(s2)
    return cont


def value_sampler(rollouts, seed):
    """The sampled continuation: a point mass reads its successor's value,
    any other distribution averages `rollouts` draws of successor values."""
    rng = random.Random(seed)

    def sampled(dist, value):
        succ, probs = zip(*dist)
        if len(succ) == 1:
            return value(succ[0])
        draws = rng.choices([value(s2) for s2 in succ], weights=probs, k=rollouts)
        return sum(draws) / rollouts

    return sampled


class TestStageLoopReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.booleans(), st.integers(1, 50), st.integers(0, 10**6))
    def test_every_solver_gives_the_stage_loop_bytes(self, problem_seed, stochastic, rollouts,
                                                     seed):
        # pins the walk's stage-descending order, on which the sdp draws depend
        p = random_problem(problem_seed, stochastic=stochastic)
        exact = stage_loop(p, expectation).to_csv()
        assert exact_dp(p).to_csv() == exact
        assert chrono_solve(p).to_csv() == exact
        assert (stochastic_dp(p, rollouts, seed).to_csv()
                == stage_loop(p, value_sampler(rollouts, seed)).to_csv())


class TestGreedyRun:
    def test_gd1_argmax(self):
        traj = greedy_run(gd1(), "A")
        assert [x for _, x, _ in traj.steps] == ["a1", "b"]
        assert traj.total == 3.0

    def test_single_action_equals_only_policy(self):
        p = gd1_noisy()
        traj = greedy_run(p, "A", seed=3)
        assert traj.steps[0][1] == "a3"
        assert len(traj.steps) == 2

    def test_dead_end(self):
        p = DdsProblem(
            n=2,
            states=lambda t: ["s"],
            actions=lambda t, s: [] if t == 1 else ["a"],
            reward=lambda t, s, x: 1.0,
            transition=lambda t, s, x: [("s", 1.0)],
        )
        with pytest.raises(DeadEndError):
            greedy_run(p, "s")

    def test_discounted_sum_identity(self):
        p = random_problem(11, stochastic=True)
        s0 = p.states(1)[0]
        traj = greedy_run(p, s0, seed=5)
        direct = sum(p.alpha ** t * r for t, (_, _, r) in enumerate(traj.steps))
        assert traj.total == pytest.approx(direct, abs=1e-9)


class TestExactDp:
    def test_gd1_oracle(self):
        p = gd1()
        vf = exact_dp(p)
        assert vf.value(2, "B") == 1.0
        assert vf.value(2, "C") == 5.0
        assert vf.value(1, "A") == 5.0
        assert vf.best_action(1, "A") == "a2"
        assert oracle_optimum(p, "A") == 5.0

    def test_boundary_condition_single_stage(self):
        p = DdsProblem(
            n=1,
            states=lambda t: ["s"],
            actions=lambda t, s: ["a", "b"],
            reward=lambda t, s, x: {"a": 2.0, "b": 7.0}[x],
            transition=lambda t, s, x: [],
        )
        vf = exact_dp(p)
        assert vf.value(1, "s") == 7.0

    def test_stochastic_action_expectation(self):
        vf = exact_dp(gd1_noisy())
        # a3's value is 0.5*1 + 0.5*5 = 3
        assert vf.value(1, "A") == 3.0
        assert vf.best_action(1, "A") == "a3"

    def test_beats_greedy_everywhere(self):
        for seed in range(30):
            p = random_problem(seed, stochastic=False)
            s0 = p.states(1)[0]
            vf = exact_dp(p)
            traj = greedy_run(p, s0)
            assert vf.value(1, p.state_key(s0)) >= traj.total - 1e-9

    def test_matches_policy_enumeration_oracle(self):
        for seed in range(15):
            p = random_problem(seed, max_stages=3, max_states=3, max_actions=3)
            s0 = p.states(1)[0]
            vf = exact_dp(p)
            assert vf.value(1, p.state_key(s0)) == pytest.approx(
                oracle_optimum(p, s0), abs=1e-9
            )

    def test_budget_exceeded(self):
        p = random_problem(1, max_stages=4, max_states=5, max_actions=4)
        with pytest.raises(SizeError):
            exact_dp(p, budget_cells=2)


class TestStochasticDp:
    def test_gd1_close_to_exact(self):
        vf = stochastic_dp(gd1(), rollouts=10_000, seed=1)
        assert abs(vf.value(1, "A") - 5.0) / 5.0 < 0.05

    def test_deterministic_problem_exact_at_one_rollout(self):
        vf = stochastic_dp(gd1(), rollouts=1, seed=9)
        exact = exact_dp(gd1())
        for key, cell in exact.table.items():
            assert vf.value(*key) == pytest.approx(cell.value, abs=1e-12)

    def test_seed_bit_identical(self):
        a = stochastic_dp(gd1_noisy(), rollouts=50, seed=4)
        b = stochastic_dp(gd1_noisy(), rollouts=50, seed=4)
        assert {k: c.value for k, c in a.table.items()} == {
            k: c.value for k, c in b.table.items()
        }

    def test_error_decreases_in_rollouts(self):
        p = gd1_noisy()
        exact_v = exact_dp(p).value(1, "A")
        assert exact_v == pytest.approx(3.0)
        medians = []
        for rollouts in (100, 1000, 10_000):
            errs = [
                abs(stochastic_dp(p, rollouts, seed).value(1, "A") - exact_v)
                for seed in range(20)
            ]
            medians.append(statistics.median(errs))
        assert medians[0] > medians[1] > medians[2]
        assert medians[2] / abs(exact_v) < 0.05

    # the sampler's draw order (stages descending, states in layer order,
    # actions in key order, only non-point masses) is pinned by these values
    def test_pinned_value_gd1_noisy(self):
        assert stochastic_dp(gd1_noisy(), rollouts=50, seed=4).value(1, "A") == 3.08

    def test_pinned_table_sum_random_problem(self):
        vf = stochastic_dp(random_problem(11, stochastic=True), rollouts=7, seed=3)
        assert sum(c.value for c in vf.table.values()) == 113.95555694169096

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 50), st.integers(0, 10**6))
    def test_matches_the_successor_drawing_sampler(self, problem_seed, rollouts, seed):
        p = random_problem(problem_seed, stochastic=True)
        rng = random.Random(seed)

        def draw_successors(dist, value):
            succ, probs = zip(*dist)
            if len(succ) == 1:
                return value(succ[0])
            draws = rng.choices(succ, weights=probs, k=rollouts)
            return sum(value(d) for d in draws) / rollouts

        oracle = stage_loop(p, draw_successors)
        assert stochastic_dp(p, rollouts, seed).table == oracle.table


class TestEvaluatePolicy:
    def test_optimal_policy_mean(self):
        p = gd1()
        mean, stderr = evaluate_policy(p, policy_from(exact_dp(p)), episodes=10, seed=0)
        assert mean == pytest.approx(5.0)
        assert stderr == pytest.approx(0.0)

    def test_greedy_policy_mean(self):
        p = gd1()
        policy = {(1, "A"): "a1", (2, "B"): "b", (2, "C"): "c"}
        mean, _ = evaluate_policy(p, policy, episodes=5, seed=0)
        assert mean == pytest.approx(3.0)

    def test_alpha_zero_kills_future(self):
        import copy

        from cogpat.dds import GD1_TABLES

        t2 = copy.deepcopy(GD1_TABLES)
        t2["alpha"] = 0.0
        p = DdsProblem.from_tables(t2)
        policy = {(1, "A"): "a1", (2, "B"): "b", (2, "C"): "c"}
        mean, _ = evaluate_policy(p, policy, episodes=3, seed=0)
        assert mean == pytest.approx(2.0)

    def test_policy_gap(self):
        p = gd1()
        with pytest.raises(PolicyGapError):
            evaluate_policy(p, {(1, "A"): "a1"}, episodes=1, seed=0)

    def test_no_episodes_rejected(self):
        policy = {(1, "A"): "a1", (2, "B"): "b", (2, "C"): "c"}
        with pytest.raises(DdsError, match="episodes must be >= 1"):
            evaluate_policy(gd1(), policy, episodes=0, seed=0)


class TestUnknownSuccessor:
    @pytest.mark.parametrize("solve", [
        exact_dp, chrono_solve, lambda p: stochastic_dp(p, rollouts=5, seed=0),
    ])
    @pytest.mark.parametrize("nxt", [{"Z": 1.0}, {"B": 0.5, "Z": 0.5}])
    def test_every_solver_names_it(self, solve, nxt):
        tables = json.loads(json.dumps(GD1_TABLES))
        tables["actions"]["1"]["A"][1]["next"] = nxt
        with pytest.raises(DdsError, match="stage 1 names 'Z', which is not a stage 2 state"):
            solve(DdsProblem.from_tables(tables))

    @staticmethod
    def a1_to_z():
        tables = json.loads(json.dumps(GD1_TABLES))
        tables["actions"]["1"]["A"][0]["next"] = {"Z": 1.0}  # a1, the greedy choice
        return DdsProblem.from_tables(tables)

    def test_greedy_run_names_it(self):
        # not a dead end at Z: the table, not the rollout, is at fault
        with pytest.raises(DdsError, match="stage 1 names 'Z', which is not a stage 2 state") as exc:
            greedy_run(self.a1_to_z(), "A")
        assert type(exc.value) is DdsError

    def test_evaluate_policy_names_it(self):
        # not a policy gap at (2, 'Z'): the table, not the policy, is at fault
        policy = {(1, "A"): "a1", (2, "B"): "b", (2, "C"): "c"}
        with pytest.raises(DdsError, match="stage 1 names 'Z', which is not a stage 2 state") as exc:
            evaluate_policy(self.a1_to_z(), policy, episodes=1, seed=0)
        assert type(exc.value) is DdsError


class TestChronoSolve:
    def test_gd1_identical_table(self):
        a, b = exact_dp(gd1()), chrono_solve(gd1())
        assert {k: c.value for k, c in a.table.items()} == {
            k: c.value for k, c in b.table.items()
        }

    def test_memo_hits_on_shared_successors(self):
        vf = chrono_solve(gd1_noisy())
        assert vf.memo_hits > 0

    def test_random_instances_match_exact(self):
        for seed in range(50):
            p = random_problem(seed, stochastic=True)
            a, b = exact_dp(p), chrono_solve(p)
            for key, cell in a.table.items():
                assert b.value(*key) == pytest.approx(cell.value, abs=1e-9)
                assert b.table[key].argmax == cell.argmax


    def test_deep_chain_matches_exact(self):
        p = one_state_chain(3000)
        assert chrono_solve(p).value(1, "s") == exact_dp(p).value(1, "s") == 3000.0

    def test_leaves_no_reference_cycles(self):
        p = wide_problem(random.Random(5), stages=25, width=100, actions=4)
        gc.collect()
        gc.disable()
        try:
            chrono_solve(p)
            assert gc.collect() == 0
        finally:
            gc.enable()


def one_state_chain(n):
    return DdsProblem(
        n=n,
        states=lambda t: ["s"],
        actions=lambda t, s: ["a"],
        reward=lambda t, s, x: 1.0,
        transition=lambda t, s, x: [("s", 1.0)],
    )


def wide_problem(rng, stages, width, actions):
    """stages x width x actions cells; half the actions spread over two or
    three next-stage states."""
    spec = {"stages": stages, "states": {}, "actions": {}}
    for t in range(1, stages + 1):
        spec["states"][str(t)] = [f"s{i}" for i in range(width)]
        spec["actions"][str(t)] = per_state = {}
        for i in range(width):
            per_state[f"s{i}"] = acts = []
            for j in range(actions):
                act = {"name": f"a{j}", "reward": rng.uniform(-2.0, 5.0)}
                if t < stages:
                    succ = rng.sample(range(width), rng.choice([1, 2, 3]))
                    raw = [rng.random() + 0.05 for _ in succ]
                    act["next"] = {f"s{k}": w / sum(raw) for k, w in zip(succ, raw)}
                acts.append(act)
    return DdsProblem.from_tables(spec)


class TestReachablePlanner:
    def test_layers_keep_first_representative(self):
        p = reachable_problem(
            "", 3,
            actions=lambda t, s: ["b", "a"],
            successor=lambda s, x: s + x,
            reward=lambda t, s, x: 0.0,
            state_key=lambda s: "".join(sorted(s)),
        )
        assert p.states(1) == [""]
        assert p.states(2) == ["b", "a"]
        assert p.states(3) == ["bb", "ba", "aa"]
        assert p.states(4) == []

    def test_greedy_builds_no_layer(self):
        # states 2s + x form a tree, so every state is reached once
        asked, moved = [], []

        def actions(t, s):
            asked.append((t, s))
            return [1, 2]

        def successor(s, x):
            moved.append((s, x))
            return 2 * s + x

        decl = (0, 4, actions, successor, lambda t, s, x: float(x))
        taken, end = greedy(*decl)
        assert (taken, end) == ([2, 2, 2, 2], 30)
        assert asked == [(1, 0), (2, 2), (3, 6), (4, 14)]
        assert moved == [(0, 2), (2, 2), (6, 2), (14, 2)]
        p = reachable_problem(*decl)
        assert len(asked) == 4  # construction builds nothing
        assert p.states(3) == [3, 4, 5, 6]
        # the first states call builds every layer, stages 1 to 3 expanded
        assert asked[4:] == [(1, 0), (2, 1), (2, 2), (3, 3), (3, 4), (3, 5), (3, 6)]

    def test_plan_asks_each_state_for_its_actions_at_most_twice(self):
        # once to build the next layer (stages before the last), once in the walk
        asked = collections.Counter()

        def actions(t, s):
            asked[(t, s)] += 1
            return [1, 2]

        plan(0, 4, actions, lambda s, x: 2 * s + x, lambda t, s, x: float(x))
        assert asked == {(t, s): 1 + (t < 4)
                         for t in range(1, 5) for s in range(2 ** (t - 1) - 1, 2 ** t - 1)}

    def test_dp_chaining_asks_each_state_at_most_twice(self, monkeypatch):
        # a dense generated kb: 140 states at budget 2, each stage-2 state asked once
        monkeypatch.syspath_prepend(str(PERFBENCH))
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        gen = importlib.import_module("gen")
        kb = TypedMetagraph.from_dict(gen.implication_kb(random.Random(2), 10, 35))
        asked = collections.Counter()

        def counted_plan(start, horizon, actions, *rest, **kw):
            def counted(t, s):
                asked[(t, s)] += 1
                return actions(t, s)
            return plan(start, horizon, counted, *rest, **kw)

        monkeypatch.setattr(chain, "plan", counted_plan)
        rules = load_rules(Path(__file__).resolve().parent.parent / "fixtures" / "rules.json")
        chain.forward_chain(kb, rules, 2, executor="dp")
        assert len(asked) == 140
        assert sum(asked.values()) == 141

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_plan_path_reward_is_exact_value(self, data):
        m = data.draw(st.integers(1, 4), "states")
        horizon = data.draw(st.integers(1, 4), "horizon")
        acts = {s: data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
                for s in range(m)}
        nxt = {(s, x): data.draw(st.integers(0, m - 1)) for s in range(m) for x in acts[s]}
        rew = {(t, s, x): float(data.draw(st.integers(-3, 5)))
               for t in range(1, horizon + 1) for s in range(m) for x in acts[s]}
        args = (0, horizon, lambda t, s: acts[s], lambda s, x: nxt[(s, x)],
                lambda t, s, x: rew[(t, s, x)])

        def best(t, s):  # brute force over every action sequence
            if t > horizon:
                return 0.0
            return max(rew[(t, s, x)] + best(t + 1, nxt[(s, x)]) for x in acts[s])

        taken, end = plan(*args)
        value = exact_dp(reachable_problem(*args)).value(1, 0)
        path = [0]
        for x in taken:
            path.append(nxt[(path[-1], x)])
        assert path[-1] == end
        total = sum(rew[(t, s, x)] for t, (s, x) in enumerate(zip(path, taken), 1))
        assert total == value == best(1, 0)


def path_view(n):
    mg = TypedMetagraph()
    prev = None
    for i in range(n):
        node = mg.add_node("N")
        if prev is not None:
            mg.add_edge("E", [prev, node])
        prev = node
    return mg.snapshot()


def node_neighbors(view):
    def candidates(aid):
        return [x for x in view.neighbors(aid) if view.atoms[x].is_node]

    # node-to-node hops through connecting edges
    def cand2(aid):
        out = set()
        for e in view.edges():
            if aid in e.targets:
                out.update(t for t in e.targets if t != aid and view.atoms[t].is_node)
        return sorted(out)

    return cand2


def local_search(view, objective) -> dict:
    """Hill climbing over a snapshot's nodes, declared as a decision process:
    an action stays put or hops to a neighbour (the action is the node moved
    to) and earns the gain in the objective."""
    hops = node_neighbors(view)
    return dict(
        actions=lambda t, a: [a] + hops(a),
        successor=lambda a, x: x,
        reward=lambda t, a, x: objective(x) - objective(a),
    )


class TestLocalSearch:
    def test_monotone_chain(self):
        view = path_view(3)
        nodes = [a.id for a in view.nodes()]
        objective = dict(zip(nodes, [1.0, 2.0, 3.0])).get
        _, end = greedy(nodes[0], 3, **local_search(view, objective))
        assert end == nodes[-1]
        assert objective(end) == 3.0

    def test_single_peak_matches_exhaustive(self):
        view = path_view(10)
        nodes = [a.id for a in view.nodes()]
        peak = nodes[6]
        obj = lambda a: -abs(a - peak)
        cand = node_neighbors(view)
        assert single_peak_audit(nodes, cand, obj)
        exhaustive = max(nodes, key=obj)
        for run in (greedy, plan):
            _, end = run(nodes[0], 10, **local_search(view, obj))
            assert end == exhaustive

    def test_two_peaks_reports_gap(self):
        view = path_view(10)
        nodes = [a.id for a in view.nodes()]
        vals = {n: v for n, v in zip(nodes, [3, 2, 1, 0, 1, 2, 1, 4, 9, 5])}
        obj = vals.get
        cand = node_neighbors(view)
        assert not single_peak_audit(nodes, cand, obj)
        _, stuck = greedy(nodes[0], 10, **local_search(view, obj))
        assert stuck == nodes[0]  # stuck on the lesser peak
        _, best = plan(nodes[0], 10, **local_search(view, obj))
        assert best == nodes[8]
        assert obj(best) - obj(stuck) == 6

    def test_isolated_start_stays(self):
        view = path_view(1)
        taken, end = greedy(0, 3, **local_search(view, lambda a: 0.0))
        assert taken == [0, 0, 0]
        assert end == 0

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_greedy_theorem_on_random_graphs(self, data):
        """The greedy theorem checked empirically: greedy ends no higher
        than `plan`, and where `single_peak_audit` holds (no point below the
        top is without a strictly better neighbour) it ends as high."""
        n = data.draw(st.integers(1, 6), "nodes")
        mg = TypedMetagraph()
        nodes = [mg.add_node("N") for _ in range(n)]
        for i, j in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                       max_size=10), "edges"):
            mg.add_edge("E", [nodes[i], nodes[j]])
        view = mg.snapshot()
        values = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n), "objective")
        objective = {a: float(v) for a, v in zip(nodes, values)}.get
        start = data.draw(st.sampled_from(nodes), "start")
        horizon = data.draw(st.integers(n, n + 2), "horizon")
        decl = local_search(view, objective)
        _, greedy_end = greedy(start, horizon, **decl)
        _, plan_end = plan(start, horizon, **decl)
        assert objective(greedy_end) <= objective(plan_end)
        if single_peak_audit(nodes, node_neighbors(view), objective):
            assert objective(greedy_end) == objective(plan_end)


class TestValueFunctionExport:
    def test_csv_rows(self):
        vf = exact_dp(gd1())
        text = vf.to_csv()
        assert "t,state,value,argmax" in text
        assert "1,A,5.0,a2" in text
