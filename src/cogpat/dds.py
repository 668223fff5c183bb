"""Discrete decision systems and their solvers.

A problem is staged: states per stage, feasible actions per (stage,
state), immediate reward, and a transition distribution (deterministic
transitions are point masses).  Solvers: greedy rollout, and one Bellman
step run three ways: exact backward induction and sampled stochastic
backward induction (one stage loop, two continuation estimators), and a
memoized unfold/collapse over the subproblem dag (`morphisms.memo_recurse`).
A cognitive algorithm declares its process once (start, actions, successor,
reward), and two executors run that one declaration over the reachable
states (`reachable_problem`, whose layers are built on first use): `plan`
solves it exactly and replays the argmax, `greedy` follows immediate reward.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from .morphisms import memo_recurse

NEG_INF = float("-inf")
_PROB_TOL = 1e-9


class DdsError(Exception):
    pass


class DeadEndError(DdsError):
    """No feasible action at a reached state before the final stage."""


class SizeError(DdsError):
    """Problem exceeds the configured table budget."""


class PolicyGapError(DdsError):
    """A rollout reached a (stage, state) the policy does not cover."""


class TransitionError(DdsError):
    """Transition probabilities do not sum to one."""


@dataclass
class DdsProblem:
    n: int
    states: Callable[[int], Sequence]
    actions: Callable[[int, Any], Sequence]
    reward: Callable[[int, Any, Any], float]
    transition: Callable[[int, Any, Any], Sequence[tuple[Any, float]]]
    alpha: float = 1.0
    state_key: Callable[[Any], Any] = lambda s: s
    action_key: Callable[[Any], Any] = lambda a: a

    def checked_transition(self, t, s, x):
        dist = list(self.transition(t, s, x))
        total = sum(p for _, p in dist)
        if abs(total - 1.0) > _PROB_TOL:
            raise TransitionError(f"probabilities sum to {total} at t={t}")
        return dist

    def sorted_actions(self, t, s):
        return sorted(self.actions(t, s), key=self.action_key)

    @staticmethod
    def from_tables(spec: Mapping) -> "DdsProblem":
        """Build a problem from the tabulated JSON fixture layout."""
        n = spec["stages"]
        states = {int(t): list(v) for t, v in spec["states"].items()}
        acts: dict[tuple[int, Any], list] = {}
        info: dict[tuple[int, Any, Any], dict] = {}
        for t_str, per_state in spec["actions"].items():
            t = int(t_str)
            for s, actions in per_state.items():
                acts[(t, s)] = [a["name"] for a in actions]
                for a in actions:
                    info[(t, s, a["name"])] = a

        def transition(t, s, x):
            nxt = info[(t, s, x)].get("next", {})
            return list(nxt.items())

        return DdsProblem(
            n=n,
            states=lambda t: states.get(t, []),
            actions=lambda t, s: acts.get((t, s), []),
            reward=lambda t, s, x: float(info[(t, s, x)]["reward"]),
            transition=transition,
            alpha=float(spec.get("alpha", 1.0)),
        )


@dataclass
class Cell:
    value: float
    argmax: tuple = ()


class ValueFunction:
    def __init__(self):
        self.table: dict[tuple[int, Any], Cell] = {}
        self.memo_hits = 0

    def set(self, t, skey, value, argmax):
        self.table[(t, skey)] = Cell(value, tuple(argmax))

    def value(self, t, skey) -> float:
        return self.table[(t, skey)].value

    def best_action(self, t, skey):
        arg = self.table[(t, skey)].argmax
        if not arg:
            raise PolicyGapError(f"no action recorded at (t={t}, {skey!r})")
        return arg[0]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["t", "state", "value", "argmax"])
        for (t, skey), cell in sorted(self.table.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))):
            w.writerow([t, skey, repr(cell.value), "|".join(str(a) for a in cell.argmax)])
        return buf.getvalue()


@dataclass
class Trajectory:
    steps: list  # (state, action, reward)
    alpha: float

    @property
    def total(self) -> float:
        return sum(self.alpha ** t * r for t, (_, _, r) in enumerate(self.steps))


# ---------------------------------------------------------------------------
# Solvers


def _cell_budget_check(p: DdsProblem, budget_cells: int) -> None:
    cells = 0
    for t in range(1, p.n + 1):
        for s in p.states(t):
            cells += max(1, len(p.actions(t, s)))
            if cells > budget_cells:
                raise SizeError(f"cell budget {budget_cells} exceeded at stage {t}")


def _bellman(p, t, s, cont: Callable[[list], float]) -> Cell:
    """The Bellman step at (t, s): reward plus discounted continuation,
    maximized over the feasible actions in key order.  `cont(dist)` values
    an action's successor distribution."""
    acts = p.sorted_actions(t, s)
    if not acts:
        return Cell(NEG_INF, ())
    vals = []
    for x in acts:
        v = p.reward(t, s, x)
        if t < p.n:
            v += p.alpha * cont(p.checked_transition(t, s, x))
        vals.append((v, x))
    best = max(v for v, _ in vals)
    # the equality arm keeps -inf ties (their difference is nan, not 0)
    argmax = tuple(x for v, x in vals if v == best or abs(v - best) <= 1e-12)
    return Cell(best, argmax)


def _expectation(dist, value: Callable[[Any], float]) -> float:
    cont = 0.0
    for s2, pr in dist:
        cont += pr * value(s2)
    return cont


def _unknown_successor(t, s2) -> DdsError:
    return DdsError(f"a transition at stage {t} names {s2!r}, which is not a stage {t + 1} state")


def _check_declared(p: DdsProblem, t, s) -> None:
    """Raise `_unknown_successor` if a rollout reached s at stage t > 1 but
    stage t does not declare it.  Rollouts call it only once stuck, so a
    successful one never enumerates a stage."""
    if t > 1 and p.state_key(s) not in {p.state_key(s2) for s2 in p.states(t)}:
        raise _unknown_successor(t - 1, s)


def _draw_successor(p: DdsProblem, t, s, x, rng: random.Random):
    """The successor of (t, s) under x: a point mass's only state, else one
    `rng.choices` draw by transition probability."""
    succ, probs = zip(*p.checked_transition(t, s, x))
    return succ[0] if len(succ) == 1 else rng.choices(succ, weights=probs, k=1)[0]


def _backward_induction(p: DdsProblem, budget_cells: int, estimate) -> ValueFunction:
    """Stages descending, states in layer order, one Bellman cell each.
    `estimate(dist, value)` is the continuation estimator, where `value(s2)`
    reads the solved next-stage value of s2."""
    _cell_budget_check(p, budget_cells)
    vf = ValueFunction()
    table = vf.table
    for t in range(p.n, 0, -1):
        def value(s2):
            try:
                return table[(t + 1, p.state_key(s2))].value
            except KeyError:
                raise _unknown_successor(t, s2) from None
        cont = lambda dist: estimate(dist, value)
        for s in p.states(t):
            table[(t, p.state_key(s))] = _bellman(p, t, s, cont)
    return vf


def exact_dp(p: DdsProblem, budget_cells: int = 10**6) -> ValueFunction:
    """Backward induction over the full stage/state tables."""
    return _backward_induction(p, budget_cells, _expectation)


def stochastic_dp(p: DdsProblem, rollouts: int, seed: int, budget_cells: int = 10**6) -> ValueFunction:
    """Monte-Carlo backward induction, full action sweep per cell: a point
    mass continues with its successor's value, any other distribution with
    the mean of `rollouts` draws from its successors' values by weight."""
    if rollouts < 1:
        raise DdsError("rollouts must be >= 1")
    rng = random.Random(seed)

    def sampled(dist, value):
        succ, probs = zip(*dist)
        if len(succ) == 1:
            return value(succ[0])  # point mass
        # choices picks by index from the weights alone, so drawing values
        # draws what drawing successors did, one value read per successor
        draws = rng.choices([value(s2) for s2 in succ], weights=probs, k=rollouts)
        return sum(draws) / rollouts

    return _backward_induction(p, budget_cells, sampled)


def greedy_run(p: DdsProblem, s0, mode: str = "argmax", seed: int = 0) -> Trajectory:
    """Follow immediate reward only: argmax (ties to lowest action key) or
    sampling proportional to max(reward, 0)."""
    rng = random.Random(seed)
    s = s0
    steps = []
    for t in range(1, p.n + 1):
        acts = p.sorted_actions(t, s)
        if not acts:
            _check_declared(p, t, s)
            raise DeadEndError(f"no feasible action at stage {t}, state {s!r}")
        rewards = [p.reward(t, s, x) for x in acts]
        if mode == "argmax":
            i = rewards.index(max(rewards))
        elif mode == "proportional":
            weights = [max(r, 0.0) for r in rewards]
            if sum(weights) <= 0.0:
                weights = [1.0] * len(acts)
            # the same draw as choosing from acts: choices picks by index
            i = rng.choices(range(len(acts)), weights=weights, k=1)[0]
        else:
            raise ValueError(f"unknown greedy mode: {mode}")
        x = acts[i]
        steps.append((s, x, rewards[i]))
        if t < p.n:
            s = _draw_successor(p, t, s, x, rng)
    return Trajectory(steps, p.alpha)


def evaluate_policy(p: DdsProblem, policy: Mapping, episodes: int, seed: int = 0):
    """Empirical mean total discounted reward of a (t, state_key) -> action
    policy; returns (mean, standard error)."""
    rng = random.Random(seed)
    totals = []
    for _ in range(episodes):
        first = p.states(1)
        s = first[0] if len(first) == 1 else rng.choice(list(first))
        total = 0.0
        for t in range(1, p.n + 1):
            key = (t, p.state_key(s))
            if key not in policy:
                _check_declared(p, t, s)
                raise PolicyGapError(f"policy undefined at {key!r}")
            x = policy[key]
            total += p.alpha ** (t - 1) * p.reward(t, s, x)
            if t < p.n:
                s = _draw_successor(p, t, s, x, rng)
        totals.append(total)
    mean = sum(totals) / episodes
    if episodes > 1:
        var = sum((x - mean) ** 2 for x in totals) / (episodes - 1)
        stderr = math.sqrt(var / episodes)
    else:
        stderr = 0.0
    return mean, stderr


def policy_from(vf: ValueFunction) -> dict:
    return {key: cell.argmax[0] for key, cell in vf.table.items() if cell.argmax}


def chrono_solve(p: DdsProblem, budget_cells: int = 10**6) -> ValueFunction:
    """Unfold the (stage, state) subproblem dag from a virtual root over
    every stage's states, collapse it post-order with `memo_recurse` on the
    Bellman step.  Matches exact_dp entrywise."""
    _cell_budget_check(p, budget_cells)
    # nodes are (t, state key, state); the virtual root is stage 0
    roots = [(t, p.state_key(s), s) for t in range(1, p.n + 1) for s in p.states(t)]

    def children_of(node):
        t, _, s = node
        if t == 0:
            return roots
        if t >= p.n:
            return []
        return [(t + 1, p.state_key(s2), s2)
                for x in p.sorted_actions(t, s) for s2, _ in p.transition(t, s, x)]

    def compute(node, cells):
        t, _, s = node
        if t == 0:
            return None
        # cells arrive in children order, which is the order the step reads them
        nxt = iter(cells).__next__
        pull = lambda _s2: nxt().value
        return _bellman(p, t, s, lambda dist: _expectation(dist, pull))

    _, memo, hits = memo_recurse((0, None, None), children_of, compute, key=itemgetter(0, 1))
    vf = ValueFunction()
    vf.table = {node[:2]: memo[node[:2]] for node in roots}
    if len(memo) > len(vf.table) + 1:  # a successor outside the stage tables was solved
        t, key = min(memo.keys() - vf.table.keys() - {(0, None)}, key=repr)
        raise _unknown_successor(t - 1, key)
    vf.memo_hits = hits
    return vf


def reachable_problem(start, horizon: int, actions, successor, reward,
                      state_key=lambda s: s, action_key=lambda a: a) -> DdsProblem:
    """The deterministic problem over the states reachable from `start`.

    Stage 1 holds `start`; stage t + 1 holds the successors of stage t's
    states under every action, deduplicated by `state_key` with the first
    representative kept.  `actions(t, s)` and `reward(t, s, x)` are as in
    `DdsProblem`; `successor(s, x)` is the next state.  The layers are
    built on the first `states` call, so a rollout never builds them.
    """
    @functools.cache
    def layers():
        out = [[start]]
        for t in range(1, horizon):
            seen: dict = {}
            for s in out[-1]:
                for x in actions(t, s):
                    s2 = successor(s, x)
                    seen.setdefault(state_key(s2), s2)
            out.append(list(seen.values()))
        return out

    return DdsProblem(
        n=horizon,
        states=lambda t: layers()[t - 1] if 1 <= t <= horizon else [],
        actions=actions,
        reward=reward,
        transition=lambda t, s, x: [(successor(s, x), 1.0)],
        state_key=state_key,
        action_key=action_key,
    )


def plan(start, horizon: int, actions, successor, reward, action_key=lambda a: a):
    """Solve `reachable_problem(...)` with exact_dp and replay the first
    argmax action from `start`.  Returns the actions taken and the state
    they end in."""
    p = reachable_problem(start, horizon, actions, successor, reward, action_key=action_key)
    vf = exact_dp(p)
    taken, s = [], start
    for t in range(1, horizon + 1):
        x = vf.best_action(t, p.state_key(s))
        taken.append(x)
        s = successor(s, x)
    return taken, s


def greedy(start, horizon: int, actions, successor, reward, action_key=lambda a: a):
    """Run `greedy_run` over `reachable_problem(...)`: the declaration `plan`
    solves, executed by immediate reward (ties to the lowest action key).
    Returns the actions taken and the state they end in."""
    p = reachable_problem(start, horizon, actions, successor, reward, action_key=action_key)
    steps = greedy_run(p, start).steps
    if not steps:
        return [], start
    s, x, _ = steps[-1]
    return [x for _, x, _ in steps], successor(s, x)


def single_peak_audit(points, candidates, objective) -> bool:
    """True when every non-maximal point has a strictly improving candidate,
    i.e. greedy ascent cannot get stuck below the global maximum."""
    if not points:
        return True
    best = max(objective(p) for p in points)
    for p in points:
        if objective(p) == best:
            continue
        if not any(objective(c) > objective(p) for c in candidates(p)):
            return False
    return True


# ---------------------------------------------------------------------------
# Random instances (used by verification suites)


def random_problem(seed: int, max_stages: int = 4, max_states: int = 5,
                   max_actions: int = 4, stochastic: bool = False) -> DdsProblem:
    rng = random.Random(seed)
    n = rng.randint(1, max_stages)
    states = {t: [f"s{t}_{i}" for i in range(rng.randint(1, max_states))] for t in range(1, n + 1)}
    acts: dict[tuple[int, str], list[str]] = {}
    rewards: dict[tuple[int, str, str], float] = {}
    trans: dict[tuple[int, str, str], list[tuple[str, float]]] = {}
    for t in range(1, n + 1):
        for s in states[t]:
            names = [f"a{j}" for j in range(rng.randint(1, max_actions))]
            acts[(t, s)] = names
            for x in names:
                rewards[(t, s, x)] = round(rng.uniform(-2, 5), 3)
                if t < n:
                    succ = states[t + 1]
                    if stochastic and len(succ) > 1 and rng.random() < 0.5:
                        chosen = rng.sample(succ, rng.randint(2, min(3, len(succ))))
                        raw = [rng.random() + 0.05 for _ in chosen]
                        z = sum(raw)
                        trans[(t, s, x)] = [(c, w / z) for c, w in zip(chosen, raw)]
                    else:
                        trans[(t, s, x)] = [(rng.choice(succ), 1.0)]
    return DdsProblem(
        n=n,
        states=lambda t: states.get(t, []),
        actions=lambda t, s: acts.get((t, s), []),
        reward=lambda t, s, x: rewards[(t, s, x)],
        transition=lambda t, s, x: trans.get((t, s, x), []),
        alpha=rng.choice([1.0, 0.9]),
    )


GD1_TABLES = {
    "stages": 2,
    "alpha": 1.0,
    "states": {"1": ["A"], "2": ["B", "C"]},
    "actions": {
        "1": {
            "A": [
                {"name": "a1", "reward": 2, "next": {"B": 1.0}},
                {"name": "a2", "reward": 0, "next": {"C": 1.0}},
            ]
        },
        "2": {
            "B": [{"name": "b", "reward": 1}],
            "C": [{"name": "c", "reward": 5}],
        },
    },
}


def gd1() -> DdsProblem:
    return DdsProblem.from_tables(GD1_TABLES)


def gd1_noisy() -> DdsProblem:
    """GD-1 shape whose only first-stage action is stochastic; the exact
    first-stage value is 3, so estimation error is visible."""
    tables = {
        "stages": 2,
        "alpha": 1.0,
        "states": {"1": ["A"], "2": ["B", "C"]},
        "actions": {
            "1": {"A": [{"name": "a3", "reward": 0, "next": {"B": 0.5, "C": 0.5}}]},
            "2": {
                "B": [{"name": "b", "reward": 1}],
                "C": [{"name": "c", "reward": 5}],
            },
        },
    }
    return DdsProblem.from_tables(tables)


def gd1_stochastic() -> DdsProblem:
    """GD-1 plus a stochastic action a3 at A: reward 0, B/C each w.p. 0.5."""
    tables = {
        "stages": 2,
        "alpha": 1.0,
        "states": {"1": ["A"], "2": ["B", "C"]},
        "actions": {
            "1": {
                "A": [
                    {"name": "a1", "reward": 2, "next": {"B": 1.0}},
                    {"name": "a2", "reward": 0, "next": {"C": 1.0}},
                    {"name": "a3", "reward": 0, "next": {"B": 0.5, "C": 0.5}},
                ]
            },
            "2": {
                "B": [{"name": "b", "reward": 1}],
                "C": [{"name": "c", "reward": 5}],
            },
        },
    }
    return DdsProblem.from_tables(tables)
