"""Discrete decision systems and their solvers.

A problem is staged: states per stage, feasible actions per (stage,
state), immediate reward, and a transition distribution (deterministic
transitions are point masses).  Decision tables are checked once, at load:
`fixtures.load_dds` checks each value's shape, and `from_tables` what the
tables hold together as it compiles them, so this module tests no value's
type.  One exact solver, `_solve`, unfolds the subproblem dag from the
declared states and collapses it by the Bellman step in one
`morphisms.memo_recurse` walk; `exact_dp`, `chrono_solve` and
`stochastic_dp` run it with an exact or a sampled continuation, and
`greedy_run` and `evaluate_policy` share one rollout.  A cognitive
algorithm declares its process once (start, actions, successor, reward),
and two executors run that one declaration over the reachable states
(`reachable_problem`, whose layers are built on first use): `plan` solves
it exactly and `greedy` follows immediate reward, both in one replay.
`plan` keeps the breadth-first layers, and the cofo adapter its action
cache, rather than walking from the start: such a walk expands whole
depth-first branches of dp chaining's states before it reaches that
executor's known crash (ROADMAP D13).
"""

from __future__ import annotations

import csv
import functools
import io
import math
import random
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Collection, Mapping, Sequence

from .morphisms import memo_recurse

NEG_INF = float("-inf")
_PROB_TOL = 1e-9
_EMPTY: dict = {}  # read only: no action, or no `next`


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
    actions: Callable[[int, Any], Collection]
    reward: Callable[[int, Any, Any], float]
    transition: Callable[[int, Any, Any], Collection[tuple[Any, float]]]
    alpha: float = 1.0
    state_key: Callable[[Any], Any] = lambda s: s
    action_key: Callable[[Any], Any] = lambda a: a

    def sorted_actions(self, t, s):
        return sorted(self.actions(t, s), key=self.action_key)

    @staticmethod
    def from_tables(spec: Mapping) -> "DdsProblem":
        """Compile the tabulated JSON fixture layout, its shapes checked by
        `fixtures.load_dds`, in one pass that checks what the tables hold
        together (each a DdsError): stages is at most the number of stages
        that declare states, stage 1 declares a state, no name is listed
        twice at its stage or state, and before the last stage each `next`
        sums to 1 (else TransitionError) over the next stage's states.
        Stages past `stages` are never read.  Each action keeps its reward as
        a float and its `next`, whose items are its transitions."""
        n = spec["stages"]
        if n > len(spec["states"]):
            raise DdsError(f"stages must be an integer from 1 to {len(spec['states'])}, the number "
                           f"of stages that declare states, got {n!r}")
        states = {t: spec["states"].get(str(t), []) for t in range(1, n + 1)}
        for t, names in states.items():
            if len(set(names)) < len(names):
                twice = next(s for s in names if names.count(s) > 1)
                raise DdsError(f"stage {t} lists state {twice!r} twice")
        if not states[1]:
            raise DdsError("stage 1 declares no state")
        rewards, moves = {}, {}  # stage -> state -> action name -> reward, or its `next`
        for t in range(1, n + 1):
            rewards[t], moves[t], stage_nexts = {}, {}, []
            for s, actions in spec["actions"].get(str(t), {}).items():
                rewards[t][s] = reward_of = {}
                moves[t][s] = next_of = {}
                for a in actions:
                    x = a["name"]
                    reward_of[x] = float(a["reward"])
                    next_of[x] = a.get("next", _EMPTY)
                if len(reward_of) < len(actions):
                    names = [a["name"] for a in actions]
                    twice = next(x for x in names if names.count(x) > 1)
                    raise DdsError(f"stage {t}, state {s!r} lists action {twice!r} twice")
                stage_nexts += next_of.values()
            if t == n or not stage_nexts:
                continue
            totals = list(map(sum, map(dict.values, stage_nexts)))
            if max(totals) - 1.0 > _PROB_TOL or 1.0 - min(totals) > _PROB_TOL:
                total = next(x for x in totals if abs(x - 1.0) > _PROB_TOL)
                raise TransitionError(f"probabilities sum to {total} at t={t}")
            declared = set(states[t + 1])
            if not declared.issuperset(chain.from_iterable(stage_nexts)):
                s2 = next(s2 for nxt in stage_nexts for s2 in nxt if s2 not in declared)
                raise DdsError(f"a transition at stage {t} names {s2!r}, "
                               f"which is not a stage {t + 1} state")

        return DdsProblem(
            n=n,
            states=lambda t: states.get(t, []),
            actions=lambda t, s: rewards.get(t, _EMPTY).get(s, _EMPTY).keys(),
            reward=lambda t, s, x: rewards[t][s][x],
            transition=lambda t, s, x: moves[t][s][x].items(),
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


def _expectation(dist, succ) -> float:
    """The exact continuation: each successor's value times its probability,
    summed in transition order."""
    cont = 0.0
    for (_, pr), cell in zip(dist, succ):
        cont += pr * cell.value
    return cont


def _solve(p: DdsProblem, budget_cells: int, estimate) -> ValueFunction:
    """The Bellman recursion as one `memo_recurse` walk over (stage, state
    key, state) nodes.  A virtual root lists every declared state, stages
    descending and states in layer order, so a stage's successors are memo
    hits when it is solved and cells are solved (and sdp draws made) in
    the order of a stage loop.  A node asks for its sorted actions and
    their transitions once, on entry, and counts its cells then (SizeError
    at the frame that passes `budget_cells`).  `estimate(dist, succ)` takes
    len(dist) solved cells, in `dist` order, from the iterator `succ`."""
    n, alpha, key_of = p.n, p.alpha, p.state_key
    roots = ((t, key_of(s), s) for t in range(n, 0, -1) for s in p.states(t))
    entered = []  # (actions, transitions) of each open frame, innermost last
    cells = 0

    def children_of(node):
        nonlocal cells
        t, _, s = node
        if t == 0:
            return roots
        acts = p.sorted_actions(t, s)
        cells += len(acts) or 1
        if cells > budget_cells:
            raise SizeError(f"cell budget {budget_cells} exceeded at stage {t}")
        dists = [p.transition(t, s, x) for x in acts] if t < n else ()
        entered.append((acts, dists))
        return [(t + 1, key_of(s2), s2) for dist in dists for s2, _ in dist]

    def compute(node, succ):
        t, _, s = node
        if t == 0:
            return None
        acts, dists = entered.pop()
        if not acts:
            return Cell(NEG_INF, ())
        if dists:
            succ = iter(succ)
            vals = [p.reward(t, s, x) + alpha * estimate(dist, succ)
                    for x, dist in zip(acts, dists)]
        else:
            vals = [p.reward(t, s, x) for x in acts]
        best = max(vals)
        # the equality arm keeps -inf ties (their difference is nan, not 0)
        return Cell(best, tuple([x for v, x in zip(vals, acts)
                                 if v == best or abs(v - best) <= 1e-12]))

    _, memo, hits = memo_recurse((0, None, None), children_of, compute, key=itemgetter(0, 1))
    del memo[(0, None)]
    vf = ValueFunction()
    vf.table, vf.memo_hits = memo, hits
    return vf


def exact_dp(p: DdsProblem, budget_cells: int = 10**6) -> ValueFunction:
    """Exact backward induction: the `_solve` walk with the expectation."""
    return _solve(p, budget_cells, _expectation)


def chrono_solve(p: DdsProblem, budget_cells: int = 10**6) -> ValueFunction:
    """The `exact_dp` walk under the name of the CLI's `chrono` executor:
    the subproblem dag unfolded from the declared states and collapsed
    post-order.  `memo_hits` counts every successor lookup."""
    return _solve(p, budget_cells, _expectation)


def stochastic_dp(p: DdsProblem, rollouts: int, seed: int, budget_cells: int = 10**6) -> ValueFunction:
    """Monte-Carlo backward induction, the `_solve` walk with a sampled
    continuation: a point mass continues with its successor's value, any
    other distribution with the mean of `rollouts` draws from its
    successors' values by weight, in the walk's stage-loop order."""
    if rollouts < 1:
        raise DdsError("rollouts must be >= 1")
    rng = random.Random(seed)

    def sampled(dist, succ):
        values = [cell.value for _, cell in zip(dist, succ)]
        if len(values) == 1:
            return values[0]  # point mass
        # choices picks by index from the weights alone, so drawing values
        # draws what drawing successors did, one value read per successor
        draws = rng.choices(values, weights=[pr for _, pr in dist], k=rollouts)
        return sum(draws) / rollouts

    return _solve(p, budget_cells, sampled)


def _rollout(p: DdsProblem, s, choose, rng: random.Random | None):
    """The steps (state, action, reward) of one run from `s`: `choose(t, s)`
    gives each action and its reward; the successor is a point mass's only
    state, else one `rng.choices` draw (none where all are point masses)."""
    for t in range(1, p.n + 1):
        x, r = choose(t, s)
        yield s, x, r
        if t < p.n:
            succ, probs = zip(*p.transition(t, s, x))
            s = succ[0] if len(succ) == 1 else rng.choices(succ, weights=probs, k=1)[0]


def _greedy_step(p: DdsProblem, t, s):
    """The action of highest reward (ties to the lowest key), and its reward."""
    acts = p.sorted_actions(t, s)
    if not acts:
        raise DeadEndError(f"no feasible action at stage {t}, state {s!r}")
    rewards = [p.reward(t, s, x) for x in acts]
    i = rewards.index(max(rewards))
    return acts[i], rewards[i]


def greedy_run(p: DdsProblem, s0, seed: int = 0) -> Trajectory:
    """Follow immediate reward only: argmax, ties to the lowest action key.
    `seed` draws the successors of stochastic transitions."""
    steps = _rollout(p, s0, functools.partial(_greedy_step, p), random.Random(seed))
    return Trajectory(list(steps), p.alpha)


def evaluate_policy(p: DdsProblem, policy: Mapping, episodes: int, seed: int = 0):
    """Empirical mean total discounted reward of a (t, state_key) -> action
    policy; returns (mean, standard error)."""
    if episodes < 1:
        raise DdsError("episodes must be >= 1")
    rng = random.Random(seed)

    def follow(t, s):
        key = (t, p.state_key(s))
        if key not in policy:
            raise PolicyGapError(f"policy undefined at {key!r}")
        return policy[key], p.reward(t, s, policy[key])

    totals = []
    for _ in range(episodes):
        first = p.states(1)
        s = first[0] if len(first) == 1 else rng.choice(list(first))
        total = 0.0
        for t, (_, _, r) in enumerate(_rollout(p, s, follow, rng)):
            total += p.alpha ** t * r
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


def _replay(p: DdsProblem, start, choose, successor):
    """The actions `choose` takes from `start` on a deterministic `p`, and where they end."""
    taken, s = [], start
    for s, x, _ in _rollout(p, start, choose, None):
        taken.append(x)
    return taken, successor(s, x) if taken else start


def plan(start, horizon: int, actions, successor, reward, action_key=lambda a: a):
    """Solve `reachable_problem(...)` with exact_dp and replay the first
    argmax action from `start`.  Returns the actions taken and the state
    they end in."""
    p = reachable_problem(start, horizon, actions, successor, reward, action_key=action_key)
    vf = exact_dp(p)
    return _replay(p, start, lambda t, s: (vf.best_action(t, p.state_key(s)), None), successor)


def greedy(start, horizon: int, actions, successor, reward, action_key=lambda a: a):
    """Run `greedy_run`'s step over `reachable_problem(...)`, the declaration
    `plan` solves.  Returns the actions taken and the state they end in."""
    p = reachable_problem(start, horizon, actions, successor, reward, action_key=action_key)
    return _replay(p, start, functools.partial(_greedy_step, p), successor)


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
    tables: dict = {"stages": n, "states": {str(t): v for t, v in states.items()}, "actions": {}}
    for t in range(1, n + 1):
        tables["actions"][str(t)] = per_state = {}
        for s in states[t]:
            per_state[s] = [{"name": f"a{j}"} for j in range(rng.randint(1, max_actions))]
            for a in per_state[s]:
                a["reward"] = round(rng.uniform(-2, 5), 3)
                if t < n:
                    succ = states[t + 1]
                    if stochastic and len(succ) > 1 and rng.random() < 0.5:
                        chosen = rng.sample(succ, rng.randint(2, min(3, len(succ))))
                        raw = [rng.random() + 0.05 for _ in chosen]
                        z = sum(raw)
                        a["next"] = {c: w / z for c, w in zip(chosen, raw)}
                    else:
                        a["next"] = {rng.choice(succ): 1.0}
    tables["alpha"] = rng.choice([1.0, 0.9])
    return DdsProblem.from_tables(tables)


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
    a3 = {"name": "a3", "reward": 0, "next": {"B": 0.5, "C": 0.5}}
    return DdsProblem.from_tables(
        {**GD1_TABLES, "actions": {**GD1_TABLES["actions"], "1": {"A": [a3]}}})
