"""Promising-set search: build a dataset about an objective by combining
arguments that look promising, scored by entropy reduction.

The hypothesis class is a finite weighted list of candidate functions, so
promising sets and their entropies are exactly computable.  The adapter at
the bottom renders the whole loop as a DdsProblem for the dds solvers: the
datasets reachable from the start, one stage per added pair
(`dds.reachable_problem`).

A promising set depends only on which pairs a dataset holds, so the
adapter memoizes it, its entropy and the dataset's actions by
`dataset_key`: each distinct dataset is evaluated once per problem, however
many stages and solver passes reach it.  The top set of a hypothesis does
not depend on the dataset at all; the problem computes it once, when it is
built.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .dds import DdsProblem, reachable_problem


class CofoError(Exception):
    pass


class InconsistencyError(CofoError):
    """No hypothesis agrees with the dataset; carries the breaking pair."""

    def __init__(self, pair):
        super().__init__(f"no hypothesis consistent with pair {pair!r}")
        self.pair = pair


@dataclass(frozen=True)
class Hypothesis:
    name: str
    table: Mapping[Any, float]
    prior: float

    def __call__(self, x):
        return self.table[x]


@dataclass
class CofoProblem:
    domain: list            # (x, probability weight) pairs
    objective: Mapping      # x -> F(x), tabulated
    hypotheses: list[Hypothesis]
    rho: float
    combinators: dict[str, Callable[[Any, Any], Any]]
    tol: float = 0.0

    def __post_init__(self):
        total = sum(w for _, w in self.domain)
        if total <= 0:
            raise CofoError("domain weights must have positive mass")
        self.domain = [(x, w / total) for x, w in self.domain]
        self._weights = dict(self.domain)
        if len(self._weights) != len(self.domain):
            raise CofoError("domain repeats a point")
        if not (0.0 < self.rho < 1.0):
            raise CofoError("rho must lie in (0,1)")
        psum = sum(h.prior for h in self.hypotheses)
        if psum <= 0 or any(h.prior <= 0 for h in self.hypotheses):
            raise CofoError("hypothesis priors must be positive")
        self.hypotheses = [
            Hypothesis(h.name, h.table, h.prior / psum) for h in self.hypotheses
        ]
        for name, table in [("objective", self.objective)] + [
                (f"hypothesis {h.name!r}", h.table) for h in self.hypotheses]:
            missing = [x for x in self._weights if x not in table]
            if missing:
                raise CofoError(f"{name} has no value at domain point {missing[0]!r}")
        # data-independent, so one per hypothesis, in hypothesis order
        self._top_sets = [top_set(h.table, self.domain, self.rho) for h in self.hypotheses]

    @property
    def points(self):
        return [x for x, _ in self.domain]

    def weight(self, x) -> float:
        return self._weights[x]

    def f(self, x) -> float:
        return self.objective[x]


Dataset = tuple  # of (x, F(x)) pairs, insertion order kept


def extend_dataset(d: Dataset, pair) -> Dataset:
    if pair in d:
        return d
    return d + (pair,)


def dataset_key(d: Dataset):
    return tuple(sorted(d, key=repr))


# ---------------------------------------------------------------------------
# Promising sets


def top_set(f: Mapping, domain: Sequence, rho: float) -> set:
    """Points whose f-value puts them in the top-rho probability mass.

    Walks distinct values downward, including whole tie groups, until the
    accumulated mass reaches rho.
    """
    if not (0.0 < rho < 1.0):
        raise CofoError("rho must lie in (0,1)")
    by_value: dict[float, list] = {}
    for x, w in domain:
        by_value.setdefault(f[x], []).append((x, w))
    out: set = set()
    mass = 0.0
    for v in sorted(by_value, reverse=True):
        for x, w in by_value[v]:
            out.add(x)
            mass += w
        if mass >= rho - 1e-12:
            break
    return out


@dataclass
class PromisingSet:
    chi: dict            # x -> membership in [0,1]
    support: list        # points with chi > 0, domain order

    def distribution(self) -> dict:
        z = sum(self.chi[x] for x in self.support)
        return {x: self.chi[x] / z for x in self.support}


def _alive(p: CofoProblem, d: Dataset) -> list[int]:
    """Indices of the hypotheses that agree with every pair of `d`."""
    alive = range(len(p.hypotheses))
    for pair in d:
        x, y = pair
        alive = [i for i in alive if abs(p.hypotheses[i](x) - y) <= p.tol]
        if not alive:
            raise InconsistencyError(pair)
    return list(alive)


def promising_set(p: CofoProblem, d: Dataset) -> PromisingSet:
    alive = _alive(p, d)
    mass = sum(p.hypotheses[i].prior for i in alive)
    chi = {x: 0.0 for x in p.points}
    for i in alive:
        share = p.hypotheses[i].prior / mass
        for x in p._top_sets[i]:
            chi[x] += share
    support = [x for x in p.points if chi[x] > 0.0]
    return PromisingSet(chi, support)


def _entropy(ps: PromisingSet) -> float:
    return -sum(q * math.log2(q) for q in ps.distribution().values() if q > 0.0)


def quality(p: CofoProblem, d: Dataset) -> float:
    """Shannon entropy (bits) of the normalized membership distribution."""
    return _entropy(promising_set(p, d))


@dataclass
class InfoGain:
    bits: float          # quality(before) - quality(after)
    kl_bits: float       # KL(after || before), inf on support escape


def info_gain(p: CofoProblem, d_before: Dataset, d_after: Dataset) -> InfoGain:
    if not set(d_before) <= set(d_after):
        raise CofoError("d_before must be a subset of d_after")
    ps_before, ps_after = promising_set(p, d_before), promising_set(p, d_after)
    bits = _entropy(ps_before) - _entropy(ps_after)
    before, after = ps_before.distribution(), ps_after.distribution()
    kl = 0.0
    for x, qa in after.items():
        qb = before.get(x, 0.0)
        if qa > 0.0:
            if qb <= 0.0:
                kl = math.inf
                break
            kl += qa * math.log2(qa / qb)
    return InfoGain(bits, max(kl, 0.0))


def combinator_lift(p: CofoProblem, cname: str, d: Dataset, trials: int, seed: int):
    """Empirical P(C(x,y) in support | x,y in support) vs the support's
    weighted share of the domain."""
    if trials < 1:
        raise CofoError("trials must be >= 1")
    ps = promising_set(p, d)
    if not ps.support:
        raise CofoError("promising set has empty support")
    comb = p.combinators[cname]
    dist = ps.distribution()
    points = list(dist)
    weights = [dist[x] for x in points]
    rng = random.Random(seed)
    in_support = set(ps.support)
    hits = 0
    for _ in range(trials):
        x = rng.choices(points, weights=weights, k=1)[0]
        y = rng.choices(points, weights=weights, k=1)[0]
        if comb(x, y) in in_support:
            hits += 1
    p_cond = hits / trials
    p_base = sum(p.weight(x) for x in ps.support)
    return p_cond, p_base


# ---------------------------------------------------------------------------
# DDS adapter


def make_cofo_dds(
    p: CofoProblem,
    horizon: int,
    sampler="exhaustive",
    seed: int = 0,
    d0: Dataset = (),
) -> DdsProblem:
    """State = dataset; action = (x, y, combinator name); reward = entropy
    drop of the promising set after appending the evaluated combination."""
    if horizon < 1:
        raise CofoError("horizon must be >= 1")
    evaluated: dict = {}  # dataset_key -> (promising set, its entropy)
    action_lists: dict = {}  # dataset_key -> action_set(...)

    def evaluate(key, d: Dataset):
        if key not in evaluated:
            ps = promising_set(p, d)
            evaluated[key] = ps, _entropy(ps)
        return evaluated[key]

    def actions(t, d: Dataset):
        key = dataset_key(d)
        if key not in action_lists:
            action_lists[key] = action_set(key, evaluate(key, d)[0])
        return action_lists[key]

    def action_set(key, ps: PromisingSet):
        pool = ps.support if ps.support else p.points
        triples = [
            (x, y, c)
            for x in pool
            for y in pool
            for c in sorted(p.combinators)
            if p.combinators[c](x, y) in p.objective
        ]
        if sampler == "exhaustive":
            return triples
        kind, m = sampler
        if kind != "sample":
            raise CofoError(f"unknown sampler spec: {sampler!r}")
        # seed from a stable string, not hash(), so runs reproduce exactly
        rng = random.Random(repr((seed, key)))
        dist = ps.distribution() if ps.support else {x: 1 / len(pool) for x in pool}
        out = []
        for _ in range(m):
            x = rng.choices(list(dist), weights=list(dist.values()), k=1)[0]
            y = rng.choices(list(dist), weights=list(dist.values()), k=1)[0]
            c = rng.choice(sorted(p.combinators))
            if p.combinators[c](x, y) in p.objective:
                out.append((x, y, c))
        return sorted(set(out))

    def successor(d: Dataset, action) -> Dataset:
        x, y, c = action
        z = p.combinators[c](x, y)
        return extend_dataset(d, (z, p.f(z)))

    def reward(t, d, action):
        # info_gain(p, d, d2).bits, less the KL term that reward discards
        d2 = successor(d, action)
        return evaluate(dataset_key(d), d)[1] - evaluate(dataset_key(d2), d2)[1]

    return reachable_problem(d0, horizon, actions, successor, reward, state_key=dataset_key)


# ---------------------------------------------------------------------------
# Fixtures


def two_hypothesis_problem() -> CofoProblem:
    """X = {1..4} uniform, F = identity, hypotheses {identity, 5-x}."""
    xs = [1, 2, 3, 4]
    ident = {x: float(x) for x in xs}
    mirror = {x: float(5 - x) for x in xs}
    return CofoProblem(
        domain=[(x, 1.0) for x in xs],
        objective=ident,
        hypotheses=[Hypothesis("identity", ident, 0.5), Hypothesis("mirror", mirror, 0.5)],
        rho=0.25,
        combinators={"left": lambda x, y: x, "right": lambda x, y: y},
    )
