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
from dataclasses import dataclass
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from .dds import DdsProblem, reachable_problem


class CofoError(Exception):
    pass


class InconsistencyError(CofoError):
    """No hypothesis agrees with the dataset; carries the breaking pair."""

    def __init__(self, pair):
        super().__init__(f"no hypothesis consistent with pair {pair!r}")
        self.pair = pair


class Hypothesis(NamedTuple):
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
        weights = [w for _, w in self.domain]
        total = sum(weights)
        if min(weights, default=0.0) < 0 or not 0.0 < total < math.inf:
            raise CofoError("domain weights must be >= 0, with a positive, finite sum")
        self.domain = [(x, w / total) for x, w in self.domain]
        self._weights = dict(self.domain)
        if len(self._weights) != len(self.domain):
            raise CofoError("domain repeats a point")
        if not (0.0 < self.rho < 1.0):
            raise CofoError("rho must lie in (0,1)")
        if not (self.tol >= 0.0):
            raise CofoError("tol must be >= 0")
        psum = sum(priors := [h.prior for h in self.hypotheses])
        if not 0.0 < psum < math.inf or min(priors) <= 0:
            raise CofoError("hypothesis priors must be positive, with a finite sum")
        self.hypotheses = [
            Hypothesis(name, table, prior / psum) for name, table, prior in self.hypotheses
        ]
        for name, table in [(None, self.objective), *((h.name, h.table) for h in self.hypotheses)]:
            if not table.keys() >= self._weights.keys():
                missing = next(x for x in self._weights if x not in table)
                name = "objective" if name is None else f"hypothesis {name!r}"
                raise CofoError(f"{name} has no value at domain point {missing!r}")
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
    out: set = set()
    mass, last = 0.0, None
    # a stable sort: each tie group in domain order
    for x, w in sorted(domain, key=lambda xw: f[xw[0]], reverse=True):
        if out and f[x] != last and mass >= rho - 1e-12:
            break
        out.add(x)
        mass += w
        last = f[x]
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


# ---------------------------------------------------------------------------
# DDS adapter


def make_cofo_dds(p: CofoProblem, horizon: int) -> DdsProblem:
    """State = dataset; action = (x, y, combinator name); reward = entropy
    drop of the promising set after appending the evaluated combination."""
    if horizon < 1:
        raise CofoError("horizon must be >= 1")
    evaluated: dict = {}  # dataset_key -> (promising set, its entropy)
    action_lists: dict = {}  # dataset_key -> its actions

    def evaluate(key, d: Dataset):
        if key not in evaluated:
            ps = promising_set(p, d)
            evaluated[key] = ps, _entropy(ps)
        return evaluated[key]

    def actions(t, d: Dataset):
        key = dataset_key(d)
        if key not in action_lists:
            pool = evaluate(key, d)[0].support or p.points
            action_lists[key] = [
                (x, y, c)
                for x in pool
                for y in pool
                for c in sorted(p.combinators)
                if p.combinators[c](x, y) in p.objective
            ]
        return action_lists[key]

    def successor(d: Dataset, action) -> Dataset:
        x, y, c = action
        z = p.combinators[c](x, y)
        return extend_dataset(d, (z, p.f(z)))

    def reward(t, d, action):
        # info_gain(p, d, d2).bits, less the KL term that reward discards
        d2 = successor(d, action)
        return evaluate(dataset_key(d), d)[1] - evaluate(dataset_key(d2), d2)[1]

    return reachable_problem((), horizon, actions, successor, reward, state_key=dataset_key)


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
