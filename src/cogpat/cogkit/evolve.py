"""Evolutionary optimization as a greedy sampled decision loop: pick parents
in proportion to fitness, apply a variation operator, evaluate, and keep the
population bounded.  Deterministic per seed."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class EvolveResult:
    best: tuple
    best_fitness: float
    history: list                # best-so-far fitness after each evaluation
    evaluations: int


def point_mutation(rate: float):
    def op(rng: random.Random, g: tuple) -> tuple:
        out = list(g)
        for i in range(len(out)):
            if rng.random() < rate:
                out[i] = rng.choice([1 - out[i]])  # a bit flip; the draw keeps each seed's stream
        return tuple(out)

    return op


def uniform_crossover(rng: random.Random, g1: tuple, g2: tuple) -> tuple:
    return tuple(a if rng.random() < 0.5 else b for a, b in zip(g1, g2))


def one_max(g: tuple) -> float:
    return float(sum(g))


def evolve(
    fitness: Callable[[tuple], float],
    pop0: list,
    budget: int,
    seed: int = 0,
    mutate: Optional[Callable] = None,
    crossover: Optional[Callable] = None,
) -> EvolveResult:
    if not pop0:
        raise ValueError("initial population must be nonempty")
    rng = random.Random(seed)
    pop = [(tuple(g), fitness(tuple(g))) for g in pop0]
    cap = len(pop)
    best, best_fit = max(pop, key=lambda p: p[1])
    history = []
    evals = 0

    def pick_parent():
        weights = [max(f, 0.0) for _, f in pop]
        if sum(weights) <= 0.0:
            return rng.choice(pop)[0]
        return rng.choices(pop, weights=weights, k=1)[0][0]

    while evals < budget:
        if crossover is not None and rng.random() < 0.5:
            child = crossover(rng, pick_parent(), pick_parent())
        else:
            child = pick_parent()
        if mutate is not None:
            child = mutate(rng, child)
        f = fitness(child)
        evals += 1
        pop.append((child, f))
        if f > best_fit:
            best, best_fit = child, f
        history.append(best_fit)
        if len(pop) > cap:
            pop.remove(min(pop, key=lambda p: p[1]))
    return EvolveResult(best, best_fit, history, evals)
