"""Importance spreading: repeatedly move a fixed quantum of short-term
importance from a sampled atom to a sampled linked neighbor.  Total
importance is conserved exactly; values may go negative."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..metagraph import as_view


@dataclass
class EcanResult:
    sti: dict                    # atom id -> importance after the run
    rewards: list                # per executed step
    transfers: list              # (step, x, y)
    skipped: list                # steps with no linked neighbor


def ecan_run(view, q: float, steps: int, seed: int = 0,
             utility: Optional[Callable] = None) -> EcanResult:
    """`utility(step, x, y) -> reward` attributes payoff to each transfer."""
    if q <= 0:
        raise ValueError("transfer quantum must be > 0")
    view = as_view(view)
    rng = random.Random(seed)
    sti = {a.id: a.sti for a in view.atoms.values()}
    neighbors: dict = {i: [] for i in sti}
    for e in view.edges():
        refs = [t for t in e.targets if t >= 0]
        for x in refs:
            for y in refs:
                if x != y:
                    neighbors[x].append(y)
    rewards = []
    transfers = []
    skipped = []
    ids = sorted(sti)
    for step in range(steps):
        weights = [max(sti[i], 0.0) for i in ids]
        if sum(weights) <= 0.0:
            x = rng.choice(ids)
        else:
            x = rng.choices(ids, weights=weights, k=1)[0]
        links = neighbors[x]
        if not links:
            skipped.append(step)
            continue
        y = rng.choices(links, weights=[1.0] * len(links), k=1)[0]
        sti[x] -= q
        sti[y] += q
        transfers.append((step, x, y))
        rewards.append(utility(step, x, y) if utility is not None else 0.0)
    return EcanResult(sti, rewards, transfers, skipped)
