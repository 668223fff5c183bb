"""Agglomerative clustering with an exhaustive optimal variant.

Partitions are frozensets of frozensets, so any merge order reaching the
same partition produces the identical value.  Quality defaults to the
negative mean within-block pairwise distance.  The staged merge process is
declared once (`merge_process`) and run greedily or, for small n, exactly
by the decision-system executors.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from ..dds import SizeError, greedy, plan


@dataclass(frozen=True)
class Clustering:
    blocks: frozenset            # frozenset of frozensets
    quality: float
    logical_entropy: float


def logical_entropy(blocks, n: int) -> float:
    """1 - sum((|B|/n)^2): chance two random draws land in different blocks."""
    return 1.0 - sum((len(b) / n) ** 2 for b in sorted(blocks, key=sorted))


def partition_quality(blocks, distance) -> float:
    """Negative mean pairwise distance within blocks; 0 for all-singletons."""
    pairs = [
        (x, y)
        for block in sorted(blocks, key=sorted)
        for x, y in itertools.combinations(sorted(block), 2)
    ]
    if not pairs:
        return 0.0
    return -sum(distance(x, y) for x, y in pairs) / len(pairs)


def _merge(blocks: frozenset, a: frozenset, b: frozenset) -> frozenset:
    return (blocks - {a, b}) | {a | b}


def _clustering(blocks, n, distance) -> Clustering:
    return Clustering(frozenset(blocks), partition_quality(blocks, distance),
                      logical_entropy(blocks, n))


def _key(pair) -> tuple:
    """Sorted tuple of sorted blocks: the sort key of a merge pair."""
    return tuple(sorted(tuple(sorted(b)) for b in pair))


def _pairs(blocks) -> list:
    return list(itertools.combinations(sorted(blocks, key=sorted), 2))


def merge_process(items, distance) -> dict:
    """The merge process as keyword arguments of `dds.plan` and `dds.greedy`
    (less the horizon): from singletons, an action merges two blocks (`_pairs`
    lists them in `_key` order) and earns the gain in partition quality.  The
    quality of each state is memoized; merged candidates are not kept."""
    quality = functools.cache(lambda blocks: partition_quality(blocks, distance))
    return dict(
        start=frozenset(frozenset([x]) for x in items),
        actions=lambda t, blocks: _pairs(blocks),
        successor=lambda blocks, ab: _merge(blocks, *ab),
        reward=lambda t, blocks, ab: (
            partition_quality(_merge(blocks, *ab), distance) - quality(blocks)),
        action_key=_key,
    )


def agglomerate(items, distance, k: int, executor: str = "greedy") -> Clustering:
    """Merge `items` from singletons down to k blocks, by `dds.greedy`
    (executor "greedy") or exactly by `dds.plan` ("dp", n <= 7)."""
    items = sorted(items)
    n = len(items)
    if not (1 <= k <= n):
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    run = {"greedy": greedy, "dp": plan}.get(executor)
    if run is None:
        raise ValueError(f"unknown executor {executor!r}")
    if run is plan and k < n and n > 7:
        raise SizeError(f"exact clustering is limited to n <= 7, got n={n}")
    _, blocks = run(horizon=n - k, **merge_process(items, distance))
    return _clustering(blocks, n, distance)
