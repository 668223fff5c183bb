"""Agglomerative clustering with an exhaustive optimal variant.

Partitions are frozensets of frozensets, so any merge order reaching the
same partition produces the identical value.  Quality defaults to the
negative mean within-block pairwise distance; the staged merge process is
also solvable exactly by the decision-system engine for small n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..dds import plan


@dataclass(frozen=True)
class Clustering:
    blocks: frozenset            # frozenset of frozensets
    quality: float
    logical_entropy: float


def logical_entropy(blocks, n: int) -> float:
    """1 - sum((|B|/n)^2): chance two random draws land in different blocks."""
    return 1.0 - sum((len(b) / n) ** 2 for b in blocks)


def partition_quality(blocks, distance) -> float:
    """Negative mean pairwise distance within blocks; 0 for all-singletons."""
    pairs = [
        (x, y)
        for block in blocks
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


def greedy_merges(items, distance, k: int):
    """Greedy agglomeration from singletons down to k blocks.  Each step
    merges the pair whose merge gives the best partition quality (ties to
    the first pair in sorted order) and yields (blocks after, a, b)."""
    blocks = frozenset(frozenset([x]) for x in items)
    while len(blocks) > k:
        a, b = max(_pairs(blocks), key=lambda ab: partition_quality(_merge(blocks, *ab), distance))
        blocks = _merge(blocks, a, b)
        yield blocks, a, b


def agglomerate(items, distance, k: int, executor: str = "greedy") -> Clustering:
    items = sorted(items)
    n = len(items)
    if not (1 <= k <= n):
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    start = frozenset(frozenset([x]) for x in items)
    if k == n:
        return _clustering(start, n, distance)
    if executor == "greedy":
        *_, (blocks, _, _) = greedy_merges(items, distance, k)
        return _clustering(blocks, n, distance)
    if executor == "exact_dp":
        if n > 7:
            raise ValueError("exact clustering is limited to n <= 7")
        reward = lambda t, bl, ab: (
            partition_quality(_merge(bl, *ab), distance) - partition_quality(bl, distance))
        _, blocks = plan(start, n - k, lambda t, bl: _pairs(bl), lambda bl, ab: _merge(bl, *ab),
                         reward, action_key=_key)
        return _clustering(blocks, n, distance)
    raise ValueError(f"unknown executor {executor!r}")
