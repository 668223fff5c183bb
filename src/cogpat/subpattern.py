"""Simplicity-driven subpattern hierarchies.

A family of binary combination operators is mutually associative when every
ordered pair satisfies the interchange identity C_i(C_j(x,y),z) =
C_j(x, C_i(y,z)); the auditor checks this exhaustively on small domains and
by sampling otherwise.  Given a simplicity measure, the subpattern dag
records every strict-simplification decomposition, and an alignment score
measures how well a decision-system subproblem trace tracks that dag.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class SimplicityMeasure:
    """sigma scores an item; sigma_star scores applying op `name` to (y, z).
    Both must be nonnegative wherever defined."""

    sigma: Callable
    sigma_star: Callable          # (op name, y, z) -> float


@dataclass
class PairAudit:
    first: str
    second: str
    ok: bool
    counterexample: Optional[tuple]   # (x, y, z, left, right)
    checked: int
    undefined: int                    # triples where an op was partial

    def to_dict(self) -> dict:
        return {
            "pair": [self.first, self.second],
            "ok": self.ok,
            "counterexample": None if self.counterexample is None
            else [repr(v) for v in self.counterexample],
            "checked": self.checked,
            "undefined": self.undefined,
        }


@dataclass
class AuditReport:
    pairs: list
    exhaustive: bool

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.pairs)

    @property
    def witness(self) -> Optional[tuple]:
        for p in self.pairs:
            if p.counterexample is not None:
                return p.counterexample
        return None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "exhaustive": self.exhaustive,
            "pairs": [p.to_dict() for p in self.pairs],
        }


def _eval_interchange(ci, cj, x, y, z):
    """Returns (holds, left, right) or None when an op is undefined."""
    try:
        left = ci(cj(x, y), z)
        right = cj(x, ci(y, z))
    except ValueError:
        return None
    return left == right, left, right


def check_mutual_associativity(ops: dict, domain, trials: int = 1000,
                               seed: int = 0) -> AuditReport:
    """Audit the interchange identity over every ordered operator pair.
    Exhaustive over domain**3 when the domain has at most 8 elements,
    sampled `trials` triples per pair otherwise.  An operator raising
    ValueError on a triple counts as a partial-domain note, not a failure."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    domain = list(domain)
    if not domain:
        raise ValueError("domain must be nonempty")
    exhaustive = len(domain) <= 8
    rng = random.Random(seed)
    pairs = []
    for ni, ci in sorted(ops.items()):
        for nj, cj in sorted(ops.items()):
            if exhaustive:
                triples = itertools.product(domain, repeat=3)
            else:
                triples = (
                    (rng.choice(domain), rng.choice(domain), rng.choice(domain))
                    for _ in range(trials)
                )
            ok = True
            ce = None
            checked = 0
            undefined = 0
            for x, y, z in triples:
                res = _eval_interchange(ci, cj, x, y, z)
                if res is None:
                    undefined += 1
                    continue
                checked += 1
                holds, left, right = res
                if not holds and ce is None:
                    ok = False
                    ce = (x, y, z, left, right)
            pairs.append(PairAudit(ni, nj, ok, ce, checked, undefined))
    return AuditReport(pairs, exhaustive)


@dataclass
class SubpatternDag:
    """Edges (x, y, (op name, z)) assert op(y, z) = x with a strict drop in
    total simplicity: sigma(y) + sigma(z) + sigma_star(op, y, z) < sigma(x)."""

    vertices: list
    edges: list = field(default_factory=list)

    def children(self, x) -> list:
        return [y for px, y, _ in self.edges if px == x]

    def reachable(self, x) -> set:
        seen = set()
        frontier = [x]
        while frontier:
            cur = frontier.pop()
            for nxt in self.children(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def check(self, ops: dict, sm: SimplicityMeasure) -> None:
        """Re-evaluate every stored witness; raises on any stale edge."""
        for x, y, (name, z) in self.edges:
            if ops[name](y, z) != x:
                raise ValueError(f"witness no longer rebuilds {x!r}")
            if not sm.sigma(y) + sm.sigma(z) + sm.sigma_star(name, y, z) < sm.sigma(x):
                raise ValueError(f"simplification inequality fails for {x!r}")

    def to_dict(self) -> dict:
        return {
            "vertices": [repr(v) for v in self.vertices],
            "edges": [
                {"parent": repr(x), "child": repr(y),
                 "op": name, "other": repr(z)}
                for x, y, (name, z) in self.edges
            ],
        }


def build_subpattern_dag(items, ops: dict, sm: SimplicityMeasure) -> SubpatternDag:
    """Exhaustively insert every edge x -> y witnessed by op(y, z) = x whose
    combined simplicity strictly undercuts sigma(x)."""
    items = list(items)
    dag = SubpatternDag(items)
    for name, op in sorted(ops.items()):
        for y, z in itertools.product(items, repeat=2):
            try:
                built = op(y, z)
            except ValueError:
                continue
            for x in items:
                if built != x:
                    continue
                if sm.sigma(y) + sm.sigma(z) + sm.sigma_star(name, y, z) < sm.sigma(x):
                    dag.edges.append((x, y, (name, z)))
    return dag


def alignment_score(dp_trace, dag: SubpatternDag, mapping: dict) -> float:
    """Fraction of subproblem parent -> child edges whose mapped endpoints
    are connected (in either direction, directly or transitively) in the
    subpattern dag.  An empty trace aligns vacuously."""
    dp_trace = list(dp_trace)
    if not dp_trace:
        return 1.0
    for parent, child in dp_trace:
        if parent not in mapping or child not in mapping:
            raise ValueError(f"trace vertex missing from mapping: "
                             f"{parent if parent not in mapping else child!r}")
    hits = 0
    for parent, child in dp_trace:
        p, c = mapping[parent], mapping[child]
        if c in dag.reachable(p) or p in dag.reachable(c):
            hits += 1
    return hits / len(dp_trace)


# ---------------------------------------------------------------------------
# Reference operator families


def disjoint_union(a: frozenset, b: frozenset) -> frozenset:
    if a & b:
        raise ValueError("blocks overlap")
    return a | b
