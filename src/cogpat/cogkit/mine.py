"""Pattern mining over edge-typed knowledge bases.

A pattern is a conjunction or disjunction of edge clauses over shared
variables, normalized as a frozenset so combining patterns is associative
and commutative by construction.  Frequencies are exact: conjunctions count
satisfying edge tuples against all edge tuples, disjunctions count single
edges.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from ..metagraph import TypedMetagraph, as_view

Clause = tuple  # (edge_type, (var, var))


@dataclass(frozen=True)
class Pattern:
    kind: str                    # "conj" or "disj"
    clauses: frozenset           # of Clause

    def __post_init__(self):
        if self.kind not in ("conj", "disj"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if not self.clauses:
            raise ValueError("pattern needs at least one clause")

    def combine(self, other: "Pattern") -> "Pattern":
        if self.kind != other.kind:
            raise ValueError("can only combine patterns of the same kind")
        return Pattern(self.kind, self.clauses | other.clauses)

    @property
    def sorted_clauses(self) -> tuple:
        return tuple(sorted(self.clauses))


def conj(*clauses) -> Pattern:
    return Pattern("conj", frozenset(clauses))


def disj(*clauses) -> Pattern:
    return Pattern("disj", frozenset(clauses))


def _kb_edges(view) -> list:
    view = as_view(view)
    return [e for e in view.edges() if len(e.targets) == 2]


def clause_frequency(view, clause: Clause) -> float:
    edges = _kb_edges(view)
    if not edges:
        return 0.0
    return sum(1 for e in edges if e.type_label == clause[0]) / len(edges)


def _count_conj(edges, clauses) -> int:
    count = 0
    for combo in itertools.product(edges, repeat=len(clauses)):
        binding: dict = {}
        ok = True
        for (etype, (v1, v2)), e in zip(clauses, combo):
            if e.type_label != etype:
                ok = False
                break
            for var, node in ((v1, e.targets[0]), (v2, e.targets[1])):
                if binding.setdefault(var, node) != node:
                    ok = False
                    break
            if not ok:
                break
        count += ok
    return count


def pattern_frequency(view, pattern: Pattern) -> float:
    edges = _kb_edges(view)
    if not edges:
        return 0.0
    clauses = pattern.sorted_clauses
    if pattern.kind == "disj":
        types = {c[0] for c in clauses}
        return sum(1 for e in edges if e.type_label in types) / len(edges)
    return _count_conj(edges, clauses) / len(edges) ** len(clauses)


def pattern_surprisingness(view, pattern: Pattern) -> float:
    """Observed frequency minus the product of clause frequencies (the
    independence estimate).  Only meaningful for conjunctions."""
    freq = pattern_frequency(view, pattern)
    if pattern.kind == "disj":
        return 0.0
    product = 1.0
    for clause in pattern.sorted_clauses:
        product *= clause_frequency(view, clause)
    return freq - product


def pattern_to_metagraph(pattern: Pattern) -> TypedMetagraph:
    """Render a pattern as a metagraph: a node per variable, an edge per
    clause, and a top edge tying the clauses together."""
    mg = TypedMetagraph()
    var_ids: dict = {}
    clause_ids = []
    for etype, (v1, v2) in pattern.sorted_clauses:
        for v in (v1, v2):
            if v not in var_ids:
                var_ids[v] = mg.add_node("Var")
        clause_ids.append(mg.add_edge(etype, [var_ids[v1], var_ids[v2]]))
    mg.add_edge("And" if pattern.kind == "conj" else "Or", clause_ids)
    return mg


@dataclass(frozen=True)
class MinedPattern:
    pattern: Pattern
    frequency: float
    surprisingness: float


def _pattern_key(p: Pattern) -> tuple:
    return (p.kind, p.sorted_clauses)  # unlike repr, free of hash order


def _fresh_var(pattern: Pattern) -> str:
    used = {v for _, vs in pattern.clauses for v in vs}
    i = 0
    while f"v{i}" in used:
        i += 1
    return f"v{i}"


def mine_patterns(view, seeds, min_freq: float, budget: int,
                  executor: str = "greedy", seed: int = 0) -> list[MinedPattern]:
    """Grow a pattern pool: per round, expand an existing pattern (extend a
    conjunction with a chained clause, or combine two same-kind patterns),
    keep the result if frequent enough, reward = pool quality increase."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if executor not in ("greedy", "weighted"):
        raise ValueError(f"unknown executor {executor!r}")
    view = as_view(view)
    rng = random.Random(seed)
    edge_types = sorted({e.type_label for e in _kb_edges(view)})

    def score(p: Pattern) -> MinedPattern:
        return MinedPattern(p, pattern_frequency(view, p), pattern_surprisingness(view, p))

    pool: dict[Pattern, MinedPattern] = {}
    for s in seeds:
        pool[s] = score(s)

    def candidates():
        out = []
        for p in pool:
            if p.kind == "conj":
                # chain a fresh clause off each variable already in play
                fresh = _fresh_var(p)
                for etype in edge_types:
                    for _, vs in sorted(p.clauses):
                        for v in vs:
                            out.append(p.combine(conj((etype, (v, fresh)))))
                            out.append(p.combine(conj((etype, (fresh, v)))))
        for p, q in itertools.combinations(sorted(pool, key=_pattern_key), 2):
            if p.kind == q.kind:
                out.append(p.combine(q))
        return [c for c in out if c not in pool]

    for _ in range(budget):
        cands = candidates()
        if not cands:
            break
        scored = [score(c) for c in cands]
        keepable = [m for m in scored if m.frequency >= min_freq]
        if not keepable:
            break
        if executor == "greedy":
            chosen = max(keepable, key=lambda m: (m.frequency, _pattern_key(m.pattern)))
        else:
            chosen = rng.choices(
                keepable, weights=[m.frequency + 1e-9 for m in keepable], k=1
            )[0]
        pool[chosen.pattern] = chosen
    return sorted(
        (m for m in pool.values() if m.frequency >= min_freq),
        key=lambda m: (-m.frequency, _pattern_key(m.pattern)),
    )
