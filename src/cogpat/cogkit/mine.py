"""Pattern mining over edge-typed knowledge bases.

A pattern is a conjunction or disjunction of edge clauses over shared
variables, normalized as a frozenset so combining patterns is associative
and commutative by construction.  Frequencies are exact: conjunctions count
satisfying edge tuples against all edge tuples, disjunctions count single
edges.

A conjunction is counted without enumerating the E^k edge tuples: the
clauses bind variables one after another over an index of the edges by
(type, source), in the manner of Generic Join, and the count from each
partial binding is memoized on the variables later clauses still use, so
the work follows the distinct partial bindings, not the tuples.  The index
is built once per snapshot, not once per pattern.

Mining is declared as a decision process (state, actions, successor,
reward) and run by `dds.greedy`, as clustering is.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass

from ..dds import greedy
from ..metagraph import as_view
from ..morphisms import memo_recurse

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


# snapshot -> `_kb_index(snapshot)`, kept while the snapshot lives; a
# snapshot never changes, so neither does its entry
_KB_INDEX: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kb_index(view) -> tuple:
    """(n, index): the number of `view`'s binary edges and their index by
    (type, None) and (type, source) -> [(source, target)] in edge order,
    built once per snapshot."""
    view = as_view(view)
    cached = _KB_INDEX.get(view)
    if cached is None:
        index: dict = {}
        n = 0
        for e in view.edges():
            if len(e.targets) == 2:
                a, b = e.targets
                index.setdefault((e.type_label, None), []).append((a, b))
                index.setdefault((e.type_label, a), []).append((a, b))
                n += 1
        cached = _KB_INDEX[view] = (n, index)
    return cached


def clause_frequency(view, clause: Clause) -> float:
    n, index = _kb_index(view)
    return len(index.get((clause[0], None), ())) / n if n else 0.0


def _count_conj(index, clauses) -> int:
    """Number of edge tuples, one edge per clause, under which every
    variable takes one value.

    A join over the clauses in order, memoized by `memo_recurse`: a state
    is (i, the values of the variables clauses i.. still use), None for
    one not bound yet, and its children are the edges that extend the
    binding through clause i.  States that agree on the live variables
    share one count, and a repeated edge is a repeated child, so
    multiplicities survive.
    """
    k = len(clauses)
    live = [tuple(sorted({v for _, vs in clauses[i:] for v in vs})) for i in range(k + 1)]

    def children_of(state):
        i, vals = state
        if i == k:
            return []
        etype, (x, y) = clauses[i]
        env = dict(zip(live[i], vals))
        bound_y = env[y]
        out = []
        for a, b in index.get((etype, env[x]), ()):
            want = a if x == y else bound_y
            if want is None or want == b:
                env[x], env[y] = a, b
                out.append((i + 1, tuple(env[v] for v in live[i + 1])))
        return out

    def compute(state, child_counts):
        return 1 if state[0] == k else sum(child_counts)

    root = (0, (None,) * len(live[0]))
    return memo_recurse(root, children_of, compute)[0]


def pattern_frequency(view, pattern: Pattern) -> float:
    n, index = _kb_index(view)
    if not n:
        return 0.0
    clauses = pattern.sorted_clauses
    if pattern.kind == "disj":
        return sum(len(index.get((t, None), ())) for t in {c[0] for c in clauses}) / n
    return _count_conj(index, clauses) / n ** len(clauses)


def pattern_surprisingness(view, pattern: Pattern) -> float:
    """Observed frequency minus the product of clause frequencies (the
    independence estimate).  Only meaningful for conjunctions."""
    return _surprisingness(view, pattern, pattern_frequency(view, pattern))


def _surprisingness(view, pattern: Pattern, freq: float) -> float:
    if pattern.kind == "disj":
        return 0.0
    product = 1.0
    for clause in pattern.sorted_clauses:
        product *= clause_frequency(view, clause)
    return freq - product


@dataclass(frozen=True)
class MinedPattern:
    pattern: Pattern
    frequency: float
    surprisingness: float


def _pattern_key(p: Pattern) -> tuple:
    return (p.kind, p.sorted_clauses)  # unlike repr, free of hash order


# `greedy` takes the first best action in key order, so patterns sort by
# descending key; a pass (None) is only ever the sole action, never compared
_largest_key_first = functools.cmp_to_key(
    lambda p, q: (_pattern_key(p) < _pattern_key(q)) - (_pattern_key(p) > _pattern_key(q)))


def _fresh_var(used) -> str:
    return next(f"v{i}" for i in itertools.count() if f"v{i}" not in used)


def mine_patterns(view, seeds, min_freq: float, budget: int) -> list[MinedPattern]:
    """Grow a pattern pool by `dds.greedy` over `budget` steps.  The state
    is the pool (the seeds, deduplicated in order, then each pattern
    chosen); an action pools an expansion (a conjunction extended by a
    chained clause, or two same-kind patterns combined) at least `min_freq`
    frequent and earns its frequency, ties to the largest key, and with no
    such expansion the one action, None, passes.  Each distinct pattern is
    joined once per call."""
    if budget < 0:
        raise ValueError("budget must be >= 0")
    view = as_view(view)
    edge_types = sorted(t for t, source in _kb_index(view)[1] if source is None)
    frequency = functools.cache(lambda p: pattern_frequency(view, p))

    @functools.cache  # a pass revisits its pool
    def expansions(pool):
        out = [p.combine(q) for p, q in itertools.combinations(pool, 2) if p.kind == q.kind]
        for p in pool:
            if p.kind == "conj":  # chain a fresh clause off each variable in play
                used = sorted({v for _, vs in p.clauses for v in vs})
                fresh = _fresh_var(used)
                out += [p.combine(conj((etype, pair))) for etype in edge_types for v in used
                        for pair in ((v, fresh), (fresh, v))]
        return [c for c in dict.fromkeys(out) if c not in pool and frequency(c) >= min_freq]

    _, pool = greedy(
        start=tuple(dict.fromkeys(seeds)),
        horizon=budget,
        actions=lambda t, pool: expansions(pool) or [None],
        successor=lambda pool, p: pool if p is None else pool + (p,),
        reward=lambda t, pool, p: 0.0 if p is None else frequency(p),
        action_key=_largest_key_first,
    )
    return sorted(
        (MinedPattern(p, frequency(p), _surprisingness(view, p, frequency(p)))
         for p in pool if frequency(p) >= min_freq),
        key=lambda m: (-m.frequency, _pattern_key(m.pattern)),
    )
