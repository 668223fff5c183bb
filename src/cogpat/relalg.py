"""Finite relation algebra with machine checks for the greedy-fold and
dynamic-programming fixed-point theorems.

Relations are extensional pair sets between named finite carriers, so every
law (residual Galois property, shrink inclusions, fold fusion) is decided by
enumeration.  Inductive inputs come from a polynomial functor truncated at a
fixed depth, which keeps the fold carrier finite.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import asdict, dataclass
from typing import Optional


class RelAlgError(Exception):
    pass


class CarrierMismatchError(RelAlgError):
    pass


@dataclass(frozen=True)
class FinRel:
    """Binary relation: pairs (x, y) with x in carrier `src`, y in `tgt`."""

    src: str
    tgt: str
    pairs: frozenset

    def __contains__(self, pair):
        return pair in self.pairs

    def dom(self) -> frozenset:
        return frozenset(x for x, _ in self.pairs)

    def ran(self) -> frozenset:
        return frozenset(y for _, y in self.pairs)


class Carriers:
    """Registry of named finite carriers."""

    def __init__(self, table: dict):
        self.table = {k: tuple(v) for k, v in table.items()}

    def get(self, name: str) -> tuple:
        if name not in self.table:
            raise CarrierMismatchError(f"unknown carrier {name!r}")
        return self.table[name]

    def register(self, name: str, values) -> None:
        self.table[name] = tuple(values)

    def rel(self, src: str, tgt: str, pairs) -> FinRel:
        sv, tv = set(self.get(src)), set(self.get(tgt))
        for x, y in pairs:
            if x not in sv or y not in tv:
                raise CarrierMismatchError(f"pair ({x!r}, {y!r}) outside {src}x{tgt}")
        return FinRel(src, tgt, frozenset(pairs))


# ---------------------------------------------------------------------------
# Core operations


def converse(r: FinRel) -> FinRel:
    return FinRel(r.tgt, r.src, frozenset((y, x) for x, y in r.pairs))


def compose(r1: FinRel, r2: FinRel) -> FinRel:
    """Pairs (x, z) with an r1-step then an r2-step through the middle."""
    if r1.tgt != r2.src:
        raise CarrierMismatchError(f"compose: {r1.tgt!r} != {r2.src!r}")
    by_mid: dict = {}
    for y, z in r2.pairs:
        by_mid.setdefault(y, []).append(z)
    return FinRel(r1.src, r2.tgt, frozenset(
        [(x, z) for x, y in r1.pairs for z in by_mid.get(y, ())]))


def _same_type(r1: FinRel, r2: FinRel):
    if (r1.src, r1.tgt) != (r2.src, r2.tgt):
        raise CarrierMismatchError(
            f"type mismatch: {r1.src}->{r1.tgt} vs {r2.src}->{r2.tgt}"
        )


def meet(r1: FinRel, r2: FinRel) -> FinRel:
    _same_type(r1, r2)
    return FinRel(r1.src, r1.tgt, r1.pairs & r2.pairs)


def union(r1: FinRel, r2: FinRel) -> FinRel:
    _same_type(r1, r2)
    return FinRel(r1.src, r1.tgt, r1.pairs | r2.pairs)


def subset(r1: FinRel, r2: FinRel) -> bool:
    _same_type(r1, r2)
    return r1.pairs <= r2.pairs


def identity(carriers: Carriers, name: str) -> FinRel:
    return FinRel(name, name, frozenset((x, x) for x in carriers.get(name)))


def full(carriers: Carriers, src: str, tgt: str) -> FinRel:
    return FinRel(
        src, tgt,
        frozenset(itertools.product(carriers.get(src), carriers.get(tgt))),
    )


def empty(src: str, tgt: str) -> FinRel:
    return FinRel(src, tgt, frozenset())


def residual(carriers: Carriers, r: FinRel, s: FinRel) -> FinRel:
    """Largest X with compose(X, s) a subset of r.

    (a, b) belongs iff every s-step from b lands where r allows from a.
    """
    if r.tgt != s.tgt:
        raise CarrierMismatchError(f"residual: {r.tgt!r} != {s.tgt!r}")
    s_out: dict = {}
    for b, c in s.pairs:
        s_out.setdefault(b, set()).add(c)
    r_out: dict = {}
    for a, c in r.pairs:
        r_out.setdefault(a, set()).add(c)
    out = set()
    for a in carriers.get(r.src):
        allowed = r_out.get(a, set())
        for b in carriers.get(s.src):
            if s_out.get(b, set()) <= allowed:
                out.add((a, b))
    return FinRel(r.src, s.src, frozenset(out))


def shrink(s: FinRel, r: FinRel) -> FinRel:
    """Keep (a, b) in s whose output b is r-above every s-output of a."""
    if r.src != r.tgt or r.src != s.tgt:
        raise CarrierMismatchError(f"shrink: need {s.tgt!r} endorelation, got {r.src}->{r.tgt}")
    s_out: dict = {}
    for a, b in s.pairs:
        s_out.setdefault(a, set()).add(b)
    r_up: dict = {}
    for b, c in r.pairs:
        r_up.setdefault(b, set()).add(c)
    none: frozenset = frozenset()
    kept = frozenset([(a, b) for a, b in s.pairs if s_out[a] <= r_up.get(b, none)])
    return FinRel(s.src, s.tgt, kept)


def is_transitive(r: FinRel) -> bool:
    if r.src != r.tgt:
        raise CarrierMismatchError("transitivity needs an endorelation")
    return subset(compose(r, r), r)


# ---------------------------------------------------------------------------
# Polynomial functors and the truncated initial algebra

X_SLOT = "X"


def fname(carrier: str) -> str:
    return f"F({carrier})"


MU = "muF"


@dataclass(frozen=True)
class FunctorSpec:
    """Polynomial shape: a sum of products.  Each summand is a tuple of
    slots, either ("const", carrier_name) or the recursion marker "X".
    Elements of F(B) are flat tagged tuples (summand_index, v1, v2, ...)."""

    summands: tuple
    depth: int = 3

    def __post_init__(self):
        if self.depth < 1:
            raise RelAlgError("depth must be >= 1")

    def apply(self, carriers: Carriers, values) -> frozenset:
        """F applied to a plain set of values."""
        out = set()
        for i, slots in enumerate(self.summands):
            pools = []
            for slot in slots:
                if slot == X_SLOT:
                    pools.append(tuple(values))
                else:
                    pools.append(carriers.get(slot[1]))
            for combo in itertools.product(*pools):
                out.add((i, *combo))
        return frozenset(out)

    def _consts(self, carriers: Carriers) -> tuple:
        """(name, values) of each constant carrier, in first-use order: with
        the functor, all that its carriers depend on."""
        return tuple({slot[1]: carriers.get(slot[1])
                      for slots in self.summands for slot in slots if slot != X_SLOT}.items())

    def mu_order(self, carriers: Carriers, depth: Optional[int] = None) -> tuple:
        """muF truncated at `depth` constructor layers, children first: layer
        by layer, each layer's new elements in repr order."""
        return _mu_order(self, self.depth if depth is None else depth, self._consts(carriers))

    def mu(self, carriers: Carriers, depth: Optional[int] = None) -> frozenset:
        """Initial-algebra carrier truncated at `depth` constructor layers."""
        return frozenset(self.mu_order(carriers, depth))

    def children(self, element) -> tuple:
        i = element[0]
        return tuple(
            v for v, slot in zip(element[1:], self.summands[i]) if slot == X_SLOT
        )

    def lift(self, carriers: Carriers, r: FinRel) -> FinRel:
        """F(R): componentwise on recursion slots, equality on constants.
        Each slot offers a pool of (lhs, rhs) pairs, led by the tag."""
        out = []
        for i, slots in enumerate(self.summands):
            pools = [((i, i),)]
            for slot in slots:
                pools.append(r.pairs if slot == X_SLOT
                             else [(v, v) for v in carriers.get(slot[1])])
            out += [tuple(zip(*combo)) for combo in itertools.product(*pools)]
        return FinRel(fname(r.src), fname(r.tgt), frozenset(out))


@functools.lru_cache(maxsize=64)
def _mu_order(f: FunctorSpec, depth: int, consts: tuple) -> tuple:
    carriers = Carriers(dict(consts))
    order: list = []
    seen: set = set()
    for _ in range(depth):
        new = f.apply(carriers, seen) - seen
        order += sorted(new, key=repr)
        seen |= new
    return tuple(order)


@functools.lru_cache(maxsize=64)
def _functor_tables(f: FunctorSpec, consts: tuple, bases: tuple) -> tuple:
    carriers = Carriers(dict(consts))
    mu = tuple(sorted(_mu_order(f, f.depth, consts), key=repr))
    tables = [(fname(b), tuple(sorted(f.apply(carriers, values), key=repr))) for b, values in bases]
    return (*tables, (MU, mu), (fname(MU), tuple(sorted(f.apply(carriers, mu), key=repr))))


def register_functor_carriers(carriers: Carriers, f: FunctorSpec, *names) -> None:
    """Register F(b) for each named b, muF and F(muF), in repr order.  They
    depend only on f and the carriers they read, so each shape is built once."""
    bases = tuple((b, carriers.get(b)) for b in names)
    for name, values in _functor_tables(f, f._consts(carriers), bases):
        carriers.register(name, values)


# ---------------------------------------------------------------------------
# Relational fold over the truncated initial algebra


def rel_fold(s: FinRel, f: FunctorSpec, carriers: Carriers) -> FinRel:
    """Least X with X = compose(in-converse, compose(F(X), s)): relate each
    inductive element to every s-image of its recursively-related image.
    muF is well-founded, so X is a catamorphism, built in one pass over
    `mu_order` (children first) rather than by Kleene iteration."""
    s_by_in: dict = {}
    for fin, out in s.pairs:
        s_by_in.setdefault(fin, []).append(out)
    x_out: dict = {}
    for m in f.mu_order(carriers):
        i = m[0]
        pools = [x_out.get(v, ()) if slot == X_SLOT else (v,)
                 for v, slot in zip(m[1:], f.summands[i])]
        outs = {out for combo in itertools.product(*pools)
                for out in s_by_in.get((i, *combo), ())}
        if outs:
            x_out[m] = outs
    return FinRel(MU, s.tgt, frozenset([(m, v) for m, vs in x_out.items() for v in vs]))


# ---------------------------------------------------------------------------
# Theorem reports


@dataclass
class GreedyReport:
    transitive: bool
    monotone: bool
    monotone_counterexample: Optional[tuple]
    inclusion_holds: bool
    inclusion_counterexample: Optional[tuple]

    @property
    def preconditions_hold(self) -> bool:
        return self.transitive and self.monotone

    @property
    def violated(self) -> bool:
        return self.preconditions_hold and not self.inclusion_holds

    def to_dict(self) -> dict:
        return {**asdict(self), "preconditions_hold": self.preconditions_hold,
                "violated": self.violated}


def monotone_check(s: FinRel, r: FinRel, f: FunctorSpec, carriers: Carriers):
    """Improving the recursive inputs (per r) can only improve the output:
    compose(F(r), s) inside compose(s, r)."""
    lhs = compose(f.lift(carriers, r), s)
    rhs = compose(s, r)
    bad = lhs.pairs - rhs.pairs
    if bad:
        return False, min(bad, key=repr)
    return True, None


def verify_greedy_theorem(s: FinRel, r: FinRel, f: FunctorSpec, carriers: Carriers) -> GreedyReport:
    """Shrinking the algebra before folding loses nothing over shrinking the
    fold, provided r is transitive and s is monotone over r-converse."""
    trans = is_transitive(r)
    mono, mono_ce = monotone_check(s, r, f, carriers)
    lhs = rel_fold(shrink(s, r), f, carriers)
    rhs = shrink(rel_fold(s, f, carriers), r)
    bad = lhs.pairs - rhs.pairs
    return GreedyReport(trans, mono, mono_ce, not bad, min(bad, key=repr) if bad else None)


@dataclass
class LfpResult:
    rel: FinRel
    iterations: int
    converged: bool


def lfp_dp(s: FinRel, t: FinRel, r: FinRel, f: FunctorSpec, carriers: Carriers, cap: int = 100) -> LfpResult:
    """Iterate X -> shrink(compose(compose(converse(t), F(X)), s), r) from
    the empty relation, at most `cap` times; shrink breaks monotonicity, so
    stabilization is checked rather than assumed.  The step is a function
    of X alone, so once an X recurs the orbit is periodic and the X the
    capped loop would end on is read off the orbit instead of iterated."""
    t_conv = converse(t)
    x = empty(t.tgt, s.tgt)
    orbit, seen = [x], {x.pairs: 0}
    for k in range(cap):
        x2 = shrink(compose(compose(t_conv, f.lift(carriers, x)), s), r)
        if x2.pairs == x.pairs:
            return LfpResult(x2, k + 1, True)
        j = seen.setdefault(x2.pairs, k + 1)
        if j <= k:
            return LfpResult(orbit[j + (cap - j) % (k + 1 - j)], cap, False)
        orbit.append(x2)
        x = x2
    return LfpResult(x, cap, False)


@dataclass
class DpReport:
    monotone: bool
    domain_condition: bool
    converged: bool
    inclusion_holds: bool
    inclusion_counterexample: Optional[tuple]

    @property
    def preconditions_hold(self) -> bool:
        return self.monotone and self.domain_condition and self.converged

    @property
    def violated(self) -> bool:
        return self.preconditions_hold and not self.inclusion_holds

    def to_dict(self) -> dict:
        return {**asdict(self), "preconditions_hold": self.preconditions_hold,
                "violated": self.violated}


def dp_spec_relation(s: FinRel, t: FinRel, r: FinRel, f: FunctorSpec, carriers: Carriers) -> FinRel:
    """M = shrink(compose(converse(fold(t)), fold(s)), r): solve the input
    via t's fold backwards, re-fold with s, keep only r-best outputs."""
    return shrink(compose(converse(rel_fold(t, f, carriers)), rel_fold(s, f, carriers)), r)


def verify_dp_theorem(s: FinRel, t: FinRel, r: FinRel, f: FunctorSpec, carriers: Carriers, cap: int = 100) -> DpReport:
    # the dp theorem's monotonicity is oriented opposite to the greedy one
    mono, _ = monotone_check(s, converse(r), f, carriers)
    m = dp_spec_relation(s, t, r, f, carriers)
    lifted_m = f.lift(carriers, m)
    dom_ok = t.dom() <= compose(lifted_m, s).dom()
    res = lfp_dp(s, t, r, f, carriers, cap)
    bad = res.rel.pairs - m.pairs
    return DpReport(mono, dom_ok, res.converged, not bad, min(bad, key=repr) if bad else None)


# ---------------------------------------------------------------------------
# Random instance generation


def transitive_closure(r: FinRel) -> FinRel:
    """Warshall: after round k, x reaches z through the first k intermediates."""
    succ: dict = {}
    for x, y in r.pairs:
        succ.setdefault(x, set()).add(y)
    for k, via_k in succ.items():
        for reach in succ.values():
            if k in reach:
                reach |= via_k
    return FinRel(r.src, r.tgt, frozenset([(x, y) for x, ys in succ.items() for y in ys]))


def random_relation(rng: random.Random, carriers: Carriers, src: str, tgt: str, density: float) -> FinRel:
    pairs = {
        (x, y)
        for x in carriers.get(src)
        for y in carriers.get(tgt)
        if rng.random() < density
    }
    return FinRel(src, tgt, frozenset(pairs))


def random_preorder(rng: random.Random, carriers: Carriers, name: str, density: float = 0.3) -> FinRel:
    base = random_relation(rng, carriers, name, name, density)
    return transitive_closure(union(base, identity(carriers, name)))


def sandwich_monotone(s0: FinRel, r: FinRel, f: FunctorSpec, carriers: Carriers) -> FinRel:
    """Pre- and post-compose s0 with r; for a preorder r the result passes
    monotone_check by construction (r absorbs itself on both sides)."""
    return compose(compose(f.lift(carriers, r), s0), r)


def random_functional(rng: random.Random, carriers: Carriers, src: str, tgt: str, total: bool = True) -> FinRel:
    tgts = carriers.get(tgt)
    pairs = set()
    for x in carriers.get(src):
        if total or rng.random() < 0.8:
            pairs.add((x, rng.choice(tgts)))
    return FinRel(src, tgt, frozenset(pairs))


def random_greedy_instance(seed: int):
    """Seeded (carriers, functor, algebra, preorder) tuple whose algebra is
    monotone by the sandwich construction; preconditions can still fail on
    sparse draws, which verification suites skip."""
    rng = random.Random(seed)
    nb = rng.choice([2, 3, 4])
    carriers = Carriers({"A": [1, 2], "B": list(range(nb))})
    f = list_functor("A", depth=rng.choice([2, 3]))
    register_functor_carriers(carriers, f, "B")
    r = random_preorder(rng, carriers, "B", 0.4)
    s0 = random_relation(rng, carriers, fname("B"), "B", 0.3)
    s = sandwich_monotone(s0, r, f, carriers)
    return carriers, f, s, r


def random_dp_instance(seed: int):
    """Seeded (carriers, functor, algebra, input algebra, preorder) tuple;
    the algebra is sandwiched over the converse preorder to match the dp
    theorem's monotonicity orientation."""
    rng = random.Random(seed)
    nb, nc = rng.choice([2, 3]), rng.choice([2, 3])
    carriers = Carriers({"A": [1, 2], "B": list(range(nb)), "C": list(range(nc))})
    f = list_functor("A", depth=2)
    register_functor_carriers(carriers, f, "B", "C")
    r = random_preorder(rng, carriers, "B", 0.4)
    s0 = random_relation(rng, carriers, fname("B"), "B", 0.4)
    s = sandwich_monotone(s0, converse(r), f, carriers)
    t = random_functional(rng, carriers, fname("C"), "C")
    return carriers, f, s, t, r


# ---------------------------------------------------------------------------
# Stock fixtures


def list_functor(const_carrier: str = "A", depth: int = 3) -> FunctorSpec:
    """F X = 1 + A*X, so muF is the set of A-lists shorter than depth."""
    return FunctorSpec(summands=((), (("const", const_carrier), X_SLOT)), depth=depth)


def sum_fixture():
    """Lists over {1,2} folded with saturating addition (clamped at the
    carrier top, which keeps the algebra total and monotone)."""
    carriers = Carriers({"A": [1, 2], "B": [0, 1, 2, 3, 4]})
    f = list_functor("A", depth=3)
    register_functor_carriers(carriers, f, "B")
    pairs = {((0,), 0)}
    for a in carriers.get("A"):
        for x in carriers.get("B"):
            pairs.add(((1, a, x), min(a + x, 4)))
    s = FinRel(fname("B"), "B", frozenset(pairs))
    return carriers, f, s
