"""Finite relation algebra with machine checks for the greedy-fold and
dynamic-programming fixed-point theorems.

Relations are bit matrices over indexed finite carriers: one int mask per
source value, bit j for the target carrier's j-th value, so the operations are
word operations (Schmidt & Stroehlein, *Relations and Graphs*, 1993) and every
law (residual Galois property, shrink inclusions, fold fusion) is decided by
enumeration.  Inductive inputs come from a polynomial functor truncated at a
fixed depth, which keeps the fold carrier finite.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import asdict, dataclass
from typing import Optional


class RelAlgError(Exception):
    pass


class CarrierMismatchError(RelAlgError):
    pass


def _bits(m: int):
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


class FinRel:
    """Binary relation from carrier `src` to `tgt`: bit j of rows[i] relates
    xs[i] to ys[j], where xs and ys are the two carriers' values in order.
    Equality and hashing read the pair set, as for any set of pairs."""

    __slots__ = ("src", "tgt", "rows", "xs", "ys", "_pairs")

    def __init__(self, src: str, tgt: str, rows: tuple, xs: tuple, ys: tuple):
        self.src, self.tgt, self.rows, self.xs, self.ys, self._pairs = src, tgt, rows, xs, ys, None

    @property
    def pairs(self) -> frozenset:
        if self._pairs is None:
            self._pairs = frozenset([(x, self.ys[j]) for x, m in zip(self.xs, self.rows) for j in _bits(m)])
        return self._pairs

    def __contains__(self, pair):
        return pair in self.pairs

    def __eq__(self, other):
        return isinstance(other, FinRel) and (self.src, self.tgt, self.pairs) == (other.src, other.tgt, other.pairs)

    def __hash__(self):
        return hash((self.src, self.tgt, self.pairs))

    def __repr__(self):
        return f"FinRel(src={self.src!r}, tgt={self.tgt!r}, pairs={self.pairs!r})"

    def dom(self) -> frozenset:
        return frozenset([x for x, m in zip(self.xs, self.rows) if m])

    def ran(self) -> frozenset:
        return frozenset([self.ys[j] for j in _bits(functools.reduce(operator.or_, self.rows, 0))])


class Carriers:
    """Registry of named finite carriers, each indexed value -> position."""

    def __init__(self, table: dict):
        self.table = {k: tuple(v) for k, v in table.items()}
        self._index: dict = {}

    def get(self, name: str) -> tuple:
        if name not in self.table:
            raise CarrierMismatchError(f"unknown carrier {name!r}")
        return self.table[name]

    def register(self, name: str, values) -> None:
        self.table[name] = tuple(values)
        self._index.pop(name, None)

    def index(self, name: str) -> dict:
        """value -> position in the named carrier, built once per registration."""
        if name not in self._index:
            self._index[name] = {v: i for i, v in enumerate(self.get(name))}
        return self._index[name]

    def rel(self, src: str, tgt: str, pairs) -> FinRel:
        xi, yi, rows = self.index(src), self.index(tgt), [0] * len(self.get(src))
        for x, y in pairs:
            if x not in xi or y not in yi:
                raise CarrierMismatchError(f"pair ({x!r}, {y!r}) outside {src}x{tgt}")
            rows[xi[x]] |= 1 << yi[y]
        return FinRel(src, tgt, tuple(rows), self.get(src), self.get(tgt))


# ---------------------------------------------------------------------------
# Core operations


def _match(op: str, name1: str, values1: tuple, name2: str, values2: tuple):
    if name1 != name2 or (values1 is not values2 and values1 != values2):
        raise CarrierMismatchError(f"{op}: {name1!r} != {name2!r} or their values differ")


def converse(r: FinRel) -> FinRel:
    cols = [0] * len(r.ys)
    for i, m in enumerate(r.rows):
        for j in _bits(m):
            cols[j] |= 1 << i
    return FinRel(r.tgt, r.src, tuple(cols), r.ys, r.xs)


def compose(r1: FinRel, r2: FinRel) -> FinRel:
    """Pairs (x, z) with an r1-step then an r2-step through the middle: row
    x is the OR of the r2 rows that r1's row x selects."""
    _match("compose", r1.tgt, r1.ys, r2.src, r2.xs)
    return FinRel(r1.src, r2.tgt, tuple([_or_rows(r2.rows, m) for m in r1.rows]), r1.xs, r2.ys)


def _same_type(r1: FinRel, r2: FinRel):
    _match("type mismatch", (r1.src, r1.tgt), (r1.xs, r1.ys), (r2.src, r2.tgt), (r2.xs, r2.ys))


def union(r1: FinRel, r2: FinRel) -> FinRel:
    _same_type(r1, r2)
    return FinRel(r1.src, r1.tgt, tuple(map(operator.or_, r1.rows, r2.rows)), r1.xs, r1.ys)


def subset(r1: FinRel, r2: FinRel) -> bool:
    _same_type(r1, r2)
    return not any(a & ~b for a, b in zip(r1.rows, r2.rows))


def identity(carriers: Carriers, name: str) -> FinRel:
    xs = carriers.get(name)
    return FinRel(name, name, tuple(1 << i for i in range(len(xs))), xs, xs)


def full(carriers: Carriers, src: str, tgt: str) -> FinRel:
    xs, ys = carriers.get(src), carriers.get(tgt)
    return FinRel(src, tgt, ((1 << len(ys)) - 1,) * len(xs), xs, ys)


def empty(carriers: Carriers, src: str, tgt: str) -> FinRel:
    xs, ys = carriers.get(src), carriers.get(tgt)
    return FinRel(src, tgt, (0,) * len(xs), xs, ys)


def residual(r: FinRel, s: FinRel) -> FinRel:
    """Largest X with compose(X, s) a subset of r: (a, b) belongs iff every
    s-step from b lands where r allows from a, so s's row b is inside r's row a."""
    _match("residual", r.tgt, r.ys, s.tgt, s.ys)
    rows = tuple(sum(1 << b for b, sb in enumerate(s.rows) if not sb & ~ra) for ra in r.rows)
    return FinRel(r.src, s.src, rows, r.xs, s.xs)


def shrink(s: FinRel, r: FinRel) -> FinRel:
    """Keep (a, b) in s whose output b is r-above every s-output of a: bit b
    of row a stays iff the row is a subset of r's row b."""
    _match("shrink: need an endorelation", r.src, r.xs, r.tgt, r.ys)
    _match("shrink", s.tgt, s.ys, r.src, r.xs)
    r_rows, out = r.rows, []
    for m in s.rows:
        kept, rest = 0, m
        while rest:
            low = rest & -rest
            if not m & ~r_rows[low.bit_length() - 1]:
                kept |= low
            rest ^= low
        out.append(kept)
    return FinRel(s.src, s.tgt, tuple(out), s.xs, s.ys)


def is_transitive(r: FinRel) -> bool:
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
            pools = [tuple(values) if slot == X_SLOT else carriers.get(slot[1]) for slot in slots]
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
        Each F(src) row sets the F(tgt) bits its X slots' r-rows select."""
        fxs, fys = carriers.get(fname(r.src)), carriers.get(fname(r.tgt))
        rows, table = r.rows, _lift_table(self, r.xs, r.ys, fxs, fys)
        out = tuple([_lifted_row(src, bits, rows) for src, bits in table])
        return FinRel(fname(r.src), fname(r.tgt), out, fxs, fys)


@functools.lru_cache(maxsize=256)
def _lift_table(f: FunctorSpec, xs: tuple, ys: tuple, fxs: tuple, fys: tuple) -> tuple:
    """Per F(xs) element: the xs indices of its X-slot values, and the F(ys) bit
    of each tuple of ys indices in those slots, as a dict.  A single slot has an
    int index and a tuple by ys index."""
    xi, bit = {v: i for i, v in enumerate(xs)}, {e: 1 << i for i, e in enumerate(fys)}
    table = []
    for e in fxs:
        xpos = [k + 1 for k, slot in enumerate(f.summands[e[0]]) if slot == X_SLOT]
        bits = {}
        for js in itertools.product(range(len(ys)), repeat=len(xpos)):
            put = dict(zip(xpos, [ys[j] for j in js]))
            bits[js] = bit[tuple(put.get(k, v) for k, v in enumerate(e))]
        src = tuple(xi[e[k]] for k in xpos)
        if len(src) == 1:
            src, bits = src[0], tuple(bits.values())
        table.append((src, bits))
    return tuple(table)


def _lifted_row(src, bits, rows) -> int:
    """One row of a lifted relation, from its `_lift_table` entry."""
    if type(src) is int:
        return _or_rows(bits, rows[src])
    if not src:
        return bits[()]
    keys = itertools.product(*[tuple(_bits(rows[k])) for k in src])
    return functools.reduce(operator.or_, [bits[key] for key in keys], 0)


def _or_rows(rows: tuple, m: int) -> int:
    acc = 0
    while m:
        low = m & -m
        acc |= rows[low.bit_length() - 1]
        m ^= low
    return acc


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
    `mu_order` (children first) rather than by Kleene iteration: m, read as
    an element of F(muF), gets its F(X) row composed with s."""
    _match("rel_fold", s.src, s.xs, fname(s.tgt), carriers.get(fname(s.tgt)))
    mu, order = carriers.get(MU), f.mu_order(carriers)
    at, x, s_rows = carriers.index(MU), [0] * len(mu), s.rows
    for m, (src, bits) in zip(order, _lift_table(f, mu, s.ys, order, s.xs)):
        x[at[m]] = _or_rows(s_rows, _lifted_row(src, bits, x))
    return FinRel(MU, s.tgt, tuple(x), mu, s.ys)


# ---------------------------------------------------------------------------
# Theorem reports


class _Report:
    @property
    def violated(self) -> bool:
        return self.preconditions_hold and not self.inclusion_holds

    def to_dict(self) -> dict:
        return {**asdict(self), "preconditions_hold": self.preconditions_hold,
                "violated": self.violated}


@dataclass
class GreedyReport(_Report):
    transitive: bool
    monotone: bool
    monotone_counterexample: Optional[tuple]
    inclusion_holds: bool
    inclusion_counterexample: Optional[tuple]

    @property
    def preconditions_hold(self) -> bool:
        return self.transitive and self.monotone


def monotone_check(s: FinRel, r: FinRel, f: FunctorSpec, carriers: Carriers):
    """Improving the recursive inputs (per r) can only improve the output:
    compose(F(r), s) inside compose(s, r)."""
    bad = _least_excess(compose(f.lift(carriers, r), s), compose(s, r))
    return bad is None, bad


def _least_excess(r1: FinRel, r2: FinRel) -> Optional[tuple]:
    """The repr-least pair of r1 outside r2, or None when r1 is inside r2."""
    _same_type(r1, r2)
    rows = tuple([a & ~b for a, b in zip(r1.rows, r2.rows)])
    return min(FinRel(r1.src, r1.tgt, rows, r1.xs, r1.ys).pairs, key=repr) if any(rows) else None


def verify_greedy_theorem(s: FinRel, r: FinRel, f: FunctorSpec, carriers: Carriers) -> GreedyReport:
    """Shrinking the algebra before folding loses nothing over shrinking the
    fold, provided r is transitive and s is monotone over r-converse."""
    trans = is_transitive(r)
    mono, mono_ce = monotone_check(s, r, f, carriers)
    lhs = rel_fold(shrink(s, r), f, carriers)
    rhs = shrink(rel_fold(s, f, carriers), r)
    bad = _least_excess(lhs, rhs)
    return GreedyReport(trans, mono, mono_ce, bad is None, bad)


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
    x = empty(carriers, t.tgt, s.tgt)
    orbit, seen = [x], {x.rows: 0}
    for k in range(cap):
        x2 = shrink(compose(compose(t_conv, f.lift(carriers, x)), s), r)
        if x2.rows == x.rows:
            return LfpResult(x2, k + 1, True)
        j = seen.setdefault(x2.rows, k + 1)
        if j <= k:
            return LfpResult(orbit[j + (cap - j) % (k + 1 - j)], cap, False)
        orbit.append(x2)
        x = x2
    return LfpResult(x, cap, False)


@dataclass
class DpReport(_Report):
    monotone: bool
    domain_condition: bool
    converged: bool
    inclusion_holds: bool
    inclusion_counterexample: Optional[tuple]

    @property
    def preconditions_hold(self) -> bool:
        return self.monotone and self.domain_condition and self.converged


def dp_spec_relation(s: FinRel, t: FinRel, r: FinRel, f: FunctorSpec, carriers: Carriers) -> FinRel:
    """M = shrink(compose(converse(fold(t)), fold(s)), r): solve the input
    via t's fold backwards, re-fold with s, keep only r-best outputs."""
    return shrink(compose(converse(rel_fold(t, f, carriers)), rel_fold(s, f, carriers)), r)


def verify_dp_theorem(s: FinRel, t: FinRel, r: FinRel, f: FunctorSpec, carriers: Carriers) -> DpReport:
    # the dp theorem's monotonicity is oriented opposite to the greedy one
    mono, _ = monotone_check(s, converse(r), f, carriers)
    m = dp_spec_relation(s, t, r, f, carriers)
    lifted_m = f.lift(carriers, m)
    dom_ok = t.dom() <= compose(lifted_m, s).dom()
    res = lfp_dp(s, t, r, f, carriers)
    bad = _least_excess(res.rel, m)
    return DpReport(mono, dom_ok, res.converged, bad is None, bad)


# ---------------------------------------------------------------------------
# Random instance generation


def transitive_closure(r: FinRel) -> FinRel:
    """Warshall on the row masks: after round k, row x holds every z that x
    reaches through the first k intermediates."""
    _match("transitive closure", r.src, r.xs, r.tgt, r.ys)
    rows = list(r.rows)
    for k in range(len(rows)):
        bit, via_k = 1 << k, rows[k]
        rows = [m | via_k if m & bit else m for m in rows]
    return FinRel(r.src, r.tgt, tuple(rows), r.xs, r.ys)


def random_relation(rng: random.Random, carriers: Carriers, src: str, tgt: str, density: float) -> FinRel:
    xs, ys = carriers.get(src), carriers.get(tgt)
    draw, bits = rng.random, [1 << j for j in range(len(ys))]
    rows = tuple([sum([b for b in bits if draw() < density]) for _ in xs])
    return FinRel(src, tgt, rows, xs, ys)


def random_preorder(rng: random.Random, carriers: Carriers, name: str, density: float = 0.3) -> FinRel:
    base = random_relation(rng, carriers, name, name, density)
    return transitive_closure(union(base, identity(carriers, name)))


def sandwich_monotone(s0: FinRel, r: FinRel, f: FunctorSpec, carriers: Carriers) -> FinRel:
    """Pre- and post-compose s0 with r; for a preorder r the result passes
    monotone_check by construction (r absorbs itself on both sides)."""
    return compose(compose(f.lift(carriers, r), s0), r)


def random_functional(rng: random.Random, carriers: Carriers, src: str, tgt: str) -> FinRel:
    xs, ys = carriers.get(src), carriers.get(tgt)
    js = range(len(ys))  # choice(js) draws what choice(ys) draws
    rows = tuple([1 << rng.choice(js) for _ in xs])
    return FinRel(src, tgt, rows, xs, ys)


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
    pairs = {((1, a, x), min(a + x, 4)) for a in carriers.get("A") for x in carriers.get("B")}
    return carriers, f, carriers.rel(fname("B"), "B", {((0,), 0), *pairs})
