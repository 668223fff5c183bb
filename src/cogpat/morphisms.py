"""Recursion schemes over metagraph snapshots.

Folds consume a snapshot atom-by-atom in an explicit traversal order;
unfolds grow a metagraph from seeds under an expansion budget.  The
memory-carrying variants (histo / futu / chrono) thread a memo table
through the traversal.  Every scheme runs as a suspendable `MorphRun`
so several of them can be interleaved over the same snapshot.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from .metagraph import (
    Atom,
    MgError,
    MgView,
    StaleSnapshotError,
    TypedMetagraph,
    _copy_atoms,
    _tuple_new,
    as_view,
    ref_slot,
    slot_ref,
)


class UnfoldError(MgError):
    """Join failed while emitting; carries the partial result."""

    def __init__(self, msg: str, partial: TypedMetagraph):
        super().__init__(msg)
        self.partial = partial


class Ctx(NamedTuple):
    """What `combine` sees for one frame: the atom, the snapshot it lives
    in (None for fused runs) and, for memory-carrying folds, the structural
    memo key of the sub-metagraph hanging off the atom."""

    atom: Atom
    view: Optional[MgView]
    key: Any


@dataclass
class Algebra:
    unit: Any
    combine: Callable[[Any, Ctx], Any]
    # merge folds two sub-results; required by the fused chronomorphism
    merge: Optional[Callable[[Any, Any], Any]] = None
    declared_associative: bool = False


@dataclass
class Expansion:
    """One coalgebra step: metagraph pieces to emit plus child seeds.

    Each child is (seed, port) where port indexes into the atoms emitted
    by this expansion (concatenated across pieces, insertion order); the
    child's dangling slots get bound to that atom.  port None leaves the
    child unattached.
    """

    pieces: list
    children: list = field(default_factory=list)


@dataclass
class Coalgebra:
    expand: Callable[[Any], Expansion]


# ---------------------------------------------------------------------------
# Traversal orders


def order_atoms(view: MgView, order) -> list[int]:
    ids = sorted(view.atoms)
    # add_atom accepts only targets already present and from_dict inserts in
    # id order, so every target id is below its edge's: id order is topological
    if order == "insertion":
        return ids
    if isinstance(order, tuple) and order[0] == "random":
        rng = random.Random(order[1])
        rng.shuffle(ids)
        return ids
    raise ValueError(f"unknown traversal order: {order!r}")


# ---------------------------------------------------------------------------
# Runs


class MorphRun:
    def __init__(self, kind: str, view: Optional[MgView] = None):
        self.kind = kind
        self.view = view
        self.status = "paused"
        self.frames_done = 0
        self.memo: dict = {}
        self.memo_hits = 0
        self.value: Any = None
        self.truncated = False
        self._gen = None

    def _bind(self, gen) -> "MorphRun":
        self._gen = gen
        return self

    def step(self) -> str:
        if self.status == "done":
            raise RuntimeError("run already finished")
        if self.status == "stale":
            raise StaleSnapshotError("run is stale")
        if self.view is not None and self.view.is_stale():
            self.status = "stale"
            return self.status
        try:
            next(self._gen)
            self.frames_done += 1
            self.status = "paused"
        except StopIteration as st:
            self.value = st.value
            self.status = "done"
        return self.status

    def report(self) -> dict:
        return {
            "kind": self.kind,
            "frames_done": self.frames_done,
            "memo_hits": self.memo_hits,
            "status": self.status,
        }


def run_steps(run: MorphRun, k: int) -> str:
    """Advance up to k frames; stops early on completion or staleness."""
    for _ in range(k):
        if run.status in ("done", "stale"):
            break
        run.step()
    return run.status


def complete(run: MorphRun) -> Any:
    """Run to the end, as repeated `step()` calls would, in one local loop."""
    if run.status == "paused":
        gen, frames, view = run._gen, run.frames_done, run.view
        origin, stamp = (None, None) if view is None else (view._origin, view.stamp)
        try:
            while origin is None or origin.version == stamp:
                next(gen)
                frames += 1
            run.status = "stale"
        except StopIteration as st:
            run.value, run.status = st.value, "done"
        finally:
            run.frames_done = frames
    if run.status == "stale":
        raise StaleSnapshotError("snapshot changed during run")
    return run.value


# ---------------------------------------------------------------------------
# Fold / histo


def _structure_keys(view: MgView, run: MorphRun) -> dict:
    """Every atom's structural key, in one pass over ascending ids (a target
    id is below its edge's); each target reference reuses a key: a hit."""
    keys: dict[int, tuple] = {}
    atoms, hits = view.atoms, 0
    try:
        for i in sorted(atoms):
            a = atoms[i]
            child_keys = []
            for t in a.targets:
                if t >= 0:
                    child_keys.append(keys[t])
                    hits += 1
                else:
                    child_keys.append(("slot", ref_slot(t)))
            keys[i] = (a.kind, a.type_label, a.tv, tuple(child_keys))
    finally:
        run.memo_hits += hits
    return keys


def _frame_run(kind: str, view, algebra: Algebra, order, keyed: bool) -> MorphRun:
    """One frame per atom in `order`; histo frames see structural keys."""
    view = as_view(view)
    view.check_fresh()
    run = MorphRun(kind, view)

    def gen():
        keys = _structure_keys(view, run) if keyed else None
        acc, combine, atoms = algebra.unit, algebra.combine, view.atoms
        for i in order_atoms(view, order):
            # tuple.__new__ skips the NamedTuple's Python-level __new__
            acc = combine(acc, _tuple_new(Ctx, (atoms[i], view, keys[i] if keyed else None)))
            yield
        return acc

    return run._bind(gen())


def fold_run(view, algebra: Algebra, order="insertion") -> MorphRun:
    return _frame_run("fold", view, algebra, order, keyed=False)


def fold(view, algebra: Algebra, order="insertion") -> Any:
    return complete(fold_run(view, algebra, order))


def histo_fold_run(view, algebra: Algebra, order="insertion") -> MorphRun:
    return _frame_run("histo", view, algebra, order, keyed=True)


def histo_fold(view, algebra: Algebra, order="insertion"):
    """Fold with structural memoization; returns (value, memo hit count)."""
    run = histo_fold_run(view, algebra, order)
    return complete(run), run.memo_hits


# ---------------------------------------------------------------------------
# Unfold / futu


def _piece_cache(piece) -> tuple:
    """`piece`'s atoms in id order and its emission templates by port label
    (see `_compile_template`), kept on the piece for its current version."""
    version, atoms, templates = getattr(piece, "_emit_cache", (None, None, None))
    if version != piece.version:
        atoms, templates = [piece.atoms[i] for i in sorted(piece.atoms)], {}
        piece._emit_cache = (piece.version, atoms, templates)
    return atoms, templates


def _compile_template(atoms: list, slot_labels: list, port_label: Optional[str]) -> Optional[list]:
    """How `_emit_piece` lays out a piece's `atoms` (in id order) when its
    slots bind to an atom labelled `port_label` (None: no port): per atom,
    its fields with each target as a piece-local position, or -1 for the
    port.  None when an emission would raise or open a fresh slot."""
    pos: dict[int, int] = {}
    rows = []
    for k, a in enumerate(atoms):
        spec = []
        for t in a.targets:
            if t in pos:
                spec.append(pos[t])
            elif (t < 0 and port_label is not None and ref_slot(t) < len(slot_labels)
                  and slot_labels[ref_slot(t)] == port_label):
                spec.append(-1)
            else:
                return None
        rows.append((a.kind, a.type_label, tuple(spec), a.tv, a.sti, a.lti))
        pos[a.id] = k
    return rows


def _emit_piece(acc: TypedMetagraph, piece, port: Optional[int]) -> range:
    """Copy `piece` atoms into `acc`; dangling slots bind to `port`."""
    port_label = None if port is None else acc.atoms[port].type_label
    atoms, templates = _piece_cache(piece)
    if port_label not in templates:
        templates[port_label] = _compile_template(
            atoms, [d.type_label for d in piece.dangling], port_label)
    template = templates[port_label]
    if template is None:
        # raising, or opening fresh slots, is left to the bulk copy path
        remap: dict[int, int] = {}
        if port is not None:
            remap = {slot_ref(d.slot): port for d in piece.dangling if d.type_label == port_label}

        def new_slot(t: int) -> str:
            if t >= 0:
                raise UnfoldError(f"piece target {t} emitted out of order", acc)
            label = piece.dangling[ref_slot(t)].type_label
            if port is not None:
                raise UnfoldError(f"port type {port_label!r} != slot type {label!r}", acc)
            return label

        return _copy_atoms(acc, atoms, remap, new_slot)
    store, first = acc.atoms, acc._next_id
    new_id = first
    for kind, label, spec, tv, sti, lti in template:
        targets = tuple([port if p < 0 else first + p for p in spec]) if spec else ()
        store[new_id] = _tuple_new(Atom, (new_id, kind, label, targets, tv, sti, lti))
        new_id += 1
    acc._next_id = new_id
    acc._bump()
    return range(first, new_id)


def futu_unfold_run(seed, coalg: Coalgebra, budget: int) -> MorphRun:
    if budget < 0:
        raise ValueError("budget must be >= 0")
    run = MorphRun("futu")

    def gen():
        acc = TypedMetagraph()
        emitted = 0
        agenda: deque = deque([(seed, None)])
        while agenda:
            if emitted >= budget:
                run.truncated = True
                break
            s, port = agenda.popleft()
            exp = coalg.expand(s)
            take = min(len(exp.pieces), budget - emitted)
            if take < len(exp.pieces):
                run.truncated = True
            local_ids: list[int] = []
            for piece in exp.pieces[:take]:
                local_ids.extend(_emit_piece(acc, piece, port))
                emitted += 1
            for child_seed, port_idx in exp.children:
                child_port = local_ids[port_idx] if port_idx is not None else None
                agenda.append((child_seed, child_port))
            yield
        return acc

    return run._bind(gen())


def futu_unfold(seed, coalg: Coalgebra, budget: int) -> TypedMetagraph:
    return complete(futu_unfold_run(seed, coalg, budget))


# kept only because the benchmark's traced run (perfbench/layers.py) wraps
# these names
unfold, unfold_run = futu_unfold, futu_unfold_run


# ---------------------------------------------------------------------------
# Chrono


def chrono_run(seed, coalg: Coalgebra, algebra: Algebra, budget: int) -> MorphRun:
    if algebra.merge is None:
        raise ValueError("fused chronomorphism needs an algebra with merge")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    run = MorphRun("chrono")
    merge = algebra.merge
    budget_left = budget
    # the folded pieces of each seed on the walk's stack, innermost last
    own: list = []

    def children_of(s):
        nonlocal budget_left
        v = algebra.unit
        if budget_left == 0:
            run.truncated = True
            own.append(v)
            return []
        exp = coalg.expand(s)
        pieces = exp.pieces[:budget_left]
        run.truncated |= len(pieces) < len(exp.pieces)
        budget_left -= len(pieces)
        for piece in pieces:
            for a in _piece_cache(piece)[0]:
                v = algebra.combine(v, _tuple_new(Ctx, (a, None, None)))
        own.append(v)
        return [child_seed for child_seed, _port in exp.children]

    def compute(s, child_values):
        v = own.pop()
        for cv in child_values:
            v = merge(v, cv)
        return v

    def gen():
        if budget == 0:
            return algebra.unit
        value, run.memo, run.memo_hits = yield from _memo_walk(
            seed, children_of, compute, lambda s: s)
        return value

    return run._bind(gen())


def chrono(seed, coalg: Coalgebra, algebra: Algebra, budget: int):
    """Fused unfold-then-fold; returns (value, memo hit count)."""
    run = chrono_run(seed, coalg, algebra, budget)
    return complete(run), run.memo_hits


# ---------------------------------------------------------------------------
# Seed-level memoized collapse (the histo half over an unfolded problem dag)


def _memo_walk(root, children_of: Callable[[Any], list],
              compute: Callable[[Any, list], Any], key: Callable[[Any], Any]):
    """Post-order evaluation over the dag spanned by `children_of`, memoized
    on `key`, as a generator: it yields once after each `children_of` call
    and returns (value at root, memo table, hit count).

    Runs on an explicit stack, so depth is bounded by memory, not by the
    interpreter's recursion limit.  `children_of(s)` is called when s is
    entered and `compute(s, child values)` when it is left, so the calls
    nest; a child is looked up in the memo when its turn comes, as a
    recursive visit would.  A cycle raises ValueError."""
    memo: dict = {}
    hits = 0
    root_key = key(root)
    open_keys = {root_key}  # keys of the frames on the stack
    # frame: (seed, its key, iterator over its children, child values so far)
    stack = [(root, root_key, iter(children_of(root)), [])]
    yield
    while stack:
        seed, seed_key, children, vals = stack[-1]
        for c in children:
            k = key(c)
            if k in memo:
                hits += 1
                vals.append(memo[k])
                continue
            if k in open_keys:
                raise ValueError(f"children_of has a cycle through {c!r}")
            open_keys.add(k)
            stack.append((c, k, iter(children_of(c)), []))
            yield
            break
        else:
            stack.pop()
            open_keys.discard(seed_key)
            v = memo[seed_key] = compute(seed, vals)
            if stack:
                stack[-1][3].append(v)
    return memo[root_key], memo, hits


def memo_recurse(root, children_of: Callable[[Any], list],
                 compute: Callable[[Any, list], Any], key: Callable[[Any], Any] = lambda s: s):
    """`_memo_walk` run to completion: (value at root, memo table, hit count)."""
    walk = _memo_walk(root, children_of, compute, key)
    while True:
        try:
            next(walk)
        except StopIteration as done:
            return done.value

