"""Typed metagraph storage.

Atoms are immutable tuples, nodes or edges; edge targets are ordered and
may reference both nodes and other edges.  A metagraph may carry declared
dangling target slots, which are bound to concrete atoms by `join`.
Mutation is single-writer and bumps a version counter; `snapshot` hands out
immutable views that higher layers fold over.  `from_dict`, `join`,
`submetagraph` and the unfolds build through one bulk copy path.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional


class MgError(Exception):
    """Base class for metagraph errors."""


class MgIntegrityError(MgError):
    """A target id does not resolve and is not a declared dangling slot."""


class MgTypeError(MgError):
    """Type label mismatch on a bound dangling slot."""


class BindingError(MgError):
    """A join binding names a slot that does not exist."""


class StaleSnapshotError(MgError):
    """A snapshot-bound computation observed a newer metagraph version."""


class CanonicalizationError(MgError):
    """canonical_form refused an input (too large for exhaustive search)."""


# ---------------------------------------------------------------------------
# Truth values


@dataclass(frozen=True)
class TruthValue:
    """Strength / confidence pair with a beta-distribution second-order fit.

    The evidence count is n = K*c/(1-c); the fitted beta parameters are
    a = s*n + 1 and b = (1-s)*n + 1, so both stay >= 1.
    """

    s: float
    c: float
    k: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.s <= 1.0):
            raise ValueError(f"strength out of [0,1]: {self.s}")
        if not (0.0 <= self.c < 1.0):
            raise ValueError(f"confidence out of [0,1): {self.c}")
        if self.k <= 0:
            raise ValueError(f"evidence scale must be positive: {self.k}")

    @property
    def n(self) -> float:
        return self.k * self.c / (1.0 - self.c)

    @property
    def beta_params(self) -> tuple[float, float]:
        n = self.n
        return (self.s * n + 1.0, (1.0 - self.s) * n + 1.0)

    @staticmethod
    def from_count(s: float, n: float, k: float = 1.0) -> "TruthValue":
        if n < 0:
            raise ValueError(f"negative evidence count: {n}")
        return TruthValue(s, n / (n + k), k)

    def to_dict(self) -> dict:
        d = {"s": self.s, "c": self.c}
        if self.k != 1.0:
            d["k"] = self.k
        return d

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "TruthValue":
        return TruthValue(d["s"], d["c"], d.get("k", 1.0))


IGNORANCE = TruthValue(0.5, 0.0)


# ---------------------------------------------------------------------------
# Atoms

NODE = "node"
EDGE = "edge"


_tuple_new = tuple.__new__
_AtomFields = NamedTuple("_AtomFields", [
    ("id", int), ("kind", str), ("type_label", str), ("targets", tuple[int, ...]),
    ("tv", Optional[TruthValue]), ("sti", float), ("lti", float)])


class Atom(_AtomFields):
    """An immutable node or edge; it hashes and compares as its field tuple.
    `_replace` and the bulk copy path skip the kind/targets check."""

    __slots__ = ()

    def __new__(cls, id, kind, type_label, targets=(), tv=None, sti=0.0, lti=0.0):
        if kind == NODE:
            if targets:
                raise ValueError("node atoms cannot have targets")
        elif kind == EDGE:
            if not targets:
                raise ValueError("edge atoms need at least one target")
        else:
            raise ValueError(f"unknown atom kind: {kind}")
        return _tuple_new(cls, (id, kind, type_label, targets, tv, sti, lti))

    @property
    def is_node(self) -> bool:
        return self.kind == NODE


@dataclass(frozen=True)
class DanglingSlot:
    slot: int
    type_label: str


def slot_ref(slot: int) -> int:
    """Encode dangling slot `slot` as a target id (negative sentinel)."""
    return -(slot + 1)


def ref_slot(target: int) -> int:
    """Decode a negative target id back to its slot index."""
    return -target - 1


def _entry_id(entry: Mapping[str, Any]) -> int:
    """A serialized atom's id; a negative one would read as a slot."""
    if type(entry["id"]) is not int or entry["id"] < 0:
        raise MgIntegrityError(f"atom id {entry['id']!r} is not a non-negative integer")
    return entry["id"]


# ---------------------------------------------------------------------------
# The mutable store and its immutable views


class _MgBase:
    """Read operations shared by the store and its snapshots."""

    atoms: dict[int, Atom]
    dangling: tuple[DanglingSlot, ...]

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom_id: int) -> bool:
        return atom_id in self.atoms

    def atom(self, atom_id: int) -> Atom:
        return self.atoms[atom_id]

    def atom_ids(self) -> list[int]:
        return sorted(self.atoms)

    def nodes(self) -> list[Atom]:
        return [a for _, a in sorted(self.atoms.items()) if a.is_node]

    def edges(self) -> list[Atom]:
        return [a for _, a in sorted(self.atoms.items()) if not a.is_node]

    # (version it was built at, target id -> ascending ids of the edges
    # that target it, one entry per edge)
    _incidence_cache: tuple = (None, {})

    def _incidence(self) -> dict[int, list[int]]:
        version, index = self._incidence_cache
        if version != self.version:
            index = {}
            for i, a in sorted(self.atoms.items()):
                for t in dict.fromkeys(a.targets):
                    index.setdefault(t, []).append(i)
            self._incidence_cache = (self.version, index)
        return index

    def incoming(self, atom_id: int) -> list[int]:
        return list(self._incidence().get(atom_id, ()))

    def neighbors(self, atom_id: int) -> list[int]:
        """Atoms sharing an edge with `atom_id` (plus edge/target links)."""
        out = {t for t in self.atoms[atom_id].targets if t >= 0}
        for e in self._incidence().get(atom_id, ()):
            out.add(e)
            out.update(t for t in self.atoms[e].targets if t >= 0)
        out.discard(atom_id)
        return sorted(out)

    def to_dict(self) -> dict:
        atoms = []
        for _, a in sorted(self.atoms.items()):
            entry: dict[str, Any] = {"id": a.id, "kind": a.kind, "type": a.type_label}
            if a.kind == EDGE:
                entry["targets"] = list(a.targets)
            if a.tv is not None:
                entry["tv"] = a.tv.to_dict()
            entry["sti"] = a.sti
            entry["lti"] = a.lti
            atoms.append(entry)
        return {
            "atoms": atoms,
            "dangling": [{"slot": d.slot, "type": d.type_label} for d in self.dangling],
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)


class TypedMetagraph(_MgBase):
    def __init__(self) -> None:
        self.atoms = {}
        self.dangling = ()
        self.version = 0
        self._next_id = 0

    # -- mutation -----------------------------------------------------------

    def _bump(self) -> None:
        self.version += 1

    def declare_dangling(self, type_label: str) -> int:
        slot = len(self.dangling)
        self.dangling = self.dangling + (DanglingSlot(slot, type_label),)
        self._bump()
        return slot

    def add_atom(
        self,
        kind: str,
        type_label: str,
        targets: Iterable[int] = (),
        tv: Optional[TruthValue] = None,
        sti: float = 0.0,
        lti: float = 0.0,
    ) -> int:
        targets = tuple(targets)
        for t in targets:
            if t >= 0:
                if t not in self.atoms:
                    raise MgIntegrityError(f"target {t} not present")
            else:
                slot = ref_slot(t)
                if slot >= len(self.dangling):
                    raise MgIntegrityError(f"dangling slot {slot} not declared")
        atom_id = self._next_id
        self.atoms[atom_id] = Atom(atom_id, kind, type_label, targets, tv, sti, lti)
        self._next_id += 1
        self._bump()
        return atom_id

    def add_node(self, type_label: str, **kw) -> int:
        return self.add_atom(NODE, type_label, **kw)

    def add_edge(self, type_label: str, targets: Iterable[int], **kw) -> int:
        return self.add_atom(EDGE, type_label, targets, **kw)

    def set_tv(self, atom_id: int, tv: TruthValue) -> None:
        self.atoms[atom_id] = self.atoms[atom_id]._replace(tv=tv)
        self._bump()

    def set_sti(self, atom_id: int, sti: float) -> None:
        self.atoms[atom_id] = self.atoms[atom_id]._replace(sti=sti)
        self._bump()

    # -- views --------------------------------------------------------------

    def snapshot(self) -> "MgView":
        return MgView(dict(self.atoms), self.dangling, self, self.version)

    def clone(self) -> "TypedMetagraph":
        out = TypedMetagraph()
        out.atoms = dict(self.atoms)
        out.dangling = self.dangling
        out._next_id = self._next_id
        out.version = 1 if self.atoms or self.dangling else 0
        return out

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "TypedMetagraph":
        """Load in one pass over ascending ids, keeping each atom's id; a
        target must be a lower id or a declared slot, as `add_atom` asks."""
        mg = TypedMetagraph()
        mg.dangling = tuple(DanglingSlot(k, s["type"]) for k, s in enumerate(d.get("dangling", ())))
        n_slots, atoms, last = len(mg.dangling), mg.atoms, -1
        for e in sorted(d.get("atoms", ()), key=_entry_id):
            i = e["id"]
            if i == last:
                raise MgIntegrityError(f"duplicate atom id {i}")
            tv = TruthValue.from_dict(e["tv"]) if "tv" in e else None
            targets = tuple(e.get("targets", ()))
            for t in targets:
                if type(t) is not int:
                    raise MgIntegrityError(f"target {t!r} is not an integer")
                if t >= 0:
                    if t not in atoms:
                        raise MgIntegrityError(f"target {t} not present")
                elif ref_slot(t) >= n_slots:
                    raise MgIntegrityError(f"dangling slot {ref_slot(t)} not declared")
            atoms[i] = Atom(i, e["kind"], e["type"], targets, tv, e.get("sti", 0.0), e.get("lti", 0.0))
            last = i
        mg._next_id = last + 1
        mg.version = 1 if atoms or n_slots else 0
        return mg

    @staticmethod
    def from_json(text: str) -> "TypedMetagraph":
        return TypedMetagraph.from_dict(json.loads(text))


class MgView(_MgBase):
    """Immutable snapshot of a TypedMetagraph at a version stamp."""

    def __init__(
        self,
        atoms: dict[int, Atom],
        dangling: tuple[DanglingSlot, ...],
        origin: TypedMetagraph,
        stamp: int,
    ) -> None:
        self.atoms = atoms
        self.dangling = dangling
        self._origin = origin
        self.stamp = stamp

    @property
    def version(self) -> int:
        """The store version whose atoms this view holds (its stamp)."""
        return self.stamp

    def snapshot(self) -> "MgView":
        return self

    def is_stale(self) -> bool:
        return self._origin.version != self.stamp

    def check_fresh(self) -> None:
        if self.is_stale():
            raise StaleSnapshotError(
                f"snapshot stamp {self.stamp} < live version {self._origin.version}"
            )


def as_view(mg: "TypedMetagraph | MgView") -> MgView:
    return mg.snapshot() if isinstance(mg, TypedMetagraph) else mg


# ---------------------------------------------------------------------------
# Join


def join(
    m1: _MgBase,
    m2: _MgBase,
    binding: Mapping[int, int],
) -> TypedMetagraph:
    """Bind dangling slots of m1 to atoms of m2 and return the joined graph.

    `binding` maps slot indices of m1 to atom ids of m2.  Unbound slots of
    m1 stay dangling (keeping their relative order), followed by all slots
    of m2.  Operands are not modified.
    """
    for slot in binding:
        if slot >= len(m1.dangling) or slot < 0:
            raise BindingError(f"slot {slot} not present in left operand")
    for slot, atom_id in binding.items():
        if atom_id not in m2.atoms:
            raise BindingError(f"atom {atom_id} not present in right operand")
        want = m1.dangling[slot].type_label
        got = m2.atoms[atom_id].type_label
        if want != got:
            raise MgTypeError(f"slot {slot} expects {want!r}, got {got!r}")

    out = TypedMetagraph()
    # new slot layout: unbound m1 slots first, then every m2 slot
    unbound = [d for d in m1.dangling if d.slot not in binding]
    out.dangling = tuple(DanglingSlot(k, d.type_label)
                         for k, d in enumerate(unbound + list(m2.dangling)))
    remap2 = {slot_ref(d.slot): slot_ref(k) for k, d in enumerate(m2.dangling, len(unbound))}
    _copy_atoms(out, [m2.atoms[i] for i in sorted(m2.atoms)], remap2)
    remap1 = {slot_ref(d.slot): slot_ref(k) for k, d in enumerate(unbound)}
    remap1.update((slot_ref(slot), remap2[atom_id]) for slot, atom_id in binding.items())
    _copy_atoms(out, [m1.atoms[i] for i in sorted(m1.atoms)], remap1)
    return out


def submetagraph(mg: _MgBase, atom_ids: Iterable[int]) -> TypedMetagraph:
    """Extract the sub-metagraph induced by `atom_ids`.

    Targets pointing outside the selection become fresh dangling slots,
    typed by the referenced atom.
    """
    keep = sorted(set(atom_ids))
    for i in keep:
        if i not in mg.atoms:
            raise MgIntegrityError(f"atom {i} not present")
    out = TypedMetagraph()
    atoms = [mg.atoms[i] for i in keep]
    # nodes before edges, so edge targets resolve
    _copy_atoms(out, [a for a in atoms if a.is_node] + [a for a in atoms if not a.is_node], {},
                lambda t: (mg.atoms[t] if t >= 0 else mg.dangling[ref_slot(t)]).type_label)
    return out


def _copy_atoms(out: TypedMetagraph, atoms: list[Atom], remap: dict[int, int],
                new_slot: Optional[Callable[[int], str]] = None) -> range:
    """Append copies of `atoms` to `out` under fresh ids, in order; return
    the new ids.  Target t becomes remap[t], or if remap lacks it a fresh
    slot typed new_slot(t) (which may raise).  Each atom's old id then maps
    to its copy's.  Slots are declared, and the version bumped, once."""
    base, labels = len(out.dangling), []
    store, first = out.atoms, out._next_id
    new_id = first
    try:
        for a in atoms:
            try:
                targets = tuple([remap[t] for t in a.targets])
            except KeyError:
                for t in a.targets:
                    if t not in remap:
                        label = new_slot(t)
                        remap[t] = slot_ref(base + len(labels))
                        labels.append(label)
                targets = tuple([remap[t] for t in a.targets])
            store[new_id] = _tuple_new(Atom, (new_id, a.kind, a.type_label, targets, a.tv, a.sti, a.lti))
            remap[a.id] = new_id
            new_id += 1
    finally:
        if labels:
            out.dangling += tuple(DanglingSlot(base + k, label) for k, label in enumerate(labels))
        out._next_id = new_id
        out._bump()
    return range(first, new_id)


# ---------------------------------------------------------------------------
# Canonical form

_MAX_CANON_ATOMS = 12
_MAX_CANON_PERMS = 2_000_000


def _atom_sig(a: Atom) -> tuple:
    neg = tuple(t for t in a.targets if t < 0)
    return (a.kind, a.type_label, len(a.targets), neg, a.tv, a.sti, a.lti)


def _refine_classes(mg: _MgBase) -> dict[int, int]:
    """Iterated neighborhood refinement; returns id -> class index."""
    ids = sorted(mg.atoms)
    incidence = mg._incidence()
    color = {i: _atom_sig(mg.atoms[i]) for i in ids}
    for _ in range(len(ids) + 1):
        nxt = {}
        for i in ids:
            a = mg.atoms[i]
            tgt_colors = tuple(color[t] if t >= 0 else ("slot", ref_slot(t)) for t in a.targets)
            in_colors = tuple(
                sorted(
                    (color[e], mg.atoms[e].targets.index(i))
                    for e in incidence.get(i, ())
                )
            )
            nxt[i] = (color[i], tgt_colors, in_colors)
        ranks = {c: r for r, c in enumerate(sorted(set(nxt.values()), key=repr))}
        new_color = {i: ranks[nxt[i]] for i in ids}
        if len(set(new_color.values())) == len(set(color.values())):
            color = new_color
            break
        color = new_color
    ranks = {c: r for r, c in enumerate(sorted(set(color.values())))}
    return {i: ranks[color[i]] for i in ids}


def _serialize(mg: _MgBase, relabel: Mapping[int, int]) -> str:
    rows = []
    for old_id in sorted(mg.atoms, key=lambda i: relabel[i]):
        a = mg.atoms[old_id]
        tgt = ",".join(
            str(relabel[t]) if t >= 0 else f"s{ref_slot(t)}" for t in a.targets
        )
        tv = "" if a.tv is None else f"{a.tv.s:.9g}/{a.tv.c:.9g}"
        rows.append(f"{a.kind}:{a.type_label}[{tgt}]{tv};{a.sti:.9g};{a.lti:.9g}")
    slots = ",".join(d.type_label for d in mg.dangling)
    return "MG(" + "|".join(rows) + ("#" + slots if slots else "") + ")"


def canonical_form(mg: _MgBase) -> str:
    """Isomorphism-stable token: minimal serialization over id relabelings.

    Exhaustive within refinement classes; rejects graphs above fixture
    scale so the search stays bounded.
    """
    n = len(mg.atoms)
    if n == 0:
        return "MG()" if not mg.dangling else _serialize(mg, {})
    if n > _MAX_CANON_ATOMS:
        raise CanonicalizationError(f"{n} atoms exceeds canonicalization limit")
    classes = _refine_classes(mg)
    groups: dict[int, list[int]] = {}
    for i, c in sorted(classes.items()):
        groups.setdefault(c, []).append(i)
    total = 1
    for members in groups.values():
        total *= math.factorial(len(members))
        if total > _MAX_CANON_PERMS:
            raise CanonicalizationError("too many candidate relabelings")
    # assign contiguous new-id ranges per class, in class order
    base: dict[int, int] = {}
    offset = 0
    ordered_classes = sorted(groups)
    for c in ordered_classes:
        base[c] = offset
        offset += len(groups[c])
    best: Optional[str] = None
    perms_per_class = [
        list(itertools.permutations(range(len(groups[c])))) for c in ordered_classes
    ]
    for combo in itertools.product(*perms_per_class):
        relabel: dict[int, int] = {}
        for c, perm in zip(ordered_classes, combo):
            for pos, old_id in enumerate(groups[c]):
                relabel[old_id] = base[c] + perm[pos]
        s = _serialize(mg, relabel)
        if best is None or s < best:
            best = s
    assert best is not None
    return best
