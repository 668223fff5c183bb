"""Typed metagraph storage.

Atoms are immutable tuples, nodes or edges; edge targets are ordered and
may reference both nodes and other edges.  A metagraph may carry declared
dangling target slots, which are bound to concrete atoms by `join`.
Mutation is single-writer and bumps a version counter; `snapshot` hands out
immutable views that higher layers fold over.  `join`, `submetagraph` and
the unfolds build through one bulk copy path.  `join` shares the right
operand's atoms instead when the copy would give each one the id and
targets it has: its ids are 0..n-1 and its slots keep their numbers.  The
unfolds emit a piece from a template built once per (piece version, port
label) and cached on the piece.  `_atom`, the atom rule, states once what a
well-formed atom is: the JSON decoder, `from_dict` and the mutation API
build every atom through it.

`decode_json` parses metagraph JSON with an object hook that turns each
well-formed atom object into its final `Atom` as soon as it is parsed, so
the object's dict and target list die at once instead of living through
the whole parse (and through the full collections that many promoted
containers set off).  The hook never raises: any other object comes back
unchanged.  If some object was not a well-formed atom entry of the
top-level `atoms` list, the text is parsed again as plain dicts, and
`from_dict` reports the entry's fault.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional


class MgError(Exception):
    """Base class for metagraph errors."""


class MgIntegrityError(MgError, ValueError):
    """An atom or slot breaks the atom rule, or a target names no atom and no
    declared slot; a `ValueError`, as `Atom`'s kind and targets errors are."""


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


def _unordered(self, other):
    return NotImplemented


class TruthValue(NamedTuple("_TvFields", [("s", float), ("c", float)])):
    """Strength / confidence pair with a beta-distribution second-order fit.
    It hashes and tests equal as its (s, c) tuple but has no order.

    The evidence count is n = c/(1-c); the fitted beta parameters are
    a = s*n + 1 and b = (1-s)*n + 1, so both stay >= 1.
    """

    __slots__ = ()
    # `<` and the like raise TypeError, as between any unordered values
    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __new__(cls, s: float, c: float):
        if not (0.0 <= s <= 1.0):
            raise ValueError(f"strength out of [0,1]: {s}")
        if not (0.0 <= c < 1.0):
            raise ValueError(f"confidence out of [0,1): {c}")
        return tuple.__new__(cls, (s, c))

    @property
    def n(self) -> float:
        return self.c / (1.0 - self.c)

    @property
    def beta_params(self) -> tuple[float, float]:
        n = self.n
        return (self.s * n + 1.0, (1.0 - self.s) * n + 1.0)

    @staticmethod
    def from_count(s: float, n: float) -> "TruthValue":
        if n < 0:
            raise ValueError(f"negative evidence count: {n}")
        return TruthValue(s, n / (n + 1.0))

    def to_dict(self) -> dict:
        return {"s": self.s, "c": self.c}

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "TruthValue":
        return TruthValue(**d)


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


def is_finite_number(x: Any) -> bool:
    """A finite float, or an int that a float can hold; JSON's true and
    false are not numbers here.  (A finite float less itself is 0.0; inf or
    nan less itself is nan.)"""
    return type(x) is float and x - x == 0.0 or type(x) is int and abs(x) <= sys.float_info.max


_ABSENT = object()  # a serialized atom's missing tv
_BIG = sys.float_info.max


def _atom(i, kind, label, targets, tv, sti, lti, api=False) -> "Atom | str":
    """The atom rule: the `Atom` these fields make, or the reason they make
    none.  The id is an int >= 0; a node has no targets and an edge at
    least one, in a list (or tuple) of ints; the label is a string; `sti`
    and `lti` are finite numbers (`is_finite_number`, written out); the tv
    is absent (`_ABSENT`) or an object of exactly two numbers that are not
    bools, `s` in [0, 1] and `c` in [0, 1).  From the mutation API
    (`api`), a tv of None is absent and any other is a `TruthValue`.
    Whether a target resolves is the store's to check (`_place`)."""
    if type(i) is not int or i < 0:
        return f"atom id {i!r} is not a non-negative integer"
    if type(label) is not str:
        return f"atom {i} type {label!r} is not a string"
    if kind == EDGE and (type(targets) is list or type(targets) is tuple) and targets:
        for t in targets:
            if type(t) is not int:
                return f"target {t!r} is not an integer"
        # the module's kind strings, not one parsed copy per atom
        kind, targets = EDGE, tuple(targets)
    elif kind == NODE and (targets == () or targets == []):
        kind, targets = NODE, ()
    elif kind != NODE and kind != EDGE:
        return f"unknown atom kind: {kind}"
    elif type(targets) is not list and type(targets) is not tuple:
        return f"atom {i} targets {targets!r} is not a list"
    else:
        return "node atoms cannot have targets" if kind == NODE else "edge atoms need at least one target"
    if not ((type(sti) is float or type(sti) is int) and -_BIG <= sti <= _BIG
            and (type(lti) is float or type(lti) is int) and -_BIG <= lti <= _BIG):
        name, x = ("lti", lti) if is_finite_number(sti) else ("sti", sti)
        return f"atom {i} {name} {x!r} is not a finite number"
    if tv is _ABSENT or api and tv is None:
        tv = None
    elif api and type(tv) is not TruthValue:
        return f"atom {i} tv {tv!r} is not a TruthValue"
    else:
        s, c = tv if api else ((tv.get("s"), tv.get("c")) if type(tv) is dict and len(tv) == 2
                               else (None, None))
        if not ((type(s) is float or type(s) is int) and 0.0 <= s <= 1.0
                and (type(c) is float or type(c) is int) and 0.0 <= c < 1.0):
            if not api:
                try:
                    TruthValue.from_dict(tv)  # its own reason for a tv it refuses
                except (TypeError, ValueError) as exc:
                    return str(exc)
            return f"atom {i} tv {tv!r} does not hold two numbers"
        tv = tv if api else _tuple_new(TruthValue, (s, c))
    return _tuple_new(Atom, (i, kind, label, targets, tv, sti, lti))


def _entry_atom(entry: Mapping[str, Any]) -> "Atom | str":
    """The atom rule on a serialized atom entry; a missing id, kind or type
    reads as None, which the rule refuses."""
    return _atom(entry.get("id"), entry.get("kind"), entry.get("type"), entry.get("targets", ()),
                 entry.get("tv", _ABSENT), entry.get("sti", 0.0), entry.get("lti", 0.0))


def _checked(a: "Atom | str") -> Atom:
    """What the atom rule made: the `Atom`, or its reason raised."""
    if type(a) is Atom:
        return a
    raise MgIntegrityError(a)


def _slot_type(slot: int, entry: Mapping[str, Any]) -> str:
    if type(entry["type"]) is not str:
        raise MgIntegrityError(f"dangling slot {slot} type {entry['type']!r} is not a string")
    return entry["type"]


def decode_json(text: str) -> Any:
    """`json.loads(text)`, except that each entry of the top-level `atoms`
    list comes back as its `Atom` when every one of them is a well-formed
    atom object (see the module docstring)."""
    made: list[Atom] = []

    def atom(obj: dict) -> Any:
        if "id" not in obj:  # a tv, a slot or the top level: no atom
            return obj
        a = _entry_atom(obj)
        if type(a) is not Atom:
            return obj
        made.append(a)
        return a

    data = json.loads(text, object_hook=atom)
    if made and (type(data) is not dict or data.get("atoms") != made):
        return json.loads(text)
    return data


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

    def add_atom(self, kind: str, type_label: str, targets: Iterable[int] = (),
                 tv: Optional[TruthValue] = None, sti: float = 0.0, lti: float = 0.0) -> int:
        atom_id = self._next_id
        self._place((_checked(_atom(atom_id, kind, type_label, tuple(targets), tv, sti, lti, api=True)),))
        self._bump()
        return atom_id

    def _place(self, atoms: Iterable[Atom]) -> None:
        """Store each atom in turn under its id, once the id is new and each
        target a stored atom or a declared slot (a lower id, when ids
        ascend); the next id follows the last one stored."""
        store, n_slots = self.atoms, len(self.dangling)
        for a in atoms:
            if a.id in store:
                raise MgIntegrityError(f"duplicate atom id {a.id}")
            for t in a.targets:
                if t >= 0:
                    if t not in store:
                        raise MgIntegrityError(f"target {t} not present")
                elif ref_slot(t) >= n_slots:
                    raise MgIntegrityError(f"dangling slot {ref_slot(t)} not declared")
            store[a.id] = a
            self._next_id = a.id + 1

    def add_node(self, type_label: str, **kw) -> int:
        return self.add_atom(NODE, type_label, **kw)

    def add_edge(self, type_label: str, targets: Iterable[int], **kw) -> int:
        return self.add_atom(EDGE, type_label, targets, **kw)

    def set_tv(self, atom_id: int, tv: TruthValue) -> None:
        self.atoms[atom_id] = _checked(_atom(*self.atoms[atom_id]._replace(tv=tv), api=True))
        self._bump()

    def set_sti(self, atom_id: int, sti: float) -> None:
        self.atoms[atom_id] = _checked(_atom(*self.atoms[atom_id]._replace(sti=sti), api=True))
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
        """Load in one pass over ascending ids, keeping each atom's id.  The
        atom rule makes each plain dict entry an atom (a decoded `Atom` has
        passed it already), and each is placed as `add_atom` places one:
        its targets lower ids or declared slots."""
        mg = TypedMetagraph()
        mg.dangling = tuple(DanglingSlot(k, _slot_type(k, s)) for k, s in enumerate(d.get("dangling", ())))
        atoms = [e if type(e) is Atom else _checked(_entry_atom(e)) for e in d.get("atoms", ())]
        atoms.sort(key=itemgetter(0))  # by id
        mg._place(atoms)
        mg.version = 1 if atoms or mg.dangling else 0
        return mg

    @staticmethod
    def from_json(text: str) -> "TypedMetagraph":
        return TypedMetagraph.from_dict(decode_json(text))


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
    remap1 = {slot_ref(d.slot): slot_ref(k) for k, d in enumerate(unbound)}
    ids2 = list(m2.atoms)
    if (not unbound or not m2.dangling) and ids2 == list(range(len(ids2))):
        # a copy would give each m2 atom the id and targets it has: share it
        out.atoms, out._next_id = dict(m2.atoms), len(ids2)
        remap1.update((slot_ref(slot), atom_id) for slot, atom_id in binding.items())
    else:
        remap2 = {slot_ref(d.slot): slot_ref(k) for k, d in enumerate(m2.dangling, len(unbound))}
        _copy_atoms(out, [m2.atoms[i] for i in sorted(m2.atoms)], remap2)
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
