import copy
import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cogpat import fixtures
from cogpat.fixtures import FixtureError, load_metagraph
from cogpat.metagraph import (
    EDGE,
    NODE,
    Atom,
    BindingError,
    CanonicalizationError,
    MgIntegrityError,
    MgTypeError,
    TruthValue,
    TypedMetagraph,
    canonical_form,
    decode_json,
    is_finite_number,
    join,
    ref_slot,
    slot_ref,
    submetagraph,
)


class TestTruthValue:
    def test_count_and_beta(self):
        tv = TruthValue(0.8, 0.5)
        assert tv.n == pytest.approx(1.0)
        a, b = tv.beta_params
        assert a == pytest.approx(1.8)
        assert b == pytest.approx(1.2)
        assert a >= 1 and b >= 1

    def test_zero_confidence(self):
        tv = TruthValue(0.3, 0.0)
        assert tv.n == 0.0
        assert tv.beta_params == (1.0, 1.0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TruthValue(1.2, 0.5)
        with pytest.raises(ValueError):
            TruthValue(0.5, 1.0)

    def test_from_count_roundtrip(self):
        tv = TruthValue.from_count(0.7, 3.0)
        assert tv.n == pytest.approx(3.0)

    def test_immutable_unordered_and_hashed_as_its_pair(self):
        tv = TruthValue(0.5, 0.25)
        with pytest.raises(AttributeError):
            tv.s = 0.0
        with pytest.raises(TypeError, match="'<' not supported"):
            tv < TruthValue(0.5, 0.5)
        with pytest.raises(TypeError, match="'>=' not supported"):
            (("P", "Q"), tv) >= (("P", "Q"), TruthValue(0.5, 0.5))
        assert hash(tv) == hash((0.5, 0.25)) and tv == TruthValue(0.5, 0.25)
        assert repr(tv) == "TruthValue(s=0.5, c=0.25)" and TruthValue.from_dict(tv.to_dict()) == tv


class TestAddAtom:
    def test_first_insertion(self):
        mg = TypedMetagraph()
        assert mg.version == 0
        i = mg.add_node("A")
        assert i == 0
        assert mg.version == 1

    def test_well_formed_edge(self):
        mg = TypedMetagraph()
        a = mg.add_node("Concept")
        b = mg.add_node("Concept")
        e = mg.add_edge("Inheritance", [a, b])
        assert e == 2
        assert mg.atom(e).targets == (0, 1)

    def test_broken_reference(self):
        mg = TypedMetagraph()
        mg.add_node("Concept")
        mg.add_node("Concept")
        with pytest.raises(MgIntegrityError):
            mg.add_edge("Inheritance", [0, 9])

    def test_duplicate_ids_rejected_on_load(self):
        atoms = [
            {"id": 0, "kind": "node", "type": "A"},
            {"id": 0, "kind": "node", "type": "B"},
        ]
        with pytest.raises(MgIntegrityError, match="duplicate atom id 0"):
            TypedMetagraph.from_dict({"atoms": atoms})

    def test_version_strictly_increases(self):
        mg = TypedMetagraph()
        seen = [mg.version]
        mg.add_node("A")
        seen.append(mg.version)
        mg.add_node("B")
        seen.append(mg.version)
        mg.set_sti(0, 1.0)
        seen.append(mg.version)
        assert seen == sorted(set(seen))


class TestJoin:
    def edge_with_slot(self):
        m = TypedMetagraph()
        s = m.declare_dangling("Concept")
        a = m.add_node("Concept")
        m.add_edge("Link", [a, slot_ref(s)])
        return m

    def test_full_binding(self):
        m1 = self.edge_with_slot()
        m2 = TypedMetagraph()
        m2.add_node("Concept")
        joined = join(m1, m2, {0: 0})
        assert len(joined.dangling) == 0
        assert len(joined) == 3
        # operands untouched
        assert len(m1.dangling) == 1
        assert len(m2) == 1

    def test_type_mismatch(self):
        m1 = TypedMetagraph()
        m1.declare_dangling("Number")
        m1.add_edge("Link", [slot_ref(0)])
        m2 = TypedMetagraph()
        m2.add_node("Concept")
        with pytest.raises(MgTypeError):
            join(m1, m2, {0: 0})

    def test_missing_slot(self):
        m1 = TypedMetagraph()
        m2 = TypedMetagraph()
        m2.add_node("Concept")
        with pytest.raises(BindingError):
            join(m1, m2, {3: 0})

    def test_unbound_slots_stay_dangling(self):
        m1 = TypedMetagraph()
        m1.declare_dangling("A")
        m1.declare_dangling("B")
        m2 = TypedMetagraph()
        m2.add_node("B")
        # bind nothing: both remain
        joined = join(m1, m2, {})
        assert [d.type_label for d in joined.dangling] == ["A", "B"]

    def test_associative_up_to_canonical_form(self):
        # three pieces: a has 2 slots, b and c are nodes; all binding orders
        def piece_a():
            m = TypedMetagraph()
            s0 = m.declare_dangling("Concept")
            s1 = m.declare_dangling("Concept")
            m.add_edge("Rel", [slot_ref(s0), slot_ref(s1)])
            return m

        def node_piece(label):
            m = TypedMetagraph()
            m.add_node("Concept", tv=TruthValue(0.5, 0.5) if label else None)
            return m

        a, b, c = piece_a(), node_piece(False), node_piece(True)
        # (a+b)+c : bind a slot0 to b, then remaining slot (now slot 0) to c
        left = join(join(a, b, {0: 0}), c, {0: 0})
        # a+(b stays), alternative order: bind slot1 first
        right = join(join(a, c, {1: 0}), b, {0: 0})
        assert canonical_form(left) == canonical_form(right)


class TestCanonicalForm:
    def test_empty(self):
        assert canonical_form(TypedMetagraph()) == "MG()"

    def test_id_permutation_invariance(self):
        def build(order):
            mg = TypedMetagraph()
            ids = {}
            for name in order:
                ids[name] = mg.add_node("C" + name)
            mg.add_edge("E", [ids["a"], ids["b"]])
            return mg

        tokens = {canonical_form(build(o)) for o in itertools.permutations("abc")}
        assert len(tokens) == 1

    def test_ordered_targets_distinguished(self):
        m1 = TypedMetagraph()
        a = m1.add_node("A")
        b = m1.add_node("B")
        m1.add_edge("E", [a, b])
        m2 = TypedMetagraph()
        a2 = m2.add_node("A")
        b2 = m2.add_node("B")
        m2.add_edge("E", [b2, a2])
        assert canonical_form(m1) != canonical_form(m2)

    def test_exhaustive_on_six_atom_fixture(self):
        # 4 same-typed nodes + 2 edges; relabel ids every way
        def build(perm):
            mg = TypedMetagraph()
            for _ in range(4):
                mg.add_node("N")
            p = list(perm)
            mg.add_edge("E", [p[0], p[1]])
            mg.add_edge("E", [p[1], p[2]])
            return mg

        base = canonical_form(build([0, 1, 2, 3]))
        # same shape under node renaming must canonicalize identically
        for perm in itertools.permutations(range(4)):
            assert canonical_form(build(perm)) == base

    def test_rejects_large(self):
        mg = TypedMetagraph()
        for _ in range(13):
            mg.add_node("N")
        with pytest.raises(CanonicalizationError):
            canonical_form(mg)

    @settings(max_examples=150, deadline=None)
    @given(
        nodes=st.lists(st.sampled_from("AB"), min_size=1, max_size=6),
        edges=st.lists(
            st.tuples(st.sampled_from("EF"), st.lists(st.integers(0, 20), min_size=1, max_size=3)),
            max_size=5,
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_node_relabeling_invariance(self, nodes, edges, order):
        # an edge target < n is a node, the rest pick an earlier edge (or a node)
        def build(node_ids):
            mg = TypedMetagraph()
            at = {}
            for i in sorted(range(len(nodes)), key=node_ids.__getitem__):
                at[i] = mg.add_node(nodes[i])
            for j, (label, targets) in enumerate(edges):
                refs = [t % (len(nodes) + j) for t in targets]
                at[len(nodes) + j] = mg.add_edge(label, [at[r] for r in refs])
            return mg

        shuffled = list(range(len(nodes)))
        order.shuffle(shuffled)
        assert canonical_form(build(shuffled)) == canonical_form(build(range(len(nodes))))


class TestSnapshot:
    def test_mutation_not_visible(self):
        mg = TypedMetagraph()
        mg.add_node("A")
        view = mg.snapshot()
        mg.add_node("B")
        assert len(view) == 1
        assert len(mg) == 2

    def test_snapshot_of_snapshot(self):
        mg = TypedMetagraph()
        mg.add_node("A")
        v1 = mg.snapshot()
        v2 = v1.snapshot()
        assert v1.stamp == v2.stamp

    def test_staleness(self):
        mg = TypedMetagraph()
        mg.add_node("A")
        view = mg.snapshot()
        assert not view.is_stale()
        mg.add_node("B")
        assert view.is_stale()
        assert view.stamp < mg.version


def scan_incoming(mg, atom_id):
    return [e.id for e in mg.edges() if atom_id in e.targets]


def scan_neighbors(mg, atom_id):
    out = {t for t in mg.atom(atom_id).targets if t >= 0}
    for e in mg.edges():
        if atom_id in e.targets:
            out.add(e.id)
            out.update(t for t in e.targets if t >= 0)
    out.discard(atom_id)
    return sorted(out)


def answers(mg):
    return {i: (mg.incoming(i), mg.neighbors(i)) for i in mg.atom_ids()}


def scanned(mg):
    return {i: (scan_incoming(mg, i), scan_neighbors(mg, i)) for i in mg.atom_ids()}


class TestIncidence:
    @settings(max_examples=150, deadline=None)
    @given(
        n_nodes=st.integers(1, 6),
        edges=st.lists(st.lists(st.integers(0, 30), min_size=1, max_size=3), max_size=10),
        mutation=st.one_of(
            st.tuples(st.just("edge"), st.lists(st.integers(0, 30), min_size=1, max_size=3)),
            st.tuples(st.just("tv"), st.integers(0, 30)),
        ),
    )
    def test_matches_full_scan_on_store_and_snapshot(self, n_nodes, edges, mutation):
        mg = TypedMetagraph()
        for _ in range(n_nodes):
            mg.add_node("N")
        for targets in edges:
            mg.add_edge("E", [t % len(mg) for t in targets])
        view = mg.snapshot()
        before = scanned(mg)
        assert answers(mg) == before
        assert answers(view) == before

        for i in mg.atom_ids():  # a caller's edit of a returned list stays local
            mg.incoming(i).append(-1)
            view.neighbors(i).append(-1)
        assert answers(mg) == answers(view) == before

        kind, arg = mutation
        if kind == "edge":
            new = mg.add_edge("E", [t % len(mg) for t in arg])
            assert all(new in mg.incoming(t) for t in mg.atom(new).targets)
        else:
            mg.set_tv(arg % len(mg), TruthValue(0.5, 0.5))
        assert answers(mg) == scanned(mg)
        assert answers(view) == before

    def test_slot_references_are_indexed(self):
        mg = TypedMetagraph()
        slot = mg.declare_dangling("A")
        a = mg.add_node("A")
        e = mg.add_edge("E", [a, slot_ref(slot), a])
        assert mg.incoming(a) == [e]
        assert mg.incoming(slot_ref(slot)) == [e]
        assert mg.neighbors(a) == [e]
        assert mg.neighbors(e) == [a]


class TestFuzzIntegrity:
    def test_random_ops_keep_referential_integrity(self):
        rng = random.Random(13)
        mg = TypedMetagraph()
        for _ in range(10_000):
            op = rng.random()
            if op < 0.5 or not mg.atoms:
                mg.add_node(rng.choice("ABC"))
            elif op < 0.9:
                ids = sorted(mg.atoms)
                k = rng.randint(1, min(3, len(ids)))
                mg.add_edge("E", [rng.choice(ids) for _ in range(k)])
            else:
                mg.declare_dangling(rng.choice("ABC"))
        for a in mg.atoms.values():
            for t in a.targets:
                if t >= 0:
                    assert t in mg.atoms
                else:
                    assert -t - 1 < len(mg.dangling)


class TestSubmetagraph:
    def test_external_targets_become_slots(self):
        mg = TypedMetagraph()
        a = mg.add_node("A")
        b = mg.add_node("B")
        e = mg.add_edge("E", [a, b])
        sub = submetagraph(mg, [b, e])
        assert len(sub) == 2
        assert len(sub.dangling) == 1
        assert sub.dangling[0].type_label == "A"


class TestJsonRoundTrip:
    def test_lossless(self):
        mg = TypedMetagraph()
        mg.declare_dangling("Concept")
        a = mg.add_node("Concept", tv=TruthValue(0.8, 0.5), sti=1.5)
        b = mg.add_node("Concept")
        mg.add_edge("Inheritance", [a, b])
        mg.add_edge("E", [a, slot_ref(0)])
        text = mg.to_json()
        back = TypedMetagraph.from_json(text)
        assert back.to_json() == text
        assert canonical_form(back) == canonical_form(mg)


# each call hands the mutation API a field that loading rejects; atom 0 exists
NAN, INF = float("nan"), float("inf")
BAD_CALLS = [
    *(("add_node", [bad], {}) for bad in (5, None, ("A",))),
    ("add_edge", [5, [0]], {}),
    # a target must be an int: 0.0 and false would alias atom 0, "0" names none
    *(("add_edge", ["E", bad], {}) for bad in ([0.0], [0, False], ["0"], "0")),
    *(("add_node", ["N"], {"sti": bad}) for bad in (NAN, INF, -INF, True, "high", None)),
    *(("add_edge", ["E", [0]], {"lti": bad}) for bad in (NAN, False)),
    *(("add_node", ["N"], {"tv": bad}) for bad in ((0.5, 0.5), {"s": 0.5, "c": 0.5}, 0.5)),
    # a TruthValue holds two numbers, and true and false are none
    *(("add_node", ["N"], {"tv": bad}) for bad in (TruthValue(True, 0.5), TruthValue(0.5, False))),
    ("set_tv", [0, (0.5, 0.5)], {}),
    ("set_tv", [0, TruthValue(False, 0.0)], {}),
    *(("set_sti", [0, bad], {}) for bad in (NAN, True, "high")),
]
ANY_NUMBER = st.floats() | st.integers() | st.booleans() | st.none() | st.just("x")
ANY_TV = (st.none() | st.builds(TruthValue, st.floats(0, 1) | st.booleans(),
                                 st.floats(0, 1, exclude_max=True) | st.just(False))
          | st.tuples(st.floats(0, 1), st.floats(0, 1)) | ANY_NUMBER)


class TestMutationChecks:
    @pytest.mark.parametrize("method, args, kw", BAD_CALLS)
    def test_rejected_and_store_kept(self, method, args, kw):
        mg = TypedMetagraph()
        mg.add_node("A", tv=TruthValue(0.5, 0.5))
        before = mg.to_json(), mg.version, mg._next_id
        with pytest.raises(MgIntegrityError):
            getattr(mg, method)(*args, **kw)
        assert (mg.to_json(), mg.version, mg._next_id) == before

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_what_it_builds_reloads(self, data):
        mg = TypedMetagraph()
        for _ in range(data.draw(st.integers(1, 8))):
            ops = ["node", "edge", "tv", "sti"] if mg.atoms else ["node"]
            op, ids = data.draw(st.sampled_from(ops)), st.sampled_from(sorted(mg.atoms))
            label = data.draw(st.sampled_from(LABELS) | st.integers() | st.none())
            try:
                if op == "node":
                    mg.add_node(label, tv=data.draw(ANY_TV), sti=data.draw(ANY_NUMBER),
                                lti=data.draw(ANY_NUMBER))
                elif op == "edge":
                    target = ids | ids.map(float) | ids.map(str) | st.booleans()
                    mg.add_edge(label, data.draw(st.lists(target, min_size=1, max_size=3)),
                                tv=data.draw(ANY_TV), sti=data.draw(ANY_NUMBER))
                elif op == "tv":
                    mg.set_tv(data.draw(ids), data.draw(ANY_TV))
                else:
                    mg.set_sti(data.draw(ids), data.draw(ANY_NUMBER))
            except MgIntegrityError:
                pass
        text = mg.to_json()
        assert TypedMetagraph.from_json(text).to_json() == text


class TestLoadRejectsBadIds:
    """An id must be a non-negative int (a negative one reads as a slot
    reference, and 1.5, True and 0.0 would alias or break integer ids)."""

    @pytest.mark.parametrize("bad", [-1, -7, 1.5, True, "3", None])
    def test_atom_id(self, bad):
        atoms = [{"id": bad, "kind": "node", "type": "A"}]
        with pytest.raises(MgIntegrityError, match="is not a non-negative integer"):
            TypedMetagraph.from_dict({"atoms": atoms})

    def test_string_id_among_ints(self):
        atoms = [{"id": 0, "kind": "node", "type": "A"}, {"id": "3", "kind": "node", "type": "A"}]
        with pytest.raises(MgIntegrityError, match="atom id '3' is not a non-negative integer"):
            TypedMetagraph.from_dict({"atoms": atoms})

    def test_negative_id_beside_slot_zero(self):
        d = {"atoms": [{"id": -1, "kind": "node", "type": "A"},
                       {"id": 0, "kind": "edge", "type": "E", "targets": [-1]}],
             "dangling": [{"slot": 0, "type": "A"}]}
        with pytest.raises(MgIntegrityError, match="atom id -1"):
            TypedMetagraph.from_dict(d)

    @pytest.mark.parametrize("bad", [0.0, True, "0"])
    def test_target(self, bad):
        atoms = [{"id": 0, "kind": "node", "type": "A"},
                 {"id": 1, "kind": "edge", "type": "E", "targets": [bad]}]
        with pytest.raises(MgIntegrityError, match="is not an integer"):
            TypedMetagraph.from_dict({"atoms": atoms})

    def test_other_checks_kept(self):
        node = {"id": 0, "kind": "node", "type": "A"}
        with pytest.raises(MgIntegrityError, match="target 5 not present"):
            TypedMetagraph.from_dict({"atoms": [node, {"id": 1, "kind": "edge", "type": "E",
                                                       "targets": [5]}]})
        with pytest.raises(MgIntegrityError, match="target 1 not present"):  # a later id
            TypedMetagraph.from_dict({"atoms": [{"id": 0, "kind": "edge", "type": "E",
                                                 "targets": [1]}, dict(node, id=1)]})
        with pytest.raises(MgIntegrityError, match="dangling slot 0 not declared"):
            TypedMetagraph.from_dict({"atoms": [{"id": 0, "kind": "edge", "type": "E",
                                                 "targets": [-1]}]})
        with pytest.raises(ValueError, match="unknown atom kind"):
            TypedMetagraph.from_dict({"atoms": [dict(node, kind="blob")]})

    def test_gappy_ids_kept(self):
        mg = TypedMetagraph.from_dict({"atoms": [
            {"id": 9, "kind": "edge", "type": "E", "targets": [3, 7]},
            {"id": 7, "kind": "node", "type": "B"},
            {"id": 3, "kind": "node", "type": "A"}]})
        assert mg.atom_ids() == [3, 7, 9] and mg._next_id == 10
        assert mg.add_node("C") == 10


class TestAtomImmutability:
    def test_fields_cannot_be_assigned(self):
        a = Atom(0, NODE, "A")
        for field in ("id", "kind", "type_label", "targets", "tv", "sti", "lti"):
            with pytest.raises(AttributeError):
                setattr(a, field, 1)
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_set_tv_and_sti_leave_snapshots_alone(self):
        mg = TypedMetagraph()
        n = mg.add_node("A", sti=1.0)
        e = mg.add_edge("E", [n])
        view = mg.snapshot()
        before = (view.atom(n), view.atom(e))
        mg.set_sti(n, 5.0)
        mg.set_tv(e, TruthValue(0.9, 0.5))
        assert (view.atom(n), view.atom(e)) == before
        assert view.atom(n).sti == 1.0 and view.atom(e).tv is None
        assert mg.atom(n).sti == 5.0 and mg.atom(e).tv == TruthValue(0.9, 0.5)
        assert mg.atom(n) == before[0]._replace(sti=5.0)

    def test_kind_and_targets_checked(self):
        with pytest.raises(ValueError, match="node atoms cannot have targets"):
            Atom(0, NODE, "A", (1,))
        with pytest.raises(ValueError, match="edge atoms need at least one target"):
            Atom(0, EDGE, "E")
        with pytest.raises(ValueError, match="unknown atom kind"):
            Atom(0, "hyperedge", "H", (1,))

    def test_fields_defaults_repr_and_hash(self):
        a = Atom(3, EDGE, "E", (1, -1), TruthValue(0.5, 0.5))
        assert (a.id, a.kind, a.type_label, a.targets, a.sti, a.lti) == (3, EDGE, "E", (1, -1), 0.0, 0.0)
        assert not a.is_node and Atom(0, NODE, "A").is_node
        assert repr(Atom(0, NODE, "A")) == (
            "Atom(id=0, kind='node', type_label='A', targets=(), tv=None, sti=0.0, lti=0.0)")
        assert hash(a) == hash((3, EDGE, "E", (1, -1), TruthValue(0.5, 0.5), 0.0, 0.0))
        assert a == Atom(3, EDGE, "E", (1, -1), TruthValue(0.5, 0.5), 0.0, 0.0)


# -- the bulk builders against add_atom-per-atom references ------------------


def ref_from_dict(d):
    """`from_dict` as one `add_atom` per atom, re-keyed to the stored id."""
    mg = TypedMetagraph()
    for slot in d.get("dangling", ()):
        mg.declare_dangling(slot["type"])
    for e in sorted(d.get("atoms", ()), key=lambda e: e["id"]):
        tv = TruthValue.from_dict(e["tv"]) if "tv" in e else None
        atom_id = mg.add_atom(e["kind"], e["type"], tuple(e.get("targets", ())), tv,
                              e.get("sti", 0.0), e.get("lti", 0.0))
        if atom_id != e["id"]:
            mg.atoms[e["id"]] = mg.atoms.pop(atom_id)._replace(id=e["id"])
            mg._next_id = max(mg._next_id, e["id"] + 1)
    return mg


def _add_copy(out, a, targets):
    return out.add_atom(a.kind, a.type_label, tuple(targets), a.tv, a.sti, a.lti)


def ref_join(m1, m2, binding):
    out = TypedMetagraph()
    slot_map_m1 = {d.slot: out.declare_dangling(d.type_label)
                   for d in m1.dangling if d.slot not in binding}
    slot_map_m2 = {d.slot: out.declare_dangling(d.type_label) for d in m2.dangling}
    id_map_m2, id_map_m1 = {}, {}
    for old_id in sorted(m2.atoms):
        a = m2.atoms[old_id]
        id_map_m2[old_id] = _add_copy(out, a, [
            id_map_m2[t] if t >= 0 else slot_ref(slot_map_m2[ref_slot(t)]) for t in a.targets])
    for old_id in sorted(m1.atoms):
        a = m1.atoms[old_id]
        targets = []
        for t in a.targets:
            if t >= 0:
                targets.append(id_map_m1[t])
            elif ref_slot(t) in binding:
                targets.append(id_map_m2[binding[ref_slot(t)]])
            else:
                targets.append(slot_ref(slot_map_m1[ref_slot(t)]))
        id_map_m1[old_id] = _add_copy(out, a, targets)
    return out


def ref_submetagraph(mg, atom_ids):
    keep = sorted(set(atom_ids))
    out = TypedMetagraph()
    id_map, slot_for = {}, {}
    for old_id in [i for i in keep if mg.atoms[i].is_node] + [
            i for i in keep if not mg.atoms[i].is_node]:
        a = mg.atoms[old_id]
        targets = []
        for t in a.targets:
            if t in id_map:
                targets.append(id_map[t])
                continue
            if t not in slot_for:
                label = (mg.atoms[t] if t >= 0 else mg.dangling[ref_slot(t)]).type_label
                slot_for[t] = out.declare_dangling(label)
            targets.append(slot_ref(slot_for[t]))
        id_map[old_id] = _add_copy(out, a, targets)
    return out


def assert_same_store(got, want):
    assert got.atoms == want.atoms
    assert list(got.atoms) == list(want.atoms)
    assert all(type(a) is Atom for a in got.atoms.values())
    assert got.dangling == want.dangling
    assert got._next_id == want._next_id
    assert got.to_json() == want.to_json()
    if got.atoms or got.dangling:
        assert got.version > 0


LABELS = ("A", "B")


@st.composite
def metagraphs(draw, max_atoms=14):
    """A store grown by `add_atom`: edges on nodes, edges and declared slots,
    some truth values and importances."""
    mg = TypedMetagraph()
    for _ in range(draw(st.integers(0, 3))):
        mg.declare_dangling(draw(st.sampled_from(LABELS)))
    for _ in range(draw(st.integers(1, max_atoms))):
        refs = sorted(mg.atoms) + [slot_ref(s) for s in range(len(mg.dangling))]
        tv = draw(st.none() | st.builds(TruthValue, st.sampled_from([0.0, 0.25, 1.0]),
                                        st.sampled_from([0.0, 0.5])))
        sti = draw(st.sampled_from([0.0, 1.5]))
        if refs and draw(st.booleans()):
            targets = draw(st.lists(st.sampled_from(refs), min_size=1, max_size=3))
            mg.add_edge(draw(st.sampled_from(LABELS)), targets, tv=tv, sti=sti)
        else:
            mg.add_node(draw(st.sampled_from(LABELS)), tv=tv, sti=sti)
    return mg


def relabeled(d, rng):
    """The same atoms under increasing ids with gaps, listed shuffled."""
    ids = sorted(a["id"] for a in d["atoms"])
    new, nxt = {}, 0
    for i in ids:
        nxt += rng.choice((0, 0, 1, 5))
        new[i] = nxt
        nxt += 1
    atoms = []
    for a in d["atoms"]:
        b = dict(a, id=new[a["id"]])
        if "targets" in a:
            b["targets"] = [new[t] if t >= 0 else t for t in a["targets"]]
        atoms.append(b)
    rng.shuffle(atoms)
    return dict(d, atoms=atoms)


class TestBulkBuildersMatchAddAtom:
    @settings(max_examples=60, deadline=None)
    @given(mg=metagraphs(), seed=st.integers(0, 2**16))
    def test_from_dict(self, mg, seed):
        d = relabeled(mg.to_dict(), random.Random(seed))
        assert_same_store(TypedMetagraph.from_dict(d), ref_from_dict(d))
        assert_same_store(TypedMetagraph.from_dict(mg.to_dict()), mg)

    @settings(max_examples=60, deadline=None)
    @given(mg=metagraphs(), data=st.data())
    def test_submetagraph(self, mg, data):
        keep = data.draw(st.sets(st.sampled_from(sorted(mg.atoms))))
        for source in (mg, mg.snapshot()):
            assert_same_store(submetagraph(source, keep), ref_submetagraph(mg, keep))

    @settings(max_examples=100, deadline=None)
    @given(m1=metagraphs(max_atoms=8), m2=metagraphs(max_atoms=8), data=st.data())
    def test_join(self, m1, m2, data):
        """Right operands with ids 0..n-1 (as `metagraphs` grows them) or with
        gaps, with and without slots, bound fully, partly or not at all."""
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        m1 = TypedMetagraph.from_dict(relabeled(m1.to_dict(), rng))
        if data.draw(st.booleans()):
            m2 = TypedMetagraph.from_dict(relabeled(m2.to_dict(), rng))
        binding = {}
        for d in m1.dangling:
            fits = [i for i, a in m2.atoms.items() if a.type_label == d.type_label]
            if fits and data.draw(st.booleans()):
                binding[d.slot] = data.draw(st.sampled_from(fits))
        m1_json, m2_json = m1.to_json(), m2.to_json()
        got = join(m1, m2.snapshot(), binding)
        assert_same_store(got, ref_join(m1, m2, binding))
        assert (m1.to_json(), m2.to_json()) == (m1_json, m2_json)
        # the right operand's atoms are shared exactly when a copy would keep them
        keeps = (list(m2.atoms) == list(range(len(m2)))
                 and (not m2.dangling or len(binding) == len(m1.dangling)))
        assert all((got.atoms[k] is m2.atoms[i]) == keeps for k, i in enumerate(sorted(m2.atoms)))


class TestJoinSharesTheHost:
    """Joining into a host with ids 0..n-1 creates no new host atoms."""

    @staticmethod
    def host(n=50):
        return TypedMetagraph.from_dict({"atoms": [
            {"id": i, "kind": "node", "type": "N"} if i < n // 2 else
            {"id": i, "kind": "edge", "type": "E", "targets": [i - n // 2, i // 3]}
            for i in range(n)]})

    def test_bound_piece_shares_host_atoms(self):
        host = self.host()
        piece = TypedMetagraph()
        slot = piece.declare_dangling("N")
        piece.add_edge("up", [piece.add_node("M"), slot_ref(slot)])
        for right in (host, host.snapshot()):
            out = join(piece, right, {slot: 7})
            assert all(out.atoms[i] is host.atoms[i] for i in host.atoms)
            assert [out.atoms[i].targets for i in (50, 51)] == [(), (50, 7)]
            out.set_sti(3, 2.0)
            assert host.atoms[3].sti == 0.0 and out.atoms[3].sti == 2.0

    def test_unbound_left_slot_renumbers_host_slots(self):
        host = self.host()
        host.add_edge("E", [slot_ref(host.declare_dangling("N"))])
        piece = TypedMetagraph()
        piece.add_edge("up", [slot_ref(piece.declare_dangling("N"))])
        out = join(piece, host, {})
        assert out.atoms[50].targets == (slot_ref(1),) and out.atoms[0] is not host.atoms[0]
        assert out.atoms[51].targets == (slot_ref(0),)


# -- decoding JSON straight into Atoms against the plain dict path -----------


@st.composite
def metagraph_dicts(draw, max_atoms=10):
    """A well-formed serialized metagraph: ids with gaps listed in shuffled
    order, slots, truth values, int and float sti and lti, and edges that
    target nodes, edges and slots."""
    dangling = [{"slot": k, "type": draw(st.sampled_from(LABELS))}
                for k in range(draw(st.integers(0, 2)))]
    ids = sorted(draw(st.sets(st.integers(0, 40), max_size=max_atoms)))
    atoms = []
    for k, i in enumerate(ids):
        refs = ids[:k] + [slot_ref(d["slot"]) for d in dangling]
        entry = {"id": i, "type": draw(st.sampled_from(LABELS))}
        if refs and draw(st.booleans()):
            entry.update(kind=EDGE, targets=draw(st.lists(st.sampled_from(refs), min_size=1, max_size=3)))
        else:
            entry["kind"] = NODE
            if draw(st.booleans()):
                entry["targets"] = []
        if draw(st.booleans()):
            entry["tv"] = {"s": draw(st.floats(0, 1) | st.sampled_from([0, 1])),
                           "c": draw(st.floats(0, 1, exclude_max=True) | st.just(0))}
        for field in ("sti", "lti"):
            if draw(st.booleans()):
                entry[field] = draw(st.integers(-5, 5) | st.floats(-10, 10))
        atoms.append(entry)
    return {"atoms": draw(st.permutations(atoms)), "dangling": dangling}


def outcome(load, arg):
    """What `load(arg)` gives: its atoms (by repr, so 1 and 1.0 differ),
    slots, version and next id, or its exception's type and message."""
    try:
        mg = load(arg)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return repr(mg.atoms), mg.dangling, mg.version, mg._next_id


def load_text(text, *loads):
    """The outcome of each of `loads` on one file holding `text`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mg.json"
        path.write_text(text)
        return [outcome(load, path) for load in loads]


def load_plain(path):
    """`load_metagraph` with plain `json.loads` in place of the decoder."""
    decoder, fixtures.decode_json = fixtures.decode_json, json.loads
    try:
        return load_metagraph(path)
    finally:
        fixtures.decode_json = decoder


ATOM = {"id": 0, "kind": "node", "type": "A"}
BASE = {"atoms": [
    {"id": 0, "kind": "node", "type": "A", "sti": 1.5},
    {"id": 1, "kind": "node", "type": "B", "tv": {"s": 0.5, "c": 0.5}},
    {"id": 2, "kind": "edge", "type": "E", "targets": [0, 1, -1], "tv": {"s": 0.25, "c": 0.75},
     "lti": 2},
], "dangling": [{"slot": 0, "type": "A"}]}


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(d):
        for step in path:
            d = d[step]
        if value is DELETE:
            del d[key]
        else:
            d[key] = value
    return edit


DELETE = object()
MUTATIONS = {
    **{f"id {bad!r}": _set("atoms", 2, "id", bad) for bad in (-1, True, 1.5, "2", None)},
    "id missing": _set("atoms", 0, "id", DELETE),
    "huge id": _set("atoms", 2, "id", 10**30),
    "duplicate id": _set("atoms", 1, "id", 0),
    **{f"kind {bad!r}": _set("atoms", 2, "kind", bad) for bad in ("blob", 5, None)},
    "kind missing": _set("atoms", 2, "kind", DELETE),
    "edge without targets": _set("atoms", 2, "targets", DELETE),
    "node made an edge": _set("atoms", 0, "kind", "edge"),
    "node with a target": _set("atoms", 1, "targets", [0]),
    **{f"targets {bad!r}": _set("atoms", 2, "targets", bad)
       for bad in ([], "01", 5, [0.0], [True], [None], [7], [-2], [0, 2], [ATOM])},
    **{f"tv {bad!r}": _set("atoms", 1, "tv", bad)
       for bad in ({"s": 2, "c": 0.5}, {"s": 0.5}, {"s": 0.5, "c": 0.5, "k": 1}, None, 5, [0.5, 0.5],
                   {"s": "x", "c": 0.5}, {"s": 0.5, "c": float("nan")}, ATOM, {"s": True, "c": 0.5})},
    **{f"type {bad!r}": _set("atoms", 0, "type", bad) for bad in (5, None, ["A"], ATOM)},
    "type missing": _set("atoms", 0, "type", DELETE),
    **{f"sti {bad!r}": _set("atoms", 0, "sti", bad)
       for bad in (float("nan"), float("inf"), "x", True, None, 10**400, -0.0, ATOM)},
    "lti False": _set("atoms", 2, "lti", False),
    **{f"entry {bad!r}": _set("atoms", 1, bad) for bad in (5, "id kind type", [0], None)},
    **{f"dangling {bad!r}": _set("dangling", bad)
       for bad in (5, [5], [{"slot": 0}], [{"slot": 0, "type": 5}], [dict(ATOM, slot=0)], {"type": "A"})},
    "atoms is an atom": _set("atoms", ATOM),
    "atom object under an extra key": _set("extra", ATOM),
    "atom object inside an entry": _set("atoms", 0, "extra", [ATOM]),
    "top level with atom keys": lambda d: d.update(ATOM),
    "top level is an atom": lambda d: (d.clear(), d.update(ATOM)),
}


class TestDecodeJson:
    @settings(max_examples=150, deadline=None)
    @given(d=metagraph_dicts())
    def test_matches_the_dict_path(self, d):
        text = json.dumps(d)
        want = outcome(TypedMetagraph.from_dict, json.loads(text))
        assert want[0].startswith("{")  # well-formed: it loads
        decoded = decode_json(text)["atoms"]
        assert all(type(e) is Atom for e in decoded)  # no silent fallback to dicts
        assert outcome(TypedMetagraph.from_json, text) == want
        assert load_text(text, load_metagraph) == [want]
        mg = TypedMetagraph.from_json(text)
        assert all(type(a) is Atom for a in mg.atoms.values())

    @pytest.mark.parametrize("name", MUTATIONS)
    def test_malformed_input_reports_as_the_dict_path(self, name):
        d = copy.deepcopy(BASE)
        MUTATIONS[name](d)
        text = json.dumps(d)
        assert outcome(TypedMetagraph.from_json, text) == outcome(TypedMetagraph.from_dict,
                                                                 json.loads(text))
        got, want = load_text(text, load_metagraph, load_plain)
        assert got == want
        assert got[0] == "FixtureError" or got[0].startswith("{")

    def test_top_level_object_is_never_an_atom(self):
        assert decode_json(json.dumps(ATOM)) == ATOM
        assert decode_json(json.dumps([ATOM])) == [ATOM]
        assert type(decode_json(json.dumps({"atoms": [ATOM]}))["atoms"][0]) is Atom


def reference_decode_json(text):
    """`decode_json` as it was when each field went through its own
    `is_finite_number` call: the reference the inline checks must match."""
    made = []

    def atom(obj):
        label = obj.get("type")
        if type(label) is not str:
            return obj
        i = obj.get("id")
        if type(i) is not int or i < 0:
            return obj
        kind, targets = obj.get("kind"), obj.get("targets", ())
        if kind == "edge" and type(targets) is list and targets:
            for t in targets:
                if type(t) is not int:
                    return obj
            targets = tuple(targets)
        elif kind == "node" and (targets == () or targets == []):
            targets = ()
        else:
            return obj
        sti, lti = obj.get("sti", 0.0), obj.get("lti", 0.0)
        if not (is_finite_number(sti) and is_finite_number(lti)):
            return obj
        tv = None
        if "tv" in obj:
            tv = obj["tv"]
            if type(tv) is not dict or len(tv) != 2:
                return obj
            s, c = tv.get("s"), tv.get("c")
            if not (is_finite_number(s) and is_finite_number(c)
                    and 0.0 <= s <= 1.0 and 0.0 <= c < 1.0):
                return obj
            tv = TruthValue(s, c)
        a = Atom(i, kind, label, targets, tv, sti, lti)
        made.append(a)
        return a

    data = json.loads(text, object_hook=atom)
    if made and (type(data) is not dict or data.get("atoms") != made):
        return json.loads(text)
    return data


# the values the fixture probe puts in place of any one value, an int
# beyond the float range and the bound a confidence must stay below
PROBE_VALUES = [None, True, -1, 0, 2, 1.5, "x", [], {}, float("nan"), [1, 2], 10**400, 1.0]
WELL_FORMED_ATOMS = [
    {"id": 0, "kind": "node", "type": "A"},
    {"id": 3, "kind": "node", "type": "", "targets": [], "tv": {"s": 1, "c": 0}, "sti": -2.5,
     "lti": 1e300},
    {"id": 2, "kind": "edge", "type": "E", "targets": [0, -1], "tv": {"s": 0.5, "c": 0.25}, "sti": 3},
    {"id": 1, "kind": "edge", "type": "E", "targets": [2, 0], "lti": 0.0},
]


ATOM_FIELDS = ["id", "kind", "type", "targets", "tv", "sti", "lti", "tv.s", "tv.c", "tv.k"]


def edit_field(obj, field, value):
    """Remove `field` of `obj` (value "absent") or set it to `value`;
    "tv.s" names the tv's field s, if the tv is an object."""
    holder, key = (obj.get("tv"), field[3:]) if field.startswith("tv.") else (obj, field)
    if type(holder) is dict:
        if value == "absent":
            holder.pop(key, None)
        else:
            holder[key] = copy.deepcopy(value)


@st.composite
def atom_objects(draw):
    """A well-formed atom object with up to three of its fields, or of its
    tv's, removed or set to a probe value."""
    obj = copy.deepcopy(draw(st.sampled_from(WELL_FORMED_ATOMS)))
    for field in draw(st.lists(st.sampled_from(ATOM_FIELDS), max_size=3)):
        edit_field(obj, field, draw(st.sampled_from(["absent", *PROBE_VALUES])))
    return obj


class TestDecoderReference:
    def test_every_single_field_edit(self):
        """Each well-formed atom with any one field, or tv field, removed or
        set to any probe value decodes as the reference decodes it."""
        for base, field, value in itertools.product(WELL_FORMED_ATOMS, ATOM_FIELDS,
                                                    ["absent", *PROBE_VALUES]):
            obj = copy.deepcopy(base)
            edit_field(obj, field, value)
            text = json.dumps({"atoms": [obj]})
            assert repr(decode_json(text)) == repr(reference_decode_json(text)), (field, value)

    @settings(max_examples=300, deadline=None)
    @given(atoms=st.lists(atom_objects(), max_size=3), nested=st.booleans())
    def test_matches_the_reference_decoder(self, atoms, nested):
        """The same `Atom`s, or the same fallback to plain dicts, as the
        decoder with one `is_finite_number` call per field."""
        text = json.dumps({"atoms": atoms, **({"extra": atoms[:1]} if nested else {})})
        got, want = decode_json(text), reference_decode_json(text)
        assert repr(got) == repr(want)
        assert [type(a) for a in got["atoms"]] == [type(a) for a in want["atoms"]]


# atom objects whose targets name declared slots, so that the dict path
# judges the object alone; the probe values (less the targets [1, 2], which
# name atoms), false, and more target lists
SLOT_ATOMS = [
    {"id": 0, "kind": "node", "type": "A"},
    {"id": 3, "kind": "node", "type": "", "targets": [], "tv": {"s": 1, "c": 0}, "sti": -2.5,
     "lti": 1e300},
    {"id": 2, "kind": "edge", "type": "E", "targets": [-1, -2], "tv": {"s": 0.5, "c": 0.25}},
]
SLOT_VALUES = [v for v in PROBE_VALUES if v != [1, 2]] + [False, "", [-2], [-1, True]]
TWO_SLOTS = [{"type": "S"}, {"type": "S"}]


@st.composite
def slot_atom_objects(draw):
    obj = copy.deepcopy(draw(st.sampled_from(SLOT_ATOMS)))
    for field in draw(st.lists(st.sampled_from(ATOM_FIELDS), max_size=3)):
        edit_field(obj, field, draw(st.sampled_from(["absent", *SLOT_VALUES])))
    return obj


class TestDecodePathsAgree:
    @settings(max_examples=300, deadline=None)
    @given(obj=slot_atom_objects())
    @example(obj={"id": 0, "kind": "node", "type": "A", "tv": {"s": True, "c": 0.5}})
    @example(obj={"id": 0, "kind": "node", "type": "A", "targets": ""})
    def test_hook_builds_an_atom_exactly_when_the_dict_path_accepts(self, obj):
        text = json.dumps({"dangling": TWO_SLOTS, "atoms": [obj]})
        built = type(decode_json(text)["atoms"][0]) is Atom
        try:
            TypedMetagraph.from_dict(json.loads(text))
        except Exception:
            accepted = False
        else:
            accepted = True
        assert built == accepted


JSON_KEYS = st.sampled_from(["atoms", "dangling", "id", "kind", "type", "targets", "tv", "sti",
                             "lti", "s", "c", "slot"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.sampled_from(["node", "edge", "A", ""]),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(JSON_KEYS, children, max_size=6),
    max_leaves=25)


class TestLoadMetagraphRobust:
    @settings(max_examples=300, deadline=None)
    @given(value=JSON_VALUES | st.builds(lambda atoms, rest: {**rest, "atoms": atoms},
                                          st.lists(JSON_VALUES, max_size=4),
                                          st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=3)))
    def test_any_json_loads_or_is_a_fixture_error(self, value):
        got, = load_text(json.dumps(value), load_metagraph)
        assert got[0] == "FixtureError" or got[0].startswith("{"), got

    @pytest.mark.parametrize("raw", [b"[" * 100_000, b'{"atoms": ' * 100_000, b"\xff\xfe{}"])
    def test_unreadable_json_is_a_fixture_error(self, tmp_path, raw):
        path = tmp_path / "mg.json"
        path.write_bytes(raw)
        with pytest.raises(FixtureError, match="invalid JSON"):
            load_metagraph(path)
