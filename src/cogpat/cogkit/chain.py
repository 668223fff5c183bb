"""Forward and backward uncertain inference over implication knowledge
bases.

A kb snapshot holds concept nodes (type label = concept name, tv = prior)
and "implies" edges between them.  Forward chaining repeatedly applies
inference rules, scoring each conclusion by the information it adds over the
kb's current belief.  Backward chaining grows an inference dag from a query
statement toward kb leaves and reads the query's truth value off the root.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..dds import plan
from ..metagraph import IGNORANCE, TruthValue, TypedMetagraph, as_view
from ..morphisms import memo_recurse
from .pln import SingularityError, cwig, deduction, inversion


def implication_kb(nodes: dict, edges: list) -> TypedMetagraph:
    """Build a kb: nodes maps concept name to (s, c); edges lists
    (src, dst, s, c) implications."""
    mg = TypedMetagraph()
    ids = {}
    for name, (s, c) in nodes.items():
        ids[name] = mg.add_node(name, tv=TruthValue(s, c))
    for src, dst, s, c in edges:
        mg.add_edge("implies", [ids[src], ids[dst]], tv=TruthValue(s, c))
    return mg


def _is_statement(atom) -> bool:
    return atom.type_label == "implies" and len(atom.targets) == 2


def check_truth_values(view) -> None:
    """A kb's concept nodes carry their priors and its statements (binary
    `implies` edges) their truth values; raise ValueError naming the
    lowest-id atom that lacks one."""
    for _, a in sorted(view.atoms.items()):
        if a.tv is None and (a.is_node or _is_statement(a)):
            raise ValueError(f"{a.kind} {a.id} ({a.type_label!r}) has no truth value")


@dataclass
class KbModel:
    """Statement-level view of a kb snapshot."""

    priors: dict                 # concept name -> prior strength
    stmts: dict                  # (src, dst) -> TruthValue

    @classmethod
    def from_view(cls, view) -> "KbModel":
        view = as_view(view)
        check_truth_values(view)
        priors = {}
        names = {}
        for node in view.nodes():
            priors[node.type_label] = node.tv.s
            names[node.id] = node.type_label
        stmts = {}
        for edge in view.edges():
            if _is_statement(edge):
                a, b = edge.targets
                stmts[(names[a], names[b])] = edge.tv
        return cls(priors, stmts)

    def belief(self, key) -> TruthValue:
        return self.stmts.get(key, IGNORANCE)


@dataclass
class Rule:
    name: str
    arity: int
    # instantiate(model) yields (premise keys tuple, conclusion key, tv)
    instantiate: Callable
    reversible: bool = False
    # unapply(model, conclusion key, tv) -> (premise key, tv) for the audit
    unapply: Optional[Callable] = None


def deduction_rule() -> Rule:
    def instantiate(model: KbModel):
        stmts = sorted(model.stmts.items())
        for (a, b), ab in stmts:
            for (b2, c), bc in stmts:
                if b2 != b or c == a or (a, b) == (b2, c):
                    continue
                try:
                    tv = deduction(ab, bc, model.priors[b], model.priors[c])
                except SingularityError:
                    continue
                yield ((a, b), (b, c)), (a, c), tv

    return Rule("deduction", 2, instantiate)


def inversion_rule() -> Rule:
    def instantiate(model: KbModel):
        for (a, b), ab in sorted(model.stmts.items()):
            try:
                tv = inversion(ab, model.priors[a], model.priors[b])
            except SingularityError:
                continue
            yield ((a, b),), (b, a), tv

    def unapply(model: KbModel, key, tv):
        b, a = key
        return (a, b), inversion(tv, model.priors[b], model.priors[a])

    return Rule("inversion", 1, instantiate, reversible=True, unapply=unapply)


def rule_roundtrip_audit(rule: Rule, model: KbModel) -> bool:
    """Reversible rules must recover each crisp premise they consumed."""
    if not rule.reversible or rule.unapply is None:
        return False
    for premises, conclusion, tv in rule.instantiate(model):
        back_key, back_tv = rule.unapply(model, conclusion, tv)
        if back_key not in premises:
            return False
        orig = model.stmts[back_key]
        if orig.s in (0.0, 1.0) and abs(back_tv.s - orig.s) > 1e-9:
            return False
    return True


@dataclass
class ChainResult:
    statements: dict             # (src, dst) -> TruthValue, added or updated
    trace: list                  # per step: (premises, rule, conclusion, reward)
    stalled: bool
    model: KbModel


def _candidates(model: KbModel, rules) -> list:
    out = []
    for rule in rules:
        for premises, conclusion, tv in rule.instantiate(model):
            reward = cwig(model.belief(conclusion), tv)
            out.append((premises, rule.name, conclusion, tv, reward))
    out.sort(key=lambda c: (c[0], c[1], c[2]))
    return out


def _apply(model: KbModel, conclusion, tv) -> KbModel:
    stmts = dict(model.stmts)
    stmts[conclusion] = tv
    return KbModel(model.priors, stmts)


def forward_chain(kb, rules, steps: int, executor: str = "greedy") -> ChainResult:
    model = KbModel.from_view(kb)
    if not model.stmts:
        raise ValueError("kb holds no statements")
    if executor == "dp" and steps > 0:
        return _forward_chain_dds(model, rules, steps)
    if executor not in ("greedy", "dp"):
        raise ValueError(f"unknown executor {executor!r}")
    trace = []
    added = {}
    stalled = False
    for _ in range(steps):
        cands = [c for c in _candidates(model, rules) if c[4] > 0.0]
        if not cands:
            stalled = True
            break
        # max returns the first of tied candidates; cands are key-sorted
        premises, rname, conclusion, tv, reward = max(cands, key=lambda c: c[4])
        model = _apply(model, conclusion, tv)
        added[conclusion] = tv
        trace.append((premises, rname, conclusion, reward))
    return ChainResult(added, trace, stalled, model)


def _forward_chain_dds(model: KbModel, rules, steps: int) -> ChainResult:
    """Plan the whole step budget with the exact solver, then replay the
    optimal action sequence."""
    base = model

    def rebuild(state):
        m = base
        for conclusion, tv in state:
            m = _apply(m, conclusion, tv)
        return m

    PASS = ((), "pass", None, None, 0.0)

    def actions(t, state):
        out = [
            (premises, rname, conclusion, tv, reward)
            for premises, rname, conclusion, tv, reward in _candidates(rebuild(state), rules)
            if reward > 0.0
        ]
        # exhausted states idle so shorter plans stay feasible
        return out or [PASS]

    def successor(state, action):
        _, _, conclusion, tv, _ = action
        if conclusion is None:
            return state
        return tuple(sorted(set(state) | {(conclusion, tv)}))

    taken, end = plan((), steps, actions, successor, lambda t, s, x: x[4],
                      action_key=lambda x: repr((x[1], x[2])))
    trace = []
    added = {}
    stalled = False
    for premises, rname, conclusion, tv, reward in taken:
        if conclusion is None:
            # a pass leaves the state, and so its lone pass action, unchanged
            stalled = True
            break
        added[conclusion] = tv
        trace.append((premises, rname, conclusion, reward))
    return ChainResult(added, trace, stalled, rebuild(end))


# ---------------------------------------------------------------------------
# Backward chaining


@dataclass
class BidNode:
    id: int
    statement: tuple
    rule: Optional[str]          # None for leaves
    tv: TruthValue
    children: tuple = ()
    leaf_kind: Optional[str] = None   # "dataset" (kb-backed) or "open"


@dataclass
class Bid:
    nodes: dict = field(default_factory=dict)
    root: int = 0

    def add(self, statement, rule, tv, children=(), leaf_kind=None) -> int:
        nid = len(self.nodes)
        self.nodes[nid] = BidNode(nid, statement, rule, tv, tuple(children), leaf_kind)
        return nid

    def check(self) -> None:
        def children_of(nid):
            node = self.nodes[nid]
            if node.children and node.rule is None:
                raise ValueError("internal bid node lacks a rule")
            if len(node.children) > 2:
                raise ValueError("bid nodes are at most binary")
            return node.children

        memo_recurse(self.root, children_of, lambda nid, vals: None)

    @property
    def expansions(self) -> int:
        return sum(1 for n in self.nodes.values() if n.children)


def backward_chain_tv(kb, target: tuple, budget: int, seed: int = 0):
    """Estimate the truth value of `target` (a (src, dst) implication) by
    expanding an inference dag down to kb statements."""
    model = KbModel.from_view(kb)
    bid = Bid()
    rng = random.Random(seed)
    if target in model.stmts:
        tv = model.stmts[target]
        bid.root = bid.add(target, None, tv, leaf_kind="dataset")
        bid.check()
        return tv, bid
    bid.root = bid.add(target, None, IGNORANCE, leaf_kind="open")

    def expansions_for(stmt):
        src, dst = stmt
        out = []
        for b in sorted(model.priors):
            if b in (src, dst):
                continue
            ab = model.stmts.get((src, b))
            bc = model.stmts.get((b, dst))
            if ab is None or bc is None:
                continue
            try:
                tv = deduction(ab, bc, model.priors[b], model.priors[dst])
            except SingularityError:
                continue
            out.append((b, ab, bc, tv))
        return out

    for _ in range(budget):
        leaves = [n for n in bid.nodes.values()
                  if n.leaf_kind == "open" and not n.children and expansions_for(n.statement)]
        if not leaves:
            break
        weights = [max(leaf.tv.c, 0.01) for leaf in leaves]
        leaf = rng.choices(leaves, weights=weights, k=1)[0]
        options = expansions_for(leaf.statement)
        b, ab, bc, _ = rng.choices(
            options, weights=[min(o[1].c, o[2].c) + 0.01 for o in options], k=1
        )[0]
        src, dst = leaf.statement
        left = bid.add((src, b), None, ab, leaf_kind="dataset")
        right = bid.add((b, dst), None, bc, leaf_kind="dataset")
        leaf.children = (left, right)
        leaf.rule = "deduction"
        leaf.leaf_kind = None
        # children are added after their parent: descending ids are post-order
        for node in reversed(bid.nodes.values()):
            if node.children:
                first, second = (bid.nodes[c] for c in node.children)
                node.tv = deduction(first.tv, second.tv, model.priors[first.statement[1]],
                                    model.priors[node.statement[1]])
    bid.check()
    return bid.nodes[bid.root].tv, bid
