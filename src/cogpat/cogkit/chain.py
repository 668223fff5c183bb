"""Forward and backward uncertain inference over implication knowledge
bases.

A kb snapshot holds concept nodes (type label = concept name, tv = prior)
and "implies" edges between them.  Forward chaining repeatedly applies
inference rules, scoring each conclusion by the information it adds over the
kb's current belief.  Backward chaining grows an inference dag from a query
statement toward kb leaves and reads the query's truth value off the root.

Both forward executors read one `StepSet`, kept by delta (semi-naive
evaluation): a conclusion re-instantiates the instances that use it as a
premise and re-scores those that conclude it.  Greedy keeps one set along
its run; dp copies the start's set and applies a state's conclusions in the
order the state lists them.  Invariant: the kept set equals a from-scratch
rebuild over the same model, zero-reward instances included, since a later
conclusion can make their reward positive.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from ..dds import plan
from ..metagraph import IGNORANCE, TruthValue
from ..morphisms import memo_recurse
from .pln import SingularityError, cwig, deduction, inversion


@dataclass
class KbModel:
    """Statement-level view of a kb: its concept nodes (type label = concept
    name) carry their priors and its statements, binary `implies` edges,
    their truth values."""

    priors: dict                 # concept name -> prior strength
    stmts: dict                  # (src, dst) -> TruthValue

    @classmethod
    def from_view(cls, view) -> "KbModel":
        """The model of a kb store or snapshot, read in one pass over its
        atoms by id; raise ValueError naming the lowest-id concept or
        statement that lacks a truth value, else the lowest-id statement
        that targets an atom other than a concept."""
        priors, names, statements = {}, {}, []
        for _, a in sorted(view.atoms.items()):
            node = a.is_node
            if not (node or a.type_label == "implies" and len(a.targets) == 2):
                continue
            if a.tv is None:
                raise ValueError(f"{a.kind} {a.id} ({a.type_label!r}) has no truth value")
            if node:
                priors[a.type_label] = a.tv.s
                names[a.id] = a.type_label
            else:
                statements.append(a)
        stmts = {}
        for edge in statements:
            x, y = edge.targets
            try:
                stmts[(names[x], names[y])] = edge.tv
            except KeyError:
                raise ValueError(f"edge {edge.id} ('implies') targets an atom that is not a "
                                 "concept node") from None
        return cls(priors, stmts)

    def belief(self, key) -> TruthValue:
        return self.stmts.get(key, IGNORANCE)


@dataclass
class Rule:
    name: str
    # instantiate(model, premise=None) yields (premise keys tuple, conclusion
    # key, tv), each instance once; given a premise key, only those using it
    instantiate: Callable
    reversible: bool = False


def deduction_rule() -> Rule:
    def instantiate(model: KbModel, premise=None):
        stmts = model.stmts
        if premise is None:
            pairs = [(ab, bc) for ab in stmts for bc in stmts if ab[1] == bc[0]]
        else:
            pairs = ([(premise, bc) for bc in stmts if bc[0] == premise[1]]
                     + [(ab, premise) for ab in stmts if ab[1] == premise[0]])
        for (a, b), (_, c) in pairs:
            if c == a:
                continue
            try:
                tv = deduction(stmts[(a, b)], stmts[(b, c)], model.priors[b], model.priors[c])
            except SingularityError:
                continue
            yield ((a, b), (b, c)), (a, c), tv

    return Rule("deduction", instantiate)


def inversion_rule() -> Rule:
    def instantiate(model: KbModel, premise=None):
        for a, b in model.stmts if premise is None else (premise,):
            try:
                tv = inversion(model.stmts[(a, b)], model.priors[a], model.priors[b])
            except SingularityError:
                continue
            yield ((a, b),), (b, a), tv

    return Rule("inversion", instantiate, reversible=True)


@dataclass
class ChainResult:
    statements: dict             # (src, dst) -> TruthValue, added or updated
    trace: list                  # per step: (premises, rule, conclusion, reward)
    stalled: bool
    model: KbModel


# a step: (premises, rule name, conclusion, tv, reward); a pass concludes nothing
PASS = ((), "pass", None, None, 0.0)


class StepSet:
    """Every rule instance over a model, zero rewards included: `steps` maps
    (premises, rule name, conclusion) to (tv, reward).  `apply` keeps it by
    delta."""

    def __init__(self, model: KbModel, rules):
        self.model, self.rules, self.steps = model, rules, {}
        self._instantiate(None)

    def _instantiate(self, premise) -> None:
        for rule in self.rules:
            for premises, conclusion, tv in rule.instantiate(self.model, premise):
                self.steps[(premises, rule.name, conclusion)] = (tv, cwig(self.model.belief(conclusion), tv))

    def apply(self, conclusion, tv) -> None:
        """Conclude `conclusion` with `tv`: re-instantiate the instances
        that have it as a premise and re-score those that conclude it, whose
        prior belief changed."""
        self.model = _apply(self.model, conclusion, tv)
        steps = self.steps
        for key in list(steps):
            if conclusion in key[0]:
                del steps[key]
            elif key[2] == conclusion:
                step_tv = steps[key][0]
                steps[key] = (step_tv, cwig(tv, step_tv))
        self._instantiate(conclusion)

    def best(self) -> tuple:
        """The step with the highest positive reward, ties to the lowest key;
        PASS when none has one."""
        top = max((reward for _, reward in self.steps.values()), default=0.0)
        if top <= 0.0:
            return PASS
        key = min(key for key, (_, reward) in self.steps.items() if reward == top)
        return (*key, *self.steps[key])

    def live(self) -> list:
        """The steps worth taking, those with positive reward, in key order."""
        return [(*key, *self.steps[key]) for key in sorted(self.steps) if self.steps[key][1] > 0.0]


def _apply(model: KbModel, conclusion, tv) -> KbModel:
    stmts = dict(model.stmts)
    stmts[conclusion] = tv
    return KbModel(model.priors, stmts)


def _replay(model: KbModel, taken) -> ChainResult:
    """Apply the steps either executor took.  A pass leaves the state, and
    so its lone pass action, unchanged: the first one ends the chain as a
    stall."""
    added = {}
    trace = []
    for premises, rname, conclusion, tv, reward in taken:
        if conclusion is None:
            return ChainResult(added, trace, True, model)
        model = _apply(model, conclusion, tv)
        added[conclusion] = tv
        trace.append((premises, rname, conclusion, reward))
    return ChainResult(added, trace, False, model)


def _as_model(kb) -> KbModel:
    """`kb`'s model; a `KbModel` (as `fixtures.load_kb` gives) is its own."""
    return kb if type(kb) is KbModel else KbModel.from_view(kb)


def forward_chain(kb, rules, steps: int, executor: str = "greedy") -> ChainResult:
    model = _as_model(kb)
    if not model.stmts:
        raise ValueError("kb holds no statements")
    if executor == "dp" and steps > 0:
        return _forward_chain_dds(model, rules, steps)
    if executor not in ("greedy", "dp"):
        raise ValueError(f"unknown executor {executor!r}")
    kept, taken = StepSet(model, rules), []
    for _ in range(steps):
        step = kept.best()
        taken.append(step)
        if step is PASS or len(taken) == steps:
            break
        kept.apply(step[2], step[3])
    return _replay(model, taken)


def _forward_chain_dds(model: KbModel, rules, steps: int) -> ChainResult:
    """Plan the whole step budget with the exact solver, then replay the
    optimal action sequence."""
    start = StepSet(model, rules)

    def actions(t, state):
        kept = copy.copy(start)
        kept.steps = dict(start.steps)
        for conclusion, tv in state:
            kept.apply(conclusion, tv)
        # exhausted states idle so shorter plans stay feasible
        return kept.live() or [PASS]

    def successor(state, action):
        _, _, conclusion, tv, _ = action
        if conclusion is None:
            return state
        return tuple(sorted(set(state) | {(conclusion, tv)}))

    taken, _ = plan((), steps, actions, successor, lambda t, s, x: x[4],
                    action_key=lambda x: repr((x[1], x[2])))
    return _replay(model, taken)


# ---------------------------------------------------------------------------
# Backward chaining


class BidNode(NamedTuple):
    id: int
    statement: tuple
    rule: Optional[str]          # None for leaves
    tv: TruthValue
    children: tuple = ()
    leaf_kind: Optional[str] = None   # "dataset" (kb-backed) or "open"


def backward_chain_tv(kb, target: tuple, budget: int, seed: int = 0):
    """Estimate the truth value of `target` (a (src, dst) implication) as an
    unfold-then-fold over its inference dag: the unfold splits an open
    statement into the two kb halves of a drawn deduction while budget
    remains, the fold chains the halves back with deduction.  Returns (tv,
    nodes): the dag's BidNodes in id order, ids in visiting order, root
    first."""
    model = _as_model(kb)
    rng = random.Random(seed)
    ids: dict = {}               # statement -> node id
    left = budget

    def children_of(stmt):
        nonlocal left
        ids[stmt] = len(ids)
        if stmt in model.stmts or left <= 0:
            return ()
        src, dst = stmt
        # deduction is singular on a certain middle term
        middles = [b for b in sorted(model.priors)
                   if b not in stmt and model.priors[b] < 1.0
                   and (src, b) in model.stmts and (b, dst) in model.stmts]
        if not middles:
            return ()
        left -= 1
        # a draw of the one open leaf to expand, kept so that seeded
        # artifacts keep their bytes until the split draw changes anyway
        rng.random()
        weights = [min(model.stmts[(src, m)].c, model.stmts[(m, dst)].c) + 0.01 for m in middles]
        b, = rng.choices(middles, weights=weights)
        return ((src, b), (b, dst))

    def compute(stmt, halves):
        nid = ids[stmt]
        if halves:
            ab, bc = halves
            tv = deduction(ab.tv, bc.tv, model.priors[ab.statement[1]], model.priors[stmt[1]])
            return BidNode(nid, stmt, "deduction", tv, (ab.id, bc.id))
        if stmt in model.stmts:
            return BidNode(nid, stmt, None, model.stmts[stmt], leaf_kind="dataset")
        return BidNode(nid, stmt, None, IGNORANCE, leaf_kind="open")

    root, memo, _ = memo_recurse(target, children_of, compute)
    # ids are unique, so the nodes sort by id
    return root.tv, sorted(memo.values())
