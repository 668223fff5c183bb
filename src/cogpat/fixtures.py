"""JSON fixture loading with schema validation.

Every loader raises FixtureError naming the offending path and field, so the
CLI can exit with a usage-class error instead of a traceback.  Callables
(rule formulas, combinators, subpattern operators, simplicity measures) are
referenced by name in fixtures and resolved against the registries below.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from .cofo import CofoProblem, Hypothesis
from .cogkit.chain import Rule, check_truth_values, deduction_rule, inversion_rule
from .dds import DdsProblem
from .metagraph import TypedMetagraph
from .subpattern import SimplicityMeasure, disjoint_union


class FixtureError(Exception):
    pass


def load_json(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise FixtureError(f"{path}: fixture file not found")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FixtureError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FixtureError(f"{path}: top level must be an object")
    return data


def _require(data: dict, field: str, path) -> object:
    if field not in data:
        raise FixtureError(f"{path}: missing required field {field!r}")
    return data[field]


def load_metagraph(path) -> TypedMetagraph:
    data = load_json(path)
    atoms = _require(data, "atoms", path)
    if not isinstance(atoms, list):
        raise FixtureError(f"{path}: field 'atoms' must be a list")
    for i, atom in enumerate(atoms):
        for field in ("id", "kind", "type"):
            if field not in atom:
                raise FixtureError(f"{path}: atoms[{i}] missing field {field!r}")
    try:
        return TypedMetagraph.from_dict(data)
    except Exception as exc:
        raise FixtureError(f"{path}: malformed metagraph ({exc})") from exc


def load_kb(path) -> TypedMetagraph:
    """An implication kb for chaining; see `check_truth_values`."""
    kb = load_metagraph(path)
    try:
        check_truth_values(kb)
    except ValueError as exc:
        raise FixtureError(f"{path}: {exc}") from exc
    return kb


def load_dds(path) -> DdsProblem:
    data = load_json(path)
    for field in ("stages", "states", "actions"):
        _require(data, field, path)
    try:
        return DdsProblem.from_tables(data)
    except Exception as exc:
        raise FixtureError(f"{path}: malformed decision tables ({exc})") from exc


RULE_FORMULAS = {
    "deduction": deduction_rule,
    "inversion": inversion_rule,
}


def load_rules(path) -> list[Rule]:
    data = load_json(path)
    entries = _require(data, "rules", path)
    rules = []
    for i, entry in enumerate(entries):
        formula = entry.get("formula")
        if formula not in RULE_FORMULAS:
            raise FixtureError(f"{path}: rules[{i}] has unknown formula {formula!r}")
        rule = RULE_FORMULAS[formula]()
        declared = entry.get("reversible", rule.reversible)
        if declared != rule.reversible:
            raise FixtureError(
                f"{path}: rules[{i}] declares reversible={declared} "
                f"but formula {formula!r} is reversible={rule.reversible}"
            )
        rules.append(replace(rule, name=entry.get("name", rule.name)))
    return rules


COMBINATORS = {
    "left": lambda x, y: x,
    "right": lambda x, y: y,
    "min": min,
    "max": max,
}


def load_cofo(path) -> CofoProblem:
    data = load_json(path)
    domain = _require(data, "domain", path)
    objective = _require(data, "objective", path)
    hyps = _require(data, "hypotheses", path)
    rho = _require(data, "rho", path)
    names = _require(data, "combinators", path)
    for name in names:
        if name not in COMBINATORS:
            raise FixtureError(f"{path}: unknown combinator {name!r}")
    hypotheses = []
    for i, h in enumerate(hyps):
        for field in ("name", "prior", "table"):
            if field not in h:
                raise FixtureError(f"{path}: hypotheses[{i}] missing field {field!r}")
        hypotheses.append(
            Hypothesis(h["name"], {x: y for x, y in h["table"]}, h["prior"])
        )
    try:
        return CofoProblem(
            domain=[(x, w) for x, w in domain],
            objective={x: y for x, y in objective},
            hypotheses=hypotheses,
            rho=rho,
            combinators={n: COMBINATORS[n] for n in names},
            tol=data.get("tol", 0.0),
        )
    except Exception as exc:
        raise FixtureError(f"{path}: malformed problem ({exc})") from exc


def load_points(path):
    """Clustering fixture: labeled 2-d points plus a target block count."""
    data = load_json(path)
    raw = _require(data, "points", path)
    k = _require(data, "k", path)
    points = {}
    for label, xy in raw.items():
        if not (isinstance(xy, list) and len(xy) == 2):
            raise FixtureError(f"{path}: points[{label!r}] must be an [x, y] pair")
        points[label] = (float(xy[0]), float(xy[1]))
    if not isinstance(k, int) or k < 1:
        raise FixtureError(f"{path}: field 'k' must be a positive integer")
    if k > len(points):
        raise FixtureError(f"{path}: field 'k' is {k}, more than the {len(points)} points")
    return points, k


def _double(y, z):
    if z != "":
        raise ValueError("second argument must be the unit")
    return y + y


def _merge_blocks(y, z):
    return tuple(sorted(disjoint_union(frozenset(y), frozenset(z))))


SUBPATTERN_OPS = {
    "double": _double,
    "concat": lambda y, z: y + z,
    "plus": lambda y, z: y + z,
    "max": max,
    "min": min,
    "union-merge": _merge_blocks,
}

SIGMA_MEASURES = {
    "length": lambda sstar: SimplicityMeasure(
        sigma=len, sigma_star=lambda name, y, z: sstar
    ),
    "size-squared": lambda sstar: SimplicityMeasure(
        sigma=lambda b: float(len(b) ** 2), sigma_star=lambda name, y, z: sstar
    ),
}


def load_subpattern(path):
    """Subpattern fixture: items, operator names, and a simplicity measure."""
    data = load_json(path)
    items = _require(data, "items", path)
    names = _require(data, "ops", path)
    for name in names:
        if name not in SUBPATTERN_OPS:
            raise FixtureError(f"{path}: unknown operator {name!r}")
    ops = {n: SUBPATTERN_OPS[n] for n in names}
    sigma_name = data.get("sigma", "length")
    if sigma_name not in SIGMA_MEASURES:
        raise FixtureError(f"{path}: unknown simplicity measure {sigma_name!r}")
    sm = SIGMA_MEASURES[sigma_name](float(data.get("sigma_star", 1.0)))
    items = [tuple(v) if isinstance(v, list) else v for v in items]
    return items, ops, sm
