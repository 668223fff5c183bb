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
from .cogkit.chain import KbModel, Rule, deduction_rule, inversion_rule
from .dds import DdsProblem
from .metagraph import Atom, TypedMetagraph, decode_json, is_finite_number
from .subpattern import SimplicityMeasure, disjoint_union


class FixtureError(Exception):
    pass


def load_json(path, decode=json.loads) -> dict:
    try:
        f = open(path)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError):
        # ValueError: a path holding a null byte
        raise FixtureError(f"{Path(path)}: fixture file not found") from None
    try:
        with f:
            data = decode(f.read())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the decoder's recursion limit
        raise FixtureError(f"{Path(path)}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise FixtureError(f"{Path(path)}: top level must be an object")
    return data


def _require(data: dict, field: str, path) -> object:
    if field not in data:
        raise FixtureError(f"{path}: missing required field {field!r}")
    return data[field]


def _require_entries(entries: list, field: str, names: tuple, path) -> None:
    """`entries` (field `field`) is a list and each entry an object holding
    `names`; an `Atom` decoded from a well-formed atom entry holds them all."""
    if not isinstance(entries, list):
        raise FixtureError(f"{path}: field {field!r} must be a list")
    for i, entry in enumerate(entries):
        if type(entry) is Atom:
            continue
        if not isinstance(entry, dict):
            raise FixtureError(f"{path}: {field}[{i}] must be an object")
        for name in names:
            if name not in entry:
                raise FixtureError(f"{path}: {field}[{i}] missing field {name!r}")


def load_metagraph(path) -> TypedMetagraph:
    data = load_json(path, decode_json)
    atoms = _require(data, "atoms", path)
    _require_entries(atoms, "atoms", ("id", "kind", "type"), path)
    _require_entries(data.get("dangling", []), "dangling", ("type",), path)
    try:
        return TypedMetagraph.from_dict(data)
    except Exception as exc:
        raise FixtureError(f"{path}: malformed metagraph ({exc})") from exc


def load_kb(path) -> KbModel:
    """An implication kb for chaining, as its `KbModel`."""
    kb = load_metagraph(path)
    try:
        return KbModel.from_view(kb)
    except ValueError as exc:
        raise FixtureError(f"{path}: {exc}") from exc


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
    _require_entries(entries, "rules", (), path)
    rules = []
    for i, entry in enumerate(entries):
        formula = entry.get("formula")
        if not isinstance(formula, str) or formula not in RULE_FORMULAS:
            raise FixtureError(f"{path}: rules[{i}] has unknown formula {formula!r}")
        rule = RULE_FORMULAS[formula]()
        declared = entry.get("reversible", rule.reversible)
        if declared != rule.reversible:
            raise FixtureError(
                f"{path}: rules[{i}] declares reversible={declared} "
                f"but formula {formula!r} is reversible={rule.reversible}"
            )
        name = entry.get("name", rule.name)
        if not isinstance(name, str):
            raise FixtureError(f"{path}: rules[{i}] name {name!r} is not a string")
        rules.append(replace(rule, name=name))
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
    _require_entries(hyps, "hypotheses", ("name", "prior", "table"), path)
    try:
        for name in names:
            if name not in COMBINATORS:
                raise FixtureError(f"{path}: unknown combinator {name!r}")
        return CofoProblem(
            domain=[(x, w) for x, w in domain],
            objective={x: y for x, y in objective},
            hypotheses=[Hypothesis(h["name"], {x: y for x, y in h["table"]}, h["prior"])
                        for h in hyps],
            rho=rho,
            combinators={n: COMBINATORS[n] for n in names},
            tol=data.get("tol", 0.0),
        )
    except FixtureError:
        raise
    except Exception as exc:
        raise FixtureError(f"{path}: malformed problem ({exc})") from exc


def load_points(path):
    """Clustering fixture: labeled 2-d points plus a target block count."""
    data = load_json(path)
    raw = _require(data, "points", path)
    k = _require(data, "k", path)
    if not isinstance(raw, dict):
        raise FixtureError(f"{path}: field 'points' must be an object")
    points = {}
    for label, xy in raw.items():
        if not (isinstance(xy, list) and len(xy) == 2 and all(map(is_finite_number, xy))):
            raise FixtureError(f"{path}: points[{label!r}] must be an [x, y] pair of finite numbers")
        points[label] = (float(xy[0]), float(xy[1]))
    if type(k) is not int or k < 1:
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
    """Subpattern fixture: items, operator names, and a simplicity measure.
    The items are all strings, all finite numbers or all lists of finite
    numbers, so that every operator is defined on them or raises
    ValueError; union-merge takes no numbers."""
    data = load_json(path)
    items = _require(data, "items", path)
    names = _require(data, "ops", path)
    sigma_name, sigma_star = data.get("sigma", "length"), data.get("sigma_star", 1.0)
    for field, value in (("items", items), ("ops", names)):
        if not isinstance(value, list):
            raise FixtureError(f"{path}: field {field!r} must be a list")
    for name in names:
        if not isinstance(name, str) or name not in SUBPATTERN_OPS:
            raise FixtureError(f"{path}: unknown operator {name!r}")
    ops = {n: SUBPATTERN_OPS[n] for n in names}
    if not isinstance(sigma_name, str) or sigma_name not in SIGMA_MEASURES:
        raise FixtureError(f"{path}: unknown simplicity measure {sigma_name!r}")
    if not is_finite_number(sigma_star):
        raise FixtureError(f"{path}: field 'sigma_star' must be a finite number")
    sm = SIGMA_MEASURES[sigma_name](float(sigma_star))
    kinds = {str if isinstance(v, str) else float if is_finite_number(v)
             else list if isinstance(v, list) and all(map(is_finite_number, v)) else None
             for v in items}
    if len(kinds) != 1 or None in kinds:
        raise FixtureError(f"{path}: field 'items' must hold strings, finite numbers or lists "
                           "of finite numbers, all of one kind, and at least one")
    if kinds == {float} and "union-merge" in ops:
        raise FixtureError(f"{path}: operator 'union-merge' takes strings or lists, not numbers")
    items = [tuple(v) if isinstance(v, list) else v for v in items]
    return items, ops, sm
