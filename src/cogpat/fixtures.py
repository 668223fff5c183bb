"""JSON fixture loading.  Each loader states the fields it reads through one
checker, whose predicates (`_Want`) hold every type test on fixture values.
A refused value is a FixtureError naming the path and the value's place
("<path>: field 'x' must be ...", "<path>: x[i] must be ..."); the CLI exits
2 on it.  Fixtures name callables, looked up in the registries below."""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import replace
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Optional

from .cofo import CofoError, CofoProblem, Hypothesis
from .cogkit.chain import KbModel, Rule, deduction_rule, inversion_rule
from .dds import DdsProblem
from .metagraph import Atom, MgError, TypedMetagraph, decode_json, is_finite_number
from .subpattern import SimplicityMeasure, disjoint_union


class FixtureError(Exception):
    pass


# ---------------------------------------------------------------------------
# The checker


class _Want:
    """`test(v)` holds when `v` is `what`.  `every(vs)`, if given, tests a
    list in a few C-level passes; where it holds without raising, `test`
    holds for each entry (save that a sum takes an int just past the float
    range, which float() rounds to the largest float)."""
    __slots__ = ("what", "test", "every")

    def __init__(self, what: str, test: Callable[[Any], bool], every: Optional[Callable] = None):
        self.what, self.test, self.every = what, test, every


def _object(*names: str) -> _Want:
    """An object holding `names`; a decoded `Atom` holds every atom field."""
    held = set(names)
    return _Want("an object" + (" holding " + ", ".join(map(repr, names)) if names else ""),
                 lambda v: type(v) is Atom or type(v) is dict and v.keys() >= held,
                 lambda vs: set(map(type, vs)) <= {Atom})


def _one_of(registry: dict) -> _Want:
    return _Want("one of " + ", ".join(map(repr, registry)),
                 lambda v: type(v) is str and v in registry)


_ANY = _Want("any value", lambda v: True)
_OBJECT = _object()
_LIST = _Want("a list", lambda v: type(v) is list)
_STRING = _Want("a string", lambda v: type(v) is str)
_FLAG = _Want("true or false", lambda v: type(v) is bool)
_NUMBER = _Want("a finite number", is_finite_number,
                lambda vs: set(map(type, vs)) <= {int, float} and math.isfinite(sum(vs, 0.0)))
_NUMBERS = _Want("a list of finite numbers",
                 lambda v: type(v) is list and all(map(is_finite_number, v)))
_POSITIVE_INT = _Want("a positive integer", lambda v: type(v) is int and v >= 1)
# two columns (zip raises unless each pair holds two values), then numbers
# only: no other JSON value of two entries holds numbers
_PAIR = _Want("an [x, y] pair of finite numbers",
              lambda v: type(v) is list and len(v) == 2 and all(map(is_finite_number, v)),
              lambda vs: len(xy := list(zip(*vs, strict=True))) == 2 and _NUMBER.every(xy[0] + xy[1]))
_ATOM, _SLOT = _object("id", "kind", "type"), _object("type")
_HYPOTHESIS = _Want("an object holding a string 'name', a finite number 'prior' and a list 'table'",
                    lambda v: type(v) is dict and type(v.get("name")) is str
                    and is_finite_number(v.get("prior")) and type(v.get("table")) is list)
_REQUIRED = object()


def _fail(path, where: str, value, want: _Want):
    raise FixtureError(f"{path}: {where} must be {want.what}, got {reprlib.repr(value)}")


def _field(path, data, name: str, want: _Want, default=_REQUIRED, where: str = ""):
    """`data[name]` once `want` holds for it, or its `default` if absent."""
    if name not in data:
        if default is _REQUIRED:
            raise FixtureError(f"{path}: {where}missing required field {name!r}")
        return default
    if not want.test(value := data[name]):
        _fail(path, f"{where}field {name!r}", value, want)
    return value


def _every(path, want: _Want, *groups) -> None:
    """`want` holds for each entry of every (name, entries[, keys]) group; the
    first that fails is named name[key], its key from `keys` or its index."""
    values = list(chain.from_iterable(map(itemgetter(1), groups)))
    try:
        if want.every and want.every(values):
            return
    except (TypeError, ValueError, OverflowError):
        pass
    if all(map(want.test, values)):
        return
    for name, entries, *keys in groups:
        for i, value in enumerate(entries):
            if not want.test(value):
                _fail(path, f"{name}[{keys[0][i] if keys else i!r}]", value, want)


def _entries(path, data, name: str, want: _Want, default=_REQUIRED) -> list:
    """Field `name` of `data`: a list whose every entry `want` accepts."""
    entries = _field(path, data, name, _LIST, default)
    _every(path, want, (name, entries))
    return entries


# ---------------------------------------------------------------------------
# Loaders


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
    if not _OBJECT.test(data):
        _fail(path, "top level", data, _OBJECT)
    return data


def load_metagraph(path) -> TypedMetagraph:
    data = load_json(path, decode_json)
    _entries(path, data, "atoms", _ATOM)
    _entries(path, data, "dangling", _SLOT, [])
    try:
        return TypedMetagraph.from_dict(data)
    except MgError as exc:
        raise FixtureError(f"{path}: malformed metagraph ({exc})") from exc


def load_kb(path) -> KbModel:
    """An implication kb for chaining, as its `KbModel`."""
    kb = load_metagraph(path)
    try:
        return KbModel.from_view(kb)
    except ValueError as exc:
        raise FixtureError(f"{path}: {exc}") from exc


def load_dds(path) -> DdsProblem:
    """Decision tables; `DdsProblem.from_tables` checks what the tables hold."""
    data = load_json(path)
    for name, want in (("stages", _ANY), ("states", _OBJECT), ("actions", _OBJECT)):
        _field(path, data, name, want)
    try:
        return DdsProblem.from_tables(data)
    except Exception as exc:
        raise FixtureError(f"{path}: malformed decision tables ({exc})") from exc


RULE_FORMULAS = {"deduction": deduction_rule, "inversion": inversion_rule}
_FORMULA = _one_of(RULE_FORMULAS)


def load_rules(path) -> list[Rule]:
    data = load_json(path)
    rules = []
    for i, entry in enumerate(_entries(path, data, "rules", _OBJECT)):
        where = f"rules[{i}] "
        formula = _field(path, entry, "formula", _FORMULA, where=where)
        rule = RULE_FORMULAS[formula]()
        declared = _field(path, entry, "reversible", _FLAG, rule.reversible, where)
        if declared != rule.reversible:
            raise FixtureError(f"{path}: rules[{i}] declares reversible={declared} but formula "
                               f"{formula!r} is reversible={rule.reversible}")
        rules.append(replace(rule, name=_field(path, entry, "name", _STRING, rule.name, where)))
    return rules


COMBINATORS = {"left": lambda x, y: x, "right": lambda x, y: y, "min": min, "max": max}
_COMBINATOR = _one_of(COMBINATORS)


def _table(path, name: str, pairs: list) -> dict:
    """A table's [point, value] `pairs` as a dict, once no point is listed twice."""
    if len(table := dict(pairs)) < len(pairs):
        seen = set()
        x = next(x for x, _ in pairs if x in seen or seen.add(x))
        raise FixtureError(f"{path}: {name} lists point {x!r} twice")
    return table


def load_cofo(path) -> CofoProblem:
    """A cofo problem; every point, weight, prior and value a finite number."""
    data = load_json(path)
    hyps = _entries(path, data, "hypotheses", _HYPOTHESIS)
    _every(path, _PAIR, ("domain", _field(path, data, "domain", _LIST)),
           ("objective", _field(path, data, "objective", _LIST)),
           *((f"hypotheses[{i}] table", h["table"]) for i, h in enumerate(hyps)))
    names = _entries(path, data, "combinators", _COMBINATOR)
    try:
        return CofoProblem(
            domain=data["domain"],
            objective=_table(path, "objective", data["objective"]),
            hypotheses=[Hypothesis(h["name"], _table(path, f"hypotheses[{i}] table", h["table"]),
                                   h["prior"]) for i, h in enumerate(hyps)],
            rho=_field(path, data, "rho", _NUMBER),
            combinators={n: COMBINATORS[n] for n in names},
            tol=_field(path, data, "tol", _NUMBER, 0.0),
        )
    except CofoError as exc:
        raise FixtureError(f"{path}: malformed problem ({exc})") from exc


def load_points(path):
    """Clustering fixture: labeled 2-d points plus a target block count."""
    data = load_json(path)
    raw = _field(path, data, "points", _OBJECT)
    k = _field(path, data, "k", _POSITIVE_INT)
    _every(path, _PAIR, ("points", list(raw.values()), list(raw)))
    if k > len(raw):
        raise FixtureError(f"{path}: field 'k' is {k}, more than the {len(raw)} points")
    return {label: (float(x), float(y)) for label, (x, y) in raw.items()}, k


def _double(y, z):
    if z != "":
        raise ValueError("second argument must be the unit")
    return y + y


def _merge_blocks(y, z):
    return tuple(sorted(disjoint_union(frozenset(y), frozenset(z))))


SUBPATTERN_OPS = {"double": _double, "concat": lambda y, z: y + z, "plus": lambda y, z: y + z,
                  "max": max, "min": min, "union-merge": _merge_blocks}
SIGMA_MEASURES = {
    "length": lambda sstar: SimplicityMeasure(len, lambda name, y, z: sstar),
    "size-squared": lambda sstar: SimplicityMeasure(lambda b: float(len(b) ** 2),
                                                    lambda name, y, z: sstar),
}
_OPERATOR, _MEASURE = _one_of(SUBPATTERN_OPS), _one_of(SIGMA_MEASURES)


def load_subpattern(path):
    """Subpattern fixture: items (all strings, all finite numbers or all lists
    of finite numbers, so that every operator is defined on them or raises
    ValueError), operator names and a simplicity measure."""
    data = load_json(path)
    items = _field(path, data, "items", _LIST)
    ops = {n: SUBPATTERN_OPS[n] for n in _entries(path, data, "ops", _OPERATOR)}
    measure = SIGMA_MEASURES[_field(path, data, "sigma", _MEASURE, "length")]
    sm = measure(float(_field(path, data, "sigma_star", _NUMBER, 1.0)))
    kind = next((k for k in (_STRING, _NUMBER, _NUMBERS) if all(map(k.test, items))), None)
    if not items or kind is None:
        raise FixtureError(f"{path}: field 'items' must hold strings, finite numbers or lists "
                           "of finite numbers, all of one kind, and at least one")
    if kind is _NUMBER and "union-merge" in ops:
        raise FixtureError(f"{path}: operator 'union-merge' takes strings or lists, not numbers")
    return list(map(tuple, items)) if kind is _NUMBERS else items, ops, sm
