"""Every type test on a fixture value in `cogpat.fixtures` sits inside the
checker's predicates.

A predicate is a `_Want(...)` expression.  Outside them, no `isinstance`,
no `type` and no `is_finite_number` may appear: a loader states what each
field must be through a predicate instead of testing the value itself, so
the checks are written once and every message has one form.
"""

import ast
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cogpat" / "fixtures.py"
TYPE_TESTS = {"isinstance", "type", "is_finite_number"}


def _predicates(tree: ast.Module) -> list:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "_Want"]


def _type_tests(node: ast.AST) -> list:
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Name) and n.id in TYPE_TESTS
            or isinstance(n, ast.Attribute) and n.attr in TYPE_TESTS]


def test_type_tests_sit_inside_the_predicates():
    tree = ast.parse(FIXTURES.read_text())
    inside = {id(n) for predicate in _predicates(tree) for n in _type_tests(predicate)}
    stray = [f"line {n.lineno}: {ast.unparse(n)}" for n in _type_tests(tree) if id(n) not in inside]
    assert stray == []


def test_the_predicates_hold_the_type_tests():
    """Not vacuous: the predicates are there and do test types."""
    tree = ast.parse(FIXTURES.read_text())
    assert sum(len(_type_tests(p)) for p in _predicates(tree)) >= len(TYPE_TESTS)
