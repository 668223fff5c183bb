"""Every type test on a fixture value in `cogpat.fixtures` sits inside the
checker's predicates.

A predicate is a `_Want(...)` expression.  Outside them, no `isinstance`,
no `type` and no `is_finite_number` may appear: a loader states what each
field must be through a predicate instead of testing the value itself, so
the checks are written once and every message has one form.  Decision
tables are shaped by the same checker, so `cogpat.dds`, which compiles
them, holds no type test at all; and no loader catches every exception,
which would report a program fault as a fixture error.
"""

import ast
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cogpat" / "fixtures.py"
DDS = FIXTURES.parent / "dds.py"
CATCH_ALLS = {"Exception", "BaseException"}
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


def _found(nodes) -> list:
    return [f"line {n.lineno}: {ast.unparse(n).splitlines()[0]}" for n in nodes]


def _catch_alls(tree: ast.Module) -> list:
    """Each handler that catches every exception: a bare `except`, or one
    naming `Exception` or `BaseException`, alone or in a tuple."""
    return [h for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler)
            and (h.type is None or CATCH_ALLS & {n.id for n in ast.walk(h.type)
                                                 if isinstance(n, ast.Name)})]


def test_dds_holds_no_type_test():
    assert _found(_type_tests(ast.parse(DDS.read_text()))) == []


def test_a_type_test_in_dds_is_found():
    """Not vacuous: a shape check written again in `dds.py` is reported."""
    extra = ("\n\ndef check(spec):\n    if type(spec['stages']) is not int or isinstance(spec, list)"
             " or not is_finite_number(spec['alpha']):\n        raise DdsError(spec)\n")
    found = _found(_type_tests(ast.parse(DDS.read_text() + extra)))
    assert sorted(f.split(": ", 1)[1] for f in found) == ["is_finite_number", "isinstance", "type"]


def test_no_loader_catches_every_exception():
    assert _found(_catch_alls(ast.parse(FIXTURES.read_text()))) == []


def test_a_catch_all_is_found():
    """Not vacuous: a bare `except`, `except Exception` and a tuple naming
    `BaseException` are each reported."""
    extra = "".join(f"\n\ntry:\n    pass\nexcept{clause}:\n    pass\n" for clause in
                    ("", " Exception as exc", " (ValueError, BaseException)", " ValueError"))
    found = _found(_catch_alls(ast.parse(FIXTURES.read_text() + extra)))
    assert sorted(f.split(": ", 1)[1] for f in found) == [
        "except (ValueError, BaseException):", "except Exception as exc:", "except:"]
