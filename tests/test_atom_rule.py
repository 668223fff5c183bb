"""The atom rule is stated once.

In `cogpat.metagraph`, every type or finite-number test sits in one of
three places: the atom rule (`_atom`), `is_finite_number` and
`_slot_type`.  Outside them a test may only ask whether a whole value is
already an `Atom` (what the rule made), whether the parsed top level is an
object, or whether a graph is a store; none tests an atom's field.  So the
JSON decoder, `from_dict` and the mutation API cannot drift apart, and a
fourth copy of the rule fails here.
"""

import ast
from pathlib import Path

METAGRAPH = Path(__file__).resolve().parent.parent / "src" / "cogpat" / "metagraph.py"
RULE_PLACES = {"_atom", "is_finite_number", "_slot_type"}
TYPE_TESTS = {"isinstance", "type", "is_finite_number", "isfinite"}
WHOLE_VALUE_TESTS = {"type(data) is not dict", "isinstance(mg, TypedMetagraph)"}


def _name(call: ast.Call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def stray_type_tests(source: str) -> list:
    """Each type test outside the rule's places that is not a whole-value test."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

    def inside_rule(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, ast.FunctionDef) and node.name in RULE_PLACES:
                return True
        return False

    stray = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _name(node) in TYPE_TESTS) or inside_rule(node):
            continue
        test = parents[node] if isinstance(parents[node], ast.Compare) else node
        is_atom = (isinstance(test, ast.Compare) and len(test.comparators) == 1
                   and isinstance(test.ops[0], (ast.Is, ast.IsNot))
                   and isinstance(test.comparators[0], ast.Name) and test.comparators[0].id == "Atom")
        if not is_atom and ast.unparse(test) not in WHOLE_VALUE_TESTS:
            stray.append(f"line {node.lineno}: {ast.unparse(test)}")
    return stray


def test_type_tests_sit_in_the_rule():
    assert stray_type_tests(METAGRAPH.read_text()) == []


def test_the_rule_holds_the_tests():
    """Not vacuous: the rule is there and tests every field's type."""
    tree = ast.parse(METAGRAPH.read_text())
    rule = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_atom")
    tested = {ast.unparse(n.args[0]) for n in ast.walk(rule)
              if isinstance(n, ast.Call) and _name(n) == "type"}
    assert tested >= {"i", "label", "targets", "t", "sti", "lti", "tv", "s", "c"}


def test_a_copy_of_the_rule_is_found():
    """A field check written again outside the rule is reported, whether a
    `type` test or a finite-number one."""
    extra = ("\n\ndef load_again(e):\n    if type(e['type']) is not str or not is_finite_number(e['sti']):\n"
             "        raise MgIntegrityError(e)\n")
    assert [s.split(": ", 1)[1] for s in stray_type_tests(METAGRAPH.read_text() + extra)] == [
        "type(e['type']) is not str", "is_finite_number(e['sti'])"]
