"""The runtime depends only on the standard library: every import in the
`cogpat` package names a standard-library module or `cogpat` itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cogpat"


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_import_is_stdlib_or_cogpat():
    files = sorted(SRC.rglob("*.py"))
    assert files
    outside = sorted(
        (str(path.relative_to(SRC)), root)
        for path in files
        for root in imported_roots(ast.parse(path.read_text(), str(path)))
        if root != "cogpat" and root not in sys.stdlib_module_names
    )
    assert outside == []
