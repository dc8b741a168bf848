"""Checks on the library source itself."""

import ast
from pathlib import Path

import finmarkov

SOURCE = Path(finmarkov.__file__).parent


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise explicitly
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
