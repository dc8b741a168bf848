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


def test_library_has_no_function_local_relative_imports():
    # module-level imports keep the dependency graph visible; none is needed to break a cycle
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                ]
    assert found == []
