"""Checks on the package source itself."""

import ast
from pathlib import Path

import aeaqecc


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so invariants that guard results must
    # raise explicit errors instead
    found = []
    for path in sorted(Path(aeaqecc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
