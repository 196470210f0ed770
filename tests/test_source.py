"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mlnsim"


def test_no_assert_statements():
    # invariants must raise exceptions: `python -O` strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
