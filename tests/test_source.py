"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
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


def test_cli_import_leaves_scipy_unloaded():
    # only the Q-function route needs scipy, and it imports it when called
    code = "import sys, mlnsim.cli; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_no_function_imports_a_sibling_module():
    # a deferred package import hides an import cycle (presets once imported config
    # inside get_preset); only third-party imports such as scipy may be deferred
    def sibling(node):
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or (node.module or "").split(".")[0] == "mlnsim"
        return isinstance(node, ast.Import) and any(a.name.split(".")[0] == "mlnsim" for a in node.names)

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if sibling(node)
    ]
    assert found == []


def _uses_outside_linalg(names):
    """Places outside linalg.py that reach any of names as an attribute or an import."""
    def use(node):
        if isinstance(node, ast.Attribute):
            return node.attr in names
        return isinstance(node, ast.ImportFrom) and any(a.name in names for a in node.names)

    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if use(node)
    ]


def test_only_linalg_computes_singular_values():
    # singular values have one implementation: linalg.singular_values picks the
    # closed form or LAPACK, and every rank decision goes through it
    assert _uses_outside_linalg({"svd"}) == []


def test_only_linalg_computes_eigenvalues():
    # likewise linalg.psd_eigenvalues for the PEP route's Gram matrices
    assert _uses_outside_linalg({"eigvalsh", "eigh", "eigvals"}) == []
