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


def _absolute_imports(node):
    """Top-level names of the modules an absolute import statement loads; [] for any other node."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module.split(".")[0]]
    return []


def test_src_never_imports_scipy():
    # numpy is the only runtime dependency; scipy is a test-only reference
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "scipy" in _absolute_imports(node)
    ]
    assert found == []


def test_qfunction_route_runs_without_scipy():
    # with scipy unimportable, the one route that needs a Q function still runs
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from mlnsim import EXAMPLE1_DELTA, SystemDims, make_rng, pep_qfunction_mc\n"
        "e = pep_qfunction_mc('unitary', EXAMPLE1_DELTA, SystemDims(2, 2, 2, 2), 10.0, 1000, make_rng(1))\n"
        "print(0.0 < e.value < 1.0)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_no_function_level_imports():
    # a deferred package import hides an import cycle (presets once imported config
    # inside get_preset), and a deferred third-party one a dependency
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
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


def _is_dataclass(node):
    return "dataclass" in {ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}


def test_array_holding_dataclasses_compare_by_value():
    # a dataclass's generated __eq__ compares array fields with ==, which raises on any
    # array of more than one entry; codes.ByValue compares them by shape and bytes
    found = [
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        and any(isinstance(f, ast.AnnAssign) and "ndarray" in ast.unparse(f.annotation) for f in node.body)
        and "ByValue" not in [ast.unparse(b) for b in node.bases]
    ]
    assert found == []
