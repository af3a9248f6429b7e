"""No library module imports a name it never uses.

The project runs no linter, so this is the F401 check over
`src/tiledflow/*.py`, by the standard library's `ast`: a name bound by
an import must be read somewhere in the module, in code or in an
annotation (string annotations included).  `__init__.py`, the one
module that re-exports by importing, is left out.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tiledflow"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list[str]:
    """'line: name' for every imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            if annotation is not None:
                used |= _annotation_names(annotation)
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_every_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .lattice import (\n"
        "    Dims,\n"
        "    check_in_grid,\n"
        "    window_plan,  # noqa: F401\n"
        ")\n"
        "import os.path\n"
        "def f(x: 'Dims') -> np.ndarray:\n"
        "    return x\n"
    )
    assert unused_imports(source) == ["5: check_in_grid", "6: window_plan", "8: os"]
