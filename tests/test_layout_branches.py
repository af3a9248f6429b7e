"""The engine does not tell its layouts or its replies apart by type.

Read from `src/tiledflow/*.py` with the standard library's `ast`:
- `AgreedField` is tested for in one place, `flowcore.layout_field`,
  which takes it as Z's new values, so no combine or `window_order`
  sees one;
- no layout type (`PatchGrid`, `SparseWindowPlan`, `DilatedPartition`)
  is tested for in `patchwork`, in `layout_field`, or in
  `VectorFieldProvider.evaluate_windows`: each layout answers the same
  members.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tiledflow"
LAYOUTS = {"PatchGrid", "SparseWindowPlan", "DilatedPartition"}


def isinstance_checks(source: str) -> list[tuple[str, set[str]]]:
    """(qualified scope, names tested for) of every `isinstance` call,
    the scope being the enclosing classes and functions joined by dots."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "isinstance"
                and len(child.args) == 2
            ):
                names = {n.id for n in ast.walk(child.args[1]) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(child.args[1]) if isinstance(n, ast.Attribute)}
                found.append((inner, names))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def _checks():
    for path in sorted(SRC.glob("*.py")):
        for scope, names in isinstance_checks(path.read_text()):
            yield f"{path.stem}.{scope}" if scope else path.stem, names


def test_agreed_field_is_tested_for_only_in_layout_field():
    scopes = [scope for scope, names in _checks() if "AgreedField" in names]
    assert scopes == ["flowcore.layout_field"]


def test_no_layout_type_branch_in_the_layout_interface():
    branches = [
        scope
        for scope, names in _checks()
        if names & LAYOUTS
        and (
            scope.startswith("patchwork")
            or scope == "flowcore.layout_field"
            or scope == "flowcore.VectorFieldProvider.evaluate_windows"
        )
    ]
    assert branches == []


def test_check_finds_branches_by_scope():
    source = (
        "class VectorFieldProvider:\n"
        "    def evaluate_windows(self, Z, layout):\n"
        "        if isinstance(layout, (PatchGrid, patchwork.DilatedPartition)):\n"
        "            pass\n"
        "def layout_field(reply):\n"
        "    return isinstance(reply, AgreedField)\n"
        "x = isinstance(1, int)\n"
    )
    assert isinstance_checks(source) == [
        ("VectorFieldProvider.evaluate_windows", {"PatchGrid", "patchwork", "DilatedPartition"}),
        ("layout_field", {"AgreedField"}),
        ("", {"int"}),
    ]
