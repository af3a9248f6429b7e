"""`tiledflow.__all__` states the public surface.

The names that the README, the demos, the benchmark, the CLI and the
acceptance tests import from tiledflow are read from their source with
`ast`.  Each must resolve, each imported from the package itself must be
in `__all__`, and every name in `__all__` must resolve.
"""

import ast
import importlib
import re
from pathlib import Path

import tiledflow
from tiledflow import errors

ROOT = Path(__file__).resolve().parent.parent


def caller_sources():
    """(label, source) of every caller that states the public surface."""
    readme = (ROOT / "README.md").read_text()
    for n, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md block {n}", block
    paths = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    paths += [ROOT / "src" / "tiledflow" / "cli.py", ROOT / "tests" / "test_acceptance.py"]
    for path in paths:
        yield str(path.relative_to(ROOT)), path.read_text()


def imported_names():
    """(label, module, name) of every `from tiledflow... import name`;
    relative imports (in the CLI) are read against the package."""
    found = []
    for label, source in caller_sources():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level:
                module = ".".join(filter(None, ["tiledflow", module]))
            if module == "tiledflow" or module.startswith("tiledflow."):
                found += [(label, module, alias.name) for alias in node.names]
    return found


IMPORTS = imported_names()


def resolves(module, name):
    owner = importlib.import_module(module)
    if hasattr(owner, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_imported_names_resolve():
    # the parse finds the package-level imports of the demos and the benchmark
    assert {"Dims", "tensorio", "pipeline"} <= {name for _, module, name in IMPORTS if module == "tiledflow"}
    unresolved = [f"{label}: {module}.{name}" for label, module, name in IMPORTS if not resolves(module, name)]
    assert not unresolved


def test_top_level_imports_are_in_all():
    top = {name for _, module, name in IMPORTS if module == "tiledflow"}
    assert top <= set(tiledflow.__all__), sorted(top - set(tiledflow.__all__))


def test_every_name_in_all_resolves():
    assert len(set(tiledflow.__all__)) == len(tiledflow.__all__)
    missing = [name for name in tiledflow.__all__ if not hasattr(tiledflow, name)]
    assert not missing


def test_error_hierarchy_is_public():
    hierarchy = {
        name for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.TiledFlowError)
    }
    assert hierarchy <= set(tiledflow.__all__), sorted(hierarchy - set(tiledflow.__all__))
