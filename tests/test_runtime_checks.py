"""Runtime checks in the package raise typed exceptions; an `assert`
would vanish under `python -O`."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "quivhom"
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def test_every_module_is_checked():
    assert "modules.py" in MODULES and "stable.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_statements(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"assert statements in {module} at lines {lines}"


def _top_level_imports(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, for each top-level import but __future__'s."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return bound


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_every_top_level_import_is_used(module):
    tree = ast.parse((SRC / module).read_text(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _top_level_imports(tree).items() if name not in used}
    assert not unused, f"unused imports in {module}: {unused}"
