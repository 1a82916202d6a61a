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
