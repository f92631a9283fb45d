"""Source hygiene, from the standard library alone: the package's line length, and imports
that nothing reads in the package or its tests (an ast scan)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "tripod_stirap").glob("*.py"))
MAX_LINE = 100


def _unused_imports(path: Path) -> list[str]:
    """Names an import binds that no expression of the module reads or its __all__ lists."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({alias.asname or alias.name.split(".")[0]: node.lineno
                          for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({alias.asname or alias.name: node.lineno for alias in node.names})
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", PACKAGE + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_import_is_read(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_package_lines_fit_in_100_characters(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [f"{path.name}:{i}" for i, line in enumerate(lines, 1) if len(line) > MAX_LINE] == []
