"""Static checks over the package sources."""

import ast
from pathlib import Path

import pytest

import pmlwave

MODULES = sorted(p for p in Path(pmlwave.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import statement that no other expression of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    src = "import os\nfrom numpy import pi as tau, e\n\nprint(e)\n"
    assert unused_imports(src) == ["os (line 1)", "tau (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
