"""Static checks over the package sources."""

import ast
import subprocess
import sys
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


def unread_parameters(source: str) -> list:
    """Parameters of module-level functions and methods that their body never reads.

    Functions nested in another function, such as kappa_fn(x, y) callbacks
    that must match a fixed signature, are not scanned.
    """
    tree = ast.parse(source)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    funcs = [(node.name, node) for node in tree.body if isinstance(node, kinds)]
    funcs += [(f"{cls.name}.{node.name}", node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) for node in cls.body if isinstance(node, kinds)]
    unread = []
    for name, fn in funcs:
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [v for v in (a.vararg, a.kwarg) if v]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{name}.{p.arg} (line {fn.lineno})" for p in params if p.arg not in read]
    return sorted(unread)


def test_scan_finds_an_unread_parameter():
    # a is read only by the nested callback, whose own x and y are exempt.
    src = ("def f(a, b, *, c=1):\n"
           "    def cb(x, y):\n"
           "        return a\n"
           "    b = cb(0, 0)\n"
           "\n"
           "class K:\n"
           "    def m(self, *args, t):\n"
           "        return self, t\n")
    assert unread_parameters(src) == ["K.m.args (line 7)", "f.b (line 1)", "f.c (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_cli_import_leaves_the_laplace_lab_unloaded():
    # The Laplace lab and its sparse direct solver stay off the time-domain start-up path.
    lazy = ["pmlwave.laplace", "scipy.sparse.linalg", "scipy.io"]
    code = ("import sys, pmlwave.cli\n"
            f"print(*[m for m in {lazy!r} if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=Path(pmlwave.__file__).parent.parent, check=True)
    assert proc.stdout.split() == []
