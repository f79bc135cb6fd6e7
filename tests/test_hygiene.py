"""Static checks over the package sources."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import pmlwave

MODULES = sorted(p for p in Path(pmlwave.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
REPO = Path(__file__).resolve().parents[1]
# Module, test and script file names are distinct, so the bare name identifies each file.
SCANNED = MODULES + sorted([*(REPO / "tests").glob("*.py"), *(REPO / "scripts").glob("*.py")])


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


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: p.name)
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


CALLERS = sorted([*Path(pmlwave.__file__).parent.glob("*.py"), *(REPO / "scripts").glob("*.py"),
                  *(REPO / "perfbench").glob("*.py")])


def referenced_names(sources) -> set:
    """Every Name and Attribute in the sources, and the leaf of each HOOKS target.

    perfbench's HOOKS entries name the functions they wrap in strings.
    """
    names = set()
    for source in sources:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Assign) and
                  any(isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets)):
                names.update(attr.rpartition(".")[2]
                             for _, _, attr in ast.literal_eval(node.value))
    return names


def uncalled_functions(source: str, referenced: set, exported) -> list:
    """Module-level functions of source that no caller names and the package does not export."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sorted(f"{node.name} (line {node.lineno})" for node in ast.parse(source).body
                  if isinstance(node, kinds) and node.name not in referenced
                  and node.name not in exported)


def test_scan_finds_an_uncalled_function():
    module = ("def used():\n    return 1\n\n"
              "def exported():\n    return 2\n\n"
              "def hooked():\n    return 3\n\n"
              "def planted():\n    return used()\n")
    caller = "HOOKS = ((\"layer.hooked\", \"pkg.mod\", \"Owner.hooked\"),)\n"
    referenced = referenced_names([module, caller])
    assert uncalled_functions(module, referenced, ["exported"]) == ["planted (line 10)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_function_has_a_caller_or_is_exported(path):
    referenced = referenced_names(p.read_text(encoding="utf-8") for p in CALLERS)
    assert uncalled_functions(path.read_text(encoding="utf-8"), referenced,
                              pmlwave.__all__) == []


# Default-valued parameters that only tests set, each kept on purpose.
TEST_SEAMS = {
    "run.initial": "tests start free runs from a given (u, v) state",
    "assemble_stiffness.direction": "the tests' reference for the Laplace K_x and K_y factors",
    "pcg.maxiter": "reaches the non-convergence error",
}


def unset_defaults(module_sources, caller_sources) -> list:
    """Default-valued parameters of module functions and methods that no caller sets.

    A parameter counts as set by a call of its function's name, or of its class's name for
    __init__, that passes it by keyword or by position (a *args or **kwargs sets them all).
    Methods drop their first parameter, which the attribute call binds. Calls match by
    bare name, so a same-named call elsewhere can hide an unset parameter, never invent one.
    """
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef)
    params = {}  # call name -> [(qualified name, position or None, keyword)]
    for source in module_sources:
        tree = ast.parse(source)
        funcs = [(node.name, node.name, node, 0) for node in tree.body if isinstance(node, kinds)]
        funcs += [(cls.name if node.name == "__init__" else node.name,
                   f"{cls.name}.{node.name}", node, 1)
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body if isinstance(node, kinds)]
        for call, qual, fn, bound in funcs:
            a = fn.args
            positional = (a.posonlyargs + a.args)[bound:]
            pos_defaults = positional[len(positional) - len(a.defaults):]
            kw_defaults = [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            params.setdefault(call, []).extend(
                [(f"{qual}.{p.arg}", positional.index(p), p.arg) for p in pos_defaults]
                + [(f"{qual}.{p.arg}", None, p.arg) for p in kw_defaults])
    unset = {qual for entries in params.values() for qual, _, _ in entries}
    for source in caller_sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)]
            n_pos = starred[0] if starred else len(node.args)
            keywords = {kw.arg for kw in node.keywords}
            for qual, pos, kw in params.get(name, ()):
                if (kw in keywords or None in keywords or starred
                        or (pos is not None and pos < n_pos)):
                    unset.discard(qual)
    return sorted(unset)


def test_scan_finds_a_default_no_caller_sets():
    module = ("def f(a, b=1, *, c=2, d=3):\n    return a, b, c, d\n\n"
              "class K:\n"
              "    def __init__(self, x=0):\n        self.x = x\n"
              "    def m(self, y=0, z=0):\n        return y, z\n")
    caller = "f(0, 1, d=4)\nK(5).m(6)\n"
    assert unset_defaults([module], [caller]) == ["K.m.z", "f.c"]


def test_scan_counts_unpacked_arguments_as_setting_every_default():
    module = "def f(a, b=1, *, c=2):\n    return a, b, c\n\ndef g(x=0):\n    return x\n"
    assert unset_defaults([module], ["f(*args)\ng(**kw)\n"]) == []
    assert unset_defaults([module], ["f(0, *rest)\n"]) == ["g.x"]
    assert unset_defaults([module], ["f(0)\ng()\n"]) == ["f.b", "f.c", "g.x"]


def test_every_default_has_a_caller_outside_tests():
    callers = [p for p in CALLERS if not p.name.startswith("test_")]
    found = unset_defaults([p.read_text(encoding="utf-8") for p in MODULES],
                           [p.read_text(encoding="utf-8") for p in callers])
    assert found == sorted(TEST_SEAMS)
