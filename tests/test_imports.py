"""What the package's modules import, and what their functions take.

Every name a module imports is used in that module: no linter runs on the
package, so this stands in for an unused-import rule. __init__.py is
skipped there: its imports are the package's re-exports. Likewise every
parameter of a def or lambda is read in its body, so no function takes
an argument it ignores.

numpy is the only third-party runtime dependency: no module imports
scipy, and importing the package and its CLI loads none of it.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "braidseg"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_package_has_modules_to_check():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    src = "from __future__ import annotations\nimport os\nfrom a import b, c as d\nd()\n"
    assert unused_imports(src) == [(2, "os"), (3, "b")]


def unused_params(source):
    """(line, name) of each parameter of a def or lambda that its body
    never reads; self, cls and names starting with _ are exempt. An
    augmented assignment reads its target."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set()
        for sub in (n for stmt in body for n in ast.walk(stmt)):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.AugAssign) and isinstance(sub.target, ast.Name):
                read.add(sub.target.id)
        found += [(p.lineno, p.arg) for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")
                  and not p.arg.startswith("_")]
    return sorted(found)


def test_every_parameter_is_read():
    found = {p.name: unused_params(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_an_unused_parameter():
    src = ("def f(self, a, b, *args, c=1, _d=2, **kw):\n    return a + kw['x']\n"
           "class K:\n    @classmethod\n    def g(cls, acc, t):\n"
           "        acc += 1\n        h = lambda g, need: g\n"
           "        def inner(): return t\n        return inner\n")
    assert unused_params(src) == [(1, "args"), (1, "b"), (1, "c"), (7, "need")]


def scipy_imports(source):
    """(line, module) of every import of scipy or a scipy submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return [(line, name) for line, name in found if name.partition(".")[0] == "scipy"]


def test_no_module_imports_scipy():
    found = {p.name: scipy_imports(p.read_text()) for p in sorted(PACKAGE.rglob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_check_sees_a_scipy_import():
    src = ("import numpy\nfrom scipy import special as _sp\nimport scipy.ndimage as nd\n"
           "from . import scipy_like\nfrom scipyx import y\n")
    assert scipy_imports(src) == [(2, "scipy"), (3, "scipy.ndimage")]


def test_importing_the_package_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = ("import sys, braidseg, braidseg.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"
