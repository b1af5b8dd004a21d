"""No public function or method that only tests reach.

Every public module-level function and every public method of
``src/gencourant`` must be named somewhere in ``src/gencourant`` or
``scripts/`` outside its own definition, or be listed in ``KEPT`` with the
reason it stays.  Names are matched as identifiers, not resolved to their
definitions, with one distinction: a module function counts as named by a
bare name, by an import, or as ``alias.name`` on a module alias (``ex.evaluate``);
a method counts only as an attribute of a value that is not a module
(``self.max_abs``, ``betas.max_abs``).  So a dead method is no longer hidden
by a live module function of the same name.  What is left unseen is a dead
method that shares its name with a live method or attribute of another
class, and a name in use is never reported.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gencourant"
SCRIPTS = ROOT / "scripts"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

KEPT = {}


def _public_definitions():
    """(qualified name, def node, path, is a method) of every public
    module-level function and public method of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node, path, False
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub, path, True


def _module_aliases(tree) -> set:
    """The names a file binds to modules: ``import m [as a]``, and
    ``from . import m [as a]`` or ``from gencourant import m [as a]``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level and not node.module
                                                   or node.module == "gencourant"):
            out.update(a.asname or a.name for a in node.names if a.name in MODULES)
    return out


def _references() -> tuple:
    """(function refs, method refs): identifier -> [(path, line)] of each
    place the package or a script names it as a module function, and as an
    attribute of a value that is not a module."""
    functions, methods = {}, {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = _module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                functions.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    functions.setdefault(alias.name, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                on_module = isinstance(node.value, ast.Name) and node.value.id in modules
                (functions if on_module else methods).setdefault(node.attr, []).append(
                    (path, node.lineno))
    return functions, methods


def unreached() -> list:
    """Qualified names of the public definitions named nowhere outside
    their own bodies."""
    functions, methods = _references()
    out = []
    for qual, node, path, is_method in _public_definitions():
        refs = (methods if is_method else functions).get(node.name, ())
        outside = [(p, line) for p, line in refs
                   if not (p == path and node.lineno <= line <= node.end_lineno)]
        if not outside:
            out.append(qual)
    return out


def test_every_public_definition_is_reached_outside_the_tests():
    dead = [qual for qual in unreached() if qual not in KEPT]
    assert not dead, "reached only by tests, or by nothing: " + ", ".join(dead)


def test_importing_the_verifier_loads_no_test_only_module():
    """A process that runs the verifier (as ``perfbench/sample.py`` does:
    numpy and the stdlib first, then ``gencourant.cli`` and ``scene``)
    imports neither ``dataclasses`` nor the exact-rational stack, whose
    import is a cost every process pays."""
    code = ("import argparse, functools, hashlib, json, math, resource, sys, time\n"
            "from pathlib import Path\n"
            "import numpy\n"
            "from gencourant import cli, scene\n"
            "print(sorted({'dataclasses', 'fractions', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_kept_names_are_defined():
    defined = {qual for qual, _, _, _ in _public_definitions()}
    assert sorted(set(KEPT) - defined) == []
