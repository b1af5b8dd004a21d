"""No public function or method that only tests reach.

Every public module-level function and every public method of
``src/gencourant`` must be named somewhere in ``src/gencourant`` or
``scripts/`` outside its own definition, or be listed in ``KEPT`` with the
reason it stays.  Names are matched as identifiers (``Name`` and
``Attribute`` nodes of the AST), not resolved to their definitions: a dead
method that shares its name with a live attribute elsewhere goes unseen,
but a name in use is never reported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gencourant"
SCRIPTS = ROOT / "scripts"

KEPT = {
    "expr.simplify": "exported in the package's __all__",
    "expr.SplitMix64.randint": "completes the generator's draws next to uniform",
    "tensors.scalar_field": "field constructor",
    "tensors.kronecker": "field constructor",
    "tensors.euclidean_metric": "field constructor",
    "riemann.divergence_oneform": "classical oracle of the acceptance tests",
    "gconn.v_trace": "partial-trace oracle of the acceptance tests",
    "gconn.lc_parameter_space_dim": "dimension count checked by the acceptance tests",
    "gconn.qla_lc": "exact-rational quadratic Lie algebra case, an independent oracle",
    "gconn.qla_torsion": "exact-rational quadratic Lie algebra case, an independent oracle",
    "gconn.qla_compat_residual": "exact-rational quadratic Lie algebra case, an independent oracle",
}


def _public_definitions():
    """(qualified name, def node, path) of every public module-level
    function and public method of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node, path
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{sub.name}", sub, path


def _references() -> dict:
    """identifier -> [(path, line)] of each place the package or a script
    names it."""
    refs: dict = {}
    for path in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
    return refs


def unreached() -> list:
    """Qualified names of the public definitions named nowhere outside
    their own bodies."""
    refs = _references()
    out = []
    for qual, node, path in _public_definitions():
        outside = [(p, line) for p, line in refs.get(node.name, ())
                   if not (p == path and node.lineno <= line <= node.end_lineno)]
        if not outside:
            out.append(qual)
    return out


def test_every_public_definition_is_reached_outside_the_tests():
    dead = [qual for qual in unreached() if qual not in KEPT]
    assert not dead, "reached only by tests, or by nothing: " + ", ".join(dead)


def test_kept_names_are_defined():
    defined = {qual for qual, _, _ in _public_definitions()}
    assert sorted(set(KEPT) - defined) == []
