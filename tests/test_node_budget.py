"""Node budgets: how many distinct expression nodes the checks evaluate.

Building and evaluating the DAG costs about the same per node, so the count
of distinct nodes under the roots that ``evaluate_points`` and
``evaluate_jets`` receive during ``cli.run_command`` tracks the time to a
verdict.  A budget that fails means the same checks now build more nodes
than they need.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from gencourant import cli
from gencourant import expr as ex
from gencourant.scene import scene_from_dict

ROOT = Path(__file__).resolve().parent.parent


def generated_scene(seed, points):
    """The 4-D scene of ``scripts/make_scene.py --dim 4 --invertible-b``."""
    spec = importlib.util.spec_from_file_location("make_scene", ROOT / "scripts" / "make_scene.py")
    make_scene = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_scene)
    return scene_from_dict(make_scene.build(dim=4, seed=seed, invertible_b=True, scale=0.25, points=points))


def evaluated_nodes(monkeypatch, command, scene) -> int:
    """Distinct nodes under every root that ``evaluate_points`` or
    ``evaluate_jets`` receives while ``command`` runs on ``scene``.  The
    roots are kept, so no node id is reused while they are counted."""
    roots = []

    def recording(evaluate):
        def record(exprs, points):
            exprs = list(exprs)
            roots.extend(exprs)
            return evaluate(exprs, points)
        return record

    for name in ("evaluate_points", "evaluate_jets"):
        monkeypatch.setattr(ex, name, recording(getattr(ex, name)))
    report = cli.run_command(command, scene)
    assert report.passed
    seen = set()
    stack = list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen.add(id(e))
            stack.extend(e.children())
    return len(seen)


def test_central_on_the_4d_scene_node_budget(monkeypatch):
    assert evaluated_nodes(monkeypatch, "central", generated_scene(1, 1)) <= 19_785


def test_all_on_poly2d_node_budget(monkeypatch):
    doc = json.loads((ROOT / "scenes" / "poly2d.json").read_text())
    assert evaluated_nodes(monkeypatch, "all", scene_from_dict(doc)) <= 6_350
