"""Node and contraction budgets: how many distinct expression nodes a
command values, and how many einsums it calls.

Building and evaluating the DAG costs about the same per node, so the count
of distinct nodes under the roots that ``evaluate_points`` receives while a
scene is loaded (its fields' jets are taken then) and a command runs on it
tracks the time to a verdict.  After the load every quantity is a small
float array, and the time goes to the einsum calls, by their count and by
how many operands each loops over at once.  A budget that fails means the
same checks now build more nodes, or call more or larger einsums, than
they need.
"""

import importlib.util
import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gencourant import cli
from gencourant import expr as ex
from gencourant import tensors as tn
from gencourant.scene import scene_from_dict

ROOT = Path(__file__).resolve().parent.parent


def generated_scene(seed, points):
    """The document of the 4-D scene of ``scripts/make_scene.py --dim 4
    --invertible-b``."""
    spec = importlib.util.spec_from_file_location("make_scene", ROOT / "scripts" / "make_scene.py")
    make_scene = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_scene)
    return make_scene.build(dim=4, seed=seed, invertible_b=True, scale=0.25, points=points)


def evaluated_nodes(monkeypatch, command, doc) -> int:
    """Distinct nodes under every root that ``evaluate_points`` receives
    while ``scene_from_dict`` loads ``doc`` and ``command`` runs on it.  The
    roots are kept, so no node id is reused while they are counted."""
    roots = []
    evaluate = ex.evaluate_points

    def record(exprs, points):
        exprs = list(exprs)
        roots.extend(exprs)
        return evaluate(exprs, points)

    monkeypatch.setattr(ex, "evaluate_points", record)
    report = cli.run_command(command, scene_from_dict(doc))
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
    # 2,185 measured, plus ~4% headroom
    assert evaluated_nodes(monkeypatch, "central", generated_scene(1, 1)) <= 2_272


def test_all_on_poly2d_node_budget(monkeypatch):
    doc = json.loads((ROOT / "scenes" / "poly2d.json").read_text())
    assert evaluated_nodes(monkeypatch, "all", doc) <= 54


def test_all_on_poly3d_node_budget(monkeypatch):
    # 77 measured, plus ~4% headroom
    doc = json.loads((ROOT / "scenes" / "poly3d.json").read_text())
    assert evaluated_nodes(monkeypatch, "all", doc) <= 80


def loop_size(spec, operands) -> int:
    """How many index combinations an einsum loops over: the product of the
    extents of its distinct index letters, the point axis (the last axis of
    its first operand) left out.  Axes under an ellipsis count as letters
    of their own, aligned from the right."""
    extents = {}
    for labels, operand in zip(spec.replace(" ", "").split("->")[0].split(","), operands):
        shape = np.shape(operand)
        head, dots, tail = labels.partition("...")
        middle = len(shape) - len(head) - len(tail) if dots else 0
        names = list(head) + [f"...{k - middle}" for k in range(middle)] + list(tail)
        if len(extents) == 0:
            point = names[-1]
        for name, extent in zip(names, shape):
            extents[name] = max(extents.get(name, 1), extent)
    extents.pop(point)
    return int(np.prod(list(extents.values())))


def einsum_calls(monkeypatch, command, doc) -> list:
    """(operand count, loop size) of every ``tn.einsum`` call while
    ``command`` runs on the scene ``doc`` (loaded before the count starts).
    Every contraction of the package reads that one attribute, so a record
    without a call means a contraction went round it."""
    scene = scene_from_dict(doc)
    calls = []
    einsum = tn.einsum

    def record(spec, *operands, **kwargs):
        calls.append((len(operands), loop_size(spec, operands)))
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(tn, "einsum", record)
    assert cli.run_command(command, scene).passed
    assert calls
    return calls


def test_no_module_calls_np_einsum():
    # np.einsum runs numpy's __array_function__ dispatch on every call, and
    # a call of it would escape the count of einsum_calls
    src = ROOT / "src" / "gencourant"
    assert [path.name for path in sorted(src.glob("*.py"))
            if re.search(r"\bnp\.einsum\(", path.read_text())] == []


def test_einsum_is_numpys_undispatched_function():
    # a numpy that stops exposing the implementation under __wrapped__ fails
    # here, instead of paying for the dispatch again without a sign
    assert tn.einsum is inspect.unwrap(np.einsum)
    assert tn.einsum is not np.einsum


def test_central_on_the_4d_scene_contracts_at_most_three_operands_at_once(monkeypatch):
    # the deformation tensor's three-leg terms are contracted a leg at a
    # time: one einsum over g, g, g and J loops over all six indices at once
    calls = einsum_calls(monkeypatch, "central", generated_scene(1, 1))
    assert [c for c, _ in calls if c > 3] == []


def test_all_on_poly2d_contracts_at_most_three_operands_at_once(monkeypatch):
    # H'(theta ., theta ., theta .), the Schouten residual's twist term and
    # the index form of beta_g are contracted a leg at a time
    doc = json.loads((ROOT / "scenes" / "poly2d.json").read_text())
    assert [c for c, _ in einsum_calls(monkeypatch, "all", doc) if c > 3] == []


def test_central_on_the_4d_scene_loops_over_at_most_2n_to_the_fourth_indices(monkeypatch):
    # (2n)^4 = 8^4: the Ricci tensor is contracted term by term with its
    # trace, so no einsum builds the (2n)^4 curvature tensor of the dilaton
    # connection, whose terms loop over (2n)^5 combinations each
    calls = einsum_calls(monkeypatch, "central", generated_scene(1, 1))
    assert max(loop for _, loop in calls) <= 8 ** 4


def test_central_on_the_4d_scene_einsum_budget(monkeypatch):
    # 81 measured, plus ~4% headroom: H' is raised once for the minimal
    # connection, the dilaton's zero J adds no legs to K, and the block
    # picture's B = None adds no B terms to the Gram pair
    assert len(einsum_calls(monkeypatch, "central", generated_scene(1, 1))) <= 84


def test_all_on_poly2d_einsum_budget(monkeypatch):
    # 457 measured, plus ~7% headroom; the Gram pair is built from n x n
    # blocks, not from dense e^{+-B} products, and the axioms suite brackets
    # each pair once
    doc = json.loads((ROOT / "scenes" / "poly2d.json").read_text())
    assert len(einsum_calls(monkeypatch, "all", doc)) <= 488
