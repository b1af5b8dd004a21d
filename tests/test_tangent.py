"""Lazy derivative nodes: the forward (tangent) pass against the symbolic
derivative it replaces on the curvature path, its memo, and the DomainError
of a derivative that is singular where the value is not."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencourant import expr as ex
from gencourant.errors import DomainError
from gencourant.expr import (
    Const,
    Tangent,
    chart,
    differentiate,
    evaluate,
    evaluate_points,
    parse_expr,
    tangent,
    to_string,
)

XY = chart("x y", seed=3, num_points=12)
X, Y = XY.coords()


# ---------------------------------------------------------------------------
# the oracle: symbolic differentiation on random DAGs of shared subtrees
# ---------------------------------------------------------------------------
#
# The safe operations keep values and derivatives of moderate size on the
# domain box, so that summing in another order (numpy against math.fsum)
# and multiplying in another association stay within the tolerance.  The
# unsafe ones are singular at some or all points: in the value, or only in
# the derivative (sqrt at an exact zero).

SAFE_OPS = {
    "add": (3, lambda a, b, c: ex.mul(1 / 3, ex.add(a, b, c))),
    "sub": (2, lambda a, b: ex.mul(0.5, ex.add(a, ex.neg(b)))),
    "mul": (3, lambda a, b, c: ex.mul(a, b, c)),
    "neg": (1, ex.neg),
    "div": (2, lambda a, b: ex.div(a, ex.add(2, b))),
    "pow": (1, lambda a: ex.powi(a, 3)),
    "invpow": (1, lambda a: ex.powi(ex.add(2, a), -2)),
    "sin": (1, ex.sin),
    "cos": (1, ex.cos),
    "exp": (1, lambda a: ex.mul(0.3, ex.exp(a))),
    "ln": (1, lambda a: ex.mul(0.9, ex.ln(ex.add(2, a)))),
    "sqrt": (1, lambda a: ex.mul(0.7, ex.sqrt(ex.add(1, a)))),
    # nodes the smart constructors would not make: unflattened, and an
    # exponent of 0 or 1 (over a coordinate, so that differentiate does not
    # fold the constant b^(k-1)); the sum is scaled back into [-1, 1]
    "raw-add": (2, lambda a, b: ex.mul(0.4, ex.Add((a, Const(0.5), b), XY))),
    "raw-mul": (2, lambda a, b: ex.Mul((Const(-0.5), a, b), XY)),
    "raw-neg": (1, lambda a: ex.Mul((a,), XY, -1.0)),
    "raw-pow": (1, lambda a: ex.Pow(ex.mul(0.5, ex.add(a, Y)), 1)),
    "raw-pow0": (1, lambda a: ex.Pow(ex.add(a, X), 0)),
}

UNSAFE_OPS = {
    "sqrt-zero": (1, lambda a: ex.sqrt(ex.add(a, ex.neg(a)))),
    "sqrt-negative": (1, lambda a: ex.sqrt(ex.add(-0.5, a))),
    "div-zero": (1, lambda a: ex.div(1, ex.add(a, ex.neg(a)))),
    "ln-nonpositive": (1, lambda a: ex.ln(ex.neg(ex.mul(a, a)))),
    "pow-zero-base": (1, lambda a: ex.powi(ex.add(a, ex.neg(a)), -2)),
}


def _pool(draw, unsafe):
    """A list of subtrees, each built over earlier ones."""
    pool = [X, Y, Const(draw(st.floats(-1, 1)))]
    ops = dict(SAFE_OPS, **UNSAFE_OPS) if unsafe else SAFE_OPS
    names = sorted(ops)
    for _ in range(draw(st.integers(1, 12))):
        arity, build = ops[draw(st.sampled_from(names))]
        pool.append(build(*[pool[draw(st.integers(0, len(pool) - 1))] for _ in range(arity)]))
    return pool


@st.composite
def cases(draw, unsafe=False):
    """(fields, points): 1 to 3 fields over one pool of shared subtrees, and
    1 or 12 sample points of a seeded chart."""
    pool = _pool(draw, unsafe)
    fields = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3))]
    c = chart("x y", seed=draw(st.integers(0, 2**16)), num_points=draw(st.sampled_from([1, 12])))
    return fields, c.sample_points()


def _outcome(roots, points):
    try:
        return evaluate_points(roots, points), None
    except DomainError as err:
        return None, err


def _scope(scoped):
    return ex.evaluation_scope() if scoped else contextlib.nullcontext()


@settings(max_examples=200, deadline=None)
@given(cases(), st.booleans())
def test_tangents_match_symbolic_derivatives(case, scoped):
    fields, points = case
    with _scope(scoped):
        got = evaluate_points([tangent(f, m) for f in fields for m in (0, 1)], points)
        want = evaluate_points([differentiate(f, c) for f in fields for c in (X, Y)], points)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(cases(unsafe=True), st.booleans())
def test_tangents_raise_where_symbolic_derivatives_do(case, scoped):
    fields, points = case
    with _scope(scoped):
        got, got_err = _outcome([tangent(f, m) for f in fields for m in (0, 1)], points)
        want, want_err = _outcome([differentiate(f, c) for f in fields for c in (X, Y)], points)
    if want_err is not None:
        assert got_err is not None
    elif got_err is not None:
        # the tangent pass also values the fields themselves, where a
        # symbolic derivative may skip a singular node (d ln(u) = du/u), and
        # it takes every direction at once
        _, value_err = _outcome(fields, points)
        assert value_err is not None or "derivative" in str(got_err)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(cases(unsafe=True))
def test_tangent_errors_do_not_depend_on_the_walk(case):
    # the vector pass, a scope, and the per-point walk at the first failing
    # point all raise the same DomainError
    fields, points = case
    roots = [ex.add(tangent(f, 1), tangent(f, 0)) for f in fields]
    _, err = _outcome(roots, points)
    if err is None:
        return
    _, first_alone = _outcome(roots[:1], points)
    with ex.evaluation_scope():
        _, first = _outcome(roots[:1], points)
        _, scoped = _outcome(roots, points)
    assert str(first) == str(first_alone)
    assert str(scoped) == str(err)
    for p in points:
        try:
            ex.evaluate_many(roots, p)
        except DomainError as at_point:
            assert str(at_point) == str(err)
            break
    else:
        pytest.fail("the per-point walk raised nowhere")


def test_tangents_inside_value_dags():
    f = parse_expr("x^3*sin(x*y) + exp(y)/(1 + x^2)", XY)
    g = parse_expr("cos(x) - y", XY)
    lazy = ex.add(ex.mul(g, tangent(f, 0)), ex.mul(tangent(f, 1), tangent(g, 0)), f)
    exact = ex.add(ex.mul(g, differentiate(f, X)), ex.mul(differentiate(f, Y), differentiate(g, X)), f)
    for points in (XY.sample_points()[:1], XY.sample_points()):
        np.testing.assert_allclose(evaluate_points([lazy], points),
                                   evaluate_points([exact], points), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# the node
# ---------------------------------------------------------------------------


def test_tangent_constructor_answers_leaves():
    assert tangent(Const(2.0), 0) is ex.ZERO
    assert tangent(3, 1) is ex.ZERO
    assert tangent(X, 0) is ex.ONE and tangent(X, 1) is ex.ZERO
    assert tangent(ex.sqrt(Const(-1.0)), 0) is ex.ZERO  # constant: no coordinate below
    node = tangent(X * Y, 1)
    assert type(node) is Tangent and node.children() == (node.arg,) and node.chart is XY
    with pytest.raises(ValueError):
        Tangent(X * Y, 2)
    with pytest.raises(ValueError):
        Tangent(Const(1.0), 0)


def test_tangent_prints_simplifies_and_differentiates():
    f = parse_expr("x*y + sin(x)", XY)
    node = tangent(f, 0)
    assert to_string(node) == "diff(x*y + sin(x), x)"
    assert to_string(ex.mul(2, node)) == "2*diff(x*y + sin(x), x)"
    raw = Tangent(ex.Add((X, Const(0.0), ex.Mul((Const(1.0), Y), XY)), XY), 1)
    assert to_string(ex.simplify(raw)) == "diff(x + y, y)"
    assert ex.simplify(Tangent(ex.Add((X, Const(0.0)), XY), 0)) is ex.ONE
    # d/dy of d/dx f is the symbolic second derivative
    assert differentiate(node, Y) is differentiate(differentiate(f, X), Y)
    p = (0.3, -0.7)
    assert evaluate(differentiate(node, Y), p) == 1.0


def test_nested_tangents_are_not_valued():
    inner = tangent(parse_expr("x*y^2", XY), 1)
    outer = Tangent(ex.mul(X, inner), 0)
    with pytest.raises(TypeError, match="does not nest"):
        evaluate(outer, (0.5, 0.5))
    # the symbolic derivative of a Tangent is a plain DAG
    assert evaluate(differentiate(inner, X), (0.5, 0.25)) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# the memo
# ---------------------------------------------------------------------------


def _count_tangent_nodes(monkeypatch):
    seen = []
    node = ex._tangent_node
    monkeypatch.setattr(ex, "_tangent_node", lambda e, *a: seen.append(e) or node(e, *a))
    return seen


@pytest.mark.parametrize("count", [1, 12])
def test_scope_shares_the_tangent_pass(monkeypatch, count):
    points = XY.sample_points()[:count]
    shared = parse_expr("sin(x*y) + x^2", XY)
    first, second = ex.mul(shared, Y), ex.mul(ex.exp(X), shared)
    seen = _count_tangent_nodes(monkeypatch)
    with ex.evaluation_scope():
        evaluate_points([tangent(first, 0)], points)
        evaluate_points([tangent(second, 1), tangent(first, 1)], points)
    assert sum(e is shared for e in seen) == 1
    assert sum(e is first for e in seen) == 1
    seen.clear()
    evaluate_points([tangent(first, 0)], points)
    evaluate_points([tangent(second, 1)], points)
    assert sum(e is shared for e in seen) == 2


def test_one_pass_gives_every_direction(monkeypatch):
    f = parse_expr("x*y*exp(x - y)", XY)
    seen = _count_tangent_nodes(monkeypatch)
    vals = evaluate_points([tangent(f, 0), tangent(f, 1)], XY.sample_points())
    assert sum(e is f for e in seen) == 1
    want = evaluate_points([differentiate(f, X), differentiate(f, Y)], XY.sample_points())
    np.testing.assert_allclose(vals, want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# derivatives singular where the value is not
# ---------------------------------------------------------------------------

POINT_SETS = {
    "1pt": [(0.0, 0.5)],
    "3pt": [(0.5, 0.5), (0.0, 0.5), (0.0, 1.0)],
}


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("points", sorted(POINT_SETS))
@pytest.mark.parametrize("text, direction, named", [
    ("sqrt(x*x)*y", 0, "sqrt(x*x)"),
    ("sqrt(x)", 0, "sqrt(x)"),
    # every direction is taken at once: d/dy sqrt(x) is 0, but the pass
    # that gives it also gives d/dx
    ("sqrt(x) + y", 1, "sqrt(x)"),
])
def test_sqrt_at_zero_names_the_node_of_f(text, direction, named, points, scoped):
    f = parse_expr(text, XY)
    with _scope(scoped):
        with pytest.raises(DomainError) as err:
            evaluate_points([ex.add(Y, tangent(f, direction))], POINT_SETS[points])
        evaluate_points([f], POINT_SETS[points])  # the value is finite
    assert str(err.value) == f"sqrt at zero has no derivative in subexpression '{named}'"
    assert any(e is err.value.subexpr for e in _nodes(f))


@pytest.mark.parametrize("scoped", [False, True], ids=["unscoped", "scoped"])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("text, message, named, symbolic", [
    # (1e-170*x)^2 underflows to 0, and the quotient rule divides by it
    ("1/(1e-170*x)", "the derivative of a quotient divides by zero", "1/(1e-170*x)",
     "division by zero in subexpression '(-1e-170)/0'"),
    # x^(-1) is finite at x = 1e-160, x^(-2) is not
    ("(1e-160*x)^(-1) + y", "overflow in a derivative", "(1e-160*x)^(-1)",
     "overflow in subexpression '(1e-160*x)^(-2)'"),
])
def test_singular_derivative_names_the_node_of_f(text, message, named, symbolic, count, scoped):
    f = parse_expr(text, XY)
    points = [(1.0, 0.5)] * count
    with _scope(scoped):
        with pytest.raises(DomainError) as err:
            evaluate_points([tangent(f, 0)], points)
        evaluate_points([f], points)
    assert str(err.value) == f"{message} in subexpression '{named}'"
    assert any(e is err.value.subexpr for e in _nodes(f))
    # the symbolic derivative named a node of its own DAG
    with pytest.raises(DomainError) as old:
        evaluate_points([differentiate(f, X)], points)
    assert str(old.value) == symbolic


def _nodes(root):
    out, stack = [], [root]
    while stack:
        e = stack.pop()
        if not any(e is o for o in out):
            out.append(e)
            stack.extend(e.children())
    return out
