"""Jets: ``evaluate_jets`` values roots and their first partials by the
forward (tangent) pass, against the symbolic derivative it replaces on the
curvature path; its memo; and the DomainError of a derivative that is
singular where the value is not."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencourant import expr as ex
from gencourant.errors import DomainError
from gencourant.expr import (
    Const,
    chart,
    differentiate,
    evaluate_jets,
    evaluate_points,
    parse_expr,
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


def _outcome(evaluate, roots, points):
    try:
        return evaluate(roots, points), None
    except DomainError as err:
        return None, err


def _symbolic_partials(fields, points):
    """[field, m, point] from the symbolic derivatives."""
    derivs = evaluate_points([differentiate(f, c) for f in fields for c in (X, Y)], points)
    return derivs.reshape(len(fields), 2, len(points))


@settings(max_examples=200, deadline=None)
@given(cases())
def test_jets_match_symbolic_derivatives(case):
    fields, points = case
    values, partials = evaluate_jets(fields, points)
    want = _symbolic_partials(fields, points)
    assert partials.shape == (len(fields), 2, len(points))
    np.testing.assert_array_equal(values, evaluate_points(fields, points))
    np.testing.assert_allclose(partials, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(cases(unsafe=True))
def test_jets_raise_where_symbolic_derivatives_do(case):
    fields, points = case
    got, got_err = _outcome(evaluate_jets, fields, points)
    want, want_err = _outcome(_symbolic_partials, fields, points)
    if want_err is not None:
        assert got_err is not None
    elif got_err is not None:
        # the jets also value the fields themselves, where a symbolic
        # derivative may skip a singular node (d ln(u) = du/u), and they
        # take every direction at once
        _, value_err = _outcome(evaluate_points, fields, points)
        assert value_err is not None or "derivative" in str(got_err)
    else:
        np.testing.assert_allclose(got[1], want, rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(cases(unsafe=True))
def test_jet_errors_do_not_depend_on_the_walk(case):
    # the vector pass and the per-point walk at the first failing point
    # raise the same DomainError
    roots, points = case
    _, err = _outcome(evaluate_jets, roots, points)
    if err is None:
        return
    for p in points:
        _, at_point = _outcome(evaluate_jets, roots, [p])
        if at_point is not None:
            assert str(at_point) == str(err)
            break
    else:
        pytest.fail("the per-point walk raised nowhere")


def test_jets_combine_into_a_derivative_formula():
    f = parse_expr("x^3*sin(x*y) + exp(y)/(1 + x^2)", XY)
    g = parse_expr("cos(x) - y", XY)
    exact = ex.add(ex.mul(g, differentiate(f, X)), ex.mul(differentiate(f, Y), differentiate(g, X)), f)
    for points in (XY.sample_points()[:1], XY.sample_points()):
        (fv, gv), ((fx, fy), (gx, _)) = evaluate_jets([f, g], points)
        np.testing.assert_allclose(gv * fx + fy * gx + fv, evaluate_points([exact], points)[0],
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("count", [1, 12])
def test_jets_of_constants_and_coordinates(count):
    points = XY.sample_points()[:count]
    values, partials = evaluate_jets([Const(2.0), X, Y, ex.sqrt(Const(-1.0) * Const(-1.0))], points)
    np.testing.assert_array_equal(values[:2], [[2.0] * count, [p[0] for p in points]])
    np.testing.assert_array_equal(partials[0], 0.0)
    np.testing.assert_array_equal(partials[1], [[1.0] * count, [0.0] * count])
    np.testing.assert_array_equal(partials[2], [[0.0] * count, [1.0] * count])
    np.testing.assert_array_equal(partials[3], 0.0)


def test_one_point_values_go_through_evaluate_many(monkeypatch):
    # the per-point walk is the reference, and the one that a caller
    # wrapping evaluate_many sees
    calls = []
    many = ex.evaluate_many
    monkeypatch.setattr(ex, "evaluate_many", lambda *a: calls.append(a) or many(*a))
    f = parse_expr("x*y*exp(x - y)", XY)
    evaluate_jets([f], XY.sample_points()[:1])
    assert len(calls) == 1
    evaluate_jets([f], XY.sample_points())
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the memo
# ---------------------------------------------------------------------------


def _count_tangent_nodes(monkeypatch):
    seen = []
    node = ex._tangent_node
    monkeypatch.setattr(ex, "_tangent_node", lambda e, *a: seen.append(e) or node(e, *a))
    return seen


def test_one_pass_gives_every_direction(monkeypatch):
    f = parse_expr("x*y*exp(x - y)", XY)
    seen = _count_tangent_nodes(monkeypatch)
    _, partials = evaluate_jets([f], XY.sample_points())
    assert sum(e is f for e in seen) == 1
    np.testing.assert_allclose(partials, _symbolic_partials([f], XY.sample_points()),
                               rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# derivatives singular where the value is not
# ---------------------------------------------------------------------------

POINT_SETS = {
    "1pt": [(0.0, 0.5)],
    "3pt": [(0.5, 0.5), (0.0, 0.5), (0.0, 1.0)],
}


@pytest.mark.parametrize("points", sorted(POINT_SETS))
@pytest.mark.parametrize("text, named", [
    ("sqrt(x*x)*y", "sqrt(x*x)"),
    ("sqrt(x)", "sqrt(x)"),
    # every direction is taken at once: d/dy sqrt(x) is 0, but the pass
    # that gives it also gives d/dx
    ("sqrt(x) + y", "sqrt(x)"),
])
def test_sqrt_at_zero_names_the_node_of_f(text, named, points):
    f = parse_expr(text, XY)
    with pytest.raises(DomainError) as err:
        evaluate_jets([Y, f], POINT_SETS[points])
    evaluate_points([f], POINT_SETS[points])  # the value is finite
    assert str(err.value) == f"sqrt at zero has no derivative in subexpression '{named}'"
    assert any(e is err.value.subexpr for e in _nodes(f))


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("text, message, named, symbolic", [
    # (1e-170*x)^2 underflows to 0, and the quotient rule divides by it
    ("1/(1e-170*x)", "the derivative of a quotient divides by zero", "1/(1e-170*x)",
     "division by zero in subexpression '(-1e-170)/0'"),
    # x^(-1) is finite at x = 1e-160, x^(-2) is not
    ("(1e-160*x)^(-1) + y", "overflow in a derivative", "(1e-160*x)^(-1)",
     "overflow in subexpression '(1e-160*x)^(-2)'"),
])
def test_singular_derivative_names_the_node_of_f(text, message, named, symbolic, count):
    f = parse_expr(text, XY)
    points = [(1.0, 0.5)] * count
    with pytest.raises(DomainError) as err:
        evaluate_jets([f], points)
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
