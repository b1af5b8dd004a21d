"""Jets of expressions: ``tensors.jets_at`` and ``tensors.field_jets`` value
a field together with its symbolic partials (``expr.differentiate``, the one
derivative rule), in one ``expr.evaluate_points`` call; the layout of the
jets, their errors, and the values a background takes when it is made."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencourant import expr as ex
from gencourant import tensors as tn
from gencourant.errors import DomainError
from gencourant.expr import (
    Const,
    chart,
    differentiate,
    evaluate_many,
    evaluate_points,
    parse_expr,
)
from gencourant.scene import from_upper
from gencourant.streff import Background

XY = chart("x y", seed=3, num_points=12)


# ---------------------------------------------------------------------------
# random DAGs of shared subtrees
# ---------------------------------------------------------------------------
#
# The safe operations keep values and derivatives of moderate size on the
# domain box.  The unsafe ones are singular at some or all points: in the
# value, or only in the derivative (sqrt at an exact zero).

SAFE_OPS = {
    "add": (3, lambda c, a, b, d: ex.mul(1 / 3, ex.add(a, b, d))),
    "sub": (2, lambda c, a, b: ex.mul(0.5, ex.add(a, ex.neg(b)))),
    "mul": (3, lambda c, a, b, d: ex.mul(a, b, d)),
    "neg": (1, lambda c, a: ex.neg(a)),
    "div": (2, lambda c, a, b: ex.div(a, ex.add(2, b))),
    "pow": (1, lambda c, a: ex.powi(a, 3)),
    "invpow": (1, lambda c, a: ex.powi(ex.add(2, a), -2)),
    "sin": (1, lambda c, a: ex.sin(a)),
    "cos": (1, lambda c, a: ex.cos(a)),
    "exp": (1, lambda c, a: ex.mul(0.3, ex.exp(a))),
    "ln": (1, lambda c, a: ex.mul(0.9, ex.ln(ex.add(2, a)))),
    "sqrt": (1, lambda c, a: ex.mul(0.7, ex.sqrt(ex.add(1, a)))),
    # nodes the smart constructors would not make: unflattened, and an
    # exponent of 0 or 1 (over a coordinate, so that differentiate does not
    # fold the constant b^(k-1)); the sum is scaled back into [-1, 1]
    "raw-add": (2, lambda c, a, b: ex.mul(0.4, ex.Add((a, Const(0.5), b)))),
    "raw-mul": (2, lambda c, a, b: ex.Mul((Const(-0.5), a, b))),
    "raw-neg": (1, lambda c, a: ex.Mul((a,), -1.0)),
    "raw-pow": (1, lambda c, a: ex.Pow(ex.mul(0.5, ex.add(a, c.coord(1))), 1)),
    "raw-pow0": (1, lambda c, a: ex.Pow(ex.add(a, c.coord(0)), 0)),
}

UNSAFE_OPS = {
    "sqrt-zero": (1, lambda c, a: ex.sqrt(ex.add(a, ex.neg(a)))),
    "sqrt-negative": (1, lambda c, a: ex.sqrt(ex.add(-0.5, a))),
    "div-zero": (1, lambda c, a: ex.div(1, ex.add(a, ex.neg(a)))),
    "ln-nonpositive": (1, lambda c, a: ex.ln(ex.neg(ex.mul(a, a)))),
    "pow-zero-base": (1, lambda c, a: ex.powi(ex.add(a, ex.neg(a)), -2)),
}


def _pool(draw, c, unsafe):
    """A list of subtrees over the coordinates of chart ``c``, each built
    over earlier ones."""
    pool = [*c.coords(), Const(draw(st.floats(-1, 1)))]
    ops = dict(SAFE_OPS, **UNSAFE_OPS) if unsafe else SAFE_OPS
    names = sorted(ops)
    for _ in range(draw(st.integers(1, 12))):
        arity, build = ops[draw(st.sampled_from(names))]
        pool.append(build(c, *[pool[draw(st.integers(0, len(pool) - 1))] for _ in range(arity)]))
    return pool


@st.composite
def cases(draw, unsafe=False):
    """(fields, chart): a seeded chart of 1 or 12 sample points, and 1 to 3
    fields over one pool of shared subtrees on it."""
    c = chart("x y", seed=draw(st.integers(0, 2**16)), num_points=draw(st.sampled_from([1, 12])))
    pool = _pool(draw, c, unsafe)
    fields = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3))]
    return np.array(fields, dtype=object), c


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except DomainError as err:
        return None, err


def _symbolic_partials(fields, c):
    """[field, m, point] from the symbolic derivatives."""
    coords = c.coords()
    derivs = evaluate_points([differentiate(f, x) for f in fields for x in coords], c.sample_points())
    return derivs.reshape(len(fields), len(coords), -1)


@settings(max_examples=200, deadline=None)
@given(cases())
def test_jets_match_symbolic_derivatives(case):
    fields, c = case
    (values, partials), (first, second) = tn.field_jets(fields, c)
    points = c.sample_points()
    assert partials.shape == (len(fields), 2, len(points))
    assert second.shape == (len(fields), 2, 2, len(points))
    np.testing.assert_array_equal(values, evaluate_points(fields, points))
    np.testing.assert_array_equal(partials, _symbolic_partials(fields, c))
    np.testing.assert_array_equal(first, partials)
    # second[..., m, l] is the partial along x^l of the one along x^m
    want = [[_symbolic_partials([differentiate(f, x)], c)[0] for x in c.coords()] for f in fields]
    np.testing.assert_array_equal(second, np.array(want).reshape(second.shape))
    jet = tn.jets_at(fields, c)
    np.testing.assert_array_equal(jet.value, values)
    np.testing.assert_array_equal(jet.partial, partials)


@settings(max_examples=200, deadline=None)
@given(cases(unsafe=True))
def test_jets_raise_where_symbolic_derivatives_do(case):
    fields, c = case
    got, got_err = _outcome(tn.jets_at, fields, c)
    want, want_err = _outcome(_symbolic_partials, fields, c)
    if want_err is not None:
        assert got_err is not None
    elif got_err is not None:
        # the jets also value the fields themselves, where a symbolic
        # derivative may skip a singular node (d ln(u) = du/u)
        _, value_err = _outcome(evaluate_points, fields, c.sample_points())
        assert value_err is not None
    else:
        np.testing.assert_array_equal(got.partial, want)


@settings(max_examples=100, deadline=None)
@given(cases(unsafe=True))
def test_jet_errors_do_not_depend_on_the_walk(case):
    # the vector pass over all points raises the DomainError of the
    # per-point walk at the first point where that walk raises
    fields, c = case
    _, err = _outcome(tn.jets_at, fields, c)
    if err is None:
        return
    roots = np.concatenate([fields[:, None], tn.partials(fields, c)], axis=-1).reshape(-1)
    for p in c.sample_points():
        _, at_point = _outcome(evaluate_many, roots, p)
        if at_point is not None:
            assert str(at_point) == str(err)
            break
    else:
        pytest.fail("the per-point walk raised nowhere")


def test_jets_combine_into_a_derivative_formula():
    for c in (chart("x y", seed=3, num_points=1), XY):
        f = parse_expr("x^3*sin(x*y) + exp(y)/(1 + x^2)", c)
        g = parse_expr("cos(x) - y", c)
        x, y = c.coords()
        exact = ex.add(ex.mul(g, differentiate(f, x)), ex.mul(differentiate(f, y), differentiate(g, x)), f)
        (fv, gv), ((fx, fy), (gx, _)) = tn.jets_at([f, g], c)
        np.testing.assert_allclose(gv * fx + fy * gx + fv, evaluate_points([exact], c.sample_points())[0],
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("count", [1, 12])
def test_jets_of_constants_and_coordinates(count):
    c = chart("x y", seed=3, num_points=count)
    x, y = c.coords()
    points = c.sample_points()
    values, partials = tn.jets_at([Const(2.0), x, y, ex.sqrt(Const(-1.0) * Const(-1.0))], c)
    np.testing.assert_array_equal(values[:2], [[2.0] * count, [p[0] for p in points]])
    np.testing.assert_array_equal(partials[0], 0.0)
    np.testing.assert_array_equal(partials[1], [[1.0] * count, [0.0] * count])
    np.testing.assert_array_equal(partials[2], [[0.0] * count, [1.0] * count])
    np.testing.assert_array_equal(partials[3], 0.0)


def test_one_point_values_go_through_evaluate_many(monkeypatch):
    # a background's fields are valued when it is made, each in one call:
    # at one point by the per-point walk, the reference, which is what a
    # caller wrapping evaluate_many sees (the benchmark gate counts these
    # values); at several points by the vector pass, which calls it not
    calls = []
    many = ex.evaluate_many
    monkeypatch.setattr(ex, "evaluate_many", lambda *a: calls.append(a) or many(*a))
    for count, want in ((1, 4), (12, 0)):
        c = chart("x y", seed=3, num_points=count)
        g = np.array([[parse_expr("1 + x^2", c), ex.ZERO], [ex.ZERO, parse_expr("exp(x - y)", c)]],
                     dtype=object)
        B = from_upper(2, 2, {(0, 1): parse_expr("x*y", c)})
        calls.clear()
        Background(c, g, B, parse_expr("x*y*exp(x - y)", c))
        assert len(calls) == want


POINT_SETS = {
    "1pt": [(0.0, 0.5)],
    "3pt": [(0.5, 0.5), (0.0, 0.5), (0.0, 1.0)],
}


@pytest.mark.parametrize("points", sorted(POINT_SETS))
@pytest.mark.parametrize("text, named", [
    ("sqrt(x*x)*y", "sqrt(x*x)"),
    ("sqrt(x)", "sqrt(x)"),
    # d/dy sqrt(x) is 0, but the jets take every direction
    ("sqrt(x) + y", "sqrt(x)"),
])
def test_sqrt_at_zero_names_the_node_of_f(text, named, points):
    # the partial along x divides by the sqrt node of f, which is zero there
    f = parse_expr(text, XY)
    evaluate_points([f], POINT_SETS[points])  # the value is finite
    with pytest.raises(DomainError) as err:
        tn.values_at([XY.coord(1), f, *tn.partials(f, XY)], POINT_SETS[points])
    sqrt_node, = [e for e in _nodes(f) if str(e) == named]
    assert str(err.value) == f"division by zero in subexpression '{err.value.subexpr}'"
    assert any(e is err.value.subexpr for d in tn.partials(f, XY) for e in _nodes(d))
    assert any(e is sqrt_node for e in _nodes(err.value.subexpr))


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("text, x, message", [
    # (1e-170*x)^2 underflows to 0, and the quotient rule divides by it
    pytest.param("1/(1e-170*x)", 1.0, "division by zero in subexpression '(-1e-170)/0'",
                 id="quotient-underflow"),
    # x^(-1) is finite at x = 1e-160, x^(-2) is not
    pytest.param("(1e-160*x)^(-1) + y", 1.0, "overflow in subexpression '(1e-160*x)^(-2)'",
                 id="power-overflow"),
])
def test_a_derivative_singular_where_the_value_is_not_names_its_node(text, x, message, count):
    c = chart("x y", domain=[(x, x), (0, 1)], seed=3, num_points=count)
    f = parse_expr(text, c)
    evaluate_points([f], c.sample_points())  # the value is finite
    with pytest.raises(DomainError) as err:
        tn.jets_at([c.coord(1), f], c)
    assert str(err.value) == message
    assert any(e is err.value.subexpr for d in tn.partials(f, c) for e in _nodes(d))


def _nodes(root):
    out, stack = [], [root]
    while stack:
        e = stack.pop()
        if not any(e is o for o in out):
            out.append(e)
            stack.extend(e.children())
    return out
