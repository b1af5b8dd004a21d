"""The point-vector evaluator against the per-point reference walk, and
non-finite residuals and overflow failing loudly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencourant import expr as ex
from gencourant.errors import DomainError
from gencourant.expr import (
    Const,
    chart,
    evaluate,
    evaluate_many,
    evaluate_points,
    max_abs_on_points,
    parse_expr,
    worst_of,
)
from gencourant.scene import Check
from gencourant.tensors import values_at
import conftest

XY = chart("x y", seed=3, num_points=12)
X, Y = XY.coords()
PTS_12 = XY.sample_points()
PTS_1 = PTS_12[:1]


# ---------------------------------------------------------------------------
# random DAGs
# ---------------------------------------------------------------------------
#
# Every pool entry stays within [-1, 1] at every point of the domain box, so
# the last-bit differences between the two walks (math.fsum against
# sequential numpy addition, libm against numpy transcendentals) are not
# amplified past the comparison tolerance.  Each unsafe operation raises a
# DomainError at some or all points, and is bounded at the others.

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
}


def _logistic(big):
    return ex.div(1, ex.add(1, big))


# the factor X keeps the smart constructors from folding an overflowing constant
UNSAFE_OPS = {
    "div-zero": (1, lambda a: ex.div(1, ex.add(a, ex.neg(a)))),
    "ln-nonpositive": (1, lambda a: ex.ln(ex.neg(ex.mul(a, a)))),
    "sqrt-negative": (1, lambda a: ex.sqrt(ex.add(-0.5, a))),
    "pow-zero-base": (1, lambda a: ex.powi(ex.add(a, ex.neg(a)), -2)),
    "exp-overflow": (1, lambda a: _logistic(ex.exp(ex.mul(800, a, X)))),
    "pow-overflow": (1, lambda a: _logistic(ex.powi(ex.mul(1e160, a, X), 2))),
}


def _pool(draw, unsafe):
    """A list of subtrees, each built over earlier ones."""
    pool = [X, Y, Const(draw(st.floats(-1, 1)))]
    ops = dict(SAFE_OPS, **UNSAFE_OPS) if unsafe else SAFE_OPS
    names = sorted(ops)
    for _ in range(draw(st.integers(1, 14))):
        arity, build = ops[draw(st.sampled_from(names))]
        args = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(arity)]
        pool.append(build(*args))
    return pool


def _roots(draw, pool):
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))]


def _points(draw, counts):
    c = chart("x y", seed=draw(st.integers(0, 2**16)), num_points=draw(counts))
    return c.sample_points()


@st.composite
def dags(draw, unsafe=False):
    """(roots, points): roots over a pool of shared subtrees, and 1 to 12
    sample points of a seeded chart."""
    return _roots(draw, _pool(draw, unsafe)), _points(draw, st.integers(1, 12))


def _scalar_walk(roots, points):
    """The per-point reference: values, or the DomainError of the first
    failing point."""
    try:
        return [evaluate_many(roots, p) for p in points], None
    except DomainError as err:
        return None, err


@settings(max_examples=150, deadline=None)
@given(dags())
def test_vector_walk_matches_scalar_evaluate(case):
    roots, points = case
    vals = evaluate_points(roots, points)
    assert vals.shape == (len(roots), len(points))
    for i, root in enumerate(roots):
        for j, p in enumerate(points):
            assert vals[i, j] == pytest.approx(evaluate(root, p), rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(dags(unsafe=True))
def test_vector_walk_raises_like_scalar_walk(case):
    roots, points = case
    want, err = _scalar_walk(roots, points)
    if err is not None:
        with pytest.raises(DomainError) as got:
            evaluate_points(roots, points)
        assert str(got.value) == str(err)
        return
    vals = evaluate_points(roots, points)
    for i in range(len(roots)):
        for j in range(len(points)):
            assert vals[i, j] == pytest.approx(want[j][i], rel=1e-12, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(dags())
def test_max_abs_matches_per_point_reference(case):
    roots, points = case
    per_point = [max(abs(v) for v in evaluate_many(roots, p)) for p in points]
    worst, at = max_abs_on_points(values_at(roots, points), points)
    assert worst == pytest.approx(max(per_point), rel=1e-12, abs=1e-12)
    assert at in points
    assert per_point[points.index(at)] == pytest.approx(worst, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# the fallback rules
# ---------------------------------------------------------------------------


def test_one_point_uses_the_scalar_walk(monkeypatch):
    calls = []
    monkeypatch.setattr(ex, "_vector_pass", lambda *args: calls.append(args))
    e = parse_expr("x*y + sin(x)", XY)
    assert evaluate_points([e], PTS_1)[0, 0] == evaluate(e, PTS_1[0])
    assert calls == []
    assert evaluate_points([e], []).shape == (1, 0)


def test_domain_error_names_first_point_and_subexpression():
    e = parse_expr("1/(x - 0.25)", XY)
    points = [(0.5, 0.0), (0.25, 0.0), (0.25, 1.0)]
    with pytest.raises(DomainError) as err:
        evaluate_points([e], points)
    assert "division by zero" in str(err.value) and "x - 0.25" in str(err.value)


@pytest.mark.parametrize("text", ["1/exp(800*x) + y", "exp(800*x)^(-2) + y", "exp(-exp(800*x)) + y",
                                  "1/(1/x) + y", "exp(-1/x^2) + y", "exp(ln(x^2)) + y"])
def test_hidden_non_finite_values_replay(text):
    # each is finite at x = 0 in IEEE arithmetic, but the scalar walk raises
    e = parse_expr(text, XY)
    points = [(-0.5, 0.0), (0.0, 0.0), (1.0, 0.0)]
    with pytest.raises(DomainError) as want:
        for p in points:
            evaluate(e, p)
    with pytest.raises(DomainError) as got:
        evaluate_points([e], points)
    assert str(got.value) == str(want.value)


def test_points_of_wrong_length_fall_back():
    with pytest.raises(DomainError, match="wrong dimension"):
        evaluate_points([Y], [(0.1,), (0.2,)])
    with pytest.raises(DomainError, match="wrong dimension"):
        evaluate_points([Y], [(0.1, 0.2), (0.3,)])


def test_constant_roots_broadcast():
    vals = evaluate_points([Const(2.5), X], PTS_12)
    assert (vals[0] == 2.5).all()
    assert vals[1].tolist() == [p[0] for p in PTS_12]


# ---------------------------------------------------------------------------
# non-finite residuals fail; overflow is a domain error
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("points", [PTS_1, PTS_12], ids=["1pt", "12pt"])
def test_all_nan_field_fails(points):
    worst, at = max_abs_on_points(values_at([Const(math.nan) * X], points), points)
    assert math.isnan(worst) and at == points[0]
    assert not Check("c", "i", worst, 1e-9, at).passed


@pytest.mark.parametrize("points", [PTS_1, PTS_12], ids=["1pt", "12pt"])
def test_nan_beside_a_finite_residual_fails(points):
    worst, at = max_abs_on_points(values_at([Const(1e-3), Const(math.nan)], points), points)
    assert math.isnan(worst) and at == points[0]
    assert not Check("c", "i", worst, 1e-9, at).passed


def test_worst_of_picks_last_tie_and_first_non_finite():
    assert worst_of([(1.0, "a"), (2.0, "b"), (2.0, "c")]) == (2.0, "c")
    assert worst_of([(1.0, "a"), (math.inf, "b"), (math.nan, "c")]) == (math.inf, "b")
    assert worst_of([]) == (0.0, None)


@pytest.mark.parametrize("rows, value, point", [
    ([[1.0, -2.0, 2.0, 0.5]], 2.0, 2),  # a tie: the last maximum
    ([[0.0, -0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -0.0]], 0.0, 3),  # all zero: the last point
    ([[1.0, 5.0, math.nan, 7.0]], math.nan, 2),  # a NaN at a middle point
    ([[1.0, math.inf, 3.0, -math.inf]], math.inf, 1),  # the first non-finite point
])
def test_max_abs_on_points_picks_the_point_worst_of_picks(rows, value, point):
    worst, at = max_abs_on_points(np.array(rows), PTS_12[:4])
    assert type(worst) is float and at == PTS_12[point]
    assert worst == value or math.isnan(value) and math.isnan(worst)


@pytest.mark.parametrize("text", ["exp(800*x + 800)", "(1e200*x)^2", "1e308*x + 1e308*y"])
def test_scalar_overflow_is_a_domain_error(text):
    e = parse_expr(text, XY)
    with pytest.raises(DomainError, match="overflow"):
        evaluate(e, (1.0, 1.0))
    with pytest.raises(DomainError, match="overflow"):
        values_at([e], [(1.0, 1.0), (0.9, 0.9)])


@pytest.mark.parametrize("text, operands", [("1e200*1e200*x", "1e+200*1e+200"),
                                            ("1e308 + 1e308 + x", "1e+308 + 1e+308"),
                                            ("x/1e-320", "1/1e-320")])
def test_constant_folding_overflow_is_a_domain_error(text, operands):
    with pytest.raises(DomainError) as err:
        parse_expr(text, XY)
    assert str(err.value) == f"overflow in subexpression '{operands}'"


def test_constant_folding_keeps_given_infinities():
    # only finite operands that fold to a non-finite value are an error
    assert ex.to_string(parse_expr("1e999*x", XY)) == "inf*x"
    assert math.isnan(ex.add(Const(math.inf), Const(-math.inf)).value)


def test_tensor_field_points_in_order():
    # values_at ends in the point axis, in the order of the points
    g = conftest.from_function(XY, 2, lambda i, j: X * Y if i == j else Const(0.5))
    mats = values_at(g, PTS_12)
    assert mats.shape == (2, 2, len(PTS_12))
    for p, m in zip(PTS_12, np.moveaxis(mats, -1, 0)):
        np.testing.assert_array_equal(m, conftest.at(g, p))
