"""Expression engine: parser, exact derivatives, evaluation, printing."""

import math
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencourant.errors import DomainError, ExprSyntaxError, GencourantError, UnknownSymbol
from gencourant.expr import (
    ZERO,
    Add,
    Chart,
    Const,
    Coord,
    Expr,
    Func,
    Mul,
    Pow,
    SplitMix64,
    _FUNCTIONS,
    add,
    chart,
    differentiate,
    evaluate,
    evaluate_many,
    evaluate_points,
    parse_expr,
    random_polynomial,
    to_string,
)
from gencourant.scene import SceneValidationError, scene_from_dict
from oracles import parse_reference, randint

XY = chart("x y", seed=7)
X, Y = XY.coords()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_expr_and_chart_repr():
    c = chart("x y", domain=(-1, 1), seed=3, num_points=4)
    assert repr(parse_expr("x^2/4 - 3*y + sin(x)", c)) == "<Expr 0.25*x^2 - 3*y + sin(x)>"
    assert repr(c.coord(0)) == "<Expr x>"
    assert repr(c) == "Chart(2, ('x', 'y'), ((-1.0, 1.0), (-1.0, 1.0)), 3, 4)"


def test_parse_constant_zero():
    e = parse_expr("0", XY)
    assert evaluate(e, (0.3, -0.2)) == 0.0


def test_parse_structure():
    e = parse_expr("x^2 + sin(y)", XY)
    assert isinstance(e, Add)
    kinds = {(type(t), getattr(t, "name", None)) for t in e.terms}
    assert (Pow, None) in kinds and (Func, "sin") in kinds


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x*", XY)
    assert err.value.position == 2


def test_parse_unknown_symbol_named():
    with pytest.raises(UnknownSymbol) as err:
        parse_expr("x + z", XY)
    assert err.value.name == "z"
    with pytest.raises(UnknownSymbol) as err:
        parse_expr("tan(x)", XY)
    assert err.value.name == "tan"


def test_parse_empty():
    with pytest.raises(ExprSyntaxError):
        parse_expr("   ", XY)


@pytest.mark.parametrize(
    "text,point,value",
    [
        ("1 + 2*3", (0, 0), 7.0),
        ("2^3", (0, 0), 8.0),
        ("x^-1", (4, 0), 0.25),
        ("-x^2", (3, 0), -9.0),
        ("(1+x)*(1-x)", (2, 0), -3.0),
        ("6/3/2", (0, 0), 1.0),
        ("1 - 2 - 3", (0, 0), -4.0),
        ("exp(ln(5))", (0, 0), 5.0),
        ("sqrt(x^2)", (3, 0), 3.0),
        ("2e-1 + x", (0.5, 0), 0.7),
        ("sin(x)^2 + cos(x)^2", (0.37, 0), 1.0),
    ],
)
def test_parse_evaluate(text, point, value):
    assert evaluate(parse_expr(text, XY), point) == pytest.approx(value, abs=1e-12)


def _structure(e):
    """The node structure of ``e``: its class, its own fields (each by its
    repr, so -0.0, NaN and an int exponent compare as written) and its
    children's structures."""
    fields = {Const: ("value",), Coord: ("index",), Mul: ("coeff",), Pow: ("exponent",),
              Func: ("name",)}.get(type(e), ())
    return type(e).__name__, [repr(getattr(e, f)) for f in fields], list(map(_structure, e.children()))


def _outcome(parse, text):
    try:
        return _structure(parse(text, XY))
    except GencourantError as err:
        return type(err), str(err)


# Texts over the grammar's alphabet: expressions the grammar derives, with
# up to three characters of the alphabet dropped in anywhere.  Numbers take
# every form of the literal, decimal digits of other scripts included
# (float() and int() read them), and whitespace includes the tab and the
# no-break space.
_ALPHABET = string.digits + string.ascii_letters + "_.eE+-*/^()," + " \t\xa0\u0663\u096d\uff10"
_NUMBERS = ["2", "0.5", "3.", ".25", "1e3", "2E-1", "07", "0", "\u0663", "\u0663.\u096d", "\uff10"]
_EXPONENTS = ["2", "-1", "(-2)", "0", "\u0663", "2.0", "1e1", "x"]
_derived = st.recursive(
    st.one_of(st.sampled_from(_NUMBERS), st.sampled_from(["x", "y"])),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", " - ", "*", "/"]), inner).map("".join),
        st.tuples(st.sampled_from(["-", "+", "--", "-+-"]), inner).map("".join),
        st.tuples(st.sampled_from(sorted(_FUNCTIONS) + ["tan"]), inner).map("{0[0]}({0[1]})".format),
        st.tuples(inner, st.sampled_from(_EXPONENTS)).map("({0[0]})^{0[1]}".format),
    ),
    max_leaves=8,
)


def _with_noise(text, noise):
    for at, c in noise:
        text = text[:at] + c + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(st.builds(_with_noise, _derived,
                 st.lists(st.tuples(st.integers(0, 60), st.sampled_from(_ALPHABET)), max_size=3)))
def test_parse_matches_the_reference_front_end(text):
    assert _outcome(parse_expr, text) == _outcome(parse_reference, text)


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_any_text_parses_or_is_an_input_error(text):
    try:
        e = parse_expr(text, XY)
    except GencourantError:
        return
    assert isinstance(e, Expr)


@pytest.mark.parametrize("text, message", [
    ("x^2.0", "power exponent must be an integer literal (at offset 2)"),
    ("x^(-3", "expected ')' (at offset 5)"),
])
def test_parse_errors_name_the_offset(text, message):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text, XY)
    assert str(err.value) == message


def test_unary_signs_fold_by_parity():
    assert _structure(parse_expr("-" * 1000 + "x", XY)) == _structure(X)
    assert _structure(parse_expr("-+-" * 333 + "-x^2", XY)) == _structure(-(X ** 2))


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def test_diff_power_rule():
    e = parse_expr("x^2", XY)
    d = differentiate(e, X)
    for p in XY.sample_points():
        assert evaluate(d, p) == pytest.approx(2 * p[0], abs=1e-12)


def test_diff_independence():
    d = differentiate(parse_expr("sin(y)", XY), X)
    assert all(evaluate(d, p) == 0.0 for p in XY.sample_points())


def test_diff_product_rule():
    d = differentiate(parse_expr("x*y", XY), Y)
    for p in XY.sample_points():
        assert evaluate(d, p) == pytest.approx(p[0], abs=1e-12)


def _central_difference(e, point, i, h):
    up = list(point)
    dn = list(point)
    up[i] += h
    dn[i] -= h
    return (evaluate(e, up) - evaluate(e, dn)) / (2 * h)


def _random_safe_expr(chart_, gen, depth=3):
    """Random tree over the safe node set (no quotient/ln/sqrt)."""
    if depth == 0 or gen.uniform() < 0.3:
        if gen.uniform() < 0.4:
            return gen.uniform(-2, 2) + 0 * chart_.coord(0)
        return chart_.coord(randint(gen, 0, chart_.dim - 1))
    pick = randint(gen, 0, 5)
    a = _random_safe_expr(chart_, gen, depth - 1)
    b = _random_safe_expr(chart_, gen, depth - 1)
    if pick == 0:
        return a + b
    if pick == 1:
        return a * b
    if pick == 2:
        return -a
    if pick == 3:
        from gencourant.expr import sin as esin

        return esin(a)
    if pick == 4:
        from gencourant.expr import cos as ecos

        return ecos(a)
    from gencourant.expr import exp as eexp

    return eexp(0.3 * a)


def test_finite_difference_order2_convergence():
    """Central differences of random safe expressions converge at order 2
    to the symbolic derivative: the h=1e-3 vs h=1e-4 error ratio is ~100."""
    gen = SplitMix64(2024)
    checked = 0
    for _ in range(200):
        if checked >= 50:
            break
        e = _random_safe_expr(XY, gen)
        i = randint(gen, 0, 1)
        point = (gen.uniform(-0.9, 0.9), gen.uniform(-0.9, 0.9))
        d = evaluate(differentiate(e, XY.coord(i)), point)
        err3 = abs(_central_difference(e, point, i, 1e-3) - d)
        err4 = abs(_central_difference(e, point, i, 1e-4) - d)
        if err4 < 1e-11:  # derivative too flat to resolve the ratio
            continue
        assert err3 <= 1e-4, "second-order error bound C*h^2 violated"
        assert 80 <= err3 / err4 <= 120
        checked += 1
    assert checked >= 50 or checked > 30


# ---------------------------------------------------------------------------
# evaluation errors
# ---------------------------------------------------------------------------


def test_evaluate_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse_expr("1/x", XY), (0.0, 1.0))
    with pytest.raises(DomainError):
        evaluate(parse_expr("ln(x)", XY), (-1.0, 0.0))
    with pytest.raises(DomainError):
        evaluate(parse_expr("sqrt(x)", XY), (-2.0, 0.0))
    assert evaluate(parse_expr("exp(0*x)", XY), (123.0, 4.0)) == 1.0


def test_domain_error_names_subexpression():
    with pytest.raises(DomainError) as err:
        evaluate(parse_expr("y + 1/(x - 1)", XY), (1.0, 0.0))
    assert "x" in str(err.value.subexpr)


def test_evaluate_many_names_the_first_roots_singular_node():
    # one walk over both roots names the node the first root's walk meets,
    # as evaluating the roots one by one does
    first, second = parse_expr("1/x", XY), parse_expr("ln(y)", XY)
    for roots in ([first, second], [second, first]):
        with pytest.raises(DomainError) as err:
            evaluate_many(roots, (0.0, -1.0))
        assert err.value.subexpr is roots[0]
        with pytest.raises(DomainError) as err:
            evaluate(roots[0], (0.0, -1.0))
        assert err.value.subexpr is roots[0]


@pytest.mark.parametrize("name", ["ln", "sqrt"])
def test_ln_and_sqrt_of_nan_value_to_nan(name):
    # inf*0 makes a NaN constant and a NaN coefficient: outside no domain
    # and inside none either, so neither folded nor raised on
    pts = XY.sample_points()
    for arg in ("1e400*0", "1e400*0*x"):
        e = parse_expr(f"{name}({arg})", XY)
        assert type(e) is Func and e.name == name and math.isnan(evaluate(e.arg, pts[0]))
        assert math.isnan(evaluate(e, pts[0]))
        assert all(map(math.isnan, evaluate_points([e], pts)[0]))
    doc = {"schema_version": 1, "chart": {"dim": 2, "coords": ["x", "y"], "seed": 7, "points": 3},
           "background": {"g": {"11": "1", "22": "1"}, "phi": f"{name}(1e400*0*x)"}}
    with pytest.raises(SceneValidationError, match=r"^non-finite scene field phi nan at component \[\] "
                                                   r"and sample point \(.*\) \[background\]$"):
        scene_from_dict(doc)


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


expr_strategy = st.deferred(
    lambda: st.one_of(
        st.floats(-3, 3).map(lambda v: parse_expr(repr(float(v)), XY) if v else parse_expr("0", XY)),
        st.sampled_from([X, Y]),
        st.tuples(expr_strategy, expr_strategy).map(lambda ab: ab[0] + ab[1]),
        st.tuples(expr_strategy, expr_strategy).map(lambda ab: ab[0] * ab[1]),
        expr_strategy.map(lambda a: -a),
        expr_strategy.map(lambda a: Func("sin", a)),
    )
)


@settings(max_examples=60, deadline=None)
@given(expr_strategy)
def test_print_parse_roundtrip(e):
    text = to_string(e)
    back = parse_expr(text, XY)
    for p in XY.sample_points():
        assert evaluate(back, p) == pytest.approx(evaluate(e, p), rel=1e-12, abs=1e-12)


def test_roundtrip_tricky_forms():
    gen = SplitMix64(99)
    for _ in range(40):
        e = random_polynomial(XY, gen) / (2 + X * X) - Y ** 3
        back = parse_expr(to_string(e), XY)
        for p in XY.sample_points()[:4]:
            assert evaluate(back, p) == pytest.approx(evaluate(e, p), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# charts and sampling
# ---------------------------------------------------------------------------


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(2, ("x", "x"))
    with pytest.raises(ValueError):
        Chart(2, ("x", "2y"))
    with pytest.raises(ValueError):
        Chart(1, ("x",), ((1.0, -1.0),))


def test_chart_is_an_immutable_value():
    a = chart("x y", domain=((0, 2), (-3, -1)), seed=42, num_points=10)
    b = Chart(2, ("x", "y"), ((0.0, 2.0), (-3.0, -1.0)), seed=42, num_points=10)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != chart("x y", domain=((0, 2), (-3, -1)), seed=43, num_points=10)
    assert a != chart("x z", domain=((0, 2), (-3, -1)), seed=42, num_points=10)
    a.sample_points()
    assert a == b  # drawing the points changes no field
    for name in ("dim", "coord_names", "domain", "seed", "num_points", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 1)
    with pytest.raises(AttributeError):
        del a.seed
    assert (a.dim, a.coord_names, a.domain, a.seed, a.num_points) == (
        2, ("x", "y"), ((0.0, 2.0), (-3.0, -1.0)), 42, 10)


def test_sample_points_deterministic_and_in_domain():
    c1 = chart("x y", domain=((0.0, 2.0), (-3.0, -1.0)), seed=42, num_points=10)
    c2 = chart("x y", domain=((0.0, 2.0), (-3.0, -1.0)), seed=42, num_points=10)
    pts1, pts2 = c1.sample_points(), c2.sample_points()
    assert pts1 == pts2
    assert len(pts1) == 10
    for x, y in pts1:
        assert 0.0 <= x <= 2.0 and -3.0 <= y <= -1.0
    assert chart("x y", seed=43).sample_points() != chart("x y", seed=42).sample_points()


def test_sample_points_are_drawn_once_per_chart():
    c = chart("x y", domain=((0.0, 2.0), (-3.0, -1.0)), seed=42, num_points=10)
    pts = c.sample_points()
    assert c.sample_points() is pts
    assert isinstance(pts, tuple) and all(isinstance(p, tuple) for p in pts)
    fresh = chart("x y", domain=((0.0, 2.0), (-3.0, -1.0)), seed=42, num_points=10)
    assert fresh.sample_points() == pts
    other = chart("x y", domain=((0.0, 2.0), (-3.0, -1.0)), seed=43, num_points=10)
    assert other.sample_points() != pts


def test_splitmix64_reference_values():
    # first outputs for seed 0, cross-checked against the published algorithm
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, 123456789])
@pytest.mark.parametrize("count", [0, 1, 5, 1000])
def test_splitmix64_uniforms_are_that_many_uniform_draws(seed, count):
    # the batched draw wraps mod 2^64 in numpy's uint64, as the scalar one
    # masks Python integers; the same bits and the same state after it
    batch, one = SplitMix64(seed), SplitMix64(seed)
    got = batch.uniforms(-0.25, 0.25, count)
    want = np.array([one.uniform(-0.25, 0.25) for _ in range(count)], dtype=float)
    assert np.array_equal(got, want)
    assert batch.state == one.state
    assert batch.next_u64() == one.next_u64()


def test_evaluate_many_shares_work():
    e1 = parse_expr("x^2 + y", XY)
    e2 = parse_expr("x^2 - y", XY)
    v1, v2 = evaluate_many([e1, e2], (2.0, 1.0))
    assert (v1, v2) == (5.0, 3.0)


def test_random_polynomial_degree_bound():
    gen = SplitMix64(5)
    e = random_polynomial(XY, gen, degree=2)
    # third derivative of a degree-2 polynomial vanishes identically
    d3 = differentiate(differentiate(differentiate(e, X), X), X)
    assert all(evaluate(d3, p) == 0.0 for p in XY.sample_points())


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", ["x + y", "x*y - 2*y + 1", "sin(x) + x^2 - 0.5"])
def test_sum_of_a_lone_sum_is_that_sum(text):
    s = parse_expr(text, XY)
    assert type(s) is Add
    terms, printed = s.terms, to_string(s)
    assert add(s) is s
    assert add(ZERO, s, 0.0) is s  # constants that leave its constant as it is
    assert add(ZERO, s, Const(-0.0)) is s
    assert s.terms == terms and to_string(s) == printed


def test_sums_that_change_a_lone_sum_are_new_nodes():
    s = parse_expr("x + y + 1", XY)
    t = add(s, 2.0)
    assert t is not s and to_string(t) == "x + y + 3"
    assert add(s, -1.0).terms == s.terms[:2]
    u = add(s, X)
    assert u is not s and to_string(u) == "x + y + x + 1"
    assert to_string(add(X, s)) == "x + x + y + 1"
    # a sum built without flattening is flattened, not returned
    raw = Add((Const(1.0), X))
    assert add(raw) is not raw and to_string(add(raw)) == "x + 1"
