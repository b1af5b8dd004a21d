"""The hot kernels of ``expr`` (smart constructors, differentiation, the DAG
walk) against a reference copy of their plain ``isinstance``-chain form:
same node structure (a product's coefficient included), same factor and
term order, same DomainError."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencourant import expr as ex
from gencourant.errors import DomainError
from gencourant.expr import (
    Add,
    Const,
    Coord,
    Div,
    Func,
    Mul,
    Pow,
    chart,
    evaluate,
    evaluate_points,
    parse_expr,
    to_string,
)

XY = chart("x y", seed=3, num_points=12)
X, Y = XY.coords()


# ---------------------------------------------------------------------------
# the reference: constructors and rules as plain isinstance chains
# ---------------------------------------------------------------------------


def ref_add(*terms):
    flat, const = [], 0.0
    for t in terms:
        t = ex._coerce(t)
        if isinstance(t, Const):
            const += t.value
        elif isinstance(t, Add):
            for u in t.terms:
                if isinstance(u, Const):
                    const += u.value
                else:
                    flat.append(u)
        else:
            flat.append(t)
    if not math.isfinite(const):
        ex._check_fold(Add, terms)
    if const != 0.0 or not flat:
        flat.append(Const(const))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def ref_neg(e):
    e = ex._coerce(e)
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Mul):
        if e.coeff == -1.0 and len(e.factors) == 1:
            return e.factors[0]
        return Mul(e.factors, -e.coeff)
    return Mul((e,), -1.0)


def ref_mul(*factors):
    flat, const = [], 1.0
    for f in factors:
        f = ex._coerce(f)
        if isinstance(f, Const):
            const *= f.value
        elif isinstance(f, Mul):
            const *= f.coeff
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not math.isfinite(const):
        ex._check_fold(Mul, factors)
    if const == 0.0:
        return ex.ZERO
    if not flat:
        return Const(const)
    if const == 1.0 and len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat), const)


def ref_div(num, den):
    num, den = ex._coerce(num), ex._coerce(den)
    if ex.is_one(den):
        return num
    if ex.is_zero(num):
        return ex.ZERO
    if isinstance(den, Const) and den.value != 0.0:
        inv = 1.0 / den.value
        if not math.isfinite(inv) and math.isfinite(den.value):
            raise DomainError("overflow", Div(ex.ONE, den))
        return ref_mul(Const(inv), num)
    return Div(num, den)


def ref_diff(e, coord, memo):
    """Derivative of ``e``, memoised by node id in ``memo``."""
    key = id(e)
    if key not in memo:
        memo[key] = _ref_diff_rules(e, coord, memo)
    return memo[key]


def _ref_diff_rules(e, coord, memo):
    d = lambda u: ref_diff(u, coord, memo)  # noqa: E731
    if isinstance(e, Const):
        return ex.ZERO
    if isinstance(e, Coord):
        return ex.ONE if e.index == coord.index else ex.ZERO
    if isinstance(e, Add):
        return ref_add(*(d(t) for t in e.terms))
    if isinstance(e, Mul):
        scale = () if e.coeff == 1.0 else (Const(e.coeff),)
        terms = []
        for i, f in enumerate(e.factors):
            df = d(f)
            if not ex.is_zero(df):
                terms.append(ref_mul(*scale, df, *e.factors[:i], *e.factors[i + 1:]))
        return ref_add(*terms) if terms else ex.ZERO
    if isinstance(e, Div):
        du, dv = d(e.num), d(e.den)
        return ref_div(ref_add(ref_mul(du, e.den), ref_neg(ref_mul(e.num, dv))),
                       ref_mul(e.den, e.den))
    if isinstance(e, Pow):
        return ref_mul(e.exponent, ex.powi(e.base, e.exponent - 1), d(e.base))
    if isinstance(e, Func) and e.name == "sin":
        return ref_mul(ex.cos(e.arg), d(e.arg))
    if isinstance(e, Func) and e.name == "cos":
        return ref_neg(ref_mul(ex.sin(e.arg), d(e.arg)))
    if isinstance(e, Func) and e.name == "exp":
        return ref_mul(e, d(e.arg))
    if isinstance(e, Func) and e.name == "ln":
        return ref_div(d(e.arg), e.arg)
    if isinstance(e, Func) and e.name == "sqrt":
        return ref_div(d(e.arg), ref_mul(2.0, e))
    raise TypeError(type(e).__name__)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def structure(e, table, done=None):
    """An integer naming the structure of ``e``: node class, payload (exact
    constant bits, coordinate index, exponent, exact coefficient bits,
    function name) and
    the structures of the children in order.  Equal integers from
    one ``table`` mean equal trees, however the nodes are shared."""
    done = {} if done is None else done
    if id(e) not in done:
        kids = tuple(structure(k, table, done) for k in e.children())
        payload = (repr(e.value) if isinstance(e, Const) else
                   e.index if isinstance(e, Coord) else
                   e.exponent if isinstance(e, Pow) else
                   repr(e.coeff) if isinstance(e, Mul) else
                   e.name if isinstance(e, Func) else None)
        key = (type(e), payload, kids)
        done[id(e)] = table.setdefault(key, len(table))
    return done[id(e)]


def assert_same_structure(got, want):
    table = {}
    assert to_string(got) == to_string(want)
    assert structure(got, table) == structure(want, table)


# ---------------------------------------------------------------------------
# random recipes, built twice: by the kernels and by the reference
# ---------------------------------------------------------------------------

SCALARS = st.one_of(
    st.floats(-2, 2, width=32),
    st.integers(-3, 3),
    st.booleans(),
    st.floats(-2, 2, width=32).map(np.float64),
)

# name -> (arity, whether operands may be plain scalars, kernel builder,
# reference builder)
OPS = {
    "add": (3, True, ex.add, ref_add),
    "sub": (2, True, lambda a, b: ex.add(a, ex.neg(b)), lambda a, b: ref_add(a, ref_neg(b))),
    "mul": (3, True, ex.mul, ref_mul),
    "div": (2, True, ex.div, ref_div),
    "neg": (1, False, ex.neg, ref_neg),
    "pow": (1, False, lambda a: ex.powi(a, 2), lambda a: ex.powi(a, 2)),
    "invpow": (1, False, lambda a: ex.powi(a, -1), lambda a: ex.powi(a, -1)),
    "sin": (1, False, ex.sin, ex.sin),
    "cos": (1, False, ex.cos, ex.cos),
    "exp": (1, False, ex.exp, ex.exp),
    "ln": (1, False, ex.ln, ex.ln),
    "sqrt": (1, False, ex.sqrt, ex.sqrt),
    # unflattened nodes, which no constructor builds
    "raw-add": (2, False, lambda a, b: Add((a, Const(1.5), b)), None),
    "raw-mul": (2, False, lambda a, b: Mul((Const(-1.0), a, b)), None),
    "raw-neg": (1, False, lambda a: Mul((a,), -1.0), None),
}


def _outcome(build, args):
    """The node ``build(*args)`` returns, or the message of its DomainError
    (constant folding that overflows)."""
    try:
        return build(*args)
    except DomainError as err:
        return str(err)


@st.composite
def recipes(draw):
    """The same DAG of shared subtrees built by the kernels and by the
    reference: (kernel pool, reference pool).  Operands are earlier pool
    entries, or plain scalars of the coercible types."""
    c = Const(draw(st.floats(-2, 2, width=32)))
    pool, ref_pool = [X, Y, c], [X, Y, c]
    for _ in range(draw(st.integers(1, 9))):
        arity, scalars, build, ref_build = OPS[draw(st.sampled_from(sorted(OPS)))]
        # a pool index, or a one-tuple holding a scalar
        picks = [(draw(SCALARS),) if scalars and draw(st.integers(0, 4)) == 0
                 else draw(st.integers(0, len(pool) - 1)) for _ in range(arity)]
        args = [p[0] if isinstance(p, tuple) else pool[p] for p in picks]
        ref_args = [p[0] if isinstance(p, tuple) else ref_pool[p] for p in picks]
        got = _outcome(build, args)
        want = _outcome(ref_build or build, ref_args)
        if isinstance(got, str) or isinstance(want, str):
            assert got == want  # both raised, naming the same constants
            continue
        pool.append(got)
        ref_pool.append(want)
    return pool, ref_pool


@settings(max_examples=200, deadline=None)
@given(recipes())
def test_constructors_match_the_reference(pools):
    pool, ref_pool = pools
    assert len(pool) == len(ref_pool)
    for got, want in zip(pool, ref_pool):
        assert_same_structure(got, want)


def test_constants_that_fold_to_an_overflow_raise_as_the_reference_does():
    # the random recipes stay far inside the float range, so the folding
    # overflows of ``add`` and ``mul`` (``_check_fold``) and of ``exp`` are
    # pinned here: exp(1/(-1 * 1e-15 * -3.876e-15)) folds to exp(2.58e29)
    cases = [
        (ex.mul, ref_mul, (1e200, ex.mul(1e200, X)), "1e+200*1e+200"),
        (ex.add, ref_add, (1e308, ex.add(1e308, X)), "1e+308 + 1e+308"),
        (lambda *c: ex.exp(ex.div(1.0, ex.mul(*c))), lambda *c: ex.exp(ref_div(1.0, ref_mul(*c))),
         (-1.0, 1e-15, -3.876e-15), "exp(2.5799793601651183e+29)"),
    ]
    for build, ref_build, args, operands in cases:
        got, want = _outcome(build, args), _outcome(ref_build, args)
        assert got == want == f"overflow in subexpression '{operands}'"


@settings(max_examples=150, deadline=None)
@given(recipes())
def test_derivatives_match_the_reference(pools):
    pool, ref_pool = pools
    for coord in (X, Y):
        memo = {}
        for node, ref_node in zip(pool[3:], ref_pool[3:]):
            assert_same_structure(ex.differentiate(node, coord), ref_diff(ref_node, coord, memo))


def test_second_derivatives_reuse_the_node_cache():
    e = parse_expr("x^3*sin(x*y) + exp(y)/(1 + x^2)", XY)
    d1 = ex.differentiate(e, X)
    assert ex.differentiate(e, X) is d1
    assert_same_structure(ex.differentiate(d1, Y), ref_diff(ref_diff(e, X, {}), Y, {}))


# ---------------------------------------------------------------------------
# a product's coefficient
# ---------------------------------------------------------------------------

# factors that print as themselves inside a product, so that the printed
# product parses back to the same node
FACTORS = [X, Y, ex.sin(X), ex.add(X, Y), ex.powi(Y, 2), ex.exp(ex.mul(X, Y))]
MAGNITUDES = st.floats(1e-6, 1e6)
COEFFS = MAGNITUDES | MAGNITUDES.map(lambda c: -c)


def test_neg_of_a_product_shares_its_factor_tuple():
    m = ex.mul(0.5, X, ex.sin(Y))
    n = ex.neg(m)
    assert type(n) is Mul and n.factors is m.factors and n.coeff == -0.5
    assert ex.neg(n).factors is m.factors and ex.neg(n).coeff == 0.5
    s = ex.add(X, Y)
    assert type(ex.neg(s)) is Mul and ex.neg(s).factors == (s,) and ex.neg(s).coeff == -1.0
    assert ex.neg(ex.neg(s)) is s and ex.neg(ex.neg(X)) is X


@settings(max_examples=100, deadline=None)
@given(COEFFS, COEFFS, st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3),
       st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3))
def test_mul_multiplies_coefficients(a, b, left, right):
    p, q = ex.mul(a, *left), ex.mul(b, *right)
    got = ex.mul(p, q)
    assert type(got) is Mul
    assert got.coeff == a * b and got.factors == tuple(left + right)
    assert all(type(f) not in (Const, Mul) for f in got.factors)
    assert_same_structure(ex.mul(p, 2.0), ex.mul(a * 2.0, *left))
    assert_same_structure(ex.mul(p, ex.neg(q)), ex.mul(-(a * b), *left, *right))


@settings(max_examples=200, deadline=None)
@given(COEFFS | st.sampled_from([1.0, -1.0, 0.5, -0.5, 3.0]),
       st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3))
def test_coefficient_products_round_trip_through_the_parser(c, factors):
    m = ex.mul(c, *factors)
    assert_same_structure(parse_expr(to_string(m), XY), m)


@pytest.mark.parametrize("build, text", [
    (lambda: ex.neg(ex.mul(X, Y)), "-x*y"),
    (lambda: ex.mul(-0.5, X, Y), "-0.5*x*y"),
    (lambda: ex.mul(2, X), "2*x"),
    (lambda: ex.mul(-2, X), "-2*x"),
    (lambda: ex.neg(ex.add(X, Y)), "-(x + y)"),
    (lambda: ex.add(X, ex.mul(-0.5, X, Y)), "x - 0.5*x*y"),
    (lambda: ex.mul(X, ex.neg(Y)), "-x*y"),
    (lambda: ex.powi(ex.neg(X), 2), "(-x)^2"),
])
def test_a_negative_coefficient_prints_as_a_negation(build, text):
    assert to_string(build()) == text


# ---------------------------------------------------------------------------
# which singular subexpression a DomainError names
# ---------------------------------------------------------------------------

SUM = "ln(x)*sqrt(y-1) + 1/(x*y)"
QUOTIENT = "ln(x)*sqrt(y-1)/(x*y)"


@pytest.mark.parametrize(
    "text, points, named",
    [
        # at (0, 0) both 1/x and 1/y divide by zero
        ("1/x + 1/y", [(0.0, 0.0)], "1/y"),
        ("1/x + 1/y", [(0.5, 0.5), (0.0, 0.0), (1.0, 1.0)], "1/y"),
        # at (0, 0) ln(x), sqrt(y - 1) and 1/(x*y) are all singular
        (SUM, [(0.0, 0.0)], "1/(x*y)"),
        (SUM, [(0.0, 0.0), (0.0, 0.0)], "1/(x*y)"),
        # the first failing point is (0.5, 0.5), where only the root is
        (SUM, [(0.5, 2.0), (0.5, 0.5), (0.0, 0.0)], "sqrt(y - 1)"),
        (QUOTIENT, [(0.0, 0.0)], "sqrt(y - 1)"),
        (QUOTIENT, [(1.0, 1.0), (0.0, 2.0), (2.0, 0.0)], "ln(x)"),
    ],
)
def test_domain_error_names_the_same_subexpression(text, points, named):
    e = parse_expr(text, XY)
    with pytest.raises(DomainError) as vector:
        evaluate_points([e], points)
    assert to_string(vector.value.subexpr) == named
    first_bad = None
    for pt in points:
        try:
            evaluate(e, pt)
        except DomainError as err:
            first_bad = err
            break
    assert to_string(first_bad.subexpr) == named


# ---------------------------------------------------------------------------
# charts and coercion
# ---------------------------------------------------------------------------


def test_equal_but_distinct_charts_merge():
    # a coordinate is its index: the coordinates of an equal chart built
    # apart combine with and differentiate along those of the first
    twin = chart("x y", seed=3, num_points=12)
    assert twin is not XY and twin == XY
    u, v = twin.coords()
    for got, want in ((ex.add(X, v), "x + y"), (ex.mul(v, X), "y*x"), (ex.div(X, v), "x/y"),
                      (ex.add(ex.neg(u), Y, 2), "-x + y + 2")):
        assert to_string(got) == want
        assert [evaluate(got, p) for p in XY.sample_points()] == [
            evaluate(parse_expr(want, XY), p) for p in XY.sample_points()]
    assert to_string(ex.differentiate(ex.mul(u, u), X)) == "x + x"


@pytest.mark.parametrize("value, expected", [
    (True, 1.0), (False, 0.0), (np.float64(0.25), 0.25), (3, 3.0), (-2, -2.0), (0.5, 0.5),
])
def test_scalars_coerce(value, expected):
    assert_same_structure(ex.add(X, value), ref_add(X, value))
    assert_same_structure(ex.mul(value, X, value), ref_mul(value, X, value))
    assert_same_structure(ex.neg(value), Const(-expected))
    folded = ex.add(value, value)
    assert isinstance(folded, Const) and folded.value == 2 * expected


@pytest.mark.parametrize("build", [ex.add, ex.mul, lambda a, b: ex.neg(a), ex.div, lambda a, b: X + a])
def test_strings_do_not_coerce(build):
    with pytest.raises(TypeError):
        build("x", X)

