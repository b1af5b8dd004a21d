"""Index algebra on dense tensor fields."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencourant.errors import ChartMismatch, SingularMetric, SlotError
from gencourant.expr import chart, evaluate, parse_expr
from gencourant import tensors as tn
from gencourant.tensors import DOWN, UP, TensorField


C2 = chart("x y", seed=11)
C1 = chart("x", seed=3)
X, Y = C2.coords()


def poly(text, c=C2):
    return parse_expr(text, c)


def rand_tensor(c, variance, rng):
    return tn.from_function(
        c, variance, lambda *idx: rng.uniform(-1, 1) + rng.uniform(-1, 1) * c.coord(0)
    )


def test_tensor_product_scalar_case():
    dx = tn.from_function(C1, (DOWN,), lambda i: 1)
    t = TensorField(C1, (DOWN, DOWN), tn.contract("a,b->ab", dx.comps, dx.comps))
    assert t.comps.shape == (1, 1)
    assert evaluate(t[0, 0], (0.7,)) == 1.0


def test_tensor_product_zero_and_scale():
    g = tn.euclidean_metric(C2)
    z = tn.zeros(C2, (UP,))
    zg = TensorField(C2, (UP, DOWN, DOWN), tn.contract("a,bc->abc", z.comps, g.comps))
    assert zg.max_abs()[0] == 0.0
    two_g = tn.contract(",bc->bc", tn.scalar_field(C2, 2).comps, g.comps)
    assert evaluate(two_g[0, 0], (0, 0)) == 2.0


def test_tensor_product_chart_mismatch():
    uv = chart("u v")
    x = tn.from_function(C2, (DOWN,), C2.coord)
    u = tn.from_function(uv, (DOWN,), uv.coord)
    with pytest.raises(ChartMismatch):
        tn.contract("a,b->ab", x.comps, u.comps)
    with pytest.raises(ChartMismatch):
        tn.kronecker(C2) + tn.kronecker(uv)


def test_contract_identity_gives_dimension():
    c3 = chart("x y z")
    s = tn.contract("aa->", tn.kronecker(c3).comps)
    assert evaluate(s, (0.1, 0.2, 0.3)) == 3.0


def test_contract_is_dual_pairing():
    v = tn.from_function(C2, (UP,), lambda i: poly("x") if i == 0 else poly("y^2"))
    xi = tn.from_function(C2, (DOWN,), lambda i: poly("2") if i == 0 else poly("x"))
    s = tn.contract("aa->", tn.contract("a,b->ab", v.comps, xi.comps))
    for p in C2.sample_points():
        want = 2 * p[0] + p[0] * p[1] ** 2
        assert evaluate(s, p) == pytest.approx(want, rel=1e-12)


def test_contract_slot_errors():
    m = tn.euclidean_metric(C2).comps
    v = np.array([poly("x"), poly("y")], dtype=object)
    for spec, operands in [
        ("ij,j", (m, v)),            # no output
        ("ij->i", (m, v)),           # one subscript list for two operands
        ("ij,jk->ik", (m, v)),       # subscripts longer than the operand
        ("i,i->i", (v, np.ones(3))),  # index i of sizes 2 and 3
        ("ij->ii", (m,)),            # repeated output index
        ("ij->k", (m,)),             # output index of no operand
        ("i1->", (m,)),              # not a letter
    ]:
        with pytest.raises(SlotError):
            tn.contract(spec, *operands)


def test_contract_order_independence_rank4():
    rng = C2.rng(21)
    t = rand_tensor(C2, (UP, DOWN, UP, DOWN), rng).comps
    a = tn.contract("aabb->", t)
    b = tn.contract("aa->", tn.contract("abcc->ab", t))
    worst, _ = tn.ex.max_abs_on_points([a - b], C2.sample_points())
    assert worst < 1e-12


def test_contract_single_operand_and_scalar_output():
    m = np.array([[poly("x"), -poly("y")], [poly("x*y"), poly("1 + x")]], dtype=object)
    t = tn.contract("ij->ji", m)
    assert all(t[i, j] is m[j, i] for i in range(2) for j in range(2))
    assert tn.contract("ii->i", m)[1] is m[1, 1]
    assert isinstance(tn.contract("ij,ij->", m, m), tn.ex.Expr)


SPECS = [
    "ij,j->i",              # matrix-vector
    "ik,kj->ij",            # matmul
    "cd,ca,db->ab",         # congruence by a frame matrix (3 operands)
    "abc,ai,bj,ck->ijk",    # transport of a 3-form (4 operands)
    "aa->",                 # trace
    "llb,b->l",             # diagonal of one operand
    "ij,i,j->",             # scalar output
    "a,b->ab",              # outer product
]


def _random_operand(c, gen, shape, as_float):
    """Entries drawn from zero, constants and degree-2 polynomials; with
    ``as_float`` a plain float array, zeros included."""
    size = int(np.prod(shape))
    if as_float:
        return np.array([0.0 if gen.randint(0, 2) == 0 else gen.uniform(-2, 2)
                         for _ in range(size)]).reshape(shape)
    entries = []
    for _ in range(size):
        kind = gen.randint(0, 3)
        entries.append(tn.ex.ZERO if kind == 0 else
                       tn.ex.Const(gen.uniform(-2, 2)) if kind == 1 else
                       tn.ex.random_polynomial(c, gen, 2, 1.0))
    out = np.empty(size, dtype=object)
    out[:] = entries
    return out.reshape(shape)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SPECS), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 12]),
       st.booleans())
def test_contract_matches_einsum(spec, seed, num_points, float_operand):
    c = chart("x y", seed=seed % 1000, num_points=num_points)
    gen = c.rng(seed)
    subs = spec.split("->")[0].split(",")
    sizes = {letter: gen.randint(1, 3) for letter in sorted(set("".join(subs)))}
    operands = [
        _random_operand(c, gen, tuple(sizes[x] for x in sub), float_operand and k == 0)
        for k, sub in enumerate(subs)
    ]
    got = np.asarray(tn.contract(spec, *operands), dtype=object)
    pts = c.sample_points()
    values = tn.ex.evaluate_points(got.reshape(-1), pts)
    for p, col in zip(pts, values.T):
        numeric = [
            op if op.dtype != object else
            np.array([evaluate(e, p) for e in op.reshape(-1)]).reshape(op.shape)
            for op in operands
        ]
        want = np.einsum(spec, *numeric).reshape(-1)
        np.testing.assert_allclose(col, want, rtol=1e-12, atol=1e-12)


JET_SPECS = [
    "ab->ba",               # one operand
    "aa->",                 # trace
    "ij,j->i",              # matrix-vector
    "ca,ecd->ead",          # a transport's first factor
    "a,b->ab",              # outer product
    "llb,b->l",             # diagonal of one operand
    "ij,ia,jb->ab",         # congruence
    "ia,jb,abk->ijk",       # two legs on a 3-tensor
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(JET_SPECS), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 5]))
def test_jet_contract_matches_the_derivative_of_the_contraction(spec, seed, num_points):
    c = chart("x y", seed=seed % 1000, num_points=num_points)
    gen = c.rng(seed)
    subs = spec.split("->")[0].split(",")
    sizes = {letter: gen.randint(1, 3) for letter in sorted(set("".join(subs)))}
    operands = [_random_operand(c, gen, tuple(sizes[x] for x in sub), False) for sub in subs]
    pts = c.sample_points()
    got, dgot = tn.jet_contract(spec, *[tn.jets_at(op, pts) for op in operands])
    symbolic = np.asarray(tn.contract(spec, *operands), dtype=object)
    partials = np.array([[tn.ex.differentiate(e, x) for x in c.coords()]
                         for e in symbolic.reshape(-1)], dtype=object)
    np.testing.assert_allclose(got, tn.values_at(symbolic, pts), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dgot, tn.values_at(partials.reshape(symbolic.shape + (2,)), pts),
                               rtol=1e-12, atol=1e-12)


def test_contract_builds_the_hand_loops_expressions():
    """Same term order, factor order and nesting as the loops it replaced."""
    gen = C2.rng(31)
    a = _random_operand(C2, gen, (3, 3), False)
    b = _random_operand(C2, gen, (3, 3), False)
    a[0, 1] = -a[0, 1]
    matmul = tn.contract("iq,qj->ij", a, b)
    ric, F = _random_operand(C2, gen, (3, 3), False), _random_operand(C2, gen, (3, 3), False)
    congruence = tn.contract("cd,ca,db->ab", ric, F, F)
    for i, j in itertools.product(range(3), repeat=2):
        loop = tn.ex.esum(tn.ex.mul(a[i, q], b[q, j]) for q in range(3))
        assert tn.ex.to_string(matmul[i, j]) == tn.ex.to_string(loop)
        loop = tn.ex.esum(tn.ex.mul(ric[c, d], F[c, i], F[d, j])
                          for c in range(3) for d in range(3))
        assert tn.ex.to_string(congruence[i, j]) == tn.ex.to_string(loop)


def test_raise_lower_flat_metric_identity():
    g = tn.euclidean_metric(C2)
    ginv = tn.metric_inverse(g)
    xi = tn.from_function(C2, (DOWN,), lambda i: poly("x*y") if i else poly("1+x"))
    up = TensorField(C2, (UP,), tn.contract("ab,b->a", ginv.comps, xi.comps))
    for p in C2.sample_points():
        assert np.allclose(up.evaluate(p), xi.evaluate(p))


def test_raise_then_lower_roundtrip():
    g = tn.from_function(
        C2, (DOWN, DOWN),
        lambda i, j: poly("2 + x^2") if i == j == 0 else (poly("1") if i == j else poly("x*y/4")),
    )
    ginv = tn.metric_inverse(g)
    rng = C2.rng(5)
    t = rand_tensor(C2, (DOWN, UP), rng)
    up = tn.contract("ab,bc->ac", ginv.comps, t.comps)
    back = tn.contract("ab,bc->ac", g.comps, up)
    diff = [a - b for a, b in zip(back.reshape(-1), t.comps.reshape(-1))]
    worst, _ = tn.ex.max_abs_on_points(diff, C2.sample_points())
    assert worst < 1e-12


def test_lower_with_diagonal_metric():
    g = tn.from_function(C2, (DOWN, DOWN),
                         lambda i, j: poly("2") if i == j == 0 else (poly("1") if i == j else poly("0")))
    ginv = tn.metric_inverse(g)
    dx1 = tn.from_function(C2, (DOWN,), lambda i: poly("1") if i == 0 else poly("0"))
    v = tn.contract("ab,b->a", ginv.comps, dx1.comps)
    assert evaluate(v[0], (0.5, 0.5)) == pytest.approx(0.5)
    assert evaluate(v[1], (0.5, 0.5)) == 0.0


def test_singular_metric_detected():
    g = tn.from_function(C2, (DOWN, DOWN), lambda i, j: poly("1"))  # rank 1 matrix
    with pytest.raises(SingularMetric):
        tn.metric_inverse(g)


def test_antisymmetrize_fixed_point_and_kill_symmetric():
    skew = tn.form_from_wedge_coeffs(C2, 2, {(0, 1): poly("1+x")})
    again = tn.antisymmetrize(skew, (0, 1))
    diff = [a - b for a, b in zip(skew.comps.reshape(-1), again.comps.reshape(-1))]
    assert tn.ex.max_abs_on_points(diff, C2.sample_points())[0] < 1e-12

    g = tn.euclidean_metric(C2)
    assert tn.antisymmetrize(g, (0, 1)).max_abs()[0] == 0.0


def test_symmetrize_idempotent():
    # the symmetric part of a 2-tensor is t - Alt(t); taking it again changes nothing
    rng = C2.rng(9)
    t = rand_tensor(C2, (DOWN, DOWN), rng)
    s1 = t - tn.antisymmetrize(t, (0, 1))
    s2 = s1 - tn.antisymmetrize(s1, (0, 1))
    diff = [a - b for a, b in zip(s1.comps.reshape(-1), s2.comps.reshape(-1))]
    assert tn.ex.max_abs_on_points(diff, C2.sample_points())[0] < 1e-12


def test_antisymmetrize_sign_flip_property():
    c3 = chart("x y z", seed=2)
    rng = c3.rng(1)
    t = rand_tensor(c3, (DOWN, DOWN, DOWN), rng)
    a = tn.antisymmetrize(t, (0, 1, 2))
    pts = c3.sample_points()
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        swapped = np.swapaxes(a.comps, i, j)
        diff = [p + q for p, q in zip(a.comps.reshape(-1), swapped.reshape(-1))]
        assert tn.ex.max_abs_on_points(diff, pts)[0] < 1e-12


def test_mixed_variance_antisymmetrization_rejected():
    t = tn.kronecker(C2)
    with pytest.raises(SlotError):
        tn.antisymmetrize(t, (0, 1))


def test_coordinate_gradient_basics():
    const = tn.from_function(C2, (UP,), lambda i: 3)
    assert tn.coordinate_gradient(const).max_abs()[0] == 0.0

    f = tn.scalar_field(C1, parse_expr("x^2", C1))
    grad = tn.coordinate_gradient(f)
    for p in C1.sample_points():
        assert evaluate(grad[0], p) == pytest.approx(2 * p[0], rel=1e-12)


def test_second_gradients_commute():
    f = tn.scalar_field(C2, poly("x^2*y + sin(x*y)"))
    dd = tn.coordinate_gradient(tn.coordinate_gradient(f))
    diff = dd[0, 1] - dd[1, 0]
    assert tn.ex.max_abs_on_points([diff], C2.sample_points())[0] < 1e-12


def test_exterior_derivative_of_one_form():
    xi = tn.from_function(C2, (DOWN,), lambda i: poly("x*y") if i == 0 else poly("x^2"))
    d = tn.exterior_derivative(xi)
    for p in C2.sample_points():
        m = d.evaluate(p)
        assert m[0, 1] == pytest.approx(2 * p[0] - p[0], rel=1e-12)  # d_x(xi_y) - d_y(xi_x)
        assert m[0, 1] == pytest.approx(-m[1, 0], rel=1e-12)


def test_exterior_derivative_squares_to_zero():
    c3 = chart("x y z", seed=8)
    xi = tn.from_function(c3, (DOWN,), lambda i: parse_expr(["x*y", "z^2", "x+y*z"][i], c3))
    dd = tn.exterior_derivative(tn.exterior_derivative(xi))
    assert dd.max_abs()[0] < 1e-12


def test_lie_bracket_coordinate_fields():
    x1 = tn.from_function(C2, (UP,), lambda i: poly("1") if i == 0 else poly("0"))
    x2 = tn.from_function(C2, (UP,), lambda i: poly("0") if i == 0 else poly("x"))
    b = tn.lie_bracket(x1, x2)
    for p in C2.sample_points():
        assert np.allclose(b.evaluate(p), [0.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_interior_product_antisymmetry(seed):
    c3 = chart("x y z", seed=1)
    rng = c3.rng(seed % 1000)
    w = tn.antisymmetrize(rand_tensor(c3, (DOWN, DOWN, DOWN), rng), (0, 1, 2))
    v = rand_tensor(c3, (UP,), rng)
    got = tn.interior_product(v, tn.interior_product(v, w))
    assert got.max_abs()[0] < 1e-9
