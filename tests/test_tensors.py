"""Object arrays of fields and their jets: partials, the exterior
derivative, einsum contractions of Expr arrays (the form the oracles take
them in), inverses and the finiteness check."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gencourant.errors import DomainError, SingularMetric
from gencourant.expr import chart, evaluate, parse_expr
from gencourant import tensors as tn
from gencourant.scene import from_upper
from gencourant.streff import Background
import conftest
import oracles
from oracles import randint


C2 = chart("x y", seed=11)
C1 = chart("x", seed=3)
X, Y = C2.coords()


def poly(text, c=C2):
    return parse_expr(text, c)


def rand_tensor(c, rank, rng):
    return conftest.from_function(
        c, rank, lambda *idx: rng.uniform(-1, 1) + rng.uniform(-1, 1) * c.coord(0)
    )


def test_tensor_product_scalar_case():
    dx = conftest.from_function(C1, 1, lambda i: 1)
    t = np.einsum("a,b->ab", dx, dx)
    assert t.shape == (1, 1)
    assert evaluate(t[0, 0], (0.7,)) == 1.0


def test_tensor_product_zero_and_scale():
    g = conftest.identity(2)
    zg = np.einsum("a,bc->abc", tn.zeros_array(2), g)
    assert conftest.max_abs_of(zg, C2.sample_points()) == 0.0
    two_g = np.einsum(",bc->bc", tn.ex.Const(2), g)
    assert evaluate(two_g[0, 0], (0, 0)) == 2.0


def test_contract_identity_gives_dimension():
    s = np.einsum("aa->", conftest.identity(3))
    assert evaluate(s, (0.1, 0.2, 0.3)) == 3.0


def test_contract_is_dual_pairing():
    v = conftest.from_function(C2, 1, lambda i: poly("x") if i == 0 else poly("y^2"))
    xi = conftest.from_function(C2, 1, lambda i: poly("2") if i == 0 else poly("x"))
    s = np.einsum("aa->", np.einsum("a,b->ab", v, xi))
    for p in C2.sample_points():
        want = 2 * p[0] + p[0] * p[1] ** 2
        assert evaluate(s, p) == pytest.approx(want, rel=1e-12)


def test_contract_order_independence_rank4():
    rng = C2.rng(21)
    t = rand_tensor(C2, 4, rng)
    a = np.einsum("aabb->", t)
    b = np.einsum("aa->", np.einsum("abcc->ab", t))
    assert conftest.max_abs_of(a - b, C2.sample_points()) < 1e-12


def test_contract_single_operand_and_scalar_output():
    m = np.array([[poly("x"), -poly("y")], [poly("x*y"), poly("1 + x")]], dtype=object)
    t = np.einsum("ij->ji", m)
    assert all(t[i, j] is m[j, i] for i in range(2) for j in range(2))
    assert np.einsum("ii->i", m)[1] is m[1, 1]
    assert isinstance(np.einsum("ij,ij->", m, m), tn.ex.Expr)


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
        return np.array([0.0 if randint(gen, 0, 2) == 0 else gen.uniform(-2, 2)
                         for _ in range(size)]).reshape(shape)
    entries = []
    for _ in range(size):
        kind = randint(gen, 0, 3)
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
    sizes = {letter: randint(gen, 1, 3) for letter in sorted(set("".join(subs)))}
    operands = [
        _random_operand(c, gen, tuple(sizes[x] for x in sub), float_operand and k == 0)
        for k, sub in enumerate(subs)
    ]
    # numpy takes Expr entries through their + and *; a float-only one gives floats
    got = np.vectorize(tn.ex._coerce, otypes=[object])(np.einsum(spec, *operands))
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
    sizes = {letter: randint(gen, 1, 3) for letter in sorted(set("".join(subs)))}
    operands = [_random_operand(c, gen, tuple(sizes[x] for x in sub), False) for sub in subs]
    pts = c.sample_points()
    got, dgot = tn.jet_contract(spec, *[tn.jets_at(op, c) for op in operands])
    symbolic = np.asarray(np.einsum(spec, *operands), dtype=object)
    partials = np.array([[tn.ex.differentiate(e, x) for x in c.coords()]
                         for e in symbolic.reshape(-1)], dtype=object)
    np.testing.assert_allclose(got, tn.values_at(symbolic, pts), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dgot, tn.values_at(partials.reshape(symbolic.shape + (2,)), pts),
                               rtol=1e-12, atol=1e-12)


# the specs above and some the verifier contracts: a scalar operand, a
# full contraction, a twist term and legs on a 3-tensor
REFERENCE_SPECS = JET_SPECS + [",a->a", "a,a->", "abm,a,b->m", "ia,abm,bj->ijm", "ijc,ia,jb->cab",
                               "mvl->lmv", "am,bym->aby"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REFERENCE_SPECS), st.integers(2, 6), st.sampled_from([1, 5]),
       st.integers(0, 2 ** 32 - 1))
def test_jet_contract_is_the_per_operand_spec_reference_bit_for_bit(spec, dim, count, seed):
    # one spec whose trailing axes broadcast under "..." against the
    # reference that names the derivative and point axes in one spec per
    # term, on random jets: the same bits, of jets and of values alone
    rng = np.random.default_rng(seed)
    subs = spec.split("->")[0].split(",")
    sizes = {letter: int(rng.integers(1, 5)) for letter in sorted(set("".join(subs)))}
    jets = [tn.Jet(rng.uniform(-2, 2, shape + (count,)), rng.uniform(-2, 2, shape + (dim, count)))
            for shape in (tuple(sizes[x] for x in sub) for sub in subs)]
    got, want = tn.jet_contract(spec, *jets), oracles.jet_contract_reference(spec, *jets)
    assert np.array_equal(got.value, want.value) and np.array_equal(got.partial, want.partial)
    values = [j.value for j in jets]
    assert np.array_equal(tn.jet_contract(spec, *values), oracles.jet_contract_reference(spec, *values))


def test_contract_builds_the_hand_loops_expressions():
    """Same term order, factor order and nesting as the loops it replaced."""
    gen = C2.rng(31)
    a = _random_operand(C2, gen, (3, 3), False)
    b = _random_operand(C2, gen, (3, 3), False)
    a[0, 1] = -a[0, 1]
    matmul = np.einsum("iq,qj->ij", a, b)
    ric, F = _random_operand(C2, gen, (3, 3), False), _random_operand(C2, gen, (3, 3), False)
    congruence = np.einsum("cd,ca,db->ab", ric, F, F)
    for i, j in itertools.product(range(3), repeat=2):
        loop = tn.ex.add(*(tn.ex.mul(a[i, q], b[q, j]) for q in range(3)))
        assert tn.ex.to_string(matmul[i, j]) == tn.ex.to_string(loop)
        loop = tn.ex.add(*(tn.ex.mul(ric[c, d], F[c, i], F[d, j])
                           for c in range(3) for d in range(3)))
        assert tn.ex.to_string(congruence[i, j]) == tn.ex.to_string(loop)


def inverse_values(g):
    """The values of g^{-1} at the sample points of C2, by ``jet_inverse``."""
    return tn.jet_inverse(tn.field_jets(g, C2)[0]).value


def test_raise_lower_flat_metric_identity():
    xi = conftest.from_function(C2, 1, lambda i: poly("x*y") if i else poly("1+x"))
    xv = tn.values_at(xi, C2.sample_points())
    up = np.einsum("abp,bp->ap", inverse_values(conftest.identity(2)), xv)
    np.testing.assert_array_equal(up, xv)


def test_raise_then_lower_roundtrip():
    g = conftest.from_function(
        C2, 2,
        lambda i, j: poly("2 + x^2") if i == j == 0 else (poly("1") if i == j else poly("x*y/4")),
    )
    pts = C2.sample_points()
    t = tn.values_at(rand_tensor(C2, 2, C2.rng(5)), pts)
    up = np.einsum("abp,bcp->acp", inverse_values(g), t)
    back = np.einsum("abp,bcp->acp", tn.values_at(g, pts), up)
    assert np.abs(back - t).max() < 1e-12


def test_lower_with_diagonal_metric():
    g = conftest.from_function(C2, 2,
                               lambda i, j: poly("2") if i == j == 0 else (poly("1") if i == j else poly("0")))
    v = inverse_values(g)[:, 0]  # g^{-1}(dx^1)
    assert v[0, 0] == pytest.approx(0.5)
    assert v[1, 0] == 0.0


def test_jet_inverse_partials_are_those_of_the_inverse():
    g = conftest.from_function(
        C2, 2,
        lambda i, j: poly("2 + x^2") if i == j == 0 else (poly("1 + y^2") if i == j else poly("x*y/4")),
    )
    inv = tn.jet_inverse(tn.field_jets(g, C2)[0])
    h = 1e-6
    for q, p in enumerate(C2.sample_points()[:3]):
        for m in range(2):
            up, dn = list(p), list(p)
            up[m] += h
            dn[m] -= h
            fd = (np.linalg.inv(conftest.at(g, up)) - np.linalg.inv(conftest.at(g, dn))) / (2 * h)
            assert np.abs(inv.partial[:, :, m, q] - fd).max() < 1e-8


def test_singular_metric_detected():
    # |det g| = 1e-12 on a three-coordinate chart: positive definite, but
    # too near singular to invert, so the load rejects it
    c = chart("x y z", seed=11)
    g = conftest.from_function(c, 2, lambda i, j: poly("1e-4" if i == j else "0", c))
    with pytest.raises(SingularMetric, match=r"^\|det\| < 1e-10 at sample point"):
        Background(c, g, from_upper(3, 2, {}), 0.0)


def test_finite_names_the_stage_the_component_and_the_point():
    pts = C2.sample_points()[:2]
    values = np.zeros((2, 3, 2))
    values[1, 2, 1] = np.inf
    with pytest.raises(DomainError, match=r"non-finite stage X inf at component \[1, 2\] and sample point"):
        tn.finite("stage X", values, pts)
    partial = np.zeros((2, 2, 2))
    partial[0, 1, 0] = np.nan
    with pytest.raises(DomainError, match=r"partial along x\^2 nan at component \[0\]"):
        tn.finite("stage Y", tn.Jet(np.zeros((2, 2)), partial), pts)


def test_antisymmetrize_fixed_point_and_kill_symmetric():
    pts = C2.sample_points()
    skew = from_upper(2, 2, {(0, 1): poly("1+x")})
    assert conftest.max_abs_of(skew - conftest.antisymmetrize(skew, (0, 1)), pts) < 1e-12
    assert conftest.max_abs_of(conftest.antisymmetrize(conftest.identity(2), (0, 1)), pts) == 0.0


def test_symmetrize_idempotent():
    # the symmetric part of a 2-tensor is t - Alt(t); taking it again changes nothing
    rng = C2.rng(9)
    t = rand_tensor(C2, 2, rng)
    s1 = t - conftest.antisymmetrize(t, (0, 1))
    s2 = s1 - conftest.antisymmetrize(s1, (0, 1))
    assert conftest.max_abs_of(s1 - s2, C2.sample_points()) < 1e-12


def test_antisymmetrize_sign_flip_property():
    c3 = chart("x y z", seed=2)
    rng = c3.rng(1)
    t = rand_tensor(c3, 3, rng)
    a = conftest.antisymmetrize(t, (0, 1, 2))
    pts = c3.sample_points()
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert conftest.max_abs_of(a + np.swapaxes(a, i, j), pts) < 1e-12


def test_partials_are_the_cached_derivatives():
    t = conftest.from_function(C2, 2, lambda i, j: poly(f"x^{i + 1}*y^{j + 2} + sin(x*y)"))
    d = tn.partials(t, C2)
    assert d.shape == t.shape + (2,)
    for i, j, m in itertools.product(range(2), repeat=3):
        assert d[i, j, m] is tn.ex.differentiate(t[i, j], C2.coord(m))
    f = poly("x^2*y")
    df = tn.partials(f, C2)  # a bare Expr
    assert df.shape == (2,)
    assert all(df[m] is tn.ex.differentiate(f, C2.coord(m)) for m in range(2))


def test_partials_basics():
    const = conftest.from_function(C2, 1, lambda i: 3)
    assert conftest.max_abs_of(tn.partials(const, C2), C2.sample_points()) == 0.0

    grad = tn.partials(parse_expr("x^2", C1), C1)
    for p in C1.sample_points():
        assert evaluate(grad[0], p) == pytest.approx(2 * p[0], rel=1e-12)


def test_second_partials_commute():
    dd = tn.partials(tn.partials(poly("x^2*y + sin(x*y)"), C2), C2)
    assert conftest.max_abs_of(dd[0, 1] - dd[1, 0], C2.sample_points()) < 1e-12


def test_exterior_derivative_of_one_form():
    # the rule the numeric stages apply to jets, on an Expr array
    xi = conftest.from_function(C2, 1, lambda i: poly("x*y") if i == 0 else poly("x^2"))
    d = tn.d_of_partials(tn.partials(xi, C2), 1)
    for p in C2.sample_points():
        m = conftest.at(d, p)
        assert m[0, 1] == pytest.approx(2 * p[0] - p[0], rel=1e-12)  # d_x(xi_y) - d_y(xi_x)
        assert m[0, 1] == pytest.approx(-m[1, 0], rel=1e-12)


def test_exterior_derivative_squares_to_zero():
    c3 = chart("x y z", seed=8)
    xi = conftest.from_function(c3, 1, lambda i: parse_expr(["x*y", "z^2", "x+y*z"][i], c3))
    dxi = tn.d_of_partials(tn.partials(xi, c3), 1)
    dd = tn.d_of_partials(tn.partials(dxi, c3), 2)
    assert conftest.max_abs_of(dd, c3.sample_points()) < 1e-12


def test_lie_bracket_coordinate_fields():
    x1 = conftest.from_function(C2, 1, lambda i: poly("1") if i == 0 else poly("0"))
    x2 = conftest.from_function(C2, 1, lambda i: poly("0") if i == 0 else poly("x"))
    b = conftest.lie_bracket(C2, x1, x2)
    for p in C2.sample_points():
        assert np.allclose(conftest.at(b, p), [0.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_interior_product_antisymmetry(seed):
    c3 = chart("x y z", seed=1)
    rng = c3.rng(seed % 1000)
    w = conftest.antisymmetrize(rand_tensor(c3, 3, rng), (0, 1, 2))
    v = rand_tensor(c3, 1, rng)
    got = conftest.interior_product(v, conftest.interior_product(v, w))
    assert conftest.max_abs_of(got, c3.sample_points()) < 1e-9


def unit_polynomial(c, gen, degree, scale):
    """``expr.random_polynomial`` with each coordinate x replaced by
    u = (x - centre) / half-width of its interval (half-width 1 for a
    zero-width interval)."""
    us = []
    for x, (lo, hi) in zip(c.coords(), c.domain):
        half = (hi - lo) / 2 or 1.0
        us.append(tn.ex.mul(1.0 / half, tn.ex.add(x, -(lo + (hi - lo) / 2))))
    return tn.ex.add(*(tn.ex.mul(gen.uniform(-scale, scale), *(us[i] for i in mono))
                       for mono in tn.ex.monomials(c.dim, degree)))


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 5])
@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**16), st.integers(0, 3), st.sampled_from([0.25, 0.2]))
def test_polynomial_jets_are_the_jets_of_the_random_polynomials(dim, count, seed, degree, scale):
    c = chart("x y z w".split()[:dim], seed=seed, num_points=count)
    assert_jets_of_polynomials(c, seed, degree, scale, tn.ex.random_polynomial)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("domain", [[(999.0, 1001.0)], [(-1000.0, 1000.0), (2.0, 2.0), (-3.0, 5.0)]],
                         ids=["offset", "wide-and-zero-width"])
@settings(max_examples=4, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 5]), st.integers(0, 3))
def test_polynomial_jets_on_other_domains_are_in_unit_coordinates(dim, domain, seed, count, degree):
    # the same polynomials in u = (x - centre) / half-width of each interval
    box = [domain[i % len(domain)] for i in range(dim)]
    c = chart("x y z w".split()[:dim], domain=box, seed=seed, num_points=count)
    assert_jets_of_polynomials(c, seed, degree, 0.25, unit_polynomial)


def assert_jets_of_polynomials(c, seed, degree, scale, poly):
    """``random_polynomial_jets`` of a 2 x 3 array against the field jets
    of the Expr polynomials that ``poly`` draws from the same generator."""
    got = tn.random_polynomial_jets(c, c.rng(seed), (2, 3), degree, scale)
    gen = c.rng(seed)
    polys = [[poly(c, gen, degree, scale) for _ in range(3)] for _ in range(2)]
    for jet, want in zip(got, tn.field_jets(np.array(polys, dtype=object), c)):
        np.testing.assert_allclose(jet.value, want.value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(jet.partial, want.partial, rtol=1e-12, atol=1e-12)
