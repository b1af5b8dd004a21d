"""Levi-Civita connection, curvature, codifferential, Laplacian.

Derived expectations are computed first with finite-difference oracles that
never touch the symbolic derivative path, or by the expression versions of
the same operators (``conftest``), built with exact differentiation.
"""

import itertools
import math

import numpy as np
import pytest
import conftest
from conftest import bumpy_metric
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gencourant import riemann as rm
from gencourant import tensors as tn
from gencourant.errors import DegreeMismatch, SingularMetric
from gencourant.expr import chart, evaluate, parse_expr
from gencourant.scene import from_upper
from gencourant.streff import Background
from gencourant.tensors import DOWN, UP


C2 = chart("x y", seed=13)


def mk_metric(c, entries):
    return conftest.from_function(c, 2, lambda i, j: parse_expr(entries[i][j], c))


# --- finite-difference oracles (independent of the symbolic path) ----------


def fd_metric(gfun, point, h=1e-5):
    """d_l g_{ij} by central differences of the evaluated metric."""
    n = len(point)
    out = np.zeros((n, n, n))
    for l in range(n):
        up = list(point)
        dn = list(point)
        up[l] += h
        dn[l] -= h
        out[l] = (gfun(up) - gfun(dn)) / (2 * h)
    return out


def fd_christoffel(gfun, point, h=1e-5):
    g = gfun(point)
    ginv = np.linalg.inv(g)
    dg = fd_metric(gfun, point, h)
    n = len(point)
    gamma = np.zeros((n, n, n))
    for k, i, j in itertools.product(range(n), repeat=3):
        gamma[k, i, j] = 0.5 * sum(
            ginv[k, l] * (dg[i, l, j] + dg[j, i, l] - dg[l, i, j]) for l in range(n)
        )
    return gamma


def fd_riemann_scalar(gfun, point, h=1e-4):
    """Scalar curvature from finite differences of FD Christoffels."""
    n = len(point)
    dG = np.zeros((n, n, n, n))
    for m in range(n):
        up = list(point)
        dn = list(point)
        up[m] += h
        dn[m] -= h
        dG[m] = (fd_christoffel(gfun, up) - fd_christoffel(gfun, dn)) / (2 * h)
    gam = fd_christoffel(gfun, point)
    riem = np.zeros((n, n, n, n))
    for k, l, i, j in itertools.product(range(n), repeat=4):
        riem[k, l, i, j] = (
            dG[i, k, j, l]
            - dG[j, k, i, l]
            + sum(gam[k, i, m] * gam[m, j, l] - gam[k, j, m] * gam[m, i, l] for m in range(n))
        )
    ric = np.einsum("klkj->lj", riem)
    return np.einsum("lj,lj->", np.linalg.inv(gfun(point)), ric)


def lc(g, c=C2):
    """The numeric Levi-Civita connection of the Expr array of a metric at
    the chart's sample points."""
    return rm.christoffel(*tn.field_jets(g, c), c)


def jets(comps, c):
    return tn.jets_at(comps, c)


def vals(comps, c):
    return tn.values_at(comps, c.sample_points())


def max_abs(values, c):
    return tn.ex.max_abs_on_points(values, c.sample_points())[0]


# --- christoffel ------------------------------------------------------------


def test_flat_christoffel_zero():
    gamma = lc(conftest.identity(2))
    assert max_abs(gamma.coeffs.value, C2) == 0.0
    assert max_abs(gamma.coeffs.partial.reshape(2, 2, -1, len(C2.sample_points())), C2) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_christoffel_is_symmetric_in_its_lower_pair(n):
    c = chart("x y z w"[: 2 * n - 1], seed=n)
    G, dG = lc(bumpy_metric(c, salt=7), c).coeffs
    np.testing.assert_array_equal(G, G.swapaxes(1, 2))
    np.testing.assert_array_equal(dG, dG.swapaxes(1, 2))


def test_polar_like_christoffel_against_fd_oracle():
    c = chart("x1 x2", domain=((0.4, 2.0), (-1.0, 1.0)), seed=5)
    g = mk_metric(c, [["1", "0"], ["0", "x1^2"]])
    G = lc(g, c).coeffs.value

    def gfun(p):
        return np.array([[1.0, 0.0], [0.0, p[0] ** 2]])

    for q, p in enumerate(c.sample_points()[:6]):
        assert np.max(np.abs(G[..., q] - fd_christoffel(gfun, p))) < 1e-6
        # closed forms confirmed by the oracle above
        assert G[1, 0, 1, q] == pytest.approx(1.0 / p[0], rel=1e-12)
        assert G[0, 1, 1, q] == pytest.approx(-p[0], rel=1e-12)


def test_conformal_1d_christoffel():
    c = chart("x", seed=1)
    g = conftest.from_function(c, 2, lambda i, j: parse_expr("exp(2*x)", c))
    G = lc(g, c).coeffs.value

    def gfun(p):
        return np.array([[np.exp(2 * p[0])]])

    for q, p in enumerate(c.sample_points()[:6]):
        assert G[0, 0, 0, q] == pytest.approx(fd_christoffel(gfun, p)[0, 0, 0], abs=1e-6)
        assert G[0, 0, 0, q] == pytest.approx(1.0, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**16), st.sampled_from([1, 5]))
def test_christoffel_jet_matches_the_symbolic_one(n, salt, count):
    c = chart("x y z w"[: 2 * n - 1], seed=salt, num_points=count)
    g = bumpy_metric(c, salt=salt)
    assume(conftest.well_conditioned(g, c))
    gamma = lc(g, c)
    ginv = conftest.matrix_inverse(g)
    for got, want in ((gamma.ginv, ginv), (gamma.coeffs, conftest.christoffel(g, ginv, c))):
        want = jets(want, c)
        np.testing.assert_allclose(got.value, want.value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.partial, want.partial, rtol=1e-12, atol=1e-12)


def test_singular_metric_raises():
    # christoffel takes g as validated: a positive definite g with
    # |det g| = 1e-12 < DET_TOL is rejected when the background is loaded
    g = mk_metric(C2, [["1", "0"], ["0", "1e-12"]])
    with pytest.raises(SingularMetric):
        Background(C2, g, from_upper(2, 2, {}), 0.0)


# --- covariant derivative ---------------------------------------------------


def make_bumpy_metric(c):
    return mk_metric(c, [["2 + x^2/4", "x*y/8"], ["x*y/8", "1 + y^2/4"]])


def test_metric_compatibility():
    g = make_bumpy_metric(C2)
    gamma = lc(g)
    assert max_abs(rm.covariant_derivative(gamma.g, (DOWN, DOWN), gamma), C2) < 1e-12


def test_covariant_derivative_of_inverse_metric_and_identity_vanish():
    """Up slots (g^{-1}) and mixed slots (the identity) on a curved metric."""
    c3 = chart("x y z", seed=17)
    curved3 = mk_metric(c3, [["2 + x^2/4", "x*y/8", "0"],
                             ["x*y/8", "1 + y*z/4", "z/8"],
                             ["0", "z/8", "3 + x^2"]])
    for g, c in ((make_bumpy_metric(C2), C2), (curved3, c3)):
        gamma = lc(g, c)
        assert max_abs(rm.covariant_derivative(gamma.ginv, (UP, UP), gamma), c) < 1e-12
        one = tn.constant_jet(np.eye(c.dim), c)
        assert max_abs(rm.covariant_derivative(one, (UP, DOWN), gamma), c) < 1e-12


def test_flat_covariant_derivative_is_the_partials():
    gamma = lc(conftest.identity(2))
    t = conftest.from_function(C2, 2, lambda i, j: parse_expr(f"x^{i + 1}*y^{j + 1}", C2))
    a = rm.covariant_derivative(jets(t, C2), (UP, DOWN), gamma)
    b = vals(np.moveaxis(tn.partials(t, C2), -1, 0), C2)
    assert max_abs(a - b, C2) < 1e-12


def test_scalar_covariant_derivative_is_differential():
    gamma = lc(make_bumpy_metric(C2))
    f = parse_expr("sin(x)*y", C2)
    a = rm.covariant_derivative(jets(f, C2), (), gamma)
    assert max_abs(a - vals(tn.partials(f, C2), C2), C2) < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**16), st.sampled_from([1, 5]), st.integers(0, 3))
def test_covariant_derivative_matches_the_symbolic_one(n, salt, count, rank):
    c = chart("x y z w"[: 2 * n - 1], seed=salt, num_points=count)
    g = bumpy_metric(c, salt=salt)
    assume(conftest.well_conditioned(g, c))
    gamma = lc(g, c)
    gen = c.rng(salt)
    variance = tuple(UP if gen.uniform() < 0.5 else DOWN for _ in range(rank))
    t = conftest.from_function(c, rank, lambda *i: tn.ex.random_polynomial(c, gen))
    G = conftest.christoffel(g, conftest.matrix_inverse(g), c)
    np.testing.assert_allclose(rm.covariant_derivative(jets(t, c), variance, gamma),
                               vals(conftest.covariant_derivative(t, variance, G, c), c),
                               rtol=1e-12, atol=1e-12)


# --- curvature --------------------------------------------------------------


def full_riemann(gamma):
    """All n^4 entries R^k_{lij} = d_i G^k_{jl} - d_j G^k_{il}
    + G^k_{im} G^m_{jl} - G^k_{jm} G^m_{il} at the sample points, from the
    jet of the coefficients."""
    G, dG = gamma.coeffs  # dG[k, i, j, m] = d_m G^k_{ij}
    return (np.einsum("kjlip->klijp", dG) - np.einsum("kiljp->klijp", dG)
            + np.einsum("kimp,mjlp->klijp", G, G) - np.einsum("kjmp,milp->klijp", G, G))


def brute_force_riemann(G, c):
    """All n^4 entries of R^k_{lij} as expressions, from all n^4 symbolic
    derivatives of the symbolic coefficients G."""
    n = c.dim
    coords = c.coords()
    dG = np.empty((n,) * 4, dtype=object)  # dG[m, k, i, j] = d_m G^k_{ij}
    for m, k, i, j in itertools.product(range(n), repeat=4):
        dG[m, k, i, j] = tn.ex.differentiate(G[k, i, j], coords[m])
    riem = np.empty((n,) * 4, dtype=object)
    for k, l, i, j in itertools.product(range(n), repeat=4):
        riem[k, l, i, j] = tn.ex.add(
            dG[i, k, j, l], -dG[j, k, i, l],
            *[G[k, i, m] * G[m, j, l] - G[k, j, m] * G[m, i, l] for m in range(n)]
        )
    return riem


def test_flat_curvature_zero():
    gamma = lc(conftest.identity(2))
    ric, scal = rm.curvature_package(gamma)
    assert max_abs(full_riemann(gamma), C2) == 0.0
    assert max_abs(ric, C2) == 0.0
    assert max_abs(scal, C2) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ricci_is_the_trace_of_a_brute_force_riemann(n):
    c = chart("x y z w"[: 2 * n - 1], seed=40 + n, num_points=4)
    g = bumpy_metric(c, salt=n)
    gamma = lc(g, c)
    ric, scal = rm.curvature_package(gamma)
    ginv = conftest.matrix_inverse(g)
    riem = brute_force_riemann(conftest.christoffel(g, ginv, c), c)
    want = np.einsum("klkj->lj", riem)
    np.testing.assert_allclose(ric, vals(want, c), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(scal, vals(np.einsum("lj,lj->", ginv, want), c),
                               rtol=1e-12, atol=1e-12)
    # and every entry of the Riemann tensor of the jet is the brute-force one
    np.testing.assert_allclose(full_riemann(gamma), vals(riem, c), rtol=1e-12, atol=1e-12)


def test_unit_sphere_scalar_curvature():
    c = chart("x1 x2", domain=((0.4, 2.7), (-1.0, 1.0)), seed=7)
    g = mk_metric(c, [["1", "0"], ["0", "sin(x1)^2"]])
    _, scal = rm.curvature_package(lc(g, c))

    def gfun(p):
        return np.array([[1.0, 0.0], [0.0, np.sin(p[0]) ** 2]])

    for q, p in enumerate(c.sample_points()[:5]):
        assert fd_riemann_scalar(gfun, p) == pytest.approx(2.0, abs=1e-4)  # oracle
        assert scal[q] == pytest.approx(2.0, abs=1e-9)


def test_block_metric_scalar_additivity():
    # a flat polar plane times a unit sphere: scalar 0 + 2
    c4 = chart("x1 x2 x3 x4", domain=((0.4, 2.0),) * 4, seed=3)
    entries = [
        ["1", "0", "0", "0"],
        ["0", "x1^2", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "sin(x3)^2"],
    ]
    _, scal = rm.curvature_package(lc(mk_metric(c4, entries), c4))
    np.testing.assert_allclose(scal, 2.0, atol=1e-9)


def test_first_bianchi_identity():
    riem = full_riemann(lc(make_bumpy_metric(C2)))
    cyclic = riem + np.einsum("kijlp->klijp", riem) + np.einsum("kjlip->klijp", riem)
    assert max_abs(cyclic, C2) < 1e-9


def test_ricci_symmetry():
    c3 = chart("x y z", seed=17)
    g = conftest.from_function(
        c3, 2,
        lambda i, j: parse_expr("2" if i == j else "0", c3) if i == j or (i, j) not in [(0, 1), (1, 0)]
        else parse_expr("x*z/4", c3),
    )
    ric, _ = rm.curvature_package(lc(g, c3))
    assert max_abs(ric - ric.swapaxes(0, 1), c3) < 1e-12


# --- form inner product and codifferential ----------------------------------


def flat_inverse(c):
    return vals(conftest.identity(c.dim), c)


def test_form_inner_convention_locks():
    w = from_upper(2, 2, {(0, 1): 1})
    val = rm.form_inner(vals(w, C2), vals(w, C2), flat_inverse(C2))
    assert val[0] == pytest.approx(1.0)


def test_form_inner_three_form_constant():
    c3 = chart("x y z", seed=2)
    H = from_upper(3, 3, {(0, 1, 2): 2.5})
    # oracle: direct index sum (1/3!) H_{ijk} H_{ijk} over all signed perms
    direct = sum(
        evaluate(H[i, j, k], (0, 0, 0)) ** 2 for i, j, k in itertools.product(range(3), repeat=3)
    ) / 6.0
    assert direct == pytest.approx(2.5 ** 2)
    Hv = vals(H, c3)
    assert rm.form_inner(Hv, Hv, flat_inverse(c3))[0] == pytest.approx(2.5 ** 2)


def test_form_inner_symmetry_and_positivity():
    ginv = lc(make_bumpy_metric(C2)).ginv.value
    rng = C2.rng(31)
    a = vals(from_upper(2, 2, {(0, 1): tn.ex.random_polynomial(C2, rng)}), C2)
    b = vals(from_upper(2, 2, {(0, 1): tn.ex.random_polynomial(C2, rng)}), C2)
    assert max_abs(rm.form_inner(a, b, ginv) - rm.form_inner(b, a, ginv), C2) < 1e-12
    assert (rm.form_inner(a, a, ginv) >= -1e-15).all()


def test_form_inner_degree_mismatch():
    v = vals(conftest.identity(2), C2)
    with pytest.raises(DegreeMismatch):
        rm.form_inner(v, v[0], v)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(2, 4), st.integers(0, 2**16), st.booleans())
def test_form_inner_equals_the_brute_force_sum(p, n, salt, free):
    # with ``free``, each operand has one leading free slot and the degree is given
    c = chart("x y z w"[: 2 * n - 1], seed=salt, num_points=2)
    gen = c.rng(salt)
    rand = lambda *idx: tn.ex.random_polynomial(c, gen, 2, 0.5)  # noqa: E731
    alpha = conftest.from_function(c, p + free, rand)
    beta = conftest.from_function(c, p + free, rand)
    upper = {(i, j): rand() for i in range(n) for j in range(i, n)}
    ginv = conftest.from_function(c, 2, lambda i, j: upper[min(i, j), max(i, j)])
    got = rm.form_inner(vals(alpha, c), vals(beta, c), vals(ginv, c), *[p] * free)
    for q, pt in enumerate(c.sample_points()):
        a, b, gi = (conftest.at(t, pt) for t in (alpha, beta, ginv))
        for x, y in itertools.product(range(n), repeat=2) if free else [((), ())]:
            want = math.fsum(
                a[x][idx] * b[y][jdx] * math.prod(gi[i, j] for i, j in zip(idx, jdx))
                for idx in itertools.product(range(n), repeat=p)
                for jdx in itertools.product(range(n), repeat=p)
            ) / math.factorial(p)
            assert got[(x, y, q) if free else q] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_codifferential_constant_flat_zero():
    c3 = chart("x y z", seed=4)
    H = from_upper(3, 3, {(0, 1, 2): 7})
    assert max_abs(rm.codifferential(jets(H, c3), lc(conftest.identity(3), c3)), c3) == 0.0


def test_codifferential_flat_oracle():
    c3 = chart("x y z", seed=9)
    H = from_upper(3, 3, {(0, 1, 2): parse_expr("z", c3)})
    delta = rm.codifferential(jets(H, c3), lc(conftest.identity(3), c3))
    # oracle on a flat metric: (delta H)_{XY} = -d_k H_{k X Y}
    want = -np.einsum("kijk->ij", tn.partials(H, c3))
    assert max_abs(delta - vals(want, c3), c3) < 1e-12


def test_codifferential_nilpotent():
    c4 = chart("x1 x2 x3 x4", seed=10)
    g = conftest.identity(4)
    w = from_upper(4, 4, {(0, 1, 2, 3): parse_expr("x1^2*x4 + x2*x3", c4)})
    G = tn.zeros_array((4, 4, 4))
    d1 = conftest.codifferential(w, G, g, c4)  # the symbolic delta, then the numeric one
    assert max_abs(rm.codifferential(jets(d1, c4), lc(g, c4)), c4) < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**16), st.sampled_from([1, 5]), st.integers(1, 3))
def test_codifferential_matches_the_symbolic_one(n, salt, count, degree):
    c = chart("x y z w"[: 2 * n - 1], seed=salt, num_points=count)
    g = bumpy_metric(c, salt=salt)
    assume(conftest.well_conditioned(g, c))
    gen = c.rng(salt + 1)
    coeffs = {idx: tn.ex.random_polynomial(c, gen)
              for idx in itertools.combinations(range(n), min(degree, n))}
    w = from_upper(n, min(degree, n), coeffs)
    ginv = conftest.matrix_inverse(g)
    want = conftest.codifferential(w, conftest.christoffel(g, ginv, c), ginv, c)
    np.testing.assert_allclose(rm.codifferential(jets(w, c), lc(g, c)), vals(want, c),
                               rtol=1e-12, atol=1e-12)


def test_codifferential_frame_independent():
    gamma = lc(make_bumpy_metric(C2))
    H = jets(from_upper(2, 2, {(0, 1): parse_expr("x^2*y + 1", C2)}), C2)
    delta = rm.codifferential(H, gamma)
    # recompute the frame sum with a GL-perturbed frame f_k = A^a_k d_a
    rng = C2.rng(77)
    A = np.array([[1 + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)],
                  [rng.uniform(-0.3, 0.3), 1 + rng.uniform(-0.3, 0.3)]])
    Ainv = np.linalg.inv(A)
    nab = rm.covariant_derivative(H, (DOWN, DOWN), gamma)
    n = 2
    for i in range(n):
        other = []
        # f^k = (A^-1)^k_b dx^b,  f^k_g = g^{ab} (A^-1)^k_b d_a
        for q in range(len(C2.sample_points())):
            gi = gamma.ginv.value[..., q]
            total = 0.0
            for k in range(n):
                fk = A[:, k]
                fkg = gi @ Ainv[k, :]
                for a0, a1 in itertools.product(range(n), repeat=2):
                    total -= fk[a0] * fkg[a1] * nab[a0, a1, i, q]
            other.append(total)
        assert np.max(np.abs(delta[i] - np.array(other))) < 1e-9


# --- Laplacian and divergence ------------------------------------------------


def test_laplacian_of_constant():
    lap, grad, norm2 = rm.laplace_divergence(jets(tn.partials(parse_expr("3", C2), C2), C2),
                                             lc(make_bumpy_metric(C2)))
    assert max_abs(np.stack([lap, norm2]), C2) == 0.0
    assert max_abs(grad.value, C2) == 0.0


def test_flat_laplacian_example():
    f = parse_expr("x^2 + y^2", C2)
    lap, grad, norm2 = rm.laplace_divergence(jets(tn.partials(f, C2), C2), lc(conftest.identity(2)))
    for q, p in enumerate(C2.sample_points()):
        assert lap[q] == pytest.approx(4.0, abs=1e-12)
        assert norm2[q] == pytest.approx(4 * (p[0] ** 2 + p[1] ** 2), rel=1e-12)


def test_laplacian_matches_the_symbolic_one():
    c3 = chart("x y z", seed=21, num_points=5)
    g = bumpy_metric(c3, salt=3)
    phi = tn.ex.random_polynomial(c3, c3.rng(4))
    lap, _, _ = rm.laplace_divergence(jets(tn.partials(phi, c3), c3), lc(g, c3))
    oracle = conftest.Oracle(Background(c3, g, tn.zeros_array((3, 3)), phi))
    np.testing.assert_allclose(lap, vals(oracle.laplacian, c3), rtol=1e-12, atol=1e-12)


def test_rotation_field_divergence_free():
    v = conftest.from_function(C2, 1, lambda i: parse_expr("-y" if i == 0 else "x", C2))
    assert max_abs(rm.divergence(jets(v, C2), lc(conftest.identity(2))), C2) == 0.0
