"""Levi-Civita connection, curvature, codifferential, Laplacian.

Derived expectations are computed first with finite-difference oracles that
never touch the symbolic derivative path.
"""

import itertools
import math

import numpy as np
import pytest
from conftest import bumpy_metric
from hypothesis import given, settings
from hypothesis import strategies as st

from gencourant import riemann as rm
from gencourant import tensors as tn
from gencourant.expr import chart, evaluate, parse_expr
from gencourant.tensors import DOWN, UP


C2 = chart("x y", seed=13)


def mk_metric(c, entries):
    return tn.from_function(c, (DOWN, DOWN), lambda i, j: parse_expr(entries[i][j], c))


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


# --- christoffel ------------------------------------------------------------


def test_flat_christoffel_zero():
    gamma = rm.christoffel(tn.euclidean_metric(C2))
    assert tn.ex.max_abs_on_points(gamma.coeffs, C2.sample_points())[0] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_christoffel_symmetric_pairs_are_one_object(n):
    c = chart("x y z w"[: 2 * n - 1], seed=n)
    gen = c.rng(7)
    pert = [[tn.ex.random_polynomial(c, gen, 2, 0.2) for _ in range(n)] for _ in range(n)]
    g = tn.from_function(c, (DOWN, DOWN),
                         lambda i, j: (1.0 if i == j else 0.0) + pert[min(i, j)][max(i, j)])
    G = rm.christoffel(g).coeffs
    for k, i, j in itertools.product(range(n), repeat=3):
        assert G[k, i, j] is G[k, j, i]
    assert len({id(e) for e in G.reshape(-1)}) <= n * n * (n + 1) // 2


def test_polar_like_christoffel_against_fd_oracle():
    c = chart("x1 x2", domain=((0.4, 2.0), (-1.0, 1.0)), seed=5)
    g = mk_metric(c, [["1", "0"], ["0", "x1^2"]])
    gamma = rm.christoffel(g)

    def gfun(p):
        return np.array([[1.0, 0.0], [0.0, p[0] ** 2]])

    for p in c.sample_points()[:6]:
        want = fd_christoffel(gfun, p)
        got = np.array(
            [[[evaluate(gamma.coeffs[k, i, j], p) for j in range(2)] for i in range(2)] for k in range(2)]
        )
        assert np.max(np.abs(got - want)) < 1e-6
        # closed forms confirmed by the oracle above
        assert evaluate(gamma.coeffs[1, 0, 1], p) == pytest.approx(1.0 / p[0], rel=1e-12)
        assert evaluate(gamma.coeffs[0, 1, 1], p) == pytest.approx(-p[0], rel=1e-12)


def test_conformal_1d_christoffel():
    c = chart("x", seed=1)
    g = tn.from_function(c, (DOWN, DOWN), lambda i, j: parse_expr("exp(2*x)", c))
    gamma = rm.christoffel(g)

    def gfun(p):
        return np.array([[np.exp(2 * p[0])]])

    for p in c.sample_points()[:6]:
        want = fd_christoffel(gfun, p)[0, 0, 0]
        got = evaluate(gamma.coeffs[0, 0, 0], p)
        assert got == pytest.approx(want, abs=1e-6)
        assert got == pytest.approx(1.0, rel=1e-12)


# --- covariant derivative ---------------------------------------------------


def make_bumpy_metric(c):
    return mk_metric(c, [["2 + x^2/4", "x*y/8"], ["x*y/8", "1 + y^2/4"]])


def test_metric_compatibility():
    g = make_bumpy_metric(C2)
    gamma = rm.christoffel(g)
    nabg = rm.covariant_derivative(g, gamma)
    assert nabg.max_abs()[0] < 1e-12


def test_flat_covariant_derivative_is_gradient():
    g = tn.euclidean_metric(C2)
    gamma = rm.christoffel(g)
    t = tn.from_function(C2, (UP, DOWN), lambda i, j: parse_expr(f"x^{i + 1}*y^{j + 1}", C2))
    a = rm.covariant_derivative(t, gamma)
    b = tn.coordinate_gradient(t)
    diff = [p - q for p, q in zip(a.comps.reshape(-1), b.comps.reshape(-1))]
    assert tn.ex.max_abs_on_points(diff, C2.sample_points())[0] < 1e-12


def test_scalar_covariant_derivative_is_differential():
    g = make_bumpy_metric(C2)
    gamma = rm.christoffel(g)
    f = tn.scalar_field(C2, parse_expr("sin(x)*y", C2))
    a = rm.covariant_derivative(f, gamma)
    b = tn.d_scalar(C2, parse_expr("sin(x)*y", C2))
    diff = [p - q for p, q in zip(a.comps.reshape(-1), b.comps.reshape(-1))]
    assert tn.ex.max_abs_on_points(diff, C2.sample_points())[0] < 1e-12


# --- curvature --------------------------------------------------------------


def full_riemann(gamma):
    """All n^4 entries R^k_{lij}, from the per-entry builder."""
    n = gamma.chart.dim
    riem = np.empty((n,) * 4, dtype=object)
    for idx in itertools.product(range(n), repeat=4):
        riem[idx] = rm.riemann_entry(gamma, *idx)
    return riem


def brute_force_riemann(gamma):
    """All n^4 entries of R^k_{lij} = d_i G^k_{jl} - d_j G^k_{il}
    + G^k_{im} G^m_{jl} - G^k_{jm} G^m_{il}, from all n^4 derivatives."""
    n, G = gamma.chart.dim, gamma.coeffs
    coords = gamma.chart.coords()
    dG = np.empty((n,) * 4, dtype=object)  # dG[m, k, i, j] = d_m G^k_{ij}
    for m, k, i, j in itertools.product(range(n), repeat=4):
        dG[m, k, i, j] = tn.ex.differentiate(G[k, i, j], coords[m])
    riem = np.empty((n,) * 4, dtype=object)
    for k, l, i, j in itertools.product(range(n), repeat=4):
        riem[k, l, i, j] = tn.ex.esum(
            [dG[i, k, j, l], -dG[j, k, i, l]]
            + [G[k, i, m] * G[m, j, l] - G[k, j, m] * G[m, i, l] for m in range(n)]
        )
    return riem


def test_flat_curvature_zero():
    gamma = rm.christoffel(tn.euclidean_metric(C2))
    ric, scal = rm.curvature_package(gamma)
    assert tn.ex.max_abs_on_points(full_riemann(gamma), C2.sample_points())[0] == 0.0
    assert ric.max_abs()[0] == 0.0
    assert scal is tn.ex.ZERO or evaluate(scal, (0.1, 0.2)) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ricci_is_the_trace_of_a_brute_force_riemann(n):
    c = chart("x y z w"[: 2 * n - 1], seed=40 + n, num_points=4)
    gamma = rm.christoffel(bumpy_metric(c, salt=n))
    ric, scal = rm.curvature_package(gamma)
    riem = brute_force_riemann(gamma)
    want = tn.contract("klkj->lj", riem)
    pts = c.sample_points()
    got_vals = tn.ex.evaluate_points(list(ric.comps.reshape(-1)) + [scal], pts)
    want_vals = tn.ex.evaluate_points(
        list(want.reshape(-1)) + [tn.contract("lj,lj->", gamma.metric_inverse.comps, want)], pts
    )
    np.testing.assert_allclose(got_vals, want_vals, rtol=1e-12, atol=1e-12)
    # and every entry of the per-entry builder is the brute-force one
    np.testing.assert_allclose(
        tn.ex.evaluate_points(full_riemann(gamma).reshape(-1), pts),
        tn.ex.evaluate_points(riem.reshape(-1), pts),
        rtol=1e-12, atol=1e-12,
    )


def test_unit_sphere_scalar_curvature():
    c = chart("x1 x2", domain=((0.4, 2.7), (-1.0, 1.0)), seed=7)
    g = mk_metric(c, [["1", "0"], ["0", "sin(x1)^2"]])
    _, scal = rm.curvature_package(rm.christoffel(g))

    def gfun(p):
        return np.array([[1.0, 0.0], [0.0, np.sin(p[0]) ** 2]])

    for p in c.sample_points()[:5]:
        assert fd_riemann_scalar(gfun, p) == pytest.approx(2.0, abs=1e-4)  # oracle
        assert evaluate(scal, p) == pytest.approx(2.0, abs=1e-9)


def test_block_metric_scalar_additivity():
    c4 = chart("x1 x2 x3 x4", domain=((0.4, 2.0),) * 4, seed=3)
    entries = [
        ["1", "0", "0", "0"],
        ["0", "x1^2", "0", "0"],
        ["0", "0", "1", "0"],
        ["0", "0", "0", "sin(x3)^2"],
    ]
    g = mk_metric(c4, entries)
    _, scal = rm.curvature_package(rm.christoffel(g))

    c2 = chart("x1 x2", domain=((0.4, 2.0),) * 2)
    _, s1 = rm.curvature_package(rm.christoffel(mk_metric(c2, [["1", "0"], ["0", "x1^2"]])))
    _, s2 = rm.curvature_package(rm.christoffel(mk_metric(c2, [["1", "0"], ["0", "sin(x1)^2"]])))
    for p in c4.sample_points()[:5]:
        left = evaluate(scal, p)
        right = evaluate(s1, (p[0], p[1])) + evaluate(s2, (p[2], p[3]))
        assert left == pytest.approx(right, abs=1e-9)


def test_first_bianchi_identity():
    g = make_bumpy_metric(C2)
    riem = full_riemann(rm.christoffel(g))
    n = 2
    residuals = []
    for k, l, i, j in itertools.product(range(n), repeat=4):
        residuals.append(riem[k, l, i, j] + riem[k, i, j, l] + riem[k, j, l, i])
    assert tn.ex.max_abs_on_points(residuals, C2.sample_points())[0] < 1e-9


def test_ricci_symmetry():
    c3 = chart("x y z", seed=17)
    g = tn.from_function(
        c3, (DOWN, DOWN),
        lambda i, j: parse_expr("2" if i == j else "0", c3) if i == j or (i, j) not in [(0, 1), (1, 0)]
        else parse_expr("x*z/4", c3),
    )
    ric, _ = rm.curvature_package(rm.christoffel(g))
    diffs = [ric.comps[i, j] - ric.comps[j, i] for i in range(3) for j in range(3)]
    assert tn.ex.max_abs_on_points(diffs, c3.sample_points())[0] < 1e-12


# --- form inner product and codifferential ----------------------------------


def test_form_inner_convention_locks():
    g = tn.euclidean_metric(C2)
    w = tn.form_from_wedge_coeffs(C2, 2, {(0, 1): 1})
    val = rm.form_inner(w, w, tn.metric_inverse(g))
    assert evaluate(val, (0.3, 0.4)) == pytest.approx(1.0)


def test_form_inner_three_form_constant():
    c3 = chart("x y z", seed=2)
    g = tn.euclidean_metric(c3)
    H = tn.form_from_wedge_coeffs(c3, 3, {(0, 1, 2): 2.5})
    # oracle: direct index sum (1/3!) H_{ijk} H_{ijk} over all signed perms
    direct = sum(
        evaluate(H.comps[i, j, k], (0, 0, 0)) ** 2 for i, j, k in itertools.product(range(3), repeat=3)
    ) / 6.0
    assert direct == pytest.approx(2.5 ** 2)
    assert evaluate(rm.form_inner(H, H, tn.metric_inverse(g)), (0.1, 0.2, 0.3)) == pytest.approx(2.5 ** 2)


def test_form_inner_symmetry_and_positivity():
    g = make_bumpy_metric(C2)
    rng = C2.rng(31)
    a = tn.form_from_wedge_coeffs(C2, 2, {(0, 1): tn.ex.random_polynomial(C2, rng)})
    b = tn.form_from_wedge_coeffs(C2, 2, {(0, 1): tn.ex.random_polynomial(C2, rng)})
    pts = C2.sample_points()
    sym = rm.form_inner(a, b, tn.metric_inverse(g)) - rm.form_inner(b, a, tn.metric_inverse(g))
    assert tn.ex.max_abs_on_points([sym], pts)[0] < 1e-12
    for p in pts:
        assert evaluate(rm.form_inner(a, a, tn.metric_inverse(g)), p) >= -1e-15


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(2, 4), st.integers(0, 2**16))
def test_form_inner_equals_the_brute_force_sum(p, n, salt):
    c = chart("x y z w"[: 2 * n - 1], seed=salt, num_points=2)
    gen = c.rng(salt)
    rand = lambda *idx: tn.ex.random_polynomial(c, gen, 2, 0.5)  # noqa: E731
    alpha = tn.from_function(c, (DOWN,) * p, rand)
    beta = tn.from_function(c, (DOWN,) * p, rand)
    upper = {(i, j): rand() for i in range(n) for j in range(i, n)}
    ginv = tn.from_function(c, (UP, UP), lambda i, j: upper[min(i, j), max(i, j)])
    got = rm.form_inner(alpha, beta, ginv)
    for pt in c.sample_points():
        a, b, gi = alpha.evaluate(pt), beta.evaluate(pt), ginv.evaluate(pt)
        want = math.fsum(
            a[idx] * b[jdx] * math.prod(gi[i, j] for i, j in zip(idx, jdx))
            for idx in itertools.product(range(n), repeat=p)
            for jdx in itertools.product(range(n), repeat=p)
        ) / math.factorial(p)
        assert evaluate(got, pt) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_codifferential_constant_flat_zero():
    c3 = chart("x y z", seed=4)
    g = tn.euclidean_metric(c3)
    H = tn.form_from_wedge_coeffs(c3, 3, {(0, 1, 2): 7})
    assert rm.codifferential(H, rm.christoffel(g)).max_abs()[0] == 0.0


def test_codifferential_flat_oracle():
    c3 = chart("x y z", seed=9)
    g = tn.euclidean_metric(c3)
    H = tn.form_from_wedge_coeffs(c3, 3, {(0, 1, 2): parse_expr("z", c3)})
    delta = rm.codifferential(H, rm.christoffel(g))
    # oracle on a flat metric: (delta H)_{XY} = -d_k H_{k X Y}
    coords = c3.coords()
    for i, j in itertools.product(range(3), repeat=2):
        want = -tn.ex.esum(
            tn.ex.differentiate(H.comps[k, i, j], coords[k]) for k in range(3)
        )
        diff = delta.comps[i, j] - want
        assert tn.ex.max_abs_on_points([diff], c3.sample_points())[0] < 1e-12


def test_codifferential_nilpotent():
    c4 = chart("x1 x2 x3 x4", seed=10)
    g = tn.euclidean_metric(c4)
    w = tn.form_from_wedge_coeffs(
        c4, 4, {(0, 1, 2, 3): parse_expr("x1^2*x4 + x2*x3", c4)}
    )
    d1 = rm.codifferential(w, rm.christoffel(g))
    d2 = rm.codifferential(d1, rm.christoffel(g))
    assert d2.max_abs()[0] < 1e-12


def test_codifferential_frame_independent():
    g = make_bumpy_metric(C2)
    gamma = rm.christoffel(g)
    H = tn.form_from_wedge_coeffs(C2, 2, {(0, 1): parse_expr("x^2*y + 1", C2)})
    delta = rm.codifferential(H, gamma)
    # recompute the frame sum with a GL-perturbed frame f_k = A^a_k d_a
    rng = C2.rng(77)
    A = np.array([[1 + rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)],
                  [rng.uniform(-0.3, 0.3), 1 + rng.uniform(-0.3, 0.3)]])
    Ainv = np.linalg.inv(A)
    nab = rm.covariant_derivative(H, gamma)
    ginv = gamma.metric_inverse
    n = 2
    for i in range(n):
        other = []
        # f^k = (A^-1)^k_b dx^b,  f^k_g = g^{ab} (A^-1)^k_b d_a
        for p in C2.sample_points():
            nv = nab.evaluate(p)
            gi = ginv.evaluate(p)
            total = 0.0
            for k in range(n):
                fk = A[:, k]
                fkg = gi @ Ainv[k, :]
                for a0, a1 in itertools.product(range(n), repeat=2):
                    total -= fk[a0] * fkg[a1] * nv[a0, a1, i]
            other.append(total)
        mine = [evaluate(delta.comps[i], p) for p in C2.sample_points()]
        assert np.max(np.abs(np.array(mine) - np.array(other))) < 1e-9


# --- Laplacian and divergence ------------------------------------------------


def test_laplacian_of_constant():
    g = make_bumpy_metric(C2)
    lap, grad, norm2 = rm.laplace_divergence(parse_expr("3", C2), rm.christoffel(g))
    assert tn.ex.max_abs_on_points([lap, norm2], C2.sample_points())[0] == 0.0
    assert grad.max_abs()[0] == 0.0


def test_flat_laplacian_example():
    g = tn.euclidean_metric(C2)
    lap, grad, norm2 = rm.laplace_divergence(parse_expr("x^2 + y^2", C2), rm.christoffel(g))
    for p in C2.sample_points():
        assert evaluate(lap, p) == pytest.approx(4.0, abs=1e-12)
        assert evaluate(norm2, p) == pytest.approx(4 * (p[0] ** 2 + p[1] ** 2), rel=1e-12)


def test_rotation_field_divergence_free():
    g = tn.euclidean_metric(C2)
    v = tn.from_function(C2, (UP,), lambda i: parse_expr("-y" if i == 0 else "x", C2))
    dv = rm.divergence(v, rm.christoffel(g))
    assert tn.ex.max_abs_on_points([dv], C2.sample_points())[0] == 0.0
