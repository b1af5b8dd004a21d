"""String-background residuals: the anomaly tensors, the curvature
dictionary, and the bivector-gauge equivalence."""

import itertools

import numpy as np
import pytest

from gencourant import gconn, gtb, riemann as rm, streff, tensors as tn
from gencourant.errors import SingularB
from gencourant.expr import chart, evaluate, parse_expr
from gencourant.streff import Background, Derived, beta_all, central_residuals, equivalence_report
from gencourant.tensors import DOWN, UP

from conftest import bumpy_b, bumpy_metric, random_background, symbolic_covariant_derivative


def flat_background(n=2, constant_b=False):
    c = chart("x y z"[: 2 * n - 1], seed=71, num_points=10)
    g = tn.euclidean_metric(c)
    if constant_b:
        B = tn.form_from_wedge_coeffs(c, 2, {(0, 1): 1})
    else:
        B = tn.zeros(c, (DOWN, DOWN))
    return Background(c, g, B, 0.0)


# ---------------------------------------------------------------------------
# residual tensors
# ---------------------------------------------------------------------------


def test_flat_background_all_residuals_vanish():
    bg = flat_background(constant_b=True)
    betas = beta_all(Derived(bg))
    assert betas.max_abs(bg.chart.sample_points())[0] == 0.0
    assert evaluate(betas.beta_phi_prime, (0.1, 0.2)) == 0.0


def test_beta_b_conformal_form_agrees():
    bg = random_background(2, salt=3)
    betas = beta_all(Derived(bg))
    other = streff.beta_b_conformal_form(Derived(bg))
    d = [a - b for a, b in zip(betas.beta_B.comps.reshape(-1), other.comps.reshape(-1))]
    assert tn.ex.max_abs_on_points(d, bg.chart.sample_points())[0] < 1e-9


def test_beta_g_index_form_agrees():
    bg = random_background(2, salt=5)
    betas = beta_all(Derived(bg))
    other = streff.beta_g_index_form(Derived(bg))
    d = [a - b for a, b in zip(betas.beta_g.comps.reshape(-1), other.comps.reshape(-1))]
    assert tn.ex.max_abs_on_points(d, bg.chart.sample_points())[0] < 1e-9


def test_beta_symmetries():
    bg = random_background(2, salt=7)
    betas = beta_all(Derived(bg))
    n = bg.chart.dim
    sym = [betas.beta_g.comps[i, j] - betas.beta_g.comps[j, i] for i in range(n) for j in range(n)]
    skew = [betas.beta_B.comps[i, j] + betas.beta_B.comps[j, i] for i in range(n) for j in range(n)]
    assert tn.ex.max_abs_on_points(sym + skew, bg.chart.sample_points())[0] < 1e-12


def test_beta_phi_prime_relation_and_direct_form():
    bg = random_background(2, salt=9)
    betas = beta_all(Derived(bg))
    # direct assembly: -1/2 Lap + |grad|^2 - 1/4 <H',H'>
    g = bg.g
    Hp = bg.h_total()
    lap, _, norm2 = rm.laplace_divergence(bg.phi, rm.christoffel(g))
    direct = -0.5 * lap + norm2 - 0.25 * rm.form_inner(Hp, Hp, tn.metric_inverse(g))
    d = betas.beta_phi_prime - direct
    assert tn.ex.max_abs_on_points([d], bg.chart.sample_points())[0] < 1e-12


# ---------------------------------------------------------------------------
# the central identities
# ---------------------------------------------------------------------------


def test_central_identities_flat_exact():
    bg = flat_background()
    res = central_residuals(Derived(bg))
    assert res.max_abs(bg.chart.sample_points())[0] == 0.0


@pytest.mark.parametrize("salt", [11, 12, 13])
def test_central_identities_random_2d(salt):
    bg = random_background(2, salt=salt)
    res = central_residuals(Derived(bg))
    worst, _ = res.max_abs(bg.chart.sample_points())
    assert worst < 1e-9


def test_central_identities_random_3d():
    bg = random_background(3, salt=21)
    res = central_residuals(Derived(bg))
    worst, _ = res.max_abs(bg.chart.sample_points())
    assert worst < 1e-9


def test_central_identities_nonzero_twist():
    bg = random_background(2, salt=15, with_h=True)
    assert bg.H.max_abs()[0] > 0  # the twist really is nonzero
    res = central_residuals(Derived(bg))
    assert res.max_abs(bg.chart.sample_points())[0] < 1e-9


def test_metric_trace_equals_scalar_residual_closed_form():
    bg = random_background(2, salt=17)
    conn = Derived(bg).dilaton
    sg = gconn.scalar_G(conn)
    g, Hp = bg.g, bg.h_total()
    _, rscal = rm.curvature_package(rm.christoffel(g))
    lap, _, norm2 = rm.laplace_divergence(bg.phi, rm.christoffel(g))
    want = rscal - 0.5 * rm.form_inner(Hp, Hp, tn.metric_inverse(g)) + 4.0 * lap - 4.0 * norm2
    pts = bg.chart.sample_points()
    assert tn.ex.max_abs_on_points(sg - tn.values_at(want, pts), pts)[0] < 1e-9


def test_off_shell_backgrounds_have_nonzero_betas():
    bg = random_background(2, salt=19)
    assert beta_all(Derived(bg)).max_abs(bg.chart.sample_points())[0] > 1e-3


# ---------------------------------------------------------------------------
# cotangent algebroid connection
# ---------------------------------------------------------------------------


def test_lie_algebroid_lc_constant_data_is_flat():
    c = chart("x y", seed=81)
    theta = tn.TensorField(c, (UP, UP), tn.form_from_wedge_coeffs(c, 2, {(0, 1): 1}).comps)
    G = tn.euclidean_metric(c)
    cot = gtb.LieAlgebroidCotangent.build(theta, tn.zeros(c, (DOWN,) * 3))
    gamma = cot.algebroid.lc_connection(tn.matrix_inverse(G.comps))
    assert tn.ex.max_abs_on_points(gamma, c.sample_points())[0] == 0.0
    ric, scal = streff.algebroid_curvature(cot, gamma, G)
    assert tn.ex.max_abs_on_points(ric, c.sample_points())[0] == 0.0
    assert tn.ex.max_abs_on_points(scal, c.sample_points())[0] == 0.0
    w = gtb.d_theta(c, parse_expr("x", c), theta).comps
    nab_w = cot.algebroid.covariant_derivative_at(tn.values_at(gamma, c.sample_points()), w,
                                                  c.sample_points())
    assert tn.ex.max_abs_on_points(nab_w, c.sample_points())[0] == 0.0


def symplectic_background(salt=23, n=2):
    return random_background(n, salt=salt, invertible_b=True)


def test_algebroid_connection_torsion_free():
    bg = symplectic_background()
    pkg = streff.build_symplectic(Derived(bg))
    alg = pkg.cotangent.algebroid
    n = bg.chart.dim
    res = []
    for a, b, c in itertools.product(range(n), repeat=3):
        res.append(pkg.gamma[c, a, b] - pkg.gamma[c, b, a] - alg.structure[c, a, b])
    assert tn.ex.max_abs_on_points(res, bg.chart.sample_points())[0] < 1e-9


def test_algebroid_connection_metric_compatibility():
    bg = symplectic_background(salt=25)
    pkg = streff.build_symplectic(Derived(bg))
    alg = pkg.cotangent.algebroid
    n = bg.chart.dim
    res = []
    for a, b, c in itertools.product(range(n), repeat=3):
        lhs = alg.frame_derivative(a, pkg.g_A[b, c])
        rhs = tn.ex.esum(
            [tn.ex.mul(pkg.gamma[d, a, b], pkg.g_A[d, c]) for d in range(n)]
            + [tn.ex.mul(pkg.gamma[d, a, c], pkg.g_A[b, d]) for d in range(n)]
        )
        res.append(lhs - rhs)
    assert tn.ex.max_abs_on_points(res, bg.chart.sample_points())[0] < 1e-9


def test_koszul_jacobi_for_inverse_bivector():
    bg = symplectic_background(salt=27)
    theta = gtb.theta_matrix_from_b(bg.B)
    dB = tn.exterior_derivative(bg.B)
    n = bg.chart.dim
    frames = [
        tn.from_function(bg.chart, (DOWN,), lambda i, a=a: tn.ex.ONE if i == a else tn.ex.ZERO)
        for a in range(n)
    ]
    br = lambda x, y: gtb.koszul(x, y, theta, dB)
    res = []
    for a, b, c in itertools.product(range(n), repeat=3):
        jac = br(frames[a], br(frames[b], frames[c])) - br(br(frames[a], frames[b]), frames[c]) \
            - br(frames[b], br(frames[a], frames[c]))
        res.extend(jac.comps.reshape(-1))
    assert tn.ex.max_abs_on_points(res, bg.chart.sample_points())[0] < 1e-9


# ---------------------------------------------------------------------------
# symplectic residuals and the equivalence
# ---------------------------------------------------------------------------


def test_symplectic_flat_background_vanishes():
    bg = flat_background(constant_b=True)
    res1, res2, res3 = Derived(bg).dual_residuals
    for res in (res1, res2, res3):
        assert tn.ex.max_abs_on_points(res, bg.chart.sample_points())[0] < 1e-12


def test_symplectic_odd_dimension_rejected():
    bg = random_background(3, salt=29)
    with pytest.raises(SingularB):
        streff.build_symplectic(Derived(bg))


def test_symplectic_scalar_equals_transported_metric_trace():
    """Independent paths: coframe-side classical assembly vs the frame-side
    metric trace of the sheared dilaton connection."""
    bg = symplectic_background(salt=31)
    derived = Derived(bg)
    res1, _, _ = derived.dual_residuals
    sg = gconn.scalar_G(streff.theta_transported_connection(derived))
    assert tn.ex.max_abs_on_points(res1 - sg, bg.chart.sample_points())[0] < 1e-9


def test_symplectic_2d_degree_reduction():
    """On a 2-chart every 3-form dies, so the scalar residual reduces to
    R^theta(G^{-1}) + 4 Lap - 4 |d phi|^2 and the skew residual vanishes."""
    bg = symplectic_background(salt=33)
    pkg = streff.build_symplectic(Derived(bg))
    assert tn.ex.max_abs_on_points(pkg.H_theta, bg.chart.sample_points())[0] < 1e-12
    res1, _, res3 = streff.symplectic_residuals(pkg)
    n = 2
    G = pkg.G
    w = pkg.dphi_dual
    norm2 = tn.ex.esum(
        tn.ex.mul(G.comps[a, b], w[a], w[b]) for a in range(n) for b in range(n)
    )
    # G^{ak} (nab_{E_k} w)_a, from the definition of nab
    nab_w = symbolic_covariant_derivative(pkg.cotangent.algebroid, pkg.gamma, w)
    lap = tn.contract("ak,ka->", G.comps, nab_w)
    _, scalar = streff.algebroid_curvature(pkg.cotangent, pkg.gamma, G)
    pts = bg.chart.sample_points()
    reduced = scalar + tn.values_at(4.0 * lap - 4.0 * norm2, pts)
    assert tn.ex.max_abs_on_points(res1 - reduced, pts)[0] < 1e-12
    assert tn.ex.max_abs_on_points(res3, pts)[0] < 1e-12


def test_transport_identity_off_shell():
    bg = symplectic_background(salt=35)
    residual = streff.transport_identity_residual(Derived(bg))
    assert tn.ex.max_abs_on_points(residual, bg.chart.sample_points())[0] < 1e-9


def test_equivalence_report_flat():
    bg = flat_background(constant_b=True)
    derived = Derived(bg)
    rep = equivalence_report(derived)
    assert rep.beta_on_shell and rep.symplectic_on_shell
    assert rep.verdict == "equivalent: both on-shell"
    assert tn.ex.max_abs_on_points(derived.transport, bg.chart.sample_points())[0] < 1e-9


def test_equivalence_report_off_shell_and_scaling():
    bg = symplectic_background(salt=37)
    derived = Derived(bg)
    rep = equivalence_report(derived)
    pts = bg.chart.sample_points()
    assert not rep.beta_on_shell and not rep.symplectic_on_shell
    assert rep.verdict == "equivalent: both off-shell"
    assert tn.ex.max_abs_on_points(derived.transport, pts)[0] < 1e-9
    # rescaling g keeps the verdict structure
    bg2 = Background(bg.chart, bg.g.scale(2.0), bg.B, bg.phi, bg.H)
    derived2 = Derived(bg2)
    rep2 = equivalence_report(derived2)
    assert rep2.verdict == rep.verdict
    assert tn.ex.max_abs_on_points(derived2.transport, pts)[0] < 1e-9
