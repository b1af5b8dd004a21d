"""String-background residuals: the anomaly tensors, the curvature
dictionary, and the bivector-gauge equivalence."""


import numpy as np
import pytest

from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from gencourant import gconn, gtb, riemann as rm, streff, tensors as tn
from gencourant.cli import run_command
from gencourant.errors import NotPositiveDefinite, SingularB, SingularMetric
from gencourant.expr import chart, parse_expr
from gencourant.scene import Scene, from_upper
from gencourant.streff import Background, Derived, beta_all, central_residuals
from gencourant.tensors import DOWN

import conftest
import oracles
from conftest import Oracle, random_background, symbolic_covariant_derivative


def flat_background(n=2, constant_b=False):
    c = chart("x y z"[: 2 * n - 1], seed=71, num_points=10)
    B = from_upper(n, 2, {(0, 1): 1} if constant_b else {})
    return Background(c, conftest.identity(n), B, 0.0)


def test_background_rejects_a_singular_metric():
    # positive definite, but |det g| = 1e-12 is below DET_TOL: the load
    # rejects it
    c = chart("x y", seed=13)
    g = conftest.from_function(c, 2, lambda i, j: parse_expr("1e-6" if i == j else "0", c))
    with pytest.raises(SingularMetric, match=r"^\|det\| < 1e-10 at sample point \("):
        Background(c, g, from_upper(2, 2, {}), 0.0)


# ---------------------------------------------------------------------------
# residual tensors
# ---------------------------------------------------------------------------


def test_flat_background_all_residuals_vanish():
    bg = flat_background(constant_b=True)
    derived = Derived(bg)
    betas = derived.betas
    assert derived.beta_max[0] == 0.0
    assert (betas.beta_phi_prime == 0.0).all()


def max_abs(values, bg):
    return tn.ex.max_abs_on_points(values, bg.chart.sample_points())[0]


def test_beta_b_conformal_form_agrees():
    bg = random_background(2, salt=3)
    derived = Derived(bg)
    assert max_abs(derived.betas.beta_B - streff.beta_b_conformal_form(derived), bg) < 1e-9


def test_beta_g_index_form_agrees():
    bg = random_background(2, salt=5)
    derived = Derived(bg)
    assert max_abs(derived.betas.beta_g - streff.beta_g_index_form(derived), bg) < 1e-9


def test_beta_symmetries():
    bg = random_background(2, salt=7)
    betas = beta_all(Derived(bg))
    assert max_abs(betas.beta_g - betas.beta_g.swapaxes(0, 1), bg) < 1e-12
    assert max_abs(betas.beta_B + betas.beta_B.swapaxes(0, 1), bg) < 1e-12


def test_beta_phi_prime_relation_and_direct_form():
    bg = random_background(2, salt=9)
    derived = Derived(bg)
    # direct assembly: -1/2 Lap + |grad|^2 - 1/4 <H',H'>
    Hp = derived.h_prime.value
    lap, _, norm2 = rm.laplace_divergence(derived.jets.phi[1], derived.gamma)
    direct = -0.5 * lap + norm2 - 0.25 * rm.form_inner(Hp, Hp, derived.ginv.value)
    assert max_abs(derived.betas.beta_phi_prime - direct, bg) < 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 3), st.integers(0, 2**16), st.sampled_from([1, 5]))
def test_classical_stage_matches_the_symbolic_one(n, salt, count):
    # the chart Ricci tensor and scalar, Hess phi, Lap phi, delta H', <H', H'>
    # and the three residuals against their expression versions
    try:
        bg = random_background(n, salt=salt % 1000, seed=salt, num_points=count)
    except NotPositiveDefinite:
        reject()  # a metric no scene may have
    assume(conftest.well_conditioned(bg.g, bg.chart))
    derived, oracle = Derived(bg), Oracle(bg)
    ric, scalar = derived.curvature
    # a nearly flat background is valid but compares little: draw another
    assume(np.abs(ric).max() > 1e-3)
    dphi = derived.jets.phi[1]
    lap, _, _ = rm.laplace_divergence(dphi, derived.gamma)
    Hp, ginv = derived.h_prime, derived.ginv.value
    betas = derived.betas
    want_ric, want_scalar = oracle.curvature
    cases = [
        (ric, want_ric), (scalar, want_scalar),
        (rm.covariant_derivative(dphi, (DOWN,), derived.gamma), oracle.hessian),
        (lap, oracle.laplacian),
        (rm.codifferential(Hp, derived.gamma), oracle.delta_h),
        (rm.form_inner(Hp.value, Hp.value, ginv),
         conftest.form_inner(oracle.h_prime, oracle.h_prime, oracle.ginv)),
        (betas.beta_g, oracle.betas[0]), (betas.beta_B, oracle.betas[1]),
        (betas.beta_phi, oracle.betas[2]),
    ]
    for got, want in cases:
        np.testing.assert_allclose(got, oracle.values(want), rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# the central identities
# ---------------------------------------------------------------------------


def central_max_abs(bg):
    """The largest |residual| of both central identities of bg."""
    pts = bg.chart.sample_points()
    return max(tn.ex.max_abs_on_points(r, pts)[0] for r in central_residuals(Derived(bg)))


def test_central_identities_flat_exact():
    assert central_max_abs(flat_background()) == 0.0


@pytest.mark.parametrize("salt", [11, 12, 13])
def test_central_identities_random_2d(salt):
    assert central_max_abs(random_background(2, salt=salt)) < 1e-9


def test_central_identities_random_3d():
    assert central_max_abs(random_background(3, salt=21)) < 1e-9


def test_central_identities_nonzero_twist():
    bg = random_background(2, salt=15, with_h=True)
    assert conftest.max_abs_of(bg.H, bg.chart.sample_points()) > 0  # the twist really is nonzero
    assert central_max_abs(bg) < 1e-9


def test_metric_trace_equals_scalar_residual_closed_form():
    bg = random_background(2, salt=17)
    derived = Derived(bg)
    sg = gconn.scalar_G(derived.dilaton)
    Hp = derived.h_prime.value
    _, rscal = derived.curvature
    lap, _, norm2 = rm.laplace_divergence(derived.jets.phi[1], derived.gamma)
    want = rscal - 0.5 * rm.form_inner(Hp, Hp, derived.ginv.value) + 4.0 * lap - 4.0 * norm2
    assert max_abs(sg - want, bg) < 1e-9


def test_off_shell_backgrounds_have_nonzero_betas():
    bg = random_background(2, salt=19)
    assert Derived(bg).beta_max[0] > 1e-3


# ---------------------------------------------------------------------------
# the block picture against the sheared one
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, False), (3, False), (4, False), (2, True), (4, True)]),
       st.integers(0, 2**16), st.sampled_from([1, 3]))
def test_block_picture_matches_the_sheared_reference(case, salt, count):
    # the verifier reads the dilaton connection in the block picture and
    # transports it through e^{-B} o F_theta; the reference shears it by e^B
    # onto the H-twisted bracket first (oracles.untwist) and transports that
    # through F_theta alone.  The central residuals, the transported
    # connection's jet and Ricci tensor and the transport identity agree to
    # 1e-12 of the entry, or of the largest term where an entry is near
    # zero: a residual is a difference of terms of that size, and 4-D Gamma
    # partials reach 1e4, so roundoff on a zero entry scales with them
    n, invertible_b = case
    try:
        bg = random_background(n, salt=salt % 1000, invertible_b=invertible_b, seed=salt,
                               num_points=count)
    except NotPositiveDefinite:
        reject()  # a metric no scene may have
    assume(conftest.well_conditioned(bg.g, bg.chart))
    derived = Derived(bg)
    ref = oracles.ShearedPicture(derived)
    betas = derived.betas
    # (got, reference, the terms whose size scales the roundoff)
    cases = list(zip(central_residuals(derived), ref.central_residuals(),
                     (betas.beta_phi, betas.beta_g - betas.beta_B)))
    if invertible_b:
        conn, want = derived.theta_connection, ref.theta_connection
        ric = gconn.ricci(want)
        cases += [(conn.gamma.value, want.gamma.value, want.gamma.value),
                  (conn.gamma.partial, want.gamma.partial, want.gamma.partial),
                  (gconn.ricci(conn), ric, ric), (derived.transport, ref.transport_residual(), ric)]
    for got, want, terms in cases:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * max(1.0, np.abs(terms).max()))


# ---------------------------------------------------------------------------
# cotangent algebroid connection
# ---------------------------------------------------------------------------


def test_lie_algebroid_lc_constant_data_is_flat():
    c = chart("x y", seed=81)
    pts = c.sample_points()
    theta = tn.field_jets(from_upper(2, 2, {(0, 1): 1}), c)
    zero3 = tn.constant_jet(np.zeros((2, 2, 2)), c)
    cot = gtb.cotangent_algebroid(c, theta, zero3)
    g_A = tn.field_jets(conftest.identity(2), c)
    gamma = gtb.lc_connection(cot, *g_A, tn.jet_inverse(g_A[0]))
    assert tn.ex.max_abs_on_points(gamma.value, pts)[0] == 0.0
    ric, scal = streff.algebroid_curvature(cot, gamma, g_A[0].value)
    assert tn.ex.max_abs_on_points(ric, pts)[0] == 0.0
    assert tn.ex.max_abs_on_points(scal, pts)[0] == 0.0
    _, dx = tn.field_jets(parse_expr("x", c), c)
    nab_w = gtb.covariant_derivative(gamma.value, cot.anchor.value, *gtb.d_theta(dx, theta[0]))
    assert tn.ex.max_abs_on_points(nab_w, pts)[0] == 0.0


def symplectic_background(salt=23, n=2):
    return random_background(n, salt=salt, invertible_b=True)


def test_algebroid_connection_torsion_free():
    bg = symplectic_background()
    pkg = streff.build_symplectic(Derived(bg))
    gamma, C = pkg.gamma.value, pkg.algebroid.structure.value
    assert max_abs(gamma - gamma.swapaxes(1, 2) - C, bg) < 1e-9


def test_algebroid_connection_metric_compatibility():
    bg = symplectic_background(salt=25)
    pkg = streff.build_symplectic(Derived(bg))
    anchor = pkg.algebroid.anchor.value
    (g_A, dg_A), gamma = pkg.g_A, pkg.gamma.value
    lhs = np.einsum("amp,bcmp->abcp", anchor, dg_A)
    rhs = np.einsum("dabp,dcp->abcp", gamma, g_A) + np.einsum("dacp,bdp->abcp", gamma, g_A)
    assert max_abs(lhs - rhs, bg) < 1e-9


@pytest.mark.parametrize("n", [2, 4])
def test_cotangent_structure_satisfies_jacobi(n):
    # sum over cyclic (a, b, c) of C^e_{bc} C^d_{ae} + a(E_a).C^d_{bc}
    bg = random_background(n, salt=27, invertible_b=True)
    alg = streff.build_symplectic(Derived(bg)).algebroid
    (C, dC), anchor = alg.structure, alg.anchor.value
    term = np.einsum("ebcp,daep->dabcp", C, C) + np.einsum("amp,dbcmp->dabcp", anchor, dC)
    jacobi = term + np.einsum("dbcap->dabcp", term) + np.einsum("dcabp->dabcp", term)
    assert np.abs(C).max() > 1e-2
    assert max_abs(jacobi, bg) < 1e-9


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
    assert max_abs(pkg.H_theta.value, bg) < 1e-12
    res1, _, res3 = streff.symplectic_residuals(pkg)
    oracle = Oracle(bg)
    G = -np.einsum("ia,ab,bj->ij", bg.B, oracle.ginv, bg.B)
    w = np.einsum("am,a->m", oracle.theta, oracle.dphi)
    norm2 = np.einsum("ab,a,b->", G, w, w)
    # G^{ak} (nab_{E_k} w)_a, from the definition of nab
    nab_w = symbolic_covariant_derivative(oracle.cotangent, oracle.lc_gamma, w)
    lap = np.einsum("ak,ka->", G, nab_w)
    _, scalar = streff.algebroid_curvature(pkg.algebroid, pkg.gamma, pkg.G.value)
    reduced = scalar + oracle.values(4.0 * lap - 4.0 * norm2)
    assert max_abs(res1 - reduced, bg) < 1e-12
    assert max_abs(res3, bg) < 1e-12


def test_transport_identity_off_shell():
    bg = symplectic_background(salt=35)
    residual = streff.transport_identity_residual(Derived(bg))
    assert tn.ex.max_abs_on_points(residual, bg.chart.sample_points())[0] < 1e-9


def equivalence_summary(bg):
    """The summary of the equivalence command on bg."""
    return run_command("equivalence", Scene(bg.chart, bg, {}, "background")).summary


def test_equivalence_report_flat():
    bg = flat_background(constant_b=True)
    derived = Derived(bg)
    rep = equivalence_summary(bg)
    assert rep["beta_on_shell"] and rep["symplectic_on_shell"]
    assert rep["verdict_text"] == "equivalent: both on-shell"
    assert tn.ex.max_abs_on_points(derived.transport, bg.chart.sample_points())[0] < 1e-9


def test_equivalence_report_off_shell_and_scaling():
    bg = symplectic_background(salt=37)
    derived = Derived(bg)
    rep = equivalence_summary(bg)
    pts = bg.chart.sample_points()
    assert not rep["beta_on_shell"] and not rep["symplectic_on_shell"]
    assert rep["verdict_text"] == "equivalent: both off-shell"
    assert tn.ex.max_abs_on_points(derived.transport, pts)[0] < 1e-9
    # rescaling g keeps the verdict structure
    bg2 = Background(bg.chart, 2.0 * bg.g, bg.B, bg.phi, bg.H)
    derived2 = Derived(bg2)
    rep2 = equivalence_summary(bg2)
    assert rep2["verdict_text"] == rep["verdict_text"]
    assert tn.ex.max_abs_on_points(derived2.transport, pts)[0] < 1e-9
