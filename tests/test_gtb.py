"""Generalized tangent bundle: pairing, Dorfman bracket, generalized
metrics, shears, Koszul bracket, Schouten residual, Lie algebroid calculus."""

import itertools

import numpy as np
import pytest
from conftest import (
    random_background,
    symbolic_covariant_derivative,
    symbolic_dilaton,
    symbolic_gualtieri_torsion,
    symbolic_theta_connection,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gencourant import gconn, gtb, streff
from gencourant import tensors as tn
from gencourant.errors import NotAntisymmetric, NotClosed, NotPositiveDefinite, NotTwistedPoisson, SingularB
from gencourant.expr import chart, evaluate, parse_expr, worst_of
from gencourant.gtb import GeneralizedMetric, GenSection, d_map, dorfman, gen_metric, pairing, random_section
from gencourant.tensors import DOWN, UP


C2 = chart("x y", seed=23)
C3 = chart("x y z", seed=29)


def poly(text, c=C2):
    return parse_expr(text, c)


def closed_three_form(c, seed=1, scale=0.25):
    """H = d(B0) for a random polynomial 2-form B0: closed by construction."""
    gen = c.rng(seed)
    coeffs = {}
    for i in range(c.dim):
        for j in range(i + 1, c.dim):
            coeffs[(i, j)] = tn.ex.random_polynomial(c, gen, 2, scale)
    B0 = tn.form_from_wedge_coeffs(c, 2, coeffs)
    return tn.exterior_derivative(B0)


def frame(c, a):
    """Generalized coordinate frame e_a, a in [0, 2n)."""
    comps = [tn.ex.ONE if i == a else tn.ex.ZERO for i in range(2 * c.dim)]
    return GenSection.from_components(c, comps)


def apply_bivector(theta, xi):
    """theta(xi)^m = theta^{m a} xi_a, the second-argument action."""
    return tn.TensorField(theta.chart, (UP,), tn.contract("ma,a->m", theta.comps, xi.comps))


# ---------------------------------------------------------------------------
# pairing and D-map
# ---------------------------------------------------------------------------


def test_pairing_dual_and_isotropic():
    e0, e2 = frame(C2, 0), frame(C2, 2)  # (d_x, 0) and (0, dx)
    assert evaluate(pairing(e0, e2), (0.1, 0.2)) == 1.0
    assert evaluate(pairing(e0, frame(C2, 1)), (0.1, 0.2)) == 0.0  # TM isotropic
    assert evaluate(pairing(e2, frame(C2, 3)), (0.1, 0.2)) == 0.0  # T*M isotropic


def test_pairing_gram_signature():
    eta = gtb.pairing_gram(C3)
    for a in range(6):
        for b in range(6):
            want = eta[a, b]
            got = evaluate(pairing(frame(C3, a), frame(C3, b)), (0, 0, 0))
            assert got == want
    eigs = np.linalg.eigvalsh(eta)
    assert sum(e > 0 for e in eigs) == 3 and sum(e < 0 for e in eigs) == 3


def test_d_map_basics():
    assert d_map(C2, 5).max_abs()[0] == 0.0
    f, g = poly("x^2*y"), poly("sin(x)+y")
    df, dg = d_map(C2, f), d_map(C2, g)
    pts = C2.sample_points()
    assert tn.ex.max_abs_on_points([pairing(df, dg)], pts)[0] == 0.0
    gen = C2.rng(3)
    psi = random_section(C2, gen)
    # <Df, psi> = anchor(psi).f
    lhs = pairing(df, psi)
    rhs = tn.ex.esum(
        tn.ex.mul(psi.vec.comps[a], tn.ex.differentiate(f, C2.coord(a))) for a in range(2)
    )
    assert tn.ex.max_abs_on_points([lhs - rhs], pts)[0] < 1e-12


# ---------------------------------------------------------------------------
# Dorfman bracket
# ---------------------------------------------------------------------------


def test_dorfman_constant_frame_fields():
    H = closed_three_form(C3)
    for mu, nu in itertools.product(range(3), repeat=2):
        br = dorfman(frame(C3, mu), frame(C3, nu), H)
        assert br.vec.max_abs()[0] == 0.0
        for lam in range(3):
            diff = br.form.comps[lam] + H.comps[mu, nu, lam]
            assert tn.ex.max_abs_on_points([diff], C3.sample_points())[0] < 1e-12


def test_dorfman_requires_closed_twist():
    # dH != 0 for H = x4 dx1^dx2^dx3 on a 4-chart; the background that
    # hands H to the bracket refuses it
    c4 = chart("x1 x2 x3 x4", seed=31)
    H = tn.form_from_wedge_coeffs(c4, 3, {(0, 1, 2): parse_expr("x4", c4)})
    with pytest.raises(NotClosed):
        streff.Background(c4, tn.euclidean_metric(c4), tn.zeros(c4, (DOWN, DOWN)), 0.0, H)


def test_dorfman_kills_d_map():
    H = closed_three_form(C2)
    f = poly("x*y")
    gen = C2.rng(17)
    psi = random_section(C2, gen)
    br = dorfman(d_map(C2, f), psi, H)
    assert br.max_abs()[0] < 1e-12


def test_dorfman_symmetric_part_is_d_of_pairing():
    H = closed_three_form(C3, seed=7)
    gen = C3.rng(19)
    for _ in range(4):
        psi, phi = random_section(C3, gen), random_section(C3, gen)
        sym = dorfman(psi, phi, H) + dorfman(phi, psi, H)
        want = d_map(C3, pairing(psi, phi))
        assert (sym - want).max_abs()[0] < 1e-10


def test_dorfman_leibniz_identity():
    H = closed_three_form(C2, seed=5)
    gen = C2.rng(41)
    for _ in range(3):
        psi, phi, chi = (random_section(C2, gen) for _ in range(3))
        assert gtb.jacobiator(psi, phi, chi, H).max_abs()[0] < 1e-9


def test_dorfman_invariance_of_pairing():
    H = closed_three_form(C2, seed=9)
    gen = C2.rng(43)
    pts = C2.sample_points()
    for _ in range(3):
        psi, phi, chi = (random_section(C2, gen) for _ in range(3))
        lhs = tn.ex.esum(
            tn.ex.mul(psi.vec.comps[a], tn.ex.differentiate(pairing(phi, chi), C2.coord(a)))
            for a in range(2)
        )
        rhs = pairing(dorfman(psi, phi, H), chi) + pairing(phi, dorfman(psi, chi, H))
        assert tn.ex.max_abs_on_points([lhs - rhs], pts)[0] < 1e-9


def test_dorfman_left_leibniz():
    H = closed_three_form(C2, seed=13)
    gen = C2.rng(47)
    f = tn.ex.random_polynomial(C2, gen)
    psi, phi = random_section(C2, gen), random_section(C2, gen)
    fpsi = psi.scale(f)
    lhs = dorfman(fpsi, phi, H)
    rhof_f = tn.ex.esum(
        tn.ex.mul(phi.vec.comps[a], tn.ex.differentiate(f, C2.coord(a))) for a in range(2)
    )
    rhs = dorfman(psi, phi, H).scale(f) - psi.scale(rhof_f) + d_map(C2, f).scale(pairing(psi, phi))
    assert (lhs - rhs).max_abs()[0] < 1e-9


def test_anchor_is_bracket_morphism_and_rho_rhostar_zero():
    H = closed_three_form(C2, seed=3)
    gen = C2.rng(53)
    psi, phi = random_section(C2, gen), random_section(C2, gen)
    br = dorfman(psi, phi, H)
    want = tn.lie_bracket(psi.vec, phi.vec)
    assert (br.vec - want).max_abs()[0] < 1e-9
    # rho . rho* = 0: rho*(xi) = (0, xi) has no vector part by construction
    xi = tn.from_function(C2, (DOWN,), lambda i: poly("x+y") if i else poly("x^2"))
    assert GenSection(tn.zeros(C2, (UP,)), xi).vec.max_abs()[0] == 0.0


# ---------------------------------------------------------------------------
# generalized metric
# ---------------------------------------------------------------------------


def bumpy_g(c):
    n = c.dim
    return tn.from_function(
        c, (DOWN, DOWN),
        lambda i, j: parse_expr(f"2 + {c.coord_names[i]}^2/4", c) if i == j
        else parse_expr(f"{c.coord_names[min(i, j)]}*{c.coord_names[max(i, j)]}/8", c),
    )


def bumpy_B(c, seed=61, scale=0.3):
    gen = c.rng(seed)
    coeffs = {
        (i, j): tn.ex.random_polynomial(c, gen, 2, scale)
        for i in range(c.dim)
        for j in range(i + 1, c.dim)
    }
    return tn.form_from_wedge_coeffs(c, 2, coeffs)


def with_b(g, B):
    """The package of (g, B) as ``streff.Derived.metric`` builds it."""
    return GeneralizedMetric(g, B, tn.metric_inverse(g))


def test_gen_metric_block_form_b_zero():
    g = bumpy_g(C2)
    gm = gen_metric(g)
    gram = gm.gram()
    ginv = gm.g_inv
    pts = C2.sample_points()
    for p in pts:
        G = np.array([[evaluate(gram[a, b], p) for b in range(4)] for a in range(4)])
        gv = g.evaluate(p)
        giv = ginv.evaluate(p)
        assert np.allclose(G[:2, :2], gv, atol=1e-12)
        assert np.allclose(G[2:, 2:], giv, atol=1e-12)
        assert np.allclose(G[:2, 2:], 0, atol=1e-12)


def test_gen_metric_block_formula_general_b():
    """Gram matrix agrees with the explicit block form
    [[g - B g^{-1} B, B g^{-1}], [-g^{-1} B, g^{-1}]]."""
    g, B = bumpy_g(C2), bumpy_B(C2)
    gm = with_b(g, B)
    gram = gm.gram()
    for p in C2.sample_points():
        gv, Bv = g.evaluate(p), B.evaluate(p)
        giv = np.linalg.inv(gv)
        blocks = np.block([[gv - Bv @ giv @ Bv, Bv @ giv], [-giv @ Bv, giv]])
        G = np.array([[evaluate(gram[a, b], p) for b in range(4)] for a in range(4)])
        assert np.allclose(G, blocks, atol=1e-10)


def test_gen_metric_tau_involution_and_orthogonality():
    g, B = bumpy_g(C2), bumpy_B(C2)
    gm = with_b(g, B)
    tau = gm.tau_matrix()
    pts = C2.sample_points()
    eta = gtb.pairing_gram(C2)
    for p in pts:
        T = np.array([[evaluate(tau[a, b], p) for b in range(4)] for a in range(4)])
        assert np.allclose(T @ T, np.eye(4), atol=1e-10)
        assert np.allclose(T.T @ eta @ T, eta, atol=1e-10)  # <tau., tau.> = <.,.>


def test_gen_metric_flat_tau_swaps():
    gm = gen_metric(tn.euclidean_metric(C2))
    t = shear(gm.tau_matrix(), frame(C2, 0))
    assert (t - frame(C2, 2)).max_abs()[0] == 0.0


def test_h_form_is_inverse_metric_for_any_b():
    g, B = bumpy_g(C2), bumpy_B(C2)
    gm = with_b(g, B)
    # h(xi, eta) = G(rho* xi, rho* eta) must equal g^{-1}(xi, eta)
    gram = gm.gram()
    pts = C2.sample_points()
    for p in pts:
        G = np.array([[evaluate(gram[2 + a, 2 + b], p) for b in range(2)] for a in range(2)])
        assert np.allclose(G, gm.g_inv.evaluate(p), atol=1e-10)


def test_gram_inverse_consistent():
    g, B = bumpy_g(C2), bumpy_B(C2)
    gm = with_b(g, B)
    gram, gram_inv = gm.gram(), gm.gram_inverse()
    for p in C2.sample_points()[:4]:
        G = np.array([[evaluate(gram[a, b], p) for b in range(4)] for a in range(4)])
        Gi = np.array([[evaluate(gram_inv[a, b], p) for b in range(4)] for a in range(4)])
        assert np.allclose(G @ Gi, np.eye(4), atol=1e-10)


def test_graph_embeddings_and_projectors():
    g, B = bumpy_g(C2), bumpy_B(C2)
    gm = with_b(g, B)
    gen = C2.rng(67)
    X = tn.from_function(C2, (UP,), lambda i: tn.ex.random_polynomial(C2, gen))
    plus = gm.psi_plus(X)
    minus = gm.psi_minus(X)
    p_plus = gm.project(plus, +1)
    p_cross = gm.project(plus, -1)
    assert (p_plus - plus).max_abs()[0] < 1e-12
    assert p_cross.max_abs()[0] < 1e-12
    assert (gm.project(minus, -1) - minus).max_abs()[0] < 1e-12
    assert gm.project(minus, +1).max_abs()[0] < 1e-12


def test_h_form_invariant_under_shear_related_metrics():
    # G' built from (g, B + C) relates to G(g, B) by the shear e^C; h stays g^{-1}
    g = bumpy_g(C2)
    gm1 = with_b(g, bumpy_B(C2, seed=1))
    gm2 = with_b(g, bumpy_B(C2, seed=2))
    d = [a - b for a, b in zip(gm1.h_form().comps.reshape(-1), gm2.h_form().comps.reshape(-1))]
    assert tn.ex.max_abs_on_points(d, C2.sample_points())[0] < 1e-12


def test_gen_metric_validation_errors():
    with pytest.raises(NotPositiveDefinite):
        gen_metric(tn.from_function(C2, (DOWN, DOWN), lambda i, j: poly("1") if i == j == 0 else (poly("-1") if i == j else poly("0"))))
    # B is validated with the background, before any package is built
    bad_B = tn.from_function(C2, (DOWN, DOWN), lambda i, j: poly("x"))
    with pytest.raises(NotAntisymmetric):
        streff.Background(C2, tn.euclidean_metric(C2), bad_B, poly("0"))


# ---------------------------------------------------------------------------
# shears
# ---------------------------------------------------------------------------


def test_b_twist_values_and_inverse():
    B = bumpy_B(C2)
    e0 = frame(C2, 0)
    tw = gtb.b_twist(e0, B)
    assert (tw.vec - e0.vec).max_abs()[0] == 0.0
    for m in range(2):
        diff = tw.form.comps[m] - B.comps[m, 0]
        assert tn.ex.max_abs_on_points([diff], C2.sample_points())[0] < 1e-12
    gen = C2.rng(71)
    psi = random_section(C2, gen)
    back = gtb.b_twist(gtb.b_twist(psi, B), B.scale(-1))
    assert (back - psi).max_abs()[0] < 1e-12


def test_b_twist_preserves_pairing():
    B = bumpy_B(C2)
    gen = C2.rng(73)
    pts = C2.sample_points()
    for _ in range(3):
        psi, phi = random_section(C2, gen), random_section(C2, gen)
        d = pairing(gtb.b_twist(psi, B), gtb.b_twist(phi, B)) - pairing(psi, phi)
        assert tn.ex.max_abs_on_points([d], pts)[0] < 1e-12


def test_b_twist_intertwines_brackets():
    H = closed_three_form(C3, seed=11)
    B = bumpy_B(C3, seed=77)
    assert gtb.twisted_bracket_check(B, H)[0] < 1e-9


def test_twisted_bracket_check_reports_the_worst_point():
    H = closed_three_form(C3, seed=11)
    B = bumpy_B(C3, seed=77)
    gen = C3.rng(101)  # the check's own section pairs
    pairs = [(random_section(C3, gen), random_section(C3, gen)) for _ in range(3)]
    HdB = H + tn.exterior_derivative(B)
    each = [
        (gtb.b_twist(dorfman(psi, phi, HdB), B)
         - dorfman(gtb.b_twist(psi, B), gtb.b_twist(phi, B), H)).max_abs(C3.sample_points())
        for psi, phi in pairs
    ]
    worst, at = gtb.twisted_bracket_check(B, H)
    assert (worst, at) == worst_of(each)
    assert at in C3.sample_points()


def shear(M, psi):
    """The section with frame components M psi."""
    return GenSection.from_components(psi.chart, tn.contract("ab,b->a", M, psi.components()))


def test_theta_twist_inverse_and_pairing():
    B = tn.form_from_wedge_coeffs(C2, 2, {(0, 1): poly("1 + x/4")})
    theta = gtb.theta_matrix_from_b(B)
    F, Finv = gtb.theta_twist_matrices(theta, B)
    pts = C2.sample_points()
    one = tn.contract("ab,bc->ac", F, Finv) - np.eye(4)
    assert tn.ex.max_abs_on_points(one, pts)[0] < 1e-10
    # F^T eta F = eta: F_theta is orthogonal for the pairing
    eta = gtb.pairing_gram(C2)
    ortho = tn.contract("ca,cd,db->ab", F, eta, F) - eta
    assert tn.ex.max_abs_on_points(ortho, pts)[0] < 1e-10
    gen = C2.rng(79)
    for _ in range(3):
        psi, phi = random_section(C2, gen), random_section(C2, gen)
        assert (shear(Finv, shear(F, psi)) - psi).max_abs(pts)[0] < 1e-10
        d = pairing(shear(F, psi), shear(F, phi)) - pairing(psi, phi)
        assert tn.ex.max_abs_on_points([d], pts)[0] < 1e-10


def test_theta_twist_2d_matrix_oracle():
    B = tn.form_from_wedge_coeffs(C2, 2, {(0, 1): 1})
    theta = gtb.theta_matrix_from_b(B)
    # direct 2x2 inversion: B matrix [[0,1],[-1,0]] so theta = -B as a matrix
    for p in C2.sample_points()[:2]:
        Bv = B.evaluate(p)
        th = theta.evaluate(p)
        assert np.allclose(th, np.linalg.inv(Bv))
        assert np.allclose(th, -Bv)
    # spot values through the shear
    F, _ = gtb.theta_twist_matrices(theta, B)
    tw = shear(F, frame(C2, 2))  # F(0, dx) = (theta(dx), dx)
    assert evaluate(tw.vec.comps[1], (0.1, 0.2)) == pytest.approx(1.0)
    assert evaluate(tw.vec.comps[0], (0.1, 0.2)) == 0.0


def test_theta_twist_odd_dimension_fails():
    B3 = tn.form_from_wedge_coeffs(C3, 2, {(0, 1): 1})
    with pytest.raises(SingularB):
        gtb.theta_matrix_from_b(B3)


# ---------------------------------------------------------------------------
# Schouten residual and Koszul bracket
# ---------------------------------------------------------------------------


def test_schouten_constant_theta_is_poisson():
    theta = tn.form_from_wedge_coeffs(C2, 2, {(0, 1): 1})
    theta = tn.TensorField(C2, (UP, UP), theta.comps)  # reinterpret as bivector
    res = gtb.schouten_check(theta, tn.zeros(C2, (DOWN,) * 3))
    assert res.max_abs()[0] == 0.0


def test_schouten_2d_invertible_b():
    # any invertible 2-form on a 2-chart is twisted Poisson: dB = 0 in 2d
    B = tn.form_from_wedge_coeffs(C2, 2, {(0, 1): poly("1 + x")})
    theta = gtb.theta_matrix_from_b(B)
    res = gtb.schouten_check(theta, tn.exterior_derivative(B))
    assert res.max_abs()[0] < 1e-12


def _bracket_oracle_schouten(theta, i, j, k, point, twist):
    """Brute-force residual via vector-field commutators:
    [theta xi, theta eta] - theta(L_{theta xi} eta - i_{theta eta} d xi)."""
    c = theta.chart
    xi = tn.from_function(c, (DOWN,), lambda m: tn.ex.ONE if m == i else tn.ex.ZERO)
    eta = tn.from_function(c, (DOWN,), lambda m: tn.ex.ONE if m == j else tn.ex.ZERO)
    thxi = apply_bivector(theta, xi)
    theta_eta = apply_bivector(theta, eta)
    comm = tn.lie_bracket(thxi, theta_eta)
    inner = tn.lie_derivative_oneform(thxi, eta) - tn.interior_product(theta_eta, tn.exterior_derivative(xi))
    half = comm - apply_bivector(theta, inner)
    tw = tn.ex.esum(
        tn.ex.mul(twist.comps[a, b, cidx], thxi.comps[a], theta_eta.comps[b], theta.comps[cidx, k])
        for a in range(c.dim) for b in range(c.dim) for cidx in range(c.dim)
    )
    return evaluate(half.comps[k], point) + evaluate(tw, point)


def test_schouten_3d_degenerate_pattern_zero():
    """theta with the coefficient pattern of dx^dy + x dy^dz (an invertible
    primitive does not exist in odd dimension; the bivector itself is
    Poisson and the dB twist dies on its image)."""
    theta = tn.from_function(
        C3, (UP, UP),
        lambda i, j: {(0, 1): poly("1", C3), (1, 0): poly("-1", C3),
                      (1, 2): poly("x", C3), (2, 1): poly("-x", C3)}.get((i, j), poly("0", C3)),
    )
    B = tn.form_from_wedge_coeffs(C3, 2, {(0, 1): 1, (1, 2): poly("x", C3)})
    twist = tn.exterior_derivative(B)
    res = gtb.schouten_check(theta, twist)
    assert res.max_abs()[0] < 1e-12
    # independent brute-force oracle on a few index triples and points
    for (i, j, k), p in zip(itertools.permutations(range(3)), C3.sample_points()):
        assert _bracket_oracle_schouten(theta, i, j, k, p, twist) == pytest.approx(
            evaluate(res.comps[i, j, k], p), abs=1e-10
        )


def test_schouten_residual_antisymmetric_and_matches_oracle():
    theta = tn.from_function(
        C3, (UP, UP),
        lambda i, j: {(0, 1): poly("1", C3), (1, 0): poly("-1", C3),
                      (1, 2): poly("y", C3), (2, 1): poly("-y", C3)}.get((i, j), poly("0", C3)),
    )
    res = gtb.schouten_check(theta, tn.zeros(C3, (DOWN,) * 3))
    assert res.max_abs()[0] > 0.5  # genuinely non-Poisson
    pts = C3.sample_points()
    for i, j, k in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]:
        for p in pts[:3]:
            want = _bracket_oracle_schouten(theta, i, j, k, p, tn.zeros(C3, (DOWN,) * 3))
            assert evaluate(res.comps[i, j, k], p) == pytest.approx(want, abs=1e-10)
    # total antisymmetry of the residual 3-vector
    swapped = np.swapaxes(res.comps, 0, 1)
    d = [a + b for a, b in zip(res.comps.reshape(-1), swapped.reshape(-1))]
    assert tn.ex.max_abs_on_points(d, pts)[0] < 1e-10


def test_koszul_exact_forms_constant_theta():
    theta = tn.TensorField(C2, (UP, UP), tn.form_from_wedge_coeffs(C2, 2, {(0, 1): 1}).comps)
    zero3 = tn.zeros(C2, (DOWN,) * 3)
    f, g = poly("x^2*y"), poly("x + y^2")
    br = gtb.koszul(tn.d_scalar(C2, f), tn.d_scalar(C2, g), theta, zero3)
    # {f, g} = theta(df).g; [df, dg] = d{f, g} for a Poisson bivector
    df, dg = tn.d_scalar(C2, f), tn.d_scalar(C2, g)
    want = tn.d_scalar(C2, tn.contract("ma,a,m->", theta.comps, df.comps, dg.comps))
    assert (br - want).max_abs()[0] < 1e-12


def test_koszul_anchor_morphism():
    theta = tn.TensorField(C2, (UP, UP), tn.form_from_wedge_coeffs(C2, 2, {(0, 1): 1}).comps)
    zero3 = tn.zeros(C2, (DOWN,) * 3)
    gen = C2.rng(83)
    for _ in range(3):
        xi = tn.d_scalar(C2, tn.ex.random_polynomial(C2, gen))
        eta = tn.d_scalar(C2, tn.ex.random_polynomial(C2, gen))
        br = gtb.koszul(xi, eta, theta, zero3)
        lhs = apply_bivector(theta, br)
        rhs = tn.lie_bracket(apply_bivector(theta, xi), apply_bivector(theta, eta))
        assert (lhs - rhs).max_abs()[0] < 1e-9


def test_not_twisted_poisson_raised():
    theta = tn.from_function(
        C3, (UP, UP),
        lambda i, j: {(0, 1): poly("1", C3), (1, 0): poly("-1", C3),
                      (1, 2): poly("y", C3), (2, 1): poly("-y", C3)}.get((i, j), poly("0", C3)),
    )
    with pytest.raises(NotTwistedPoisson):
        gtb.LieAlgebroidCotangent.build(theta, tn.zeros(C3, (DOWN,) * 3))


def test_d_theta_values():
    theta = tn.TensorField(C2, (UP, UP), tn.form_from_wedge_coeffs(C2, 2, {(0, 1): 1}).comps)
    v = gtb.d_theta(C2, poly("x"), theta)
    # (d_theta f)^m = theta^{a m} d_a f: for f = x this is theta^{0 m}, so (0, +1)
    p = (0.3, 0.4)
    assert evaluate(v.comps[0], p) == 0.0
    assert evaluate(v.comps[1], p) == pytest.approx(1.0)
    # and it is minus the second-argument action theta(df)
    w = apply_bivector(theta, tn.d_scalar(C2, poly("x")))
    assert evaluate(w.comps[1], p) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# Lie algebroid calculus and the sheared Dorfman bracket
# ---------------------------------------------------------------------------


def invertible_B4():
    c4 = chart("x1 x2 x3 x4", seed=37)
    B = tn.form_from_wedge_coeffs(
        c4, 2, {(0, 1): 1, (2, 3): parse_expr("1 + x1/4", c4)}
    )
    return c4, B


def test_cotangent_algebroid_d_squared_zero():
    c4, B = invertible_B4()
    theta = gtb.theta_matrix_from_b(B)
    cot = gtb.LieAlgebroidCotangent.build(theta, tn.exterior_derivative(B))
    alg = cot.algebroid
    gen = c4.rng(3)
    f = tn.ex.random_polynomial(c4, gen)
    f0 = np.empty((), dtype=object)
    f0[()] = f
    ddf = alg.differential(alg.differential(f0, 0), 1)
    assert tn.ex.max_abs_on_points(ddf, c4.sample_points())[0] < 1e-10


def test_theta_shear_transports_dorfman_to_a_dorfman():
    """The shear-conjugated Dorfman bracket of pure-form frame sections
    equals (Koszul bracket, -H'_theta contraction): the normative reading
    of the twist sign."""
    c4, B = invertible_B4()
    n = 4
    theta = gtb.theta_matrix_from_b(B)
    H = tn.zeros(c4, (DOWN,) * 3)
    dB = tn.exterior_derivative(B)
    F, Finv = gtb.theta_twist_matrices(theta, B)
    pts = c4.sample_points()[:5]
    for a, b in [(0, 1), (1, 2), (0, 3)]:
        psi = shear(F, frame(c4, n + a))
        phi = shear(F, frame(c4, n + b))
        tw = shear(Finv, dorfman(psi, phi, H))
        # form part: the twisted Koszul bracket of dx^a, dx^b
        fa = tn.from_function(c4, (DOWN,), lambda i: tn.ex.ONE if i == a else tn.ex.ZERO)
        fb = tn.from_function(c4, (DOWN,), lambda i: tn.ex.ONE if i == b else tn.ex.ZERO)
        want_form = gtb.koszul(fa, fb, theta, dB)
        assert (tw.form - want_form).max_abs(pts)[0] < 1e-9
        # vector part: -H'(theta dx^a, theta dx^b, theta dx^m), H' = H + dB
        for m in range(n):
            want = -tn.ex.esum(
                tn.ex.mul(dB.comps[i, j, k], theta.comps[i, a], theta.comps[j, b], theta.comps[k, m])
                for i in range(n) for j in range(n) for k in range(n)
            )
            d = tw.vec.comps[m] - want
            assert tn.ex.max_abs_on_points([d], pts)[0] < 1e-9


def test_lie_algebroid_lc_constant_data():
    theta = tn.TensorField(C2, (UP, UP), tn.form_from_wedge_coeffs(C2, 2, {(0, 1): 1}).comps)
    cot = gtb.LieAlgebroidCotangent.build(theta, tn.zeros(C2, (DOWN,) * 3))
    g_A = np.array([[tn.ex.Const(2.0), tn.ex.ZERO], [tn.ex.ZERO, tn.ex.Const(3.0)]], dtype=object)
    gamma = cot.algebroid.lc_connection(g_A)
    assert tn.ex.max_abs_on_points(gamma, C2.sample_points())[0] == 0.0
    r0 = cot.algebroid.curvature(*tn.jets_at(gamma, C2.sample_points()), C2.sample_points())
    assert tn.ex.max_abs_on_points(r0, C2.sample_points())[0] == 0.0


# ---------------------------------------------------------------------------
# the numeric curvature against the defining formula, built symbolically
# ---------------------------------------------------------------------------


def brute_force_r0(frame, gamma):
    """R0[d, c, a, b] as expressions, from the definition
    R(E_a,E_b)E_c = nab_a nab_b E_c - nab_b nab_a E_c - nab_{[E_a,E_b]} E_c
    with nab_{E_b} E_c = Gamma[:, b, c], [E_a, E_b] = C[:, a, b], and the
    frame derivatives of ``connection_apply`` (symbolic ``differentiate``)."""
    r = frame.rank
    unit = [np.array([tn.ex.ONE if i == a else tn.ex.ZERO for i in range(r)], dtype=object)
            for a in range(r)]
    out = np.empty((r,) * 4, dtype=object)
    for a, b, c in itertools.product(range(r), repeat=3):
        out[:, c, a, b] = (frame.connection_apply(gamma, unit[a], gamma[:, b, c])
                           - frame.connection_apply(gamma, unit[b], gamma[:, a, c])
                           - frame.connection_apply(gamma, frame.structure[:, a, b], unit[c]))
    return out


def assert_frame_curvature_matches(frame, gamma, points, jets=None):
    """R0 from ``jets``, the values and partials of the coefficients gamma
    (an object array of Expr) at ``points`` (by default ``tn.jets_at`` of
    gamma), against the definition."""
    r0 = frame.curvature(*(jets or tn.jets_at(gamma, points)), points)
    want = tn.values_at(brute_force_r0(frame, gamma), points)
    np.testing.assert_allclose(r0, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 5]))
def test_frame_curvature_matches_the_definition(salt, count):
    # rank n: the cotangent algebroid of theta = B^{-1}, whose anchor is theta;
    # rank 2n: the jets of the dilaton connection (constant anchor) and of its
    # pullback through the bivector shear (anchor built from theta), against
    # the definition on their symbolic coefficients
    bg = random_background(2, salt=salt % 1000, invertible_b=True, seed=salt, num_points=count)
    derived = streff.Derived(bg)
    points = bg.chart.sample_points()
    pkg = derived.symplectic
    assert_frame_curvature_matches(pkg.cotangent.algebroid, pkg.gamma, points)
    for conn, gamma in ((derived.dilaton, symbolic_dilaton(derived)),
                        (derived.theta_connection, symbolic_theta_connection(derived))):
        assert_frame_curvature_matches(conn.algebroid, gamma, points, (conn.gamma, conn.dgamma))


def test_frame_curvature_of_a_4d_cotangent_algebroid():
    # a non-constant fiber metric, so every R0 entry has frame derivatives
    c4, B = invertible_B4()
    theta = gtb.theta_matrix_from_b(B)
    cot = gtb.LieAlgebroidCotangent.build(theta, tn.exterior_derivative(B))
    g_A = tn.from_function(
        c4, (UP, UP), lambda i, j: parse_expr("1 + x2^2/8", c4) if i == j else tn.ex.ZERO
    ).comps
    gamma = cot.algebroid.lc_connection(g_A)
    for count in (1, 3):
        assert_frame_curvature_matches(cot.algebroid, gamma, c4.sample_points()[:count])


# ---------------------------------------------------------------------------
# the numeric covariant derivative and torsion against their definitions
# ---------------------------------------------------------------------------


def frames_of(derived):
    """(frame, Gamma as expressions, the values of Gamma at the chart's
    sample points) on rank n (the cotangent algebroid of theta, whose anchor
    is theta) and rank 2n (the dilaton connection, constant anchor, and its
    pullback through the bivector shear, anchor built from theta; their
    expressions are the symbolic transports, their values the connections')."""
    pkg = derived.symplectic
    points = derived.bg.chart.sample_points()
    return [(pkg.cotangent.algebroid, pkg.gamma, tn.values_at(pkg.gamma, points)),
            (derived.dilaton.algebroid, symbolic_dilaton(derived), derived.dilaton.gamma),
            (derived.theta_connection.algebroid, symbolic_theta_connection(derived),
             derived.theta_connection.gamma)]


def random_array(c, shape, gen):
    out = np.empty(shape, dtype=object)
    out.reshape(-1)[:] = [tn.ex.random_polynomial(c, gen) for _ in range(out.size)]
    return out


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 5]), st.integers(1, 3))
def test_covariant_derivative_matches_the_definition(salt, count, degree):
    bg = random_background(2, salt=salt % 1000, invertible_b=True, seed=salt, num_points=count)
    points = bg.chart.sample_points()
    gen = bg.chart.rng(salt)
    for frame, gamma, values in frames_of(streff.Derived(bg)):
        omega = random_array(bg.chart, (frame.rank,) * degree, gen)
        got = frame.covariant_derivative_at(values, omega, points)
        want = tn.values_at(symbolic_covariant_derivative(frame, gamma, omega), points)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def symbolic_frame_torsion(frame, gamma):
    out = np.empty((frame.rank,) * 3, dtype=object)
    for c, a, b in itertools.product(range(frame.rank), repeat=3):
        out[c, a, b] = gamma[c, a, b] - gamma[c, b, a] - frame.structure[c, a, b]
    return out


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 5]))
def test_torsion_map_gives_the_torsion_and_its_partials(salt, count):
    # Gamma plus random polynomials, so that the torsion is not zero
    bg = random_background(2, salt=salt % 1000, invertible_b=True, seed=salt, num_points=count)
    points = bg.chart.sample_points()
    gen = bg.chart.rng(salt)
    coords = bg.chart.coords()
    for frame, gamma, _ in frames_of(streff.Derived(bg)):
        gamma = gamma + random_array(bg.chart, gamma.shape, gen)
        if isinstance(frame, gconn.CourantFrame):
            torsion = lambda g, C, frame=frame: gconn.torsion_map(frame, g, C)
            symbolic = symbolic_gualtieri_torsion(frame, gamma)
        else:
            torsion, symbolic = gtb.frame_torsion, symbolic_frame_torsion(frame, gamma)
        gv, dgv = tn.jets_at(gamma, points)
        C, dC = tn.jets_at(frame.structure, points)
        partials = np.array([[tn.ex.differentiate(t, x) for x in coords]
                             for t in symbolic.reshape(-1)], dtype=object)
        np.testing.assert_allclose(torsion(gv, C), tn.values_at(symbolic, points),
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            torsion(dgv, dC),
            tn.values_at(partials.reshape(symbolic.shape + (len(coords),)), points),
            rtol=1e-12, atol=1e-12)
