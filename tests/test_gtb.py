"""Generalized tangent bundle: pairing, Dorfman bracket, generalized
metrics, shears, Koszul bracket, Schouten residual, Lie algebroid calculus."""

import itertools

import numpy as np
import pytest
import conftest
import oracles
from conftest import (
    GenSection,
    Oracle,
    d_map,
    dorfman,
    pairing,
    random_background,
    random_section,
    symbolic_covariant_derivative,
    symbolic_gualtieri_torsion,
    uniform_jet,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gencourant import gconn, gtb, streff
from gencourant import tensors as tn
from gencourant.errors import NotAntisymmetric, NotClosed, NotPositiveDefinite, SingularB
from gencourant.expr import chart, evaluate, parse_expr, worst_of
from gencourant.gtb import GeneralizedMetric
from gencourant.scene import from_upper
from gencourant.tensors import Jet


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
    return dB(from_upper(c.dim, 2, coeffs), c)


def dB(B, c):
    """The 3-form dB of the Expr array of a 2-form."""
    return tn.d_of_partials(tn.partials(B, c), 2)


def max_abs(a, c=C2):
    """The largest |value| of an Expr or an Expr array at the sample points of c."""
    return conftest.max_abs_of(a, c.sample_points())


def frame(c, a):
    """Generalized coordinate frame e_a, a in [0, 2n)."""
    comps = [tn.ex.ONE if i == a else tn.ex.ZERO for i in range(2 * c.dim)]
    return GenSection.from_components(c, comps)


def apply_bivector(theta, xi):
    """theta(xi)^m = theta^{m a} xi_a, the second-argument action."""
    return np.einsum("ma,a->m", theta, xi)


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
    assert max_abs(pairing(df, dg)) == 0.0
    gen = C2.rng(3)
    psi = random_section(C2, gen)
    # <Df, psi> = anchor(psi).f
    lhs = pairing(df, psi)
    rhs = tn.ex.add(*(
        tn.ex.mul(psi.vec[a], tn.ex.differentiate(f, C2.coord(a))) for a in range(2)
    ))
    assert max_abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# Dorfman bracket
# ---------------------------------------------------------------------------


def test_dorfman_constant_frame_fields():
    H = closed_three_form(C3)
    for mu, nu in itertools.product(range(3), repeat=2):
        br = dorfman(frame(C3, mu), frame(C3, nu), H)
        assert max_abs(br.vec, C3) == 0.0
        assert max_abs(br.form + H[mu, nu], C3) < 1e-12


def test_dorfman_requires_closed_twist():
    # dH != 0 for H = x4 dx1^dx2^dx3 on a 4-chart; the background that
    # hands H to the bracket refuses it
    c4 = chart("x1 x2 x3 x4", seed=31)
    H = from_upper(4, 3, {(0, 1, 2): parse_expr("x4", c4)})
    with pytest.raises(NotClosed):
        streff.Background(c4, conftest.identity(4), tn.zeros_array((4, 4)), 0.0, H)


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
        assert conftest.jacobiator(psi, phi, chi, H).max_abs()[0] < 1e-9


def test_dorfman_invariance_of_pairing():
    H = closed_three_form(C2, seed=9)
    gen = C2.rng(43)
    pts = C2.sample_points()
    for _ in range(3):
        psi, phi, chi = (random_section(C2, gen) for _ in range(3))
        lhs = tn.ex.add(*(
            tn.ex.mul(psi.vec[a], tn.ex.differentiate(pairing(phi, chi), C2.coord(a)))
            for a in range(2)
        ))
        rhs = pairing(dorfman(psi, phi, H), chi) + pairing(phi, dorfman(psi, chi, H))
        assert max_abs(lhs - rhs) < 1e-9


def test_dorfman_left_leibniz():
    H = closed_three_form(C2, seed=13)
    gen = C2.rng(47)
    f = tn.ex.random_polynomial(C2, gen)
    psi, phi = random_section(C2, gen), random_section(C2, gen)
    fpsi = psi.scale(f)
    lhs = dorfman(fpsi, phi, H)
    rhof_f = tn.ex.add(*(
        tn.ex.mul(phi.vec[a], tn.ex.differentiate(f, C2.coord(a))) for a in range(2)
    ))
    rhs = dorfman(psi, phi, H).scale(f) - psi.scale(rhof_f) + d_map(C2, f).scale(pairing(psi, phi))
    assert (lhs - rhs).max_abs()[0] < 1e-9


def test_anchor_is_bracket_morphism_and_rho_rhostar_zero():
    H = closed_three_form(C2, seed=3)
    gen = C2.rng(53)
    psi, phi = random_section(C2, gen), random_section(C2, gen)
    br = dorfman(psi, phi, H)
    want = conftest.lie_bracket(C2, psi.vec, phi.vec)
    assert max_abs(br.vec - want) < 1e-9
    # rho . rho* = 0: rho*(xi) = (0, xi) has no vector part by construction
    xi = conftest.from_function(C2, 1, lambda i: poly("x+y") if i else poly("x^2"))
    assert max_abs(GenSection(C2, tn.zeros_array(2), xi).vec) == 0.0


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 5])
@settings(max_examples=3, deadline=None)
@given(st.integers(0, 2**16))
def test_numeric_bracket_matches_the_expression_bracket(dim, count, seed):
    # the bracket of two section 2-jets is the jet of the Expr bracket; its
    # pairing, Jacobiator and e^B shear are their values
    c = chart("x y z w".split()[:dim], seed=seed, num_points=count)
    H = closed_three_form(c, seed=seed % 97)
    B = bumpy_B(c, seed=seed % 89)
    pts = c.sample_points()
    Hj, Bj = tn.jets_at(H, c), tn.jets_at(B, c)
    psi, phi, chi = gtb.random_sections(c, c.rng(seed), 3)
    gen = c.rng(seed)
    a, b, d = (random_section(c, gen) for _ in range(3))
    cases = [(gtb.dorfman(psi, phi, Hj), tn.jets_at(dorfman(a, b, H).components(), c)),
             (gtb.pairing(psi[0], phi[0]), tn.jets_at(pairing(a, b), c)),
             (gtb.b_twist(psi[0], Bj), tn.jets_at(conftest.b_twist(a, B).components(), c))]
    for got, want in cases:
        np.testing.assert_allclose(got.value, want.value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.partial, want.partial, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gtb.jacobiator(psi, phi, chi, Hj),
                               tn.values_at(conftest.jacobiator(a, b, d, H).components(), pts),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 4])
@pytest.mark.parametrize("count", [1, 5])
def test_one_batched_bracket_is_the_bracket_of_each_pair(dim, count):
    # the pairs (x, y) side by side on the point axis, as
    # gconn.conjugated_algebroid puts the column pairs of F: one gtb.dorfman
    # call gives, bit for bit, the bracket of section x with section y
    c = chart("x y z w".split()[:dim], seed=31, num_points=count)
    Hj = tn.jets_at(closed_three_form(c), c)
    sections = gtb.random_sections(c, c.rng(37), 5)
    pairs = list(itertools.product(range(3), range(3, 5)))
    psi, phi = (tuple(tn.on_points(*half) for half in zip(*[sections[p[k]] for p in pairs]))
                for k in (0, 1))
    H6 = tn.on_points(*[Hj] * len(pairs))
    batched = gtb.dorfman(psi, phi, H6)
    assert batched.value.shape == (2 * dim, len(pairs) * count)
    for (x, y), value, partial in zip(pairs, np.split(batched.value, len(pairs), axis=-1),
                                      np.split(batched.partial, len(pairs), axis=-1)):
        one = gtb.dorfman(sections[x], sections[y], Hj)
        assert np.array_equal(value, one.value)
        assert np.array_equal(partial, one.partial)
    values = gtb.dorfman(*(tuple(j.value for j in section) for section in (psi, phi)), H6)
    assert np.array_equal(values, batched.value)


# ---------------------------------------------------------------------------
# generalized metric
# ---------------------------------------------------------------------------


def bumpy_g(c):
    n = c.dim
    return conftest.from_function(
        c, 2,
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
    return from_upper(c.dim, 2, coeffs)


def jets_of(field, c=C2):
    """The 2-jet of an Expr array at the sample points of c."""
    return tn.field_jets(field, c)


def with_b(g, B):
    """The package of (g, B) as ``streff.Derived.metric`` builds it."""
    g = jets_of(g)[0]
    return GeneralizedMetric(C2, g, None if B is None else jets_of(B)[0], tn.jet_inverse(g))


def per_point(values):
    """A float array [..., p] as one array per point."""
    return np.moveaxis(values, -1, 0)


def test_gen_metric_block_form_b_zero():
    g = bumpy_g(C2)
    gm = with_b(g, None)
    for G, gv, giv in zip(*map(per_point, (gm.gram().value, gm.g.value, gm.g_inv.value))):
        assert np.allclose(G[:2, :2], gv, atol=1e-12)
        assert np.allclose(G[2:, 2:], giv, atol=1e-12)
        assert np.allclose(G[:2, 2:], 0, atol=1e-12)
        assert np.allclose(gv @ giv, np.eye(2), atol=1e-12)


def test_gen_metric_block_formula_general_b():
    """Gram matrix agrees with the explicit block form
    [[g - B g^{-1} B, B g^{-1}], [-g^{-1} B, g^{-1}]]."""
    g, B = bumpy_g(C2), bumpy_B(C2)
    gm = with_b(g, B)
    for G, p in zip(per_point(gm.gram().value), C2.sample_points()):
        gv, Bv = conftest.at(g, p), conftest.at(B, p)
        giv = np.linalg.inv(gv)
        blocks = np.block([[gv - Bv @ giv @ Bv, Bv @ giv], [-giv @ Bv, giv]])
        assert np.allclose(G, blocks, atol=1e-10)


def test_gram_jet_is_the_jet_of_the_block_formula():
    g, B = bumpy_g(C2), bumpy_B(C2)
    ginv = conftest.matrix_inverse(g)
    want = np.block([[g - np.einsum("ia,ab,bj->ij", B, ginv, B), np.einsum("ia,aj->ij", B, ginv)],
                     [-np.einsum("ia,aj->ij", ginv, B), ginv]])
    got, want = with_b(g, B).gram(), tn.jets_at(want, C2)
    np.testing.assert_allclose(got.value, want.value, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got.partial, want.partial, rtol=1e-12, atol=1e-12)


def test_gen_metric_tau_involution_and_orthogonality():
    gm = with_b(bumpy_g(C2), bumpy_B(C2))
    eta = gtb.pairing_gram(C2)
    for T in per_point(gm.tau_matrix()):
        assert np.allclose(T @ T, np.eye(4), atol=1e-10)
        assert np.allclose(T.T @ eta @ T, eta, atol=1e-10)  # <tau., tau.> = <.,.>


def test_gen_metric_flat_tau_swaps():
    gm = with_b(conftest.identity(2), None)
    e2 = np.zeros((4, 1))
    e2[2] = 1.0
    assert np.abs(gm.tau_matrix()[:, 0] - e2).max() == 0.0


def test_h_form_is_inverse_metric_for_any_b():
    gm = with_b(bumpy_g(C2), bumpy_B(C2))
    # h(xi, eta) = G(rho* xi, rho* eta) must equal g^{-1}(xi, eta)
    assert np.allclose(gm.h_form(), gm.g_inv.value, atol=1e-10)


def test_gram_inverse_consistent():
    gm = with_b(bumpy_g(C2), bumpy_B(C2))
    for G, Gi in zip(per_point(gm.gram().value), per_point(gm.gram_inverse())):
        assert np.allclose(G @ Gi, np.eye(4), atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 6), count=st.sampled_from([1, 5]), b=st.sampled_from(["none", "random", "1000"]),
       seed=st.integers(0, 2**32 - 1))
def test_gram_pair_and_b_twist_from_blocks_match_the_dense_shear_products(dim, count, b, seed):
    # random jets of g = A^T A + n and of B: none, a random 2-form plus a
    # constant symplectic block (invertible on even charts), or the
    # constant B_12 = 1000.  The Gram matrix, its inverse and e^B of a
    # section, written from n x n blocks, against the dense e^{+-B}
    # products, to 1e-12 of the largest term
    c = chart("x y z w u v".split()[:dim], num_points=count)
    rng = np.random.default_rng(seed)
    a = uniform_jet(rng, c, (dim, dim))
    g = tn.jet_contract("ki,kj->ij", a, a) + tn.constant_jet(dim * np.eye(dim), c)
    ginv = tn.jet_inverse(g)
    if b == "none":
        B = None
    else:
        block = np.zeros((dim, dim))
        if b == "random":
            for k in range(0, dim - 1, 2):
                block[k, k + 1] = 2.0
            r = 0.25 * uniform_jet(rng, c, (dim, dim))
            B = r - r.map(lambda t: t.swapaxes(0, 1))
        else:
            block[0, 1] = 1000.0
            B = tn.constant_jet(np.zeros((dim, dim)), c)
        B = B + tn.constant_jet(block - block.T, c)
    metric = GeneralizedMetric(c, g, B, ginv)
    Bj = 0.0 * g if B is None else B
    terms = [metric.g, ginv, tn.jet_contract("ia,ab,bc->ic", Bj, ginv, Bj)]  # g, g^{-1}, B g^{-1} B
    want = oracles.gram_reference(metric)
    for half in ("value", "partial"):
        scale = max(np.abs(getattr(t, half)).max() for t in terms + [want])
        np.testing.assert_allclose(getattr(metric.gram(), half), getattr(want, half),
                                   rtol=1e-12, atol=1e-12 * scale)
    want = oracles.gram_inverse_reference(metric)
    scale = max(np.abs(t.value).max() for t in terms)
    np.testing.assert_allclose(metric.gram_inverse(), want, rtol=1e-12, atol=1e-12 * scale)
    u = uniform_jet(rng, c, (2 * dim,))
    BX = tn.jet_contract("ab,b->a", Bj, u[:dim])
    for section in (u, u.value):
        got, want = gtb.b_twist(section, Bj), oracles.b_twist_reference(section, Bj)
        for half in ("value", "partial") if isinstance(section, Jet) else ("value",):
            scale = max(np.abs(getattr(t, half)).max() for t in (u, BX))
            np.testing.assert_allclose(getattr(got, half, got), getattr(want, half, want),
                                       rtol=1e-12, atol=1e-12 * scale)


def test_graph_embeddings_and_projectors():
    gm = with_b(bumpy_g(C2), bumpy_B(C2))
    gen = C2.rng(67)
    X = tn.values_at([tn.ex.random_polynomial(C2, gen) for _ in range(2)], C2.sample_points())
    plus, minus = (np.einsum("aip,ip->ap", gm.graph(sign), X) for sign in (+1, -1))
    assert np.abs(gm.project(plus, +1) - plus).max() < 1e-12
    assert np.abs(gm.project(plus, -1)).max() < 1e-12
    assert np.abs(gm.project(minus, -1) - minus).max() < 1e-12
    assert np.abs(gm.project(minus, +1)).max() < 1e-12


def test_h_form_invariant_under_shear_related_metrics():
    # G' built from (g, B + C) relates to G(g, B) by the shear e^C; h stays g^{-1}
    g = bumpy_g(C2)
    gm1 = with_b(g, bumpy_B(C2, seed=1))
    gm2 = with_b(g, bumpy_B(C2, seed=2))
    assert np.abs(gm1.h_form() - gm2.h_form()).max() < 1e-12


def test_gen_metric_validation_errors():
    bad = conftest.from_function(C2, 2, lambda i, j: poly("1") if i == j == 0 else (poly("-1") if i == j else poly("0")))
    pts = C2.sample_points()
    with pytest.raises(NotPositiveDefinite):
        gtb.check_positive_definite(per_point(tn.values_at(bad, pts)), pts)
    with pytest.raises(NotPositiveDefinite):
        streff.Background(C2, bad, tn.zeros_array((2, 2)), poly("0"))
    # B is validated with the background, before any package is built
    bad_B = conftest.from_function(C2, 2, lambda i, j: poly("x"))
    with pytest.raises(NotAntisymmetric):
        streff.Background(C2, conftest.identity(2), bad_B, poly("0"))


# ---------------------------------------------------------------------------
# shears
# ---------------------------------------------------------------------------


def test_b_twist_values_and_inverse():
    B = bumpy_B(C2)
    e0 = frame(C2, 0)
    tw = conftest.b_twist(e0, B)
    assert max_abs(tw.vec - e0.vec) == 0.0
    assert max_abs(tw.form - B[:, 0]) < 1e-12
    gen = C2.rng(71)
    psi = random_section(C2, gen)
    back = conftest.b_twist(conftest.b_twist(psi, B), -1 * B)
    assert (back - psi).max_abs()[0] < 1e-12


def test_b_twist_preserves_pairing():
    B = bumpy_B(C2)
    gen = C2.rng(73)
    pts = C2.sample_points()
    for _ in range(3):
        psi, phi = random_section(C2, gen), random_section(C2, gen)
        d = pairing(conftest.b_twist(psi, B), conftest.b_twist(phi, B)) - pairing(psi, phi)
        assert max_abs(d) < 1e-12


def twisted_jets(c, B, H):
    """The jets of B, of H and of H' = H + dB, as ``twisted_bracket_check``
    reads them."""
    return tn.jets_at(B, c), tn.jets_at(H, c), tn.jets_at(H + dB(B, c), c)


def test_b_twist_intertwines_brackets():
    H = closed_three_form(C3, seed=11)
    B = bumpy_B(C3, seed=77)
    assert gtb.twisted_bracket_check(C3, *twisted_jets(C3, B, H))[0] < 1e-9


def test_twisted_bracket_check_reports_the_worst_point():
    # with H in place of H' = H + dB the residual is the dB term, far above
    # roundoff, so the worst pair and point are those of the Expr oracle
    H = closed_three_form(C3, seed=11)
    B = bumpy_B(C3, seed=77)
    Bj, Hj, _ = twisted_jets(C3, B, H)
    gen = C3.rng(101)  # the check's own section pairs
    pairs = [(random_section(C3, gen), random_section(C3, gen)) for _ in range(3)]
    b_twist = conftest.b_twist
    each = [(b_twist(dorfman(psi, phi, H), B) - dorfman(b_twist(psi, B), b_twist(phi, B), H)).max_abs()
            for psi, phi in pairs]
    worst, at = gtb.twisted_bracket_check(C3, Bj, Hj, Hj)
    want, want_at = worst_of(each)
    assert worst > 1e-2
    assert worst == pytest.approx(want, rel=1e-12)
    assert at == want_at


def shear(M, psi):
    """The section with frame components M psi."""
    return GenSection.from_components(psi.chart, np.einsum("ab,b->a", M, psi.components()))


def theta_jets(B, c=C2):
    """The 2-jets of theta = B^{-1} and of B."""
    b = jets_of(B, c)
    return gtb.theta_from_b(*b, c.sample_points()), b


def test_theta_twist_inverse_and_pairing():
    B = from_upper(2, 2, {(0, 1): poly("1 + x/4")})
    (F, dF), Finv = gtb.theta_twist_matrices(*theta_jets(B))
    eta = gtb.pairing_gram(C2)
    for f, finv in zip(per_point(F.value), per_point(Finv.value)):
        assert np.allclose(f @ finv, np.eye(4), atol=1e-10)
        # F^T eta F = eta: e^{-B} o F_theta is orthogonal for the pairing
        assert np.allclose(f.T @ eta @ f, eta, atol=1e-10)
    # the jet of the partials of F continues the jet of F
    np.testing.assert_array_equal(F.partial, dF.value)
    # and F, dF and F^{-1} are the jets of the symbolic shear read from the
    # block picture, e^{-B} o F_theta, and of its inverse F_theta^{-1} o e^B
    theta = conftest.matrix_inverse(B)
    F_theta, F_theta_inv = conftest.theta_twist_matrices(theta, B)
    want = np.einsum("ab,bc->ac", conftest.shear_matrix(B, -1), F_theta)
    want_inv = np.einsum("ab,bc->ac", F_theta_inv, conftest.shear_matrix(B, +1))
    for got, want in zip((F, dF, Finv), tn.field_jets(want, C2) + (tn.jets_at(want_inv, C2),)):
        np.testing.assert_allclose(got.value, want.value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.partial, want.partial, rtol=1e-12, atol=1e-12)


def test_theta_twist_2d_matrix_oracle():
    B = from_upper(2, 2, {(0, 1): 1})
    (theta, _), _ = theta_jets(B)
    # direct 2x2 inversion: B matrix [[0,1],[-1,0]] so theta = -B as a matrix
    for q, p in enumerate(C2.sample_points()[:2]):
        Bv = conftest.at(B, p)
        assert np.allclose(theta.value[..., q], np.linalg.inv(Bv))
        assert np.allclose(theta.value[..., q], -Bv)
    # spot values through the shear: e^{-B} o F_theta (0, dx) = (theta(dx), 0),
    # the form block exactly zero
    (F, _), _ = gtb.theta_twist_matrices(*theta_jets(B))
    assert F.value[1, 2, 0] == pytest.approx(1.0)
    assert F.value[0, 2, 0] == 0.0
    assert (F.value[2:, 2:] == 0.0).all()


def test_theta_twist_odd_dimension_fails():
    B3 = from_upper(3, 2, {(0, 1): 1})
    with pytest.raises(SingularB):
        theta_jets(B3, C3)


# Six points at which only a later one (or two) is bad: the test names the
# first bad point, with its message.
POINTS6 = [(k / 4, 1 - k / 2) for k in range(6)]


def metric_stack(bad):
    """Six positive definite 2x2 matrices, one per point of POINTS6, with
    the (point, matrix) pairs of ``bad`` in their place."""
    out = np.stack([np.array([[2.0, 0.5], [0.5, 1.0 + k]]) for k in range(6)])
    for p, m in bad:
        out[p] = m
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad, message", [
    ([(4, [[2.0, 0.5], [0.5, np.nan]])], "metric not finite and symmetric at (1.0, -1.0)"),
    ([(3, [[2.0, 0.5], [0.25, 1.0]])], "metric not finite and symmetric at (0.75, -0.5)"),
    ([(2, [[1.0, 0.0], [0.0, -1.0]]), (4, [[np.inf, 0.0], [0.0, 1.0]])],
     "metric not positive definite at sample point (0.5, 0.0)"),
])
def test_check_positive_definite_names_the_first_bad_point(bad, message):
    gtb.check_positive_definite(metric_stack([]), POINTS6)
    with pytest.raises(NotPositiveDefinite) as err:
        gtb.check_positive_definite(metric_stack(bad), POINTS6)
    assert str(err.value) == message


def b_jets(bad):
    """The 2-jet of B = [[0, 1 + k], [-1 - k, 0]] at the k-th point of
    POINTS6, constant in x, with the (point, matrix) pairs of ``bad`` in the
    values."""
    value = np.zeros((2, 2, 6))
    value[0, 1], value[1, 0] = 1.0 + np.arange(6), -1.0 - np.arange(6)
    for p, m in bad:
        value[..., p] = m
    return Jet(value, np.zeros((2, 2, 2, 6))), Jet(np.zeros((2, 2, 2, 6)), np.zeros((2, 2, 2, 2, 6)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad, point", [
    ([(3, [[0.0, 1e-6], [-1e-6, 0.0]])], (0.75, -0.5)),  # |det B| = 1e-12 < DET_TOL
    ([(5, [[0.0, np.nan], [-1.0, 0.0]])], (1.25, -1.5)),
    ([(1, [[0.0, 0.0], [0.0, 0.0]]), (4, [[0.0, np.nan], [np.nan, 0.0]])], (0.25, 0.5)),
])
def test_theta_from_b_names_the_first_degenerate_point(bad, point):
    theta, _ = gtb.theta_from_b(*b_jets([]), POINTS6)
    np.testing.assert_allclose(theta.value[0, 1], -1.0 / (1.0 + np.arange(6)), rtol=1e-15)
    with pytest.raises(SingularB) as err:
        gtb.theta_from_b(*b_jets(bad), POINTS6)
    assert str(err.value) == f"B degenerate at sample point {point}"


# ---------------------------------------------------------------------------
# Schouten residual and Koszul bracket
# ---------------------------------------------------------------------------


def schouten(theta, twist, c=C2):
    """The numeric Schouten residual of the Expr arrays theta and twist."""
    return gtb.schouten_check(jets_of(theta, c)[0], tn.values_at(twist, c.sample_points()),
                              c.sample_points())


def test_schouten_constant_theta_is_poisson():
    theta = from_upper(2, 2, {(0, 1): 1})  # the bivector of the 2-form's entries
    assert np.abs(schouten(theta, tn.zeros_array((2,) * 3))).max() == 0.0


def test_schouten_2d_invertible_b():
    # any invertible 2-form on a 2-chart is twisted Poisson: dB = 0 in 2d
    B = from_upper(2, 2, {(0, 1): poly("1 + x")})
    ((theta, _), _), pts = theta_jets(B), C2.sample_points()
    twist = tn.values_at(dB(B, C2), pts)
    assert np.abs(gtb.schouten_check(theta, twist, pts)).max() < 1e-12


def _bracket_oracle_schouten(theta, i, j, k, point, twist, c=C3):
    """Brute-force residual via vector-field commutators:
    [theta xi, theta eta] - theta(L_{theta xi} eta - i_{theta eta} d xi)."""
    xi, eta = conftest.identity(c.dim)[i], conftest.identity(c.dim)[j]
    thxi = apply_bivector(theta, xi)
    theta_eta = apply_bivector(theta, eta)
    comm = conftest.lie_bracket(c, thxi, theta_eta)
    dxi = tn.d_of_partials(tn.partials(xi, c), 1)
    inner = conftest.lie_derivative_oneform(c, thxi, eta) - conftest.interior_product(theta_eta, dxi)
    half = comm - apply_bivector(theta, inner)
    tw = tn.ex.add(*(
        tn.ex.mul(twist[a, b, cidx], thxi[a], theta_eta[b], theta[cidx, k])
        for a in range(c.dim) for b in range(c.dim) for cidx in range(c.dim)
    ))
    return evaluate(half[k], point) + evaluate(tw, point)


def test_schouten_3d_degenerate_pattern_zero():
    """theta with the coefficient pattern of dx^dy + x dy^dz (an invertible
    primitive does not exist in odd dimension; the bivector itself is
    Poisson and the dB twist dies on its image)."""
    theta = conftest.from_function(
        C3, 2,
        lambda i, j: {(0, 1): poly("1", C3), (1, 0): poly("-1", C3),
                      (1, 2): poly("x", C3), (2, 1): poly("-x", C3)}.get((i, j), poly("0", C3)),
    )
    twist = dB(from_upper(3, 2, {(0, 1): 1, (1, 2): poly("x", C3)}), C3)
    res = schouten(theta, twist, C3)
    assert np.abs(res).max() < 1e-12
    # independent brute-force oracle on a few index triples and points
    for q, ((i, j, k), p) in enumerate(zip(itertools.permutations(range(3)), C3.sample_points())):
        assert _bracket_oracle_schouten(theta, i, j, k, p, twist) == pytest.approx(
            res[i, j, k, q], abs=1e-10
        )


def test_schouten_residual_antisymmetric_and_matches_oracle():
    theta = conftest.from_function(
        C3, 2,
        lambda i, j: {(0, 1): poly("1", C3), (1, 0): poly("-1", C3),
                      (1, 2): poly("y", C3), (2, 1): poly("-y", C3)}.get((i, j), poly("0", C3)),
    )
    res = schouten(theta, tn.zeros_array((3,) * 3), C3)
    assert np.abs(res).max() > 0.5  # genuinely non-Poisson
    pts = C3.sample_points()
    for i, j, k in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]:
        for q, p in enumerate(pts[:3]):
            want = _bracket_oracle_schouten(theta, i, j, k, p, tn.zeros_array((3,) * 3))
            assert res[i, j, k, q] == pytest.approx(want, abs=1e-10)
    # total antisymmetry of the residual 3-vector
    assert np.abs(res + np.swapaxes(res, 0, 1)).max() < 1e-10


def test_schouten_rejects_a_bivector_that_is_not_antisymmetric():
    theta = conftest.from_function(C2, 2, lambda i, j: poly("1"))
    with pytest.raises(NotAntisymmetric):
        schouten(theta, tn.zeros_array((2,) * 3))


def test_koszul_exact_forms_constant_theta():
    theta = from_upper(2, 2, {(0, 1): 1})
    zero3 = tn.zeros_array((2,) * 3)
    df, dg = tn.partials(poly("x^2*y"), C2), tn.partials(poly("x + y^2"), C2)
    br = conftest.koszul(C2, df, dg, theta, zero3)
    # {f, g} = theta(df).g; [df, dg] = d{f, g} for a Poisson bivector
    want = tn.partials(np.einsum("ma,a,m->", theta, df, dg), C2)
    assert max_abs(br - want) < 1e-12


def test_koszul_anchor_morphism():
    theta = from_upper(2, 2, {(0, 1): 1})
    zero3 = tn.zeros_array((2,) * 3)
    gen = C2.rng(83)
    for _ in range(3):
        xi = tn.partials(tn.ex.random_polynomial(C2, gen), C2)
        eta = tn.partials(tn.ex.random_polynomial(C2, gen), C2)
        br = conftest.koszul(C2, xi, eta, theta, zero3)
        lhs = apply_bivector(theta, br)
        rhs = conftest.lie_bracket(C2, apply_bivector(theta, xi), apply_bivector(theta, eta))
        assert max_abs(lhs - rhs) < 1e-9


def zero_twist(c):
    return tn.constant_jet(np.zeros((c.dim,) * 3), c)


def test_a_bivector_that_is_not_twisted_poisson_reads_its_schouten_residual():
    # theta = d_x^d_y + y d_y^d_z has (1/2)[theta, theta] = +-d_x^d_y^d_z:
    # the cotangent algebroid is still built, and the residual that
    # symplectic.twisted-jacobi reads is 1 on each permutation of (0, 1, 2)
    theta = conftest.from_function(
        C3, 2,
        lambda i, j: {(0, 1): poly("1", C3), (1, 0): poly("-1", C3),
                      (1, 2): poly("y", C3), (2, 1): poly("-y", C3)}.get((i, j), poly("0", C3)),
    )
    jets = jets_of(theta, C3)
    gtb.cotangent_algebroid(C3, jets, zero_twist(C3))
    residual = gtb.schouten_check(jets[0], zero_twist(C3).value, C3.sample_points())
    want = np.zeros((3, 3, 3))
    for perm in itertools.permutations(range(3)):
        want[perm] = 1.0
    assert (np.abs(residual) == want[..., None]).all()


def test_d_theta_values():
    theta = from_upper(2, 2, {(0, 1): 1})
    v = gtb.d_theta(tn.field_jets(poly("x"), C2)[1], jets_of(theta)[0]).value
    # (d_theta f)^m = theta^{a m} d_a f: for f = x this is theta^{0 m}, so (0, +1)
    assert (v[0] == 0.0).all()
    assert v[1] == pytest.approx(1.0)
    # and it is minus the second-argument action theta(df)
    w = apply_bivector(theta, tn.partials(poly("x"), C2))
    assert evaluate(w[1], (0.3, 0.4)) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# Lie algebroid calculus and the sheared Dorfman bracket
# ---------------------------------------------------------------------------


def invertible_B4():
    c4 = chart("x1 x2 x3 x4", seed=37)
    return c4, from_upper(4, 2, {(0, 1): 1, (2, 3): parse_expr("1 + x1/4", c4)})


def cotangent_pair(c, B):
    """The numeric cotangent algebroid of theta = B^{-1} with twist dB, and
    its symbolic version (``conftest.cotangent_frame``)."""
    (theta, b) = theta_jets(B, c)
    numeric = gtb.cotangent_algebroid(c, theta, b[1].map(lambda t: tn.d_of_partials(t, 2)))
    symbolic = conftest.cotangent_frame(c, conftest.matrix_inverse(B), dB(B, c))
    return numeric, symbolic


def test_cotangent_algebroid_d_squared_zero():
    c4, B = invertible_B4()
    _, alg = cotangent_pair(c4, B)
    f0 = np.empty((), dtype=object)
    f0[()] = tn.ex.random_polynomial(c4, c4.rng(3))
    ddf = alg.differential(alg.differential(f0, 0), 1)
    assert max_abs(ddf, c4) < 1e-10


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 5]))
def test_symplectic_jets_match_the_symbolic_ones(salt, count):
    # theta, the anchor and structure functions of the cotangent algebroid,
    # its Levi-Civita connection, and the anchor and brackets of the
    # bivector-sheared picture, against the jets of their expressions
    bg = random_background(2, salt=salt % 1000, invertible_b=True, seed=salt, num_points=count)
    derived, oracle = streff.Derived(bg), Oracle(bg)
    pkg = derived.symplectic
    alg = pkg.algebroid
    sheared = derived.theta_connection.algebroid
    want_sheared = conftest.conjugated_frame(bg.chart, *oracle.theta_matrices, oracle.standard)
    cases = [(pkg.theta[0], oracle.theta), (pkg.g_A, oracle.g_A),
             (alg.anchor, oracle.cotangent.anchor), (alg.structure, oracle.cotangent.structure),
             (pkg.gamma, oracle.lc_gamma),
             (sheared.anchor, want_sheared.anchor), (sheared.structure, want_sheared.structure)]
    for got, want in cases:
        want = oracle.jets(want)
        np.testing.assert_allclose(got.value, want.value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.partial, want.partial, rtol=1e-12, atol=1e-12)


def test_theta_shear_transports_dorfman_to_a_dorfman():
    """The shear-conjugated Dorfman bracket of pure-form frame sections
    equals (Koszul bracket, -H'_theta contraction): the normative reading
    of the twist sign."""
    c4, B = invertible_B4()
    n = 4
    theta = conftest.matrix_inverse(B)
    H = tn.zeros_array((n,) * 3)
    twist = dB(B, c4)
    F, Finv = conftest.theta_twist_matrices(theta, B)
    pts = c4.sample_points()[:5]
    for a, b in [(0, 1), (1, 2), (0, 3)]:
        psi = shear(F, frame(c4, n + a))
        phi = shear(F, frame(c4, n + b))
        tw = shear(Finv, dorfman(psi, phi, H))
        # form part: the twisted Koszul bracket of dx^a, dx^b
        fa, fb = conftest.identity(n)[a], conftest.identity(n)[b]
        want_form = conftest.koszul(c4, fa, fb, theta, twist)
        assert conftest.max_abs_of(tw.form - want_form, pts) < 1e-9
        # vector part: -H'(theta dx^a, theta dx^b, theta dx^m), H' = H + dB
        for m in range(n):
            want = -tn.ex.add(*(
                tn.ex.mul(twist[i, j, k], theta[i, a], theta[j, b], theta[k, m])
                for i in range(n) for j in range(n) for k in range(n)
            ))
            assert conftest.max_abs_of(tw.vec[m] - want, pts) < 1e-9


def test_lie_algebroid_lc_constant_data():
    theta = from_upper(2, 2, {(0, 1): 1})
    cot = gtb.cotangent_algebroid(C2, jets_of(theta), zero_twist(C2))
    g_A = np.array([[tn.ex.Const(2.0), tn.ex.ZERO], [tn.ex.ZERO, tn.ex.Const(3.0)]], dtype=object)
    jets = tn.field_jets(g_A, C2)
    gamma = gtb.lc_connection(cot, *jets, tn.jet_inverse(jets[0]))
    assert np.abs(gamma.value).max() == 0.0
    assert np.abs(gtb.frame_curvature(*gamma, cot.anchor.value, cot.structure.value)).max() == 0.0


# ---------------------------------------------------------------------------
# the numeric curvature against the defining formula, built symbolically
# ---------------------------------------------------------------------------


def brute_force_r0(frame, gamma):
    """R0[d, c, a, b] as expressions, from the definition
    R(E_a,E_b)E_c = nab_a nab_b E_c - nab_b nab_a E_c - nab_{[E_a,E_b]} E_c
    with nab_{E_b} E_c = Gamma[:, b, c], [E_a, E_b] = C[:, a, b], and the
    frame derivatives of ``connection_apply`` (symbolic ``differentiate``)
    on a symbolic frame."""
    r = frame.rank
    unit = [np.array([tn.ex.ONE if i == a else tn.ex.ZERO for i in range(r)], dtype=object)
            for a in range(r)]
    out = np.empty((r,) * 4, dtype=object)
    for a, b, c in itertools.product(range(r), repeat=3):
        out[:, c, a, b] = (frame.connection_apply(gamma, unit[a], gamma[:, b, c])
                           - frame.connection_apply(gamma, unit[b], gamma[:, a, c])
                           - frame.connection_apply(gamma, frame.structure[:, a, b], unit[c]))
    return out


def assert_frame_curvature_matches(numeric, symbolic, gamma, points, jet):
    """R0 of the numeric frame, from ``jet``, the jet of the coefficients
    gamma (an object array of Expr), against the definition on the symbolic
    frame."""
    r0 = gtb.frame_curvature(*jet, numeric.anchor.value, numeric.structure.value)
    want = tn.values_at(brute_force_r0(symbolic, gamma), points)
    np.testing.assert_allclose(r0, want, rtol=1e-12, atol=1e-12)


def frames_of(derived):
    """(numeric frame, symbolic frame, Gamma as expressions, the jet of
    Gamma at the chart's sample points) on rank n (the cotangent algebroid
    of theta, whose anchor is theta) and rank 2n (the dilaton connection of
    the block picture, constant anchor, and its pullback through the
    bivector shear e^{-B} o F_theta, anchor built from theta)."""
    oracle = Oracle(derived.bg)
    pkg = derived.symplectic
    sheared = conftest.conjugated_frame(derived.bg.chart, *oracle.theta_matrices, oracle.standard)
    return [(pkg.algebroid, oracle.cotangent, oracle.lc_gamma, pkg.gamma),
            (derived.dilaton.algebroid, oracle.standard, oracle.dilaton, derived.dilaton.gamma),
            (derived.theta_connection.algebroid, sheared, oracle.theta_connection,
             derived.theta_connection.gamma)]


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 5]))
def test_frame_curvature_matches_the_definition(salt, count):
    # rank n: the cotangent algebroid of theta = B^{-1}, whose anchor is theta;
    # rank 2n: the jets of the dilaton connection (constant anchor) and of its
    # pullback through the bivector shear (anchor built from theta), against
    # the definition on their symbolic coefficients
    bg = random_background(2, salt=salt % 1000, invertible_b=True, seed=salt, num_points=count)
    points = bg.chart.sample_points()
    for numeric, symbolic, gamma, jet in frames_of(streff.Derived(bg)):
        assert_frame_curvature_matches(numeric, symbolic, gamma, points, jet)


def test_frame_curvature_of_a_4d_cotangent_algebroid():
    # a non-constant fiber metric, so every R0 entry has frame derivatives
    c4, B = invertible_B4()
    numeric, symbolic = cotangent_pair(c4, B)
    g_A = conftest.from_function(
        c4, 2, lambda i, j: parse_expr("1 + x2^2/8", c4) if i == j else tn.ex.ZERO
    )
    gamma = symbolic.lc_connection(g_A)
    jets = tn.field_jets(g_A, c4)
    got = gtb.lc_connection(numeric, *jets, tn.jet_inverse(jets[0]))
    want = tn.jets_at(gamma, c4)
    np.testing.assert_allclose(got.value, want.value, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got.partial, want.partial, rtol=1e-12, atol=1e-12)
    assert_frame_curvature_matches(numeric, symbolic, gamma, c4.sample_points(), got)


# ---------------------------------------------------------------------------
# the numeric covariant derivative and torsion against their definitions
# ---------------------------------------------------------------------------


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
    for numeric, symbolic, gamma, jet in frames_of(streff.Derived(bg)):
        omega = random_array(bg.chart, (len(numeric.anchor),) * degree, gen)
        got = gtb.covariant_derivative(jet.value, numeric.anchor.value, *tn.jets_at(omega, bg.chart))
        want = tn.values_at(symbolic_covariant_derivative(symbolic, gamma, omega), points)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def symbolic_frame_torsion(frame, gamma):
    out = np.empty((frame.rank,) * 3, dtype=object)
    for c, a, b in itertools.product(range(frame.rank), repeat=3):
        out[c, a, b] = gamma[c, a, b] - gamma[c, b, a] - frame.structure[c, a, b]
    return out


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 5]))
# the dilaton frame's partials differ by 1.43e-11 at |d Gamma| = 666; in
# 50-digit arithmetic both sides are ~4e-11 from the exact value
@example(salt=1323, count=5)
def test_torsion_map_gives_the_torsion_and_its_partials(salt, count):
    # Gamma plus random polynomials, so that the torsion is not zero; the
    # torsion is linear in (Gamma, C), so each side is held to 1e-12 of
    # the largest entry of the Gamma and C it is read from
    bg = random_background(2, salt=salt % 1000, invertible_b=True, seed=salt, num_points=count)
    points = bg.chart.sample_points()
    gen = bg.chart.rng(salt)
    coords = bg.chart.coords()
    for numeric, frame, gamma, _ in frames_of(streff.Derived(bg)):
        gamma = gamma + random_array(bg.chart, gamma.shape, gen)
        if len(numeric.anchor) == 2 * bg.chart.dim:
            torsion = lambda g, C, numeric=numeric: gconn.torsion_map(numeric, g, C)
            symbolic = symbolic_gualtieri_torsion(frame, gamma)
        else:
            torsion, symbolic = gtb.frame_torsion, symbolic_frame_torsion(frame, gamma)
        gv, dgv = tn.jets_at(gamma, bg.chart)
        C, dC = numeric.structure
        partials = np.array([[tn.ex.differentiate(t, x) for x in coords]
                             for t in symbolic.reshape(-1)], dtype=object)
        for g, c, want in ((gv, C, symbolic),
                           (dgv, dC, partials.reshape(symbolic.shape + (len(coords),)))):
            scale = max(1.0, np.abs(g).max(), np.abs(c).max())
            np.testing.assert_allclose(torsion(g, c), tn.values_at(want, points),
                                       rtol=1e-12, atol=1e-12 * scale)
