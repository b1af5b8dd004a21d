"""Connections on the double bundle: torsion, curvature, traces, the
parameter family, shears, and the closed-form trace identities."""

import itertools

import numpy as np
import pytest
from conftest import (
    random_background,
    symbolic_covariant_derivative,
    symbolic_dilaton,
    symbolic_gualtieri_torsion,
    symbolic_param_tensor_frame,
    symbolic_theta_connection,
    symbolic_transport,
    symbolic_untwist,
    symbolic_with_params,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from gencourant import gconn
from gencourant import gtb
from gencourant import riemann as rm
from gencourant import streff
from gencourant import tensors as tn
from gencourant.errors import NotAntisymmetric
from gencourant.expr import chart
from gencourant.gtb import GenSection
from gencourant.tensors import DOWN, UP, TensorField


C2 = chart("x y", seed=101)
C3 = chart("x y z", seed=103)


def bumpy_metric(c, scale=0.2, salt=1):
    gen = c.rng(salt)
    n = c.dim
    pert = [[tn.ex.random_polynomial(c, gen, 2, scale) for _ in range(n)] for _ in range(n)]
    return tn.from_function(
        c, (DOWN, DOWN),
        lambda i, j: (tn.ex.ONE if i == j else tn.ex.ZERO) + pert[min(i, j)][max(i, j)],
    )


def closed_h(c, salt=2, scale=0.2):
    gen = c.rng(salt)
    coeffs = {
        (i, j): tn.ex.random_polynomial(c, gen, 2, scale)
        for i in range(c.dim) for j in range(i + 1, c.dim)
    }
    return tn.exterior_derivative(tn.form_from_wedge_coeffs(c, 2, coeffs))


def random_params(c, g, salt=3, scale=0.2):
    gen = c.rng(salt)
    n = c.dim
    J = tn.antisymmetrize(
        tn.from_function(c, (UP,) * 3, lambda *i: tn.ex.random_polynomial(c, gen, 2, scale)),
        (1, 2),
    )
    W = tn.antisymmetrize(
        tn.from_function(c, (DOWN,) * 3, lambda *i: tn.ex.random_polynomial(c, gen, 2, scale)),
        (1, 2),
    )
    return gconn.validate_params(J, W)


def max_abs(arr, c):
    return tn.ex.max_abs_on_points(arr, c.sample_points())[0]


def values(e, c):
    """An Expr, or an array of them, valued at the chart's sample points:
    the point set of the numeric curvature."""
    return tn.values_at(e, c.sample_points())


# ---------------------------------------------------------------------------
# frame algebroid mechanics
# ---------------------------------------------------------------------------


def test_bracket_components_match_dorfman():
    H = closed_h(C2)
    alg = gconn.standard_algebroid(C2, H)
    gen = C2.rng(7)
    for _ in range(3):
        psi, phi = gtb.random_section(C2, gen), gtb.random_section(C2, gen)
        got = gconn._bracket_components(alg, psi.components(), phi.components())
        want = gtb.dorfman(psi, phi, H).components()
        assert max_abs([a - b for a, b in zip(got, want)], C2) < 1e-10


def test_d_map_components():
    H = closed_h(C2)
    alg = gconn.standard_algebroid(C2, H)
    f = tn.ex.parse_expr("x^2*y", C2)
    got = alg.d_map_components(f)
    want = gtb.d_map(C2, f).components()
    assert max_abs([a - b for a, b in zip(got, want)], C2) < 1e-12


# ---------------------------------------------------------------------------
# minimal connection
# ---------------------------------------------------------------------------


def test_minimal_flat_no_twist_is_zero():
    g = tn.euclidean_metric(C2)
    conn = gconn.minimal_connection(rm.christoffel(g), tn.zeros(C2, (DOWN,) * 3))
    assert max_abs(conn.gamma, C2) == 0.0
    assert max_abs(gconn.gen_riemann(conn), C2) == 0.0


def test_minimal_is_torsion_free_and_compatible():
    g = bumpy_metric(C3)
    H = closed_h(C3)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    assert max_abs(gconn.gualtieri_torsion(conn), C3) < 1e-10
    assert max_abs(gconn.pairing_compat_residual(conn), C3) < 1e-10
    assert max_abs(gconn.metric_compat_residual(conn), C3) < 1e-10


def test_minimal_correction_solves_the_three_conditions():
    """The difference H = minimal - block transport satisfies, on the frame:
    skew in the last two slots, skew after tau on the last two slots, and
    cyclic sum equal to minus the anchor pullback of the twist."""
    g = bumpy_metric(C2)
    H = closed_h(C2)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    base = gconn.block_lc_connection(rm.christoffel(g), H)
    swap = [conn.algebroid.swap(a) for a in range(conn.algebroid.dim2)]
    # <nab_{e_a} e_b, e_c> is the e_swap(c) component for the swap Gram
    calH = np.einsum("cabp->abcp", (conn.gamma - base.gamma)[swap])
    tau = values(conn.metric.tau_matrix(), C2)
    n = C2.dim
    pullback = np.zeros_like(calH)
    pullback[:n, :n, :n] = values(H.comps, C2)
    res1 = calH + np.einsum("acbp->abcp", calH)
    res2 = np.einsum("fcp,abfp->abcp", tau, calH) + np.einsum("fbp,acfp->abcp", tau, calH)
    res3 = (calH + np.einsum("bcap->abcp", calH) + np.einsum("cabp->abcp", calH) + pullback)
    assert max_abs(res1, C2) < 1e-10
    assert max_abs(res2, C2) < 1e-10
    assert max_abs(res3, C2) < 1e-10


def test_block_lc_torsion_is_anchor_pullback_of_twist():
    g = bumpy_metric(C2)
    H = closed_h(C2)
    base = gconn.block_lc_connection(rm.christoffel(g), H)
    T = gconn.gualtieri_torsion(base)
    n = C2.dim
    want = np.zeros_like(T)
    want[:n, :n, :n] = values(H.comps, C2)
    assert max_abs(T - want, C2) < 1e-10


def test_torsion_is_totally_antisymmetric():
    g = bumpy_metric(C2, salt=5)
    H = closed_h(C2, salt=6)
    T = gconn.gualtieri_torsion(gconn.block_lc_connection(rm.christoffel(g), H))
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        assert max_abs(T + np.swapaxes(T, i, j), C2) < 1e-10


# ---------------------------------------------------------------------------
# curvature of the minimal connection
# ---------------------------------------------------------------------------


def test_scalar_E_of_minimal_vanishes():
    g = bumpy_metric(C2, salt=11)
    H = closed_h(C2, salt=12)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    assert max_abs(gconn.scalar_E(conn), C2) < 1e-10


def test_scalar_G_closed_form_random_background():
    g = bumpy_metric(C2, salt=13)
    H = closed_h(C2, salt=14)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    sg = gconn.scalar_G(conn)
    _, rg = rm.curvature_package(rm.christoffel(g))
    want = rg - 0.5 * rm.form_inner(H, H, tn.metric_inverse(g))
    assert max_abs(sg - values(want, C2), C2) < 1e-9


def test_scalar_G_constant_twist_flat_r3():
    cc = 1.7
    g = tn.euclidean_metric(C3)
    H = tn.form_from_wedge_coeffs(C3, 3, {(0, 1, 2): cc})
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    sg = gconn.scalar_G(conn)
    for value in sg[:4]:
        assert value == pytest.approx(-(cc ** 2) / 2.0, abs=1e-10)
    assert max_abs(gconn.scalar_E(conn), C3) < 1e-10


def test_riemann_symmetries():
    g = bumpy_metric(C2, salt=15)
    H = closed_h(C2, salt=16)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    r = gconn.gen_riemann(conn)
    dim2 = 4
    res_skew_last = []
    res_skew_first = []
    res_pair_swap = []
    res_interchange = []
    for d, c, a, b in itertools.product(range(dim2), repeat=4):
        res_skew_last.append(r[d, c, a, b] + r[d, c, b, a])
        res_skew_first.append(r[d, c, a, b] + r[c, d, a, b])
        res_pair_swap.append(r[d, c, a, b] - r[b, a, c, d])
        res_interchange.append(r[d, c, a, b] - r[a, b, d, c])
    for res in (res_skew_last, res_skew_first, res_pair_swap, res_interchange):
        assert max_abs(np.array(res), C2) < 1e-9


def test_ricci_symmetric():
    g = bumpy_metric(C2, salt=17)
    H = closed_h(C2, salt=18)
    ric = gconn.ricci(gconn.minimal_connection(rm.christoffel(g), H))
    assert max_abs(np.array([ric[a, b] - ric[b, a] for a in range(4) for b in range(4)]), C2) < 1e-9


@pytest.mark.parametrize("ricci_first", [True, False], ids=["ricci-first", "riemann-first"])
def test_ricci_is_the_trace_of_the_kept_riemann_tensor(ricci_first):
    g = bumpy_metric(C2, salt=17)
    conn = gconn.with_params(gconn.minimal_connection(rm.christoffel(g), closed_h(C2, salt=18)), random_params(C2, g))
    if ricci_first:
        ric = gconn.ricci(conn)
        r = gconn.gen_riemann(conn)
    else:
        r = gconn.gen_riemann(conn)
        ric = gconn.ricci(conn)
    # each is computed once per connection, at the chart's sample points
    assert gconn.gen_riemann(conn) is r and gconn.ricci(conn) is ric
    assert r.shape == (4,) * 4 + (len(C2.sample_points()),)
    swap = conn.algebroid.swap
    for c, b in itertools.product(range(4), repeat=2):
        trace = sum(r[swap(lam), c, lam, b] for lam in range(4))
        np.testing.assert_allclose(ric[c, b], trace, rtol=1e-12, atol=1e-12)


def test_bianchi_torsion_free():
    g = bumpy_metric(C2, salt=19)
    H = closed_h(C2, salt=20)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    r = gconn.gen_riemann(conn)
    res = []
    for d, a, b, c in itertools.product(range(4), repeat=4):
        res.append(r[d, c, a, b] + r[d, a, b, c] + r[d, b, c, a])
    assert max_abs(np.array(res), C2) < 1e-9


def test_bianchi_with_torsion_for_block_transport():
    g = bumpy_metric(C2, salt=21)
    H = closed_h(C2, salt=22)
    base = gconn.block_lc_connection(rm.christoffel(g), H)
    assert max_abs(gconn.bianchi_residual(base), C2) < 1e-9


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 5]))
def test_bianchi_torsion_terms_match_the_definition(salt, count):
    # term by term: on the block transport the Bianchi residual is ~1e-17
    # whatever its terms are, and T T vanishes (T lives on vector legs), so
    # random polynomials are added to its coefficients
    c = chart("x y z", seed=salt, num_points=count)
    g = bumpy_metric(c, scale=0.02, salt=salt)  # positive definite on the box
    lc = rm.christoffel(g)
    base = gconn.block_lc_connection(lc, closed_h(c, salt=salt + 1))
    alg = base.algebroid
    gen = c.rng(salt + 2)
    gamma = gconn._block_transport(lc)
    gamma = gamma + np.array([tn.ex.random_polynomial(c, gen) for _ in range(gamma.size)]
                             ).reshape(gamma.shape)
    points = c.sample_points()
    conn = gconn.GenConnection(alg, *tn.jets_at(gamma, points), base.metric)
    nabT, TT = gconn.torsion_terms(conn)
    T = symbolic_gualtieri_torsion(alg, gamma)
    want_nabT = symbolic_covariant_derivative(alg, gamma, T)
    want_TT = np.empty((alg.dim2,) * 4, dtype=object)
    for x, y, z, d in itertools.product(range(alg.dim2), repeat=4):
        want_TT[x, y, z, d] = tn.ex.esum(tn.ex.mul(T[y, z, alg.swap(f)], T[x, f, d])
                                         for f in range(alg.dim2))
    for got, want in ((nabT, want_nabT), (TT, want_TT)):
        want = tn.values_at(want, points)
        assert np.abs(want).max() > 1e-2
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# parameter family
# ---------------------------------------------------------------------------


def test_validate_params_cases():
    g = bumpy_metric(C2)
    zeroJ = tn.zeros(C2, (UP,) * 3)
    zeroW = tn.zeros(C2, (DOWN,) * 3)
    gconn.validate_params(zeroJ, zeroW)  # W = 0 valid

    # fully antisymmetric W projects to zero
    gen = C2.rng(31)
    c3 = chart("x y z", seed=9)
    W3 = tn.antisymmetrize(
        tn.from_function(c3, (DOWN,) * 3, lambda *i: tn.ex.random_polynomial(c3, gen)), (0, 1, 2)
    )
    params = gconn.validate_params(tn.zeros(c3, (UP,) * 3), W3)
    assert params.W.max_abs()[0] < 1e-12

    # the dilaton choice already has a zero cyclic sum, so the projection keeps it
    phi = tn.ex.parse_expr("x*y", C2)
    dil = gconn.dilaton_params(g, phi)
    assert (gconn.validate_params(dil.J, dil.W).W - dil.W).max_abs()[0] < 1e-12

    # antisymmetry in the last two slots is a hard requirement
    bad = tn.from_function(C2, (DOWN,) * 3, lambda i, j, k: tn.ex.ONE)
    with pytest.raises(NotAntisymmetric):
        gconn.validate_params(zeroJ, bad)


def test_with_params_zero_is_identity():
    g = bumpy_metric(C2, salt=23)
    H = closed_h(C2, salt=24)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    same = gconn.with_params(
        conn, gconn.ConnParams(tn.zeros(C2, (UP,) * 3), tn.zeros(C2, (DOWN,) * 3))
    )
    np.testing.assert_array_equal(same.gamma, conn.gamma)
    np.testing.assert_array_equal(same.dgamma, conn.dgamma)


def test_with_params_stays_levi_civita():
    g = bumpy_metric(C2, salt=25)
    H = closed_h(C2, salt=26)
    conn = gconn.with_params(gconn.minimal_connection(rm.christoffel(g), H), random_params(C2, g, salt=27))
    assert max_abs(gconn.gualtieri_torsion(conn), C2) < 1e-9
    assert max_abs(gconn.pairing_compat_residual(conn), C2) < 1e-10
    assert max_abs(gconn.metric_compat_residual(conn), C2) < 1e-9


def _traces(params, g):
    """J'^l = g_{ak} J[k,a,l]; W'_l = g^{ka} W[k,a,l]."""
    c = g.chart
    n = c.dim
    ginv = tn.metric_inverse(g)
    Jp = np.array(
        [
            tn.ex.esum(
                tn.ex.mul(g.comps[a, k], params.J.comps[k, a, l])
                for k in range(n) for a in range(n)
            )
            for l in range(n)
        ],
        dtype=object,
    )
    Wp = np.array(
        [
            tn.ex.esum(
                tn.ex.mul(ginv.comps[k, a], params.W.comps[k, a, l])
                for k in range(n) for a in range(n)
            )
            for l in range(n)
        ],
        dtype=object,
    )
    return TensorField(c, (UP,), Jp), TensorField(c, (DOWN,), Wp)


def test_scalar_closed_forms_with_params():
    """Brute-force frame traces against the closed forms in terms of the
    chart geometry and the partial traces of (J, W)."""
    g = bumpy_metric(C2, salt=29)
    H = closed_h(C2, salt=30)
    params = random_params(C2, g, salt=31)
    conn = gconn.with_params(gconn.minimal_connection(rm.christoffel(g), H), params)
    Jp, Wp = _traces(params, g)
    gamma = rm.christoffel(g)
    ginv = gamma.metric_inverse
    n = 2

    se = gconn.scalar_E(conn)
    jw = tn.ex.esum(tn.ex.mul(Jp.comps[a], Wp.comps[a]) for a in range(n))
    want_e = -4.0 * rm.divergence(Jp, gamma) + 8.0 * jw
    assert max_abs(se - values(want_e, C2), C2) < 1e-9

    sg = gconn.scalar_G(conn)
    _, rg = rm.curvature_package(rm.christoffel(g))
    w2 = tn.ex.esum(
        tn.ex.mul(ginv.comps[a, b], Wp.comps[a], Wp.comps[b]) for a in range(n) for b in range(n)
    )
    j2 = tn.ex.esum(
        tn.ex.mul(g.comps[a, b], Jp.comps[a], Jp.comps[b]) for a in range(n) for b in range(n)
    )
    want_g = (
        rg
        - 0.5 * rm.form_inner(H, H, tn.metric_inverse(g))
        + 4.0 * rm.divergence_oneform(Wp, gamma)
        - 4.0 * w2
        - 4.0 * j2
    )
    assert max_abs(sg - values(want_g, C2), C2) < 1e-9


def test_ricci_compat_closed_form_with_params():
    g = bumpy_metric(C2, salt=33)
    H = closed_h(C2, salt=34)
    params = random_params(C2, g, salt=35)
    conn = gconn.with_params(gconn.minimal_connection(rm.christoffel(g), H), params)
    res = gconn.ricci_compat_residual(conn)
    Jp, Wp = _traces(params, g)
    gamma = rm.christoffel(g)
    ginv = gamma.metric_inverse
    ric, _ = rm.curvature_package(rm.christoffel(g))
    deltaH = rm.codifferential(H, gamma)
    nabW = rm.covariant_derivative(Wp, gamma)
    nabJ = rm.covariant_derivative(Jp, gamma)
    n = 2
    diffs = []
    for i, j in itertools.product(range(n), repeat=2):
        ixH = tn.interior_product(gconn._coord_field(C2, i), H)
        jyH = tn.interior_product(gconn._coord_field(C2, j), H)
        hw = tn.ex.esum(
            tn.ex.mul(ginv.comps[a, b], H.comps[j, i, a], Wp.comps[b])
            for a in range(n) for b in range(n)
        )
        want = (
            ric.comps[i, j]
            - 0.5 * deltaH.comps[i, j]
            - 0.5 * rm.form_inner(ixH, jyH, tn.metric_inverse(g))
            + nabW.comps[i, j]
            + nabW.comps[j, i]
            + hw
            + tn.ex.esum(tn.ex.mul(nabJ.comps[i, a], g.comps[a, j]) for a in range(n))
            - tn.ex.esum(tn.ex.mul(nabJ.comps[j, a], g.comps[a, i]) for a in range(n))
        )
        diffs.append(res[i, j] - values(want, C2))
    assert max_abs(np.array(diffs), C2) < 1e-9


def test_char_vf_and_v_tensor_with_params():
    g = bumpy_metric(C2, salt=37)
    H = closed_h(C2, salt=38)
    params = random_params(C2, g, salt=39)
    minimal = gconn.minimal_connection(rm.christoffel(g), H)
    # the minimal connection has vanishing divergence of the differential
    assert max_abs(gconn.char_vf(minimal), C2) < 1e-10
    assert max_abs(gconn.v_tensor(minimal), C2) < 1e-10

    conn = gconn.with_params(minimal, params)
    Jp, Wp = _traces(params, g)
    assert max_abs(gconn.char_vf(conn) - values(Jp.comps, C2) * 2.0, C2) < 1e-10

    v = gconn.v_tensor(conn)
    ginv = tn.metric_inverse(g).comps
    want = tn.contract("ia,jb,kc,abc->ijk", ginv, ginv, ginv, params.W.comps)
    assert max_abs(v - values(want, C2), C2) < 1e-10

    # trace against the induced form gives back the trace of W
    tr = gconn.v_trace(conn, conn.metric.h_form())
    assert max_abs(tr - values(Wp.comps, C2), C2) < 1e-10


def test_affine_family_scalar_relations():
    """Moving within the family by a deformation tensor shifts the two
    scalar traces by divergence and norm terms of its partial traces."""
    g = bumpy_metric(C2, salt=41)
    H = closed_h(C2, salt=42)
    p1 = random_params(C2, g, salt=43)
    p2 = random_params(C2, g, salt=44)
    base = gconn.with_params(gconn.minimal_connection(rm.christoffel(g), H), p1)
    other = gconn.with_params(gconn.minimal_connection(rm.christoffel(g), H), p2)
    dparams = gconn.ConnParams(p2.J - p1.J, p2.W - p1.W)
    # the identities are checked on the symbolic coefficients of base
    K = symbolic_param_tensor_frame(dparams, gtb.gen_metric(g))
    alg = base.algebroid
    minimal_gamma = gconn._minimal_coefficients(rm.christoffel(g), H)
    base_gamma = symbolic_with_params(alg, minimal_gamma, p1, base.metric)
    eta = gtb.pairing_gram(C2)
    kp = tn.contract("lm,lmc->c", eta, K)  # K'(psi) = K(e_l, e^l, psi)
    # Div K' = (nab_{e_l} K')(e^l) and |K'|^2 = K'(e_l) K'(e^l)
    nab_kp = np.array([alg.connection_apply_dual(base_gamma, lam, kp) for lam in range(4)])
    pts = C2.sample_points()

    lhs = gconn.scalar_E(other)
    rhs = gconn.scalar_E(base) + values(
        2.0 * tn.contract("lm,lm->", eta, nab_kp) - tn.contract("lm,l,m->", eta, kp, kp), C2
    )
    assert tn.ex.max_abs_on_points(lhs - rhs, pts)[0] < 1e-9

    # the metric-trace version, via the graph restrictions
    n = 2
    ginv = tn.metric_inverse(g)
    coordfields = [gconn._coord_field(C2, i) for i in range(n)]
    gm = base.metric
    shift = tn.ex.ZERO
    for sign in (+1, -1):
        secs = [(gm.psi_plus if sign > 0 else gm.psi_minus)(cf).components() for cf in coordfields]
        Kres = np.empty((n, n, n), dtype=object)
        for i, j, k in itertools.product(range(n), repeat=3):
            Kres[i, j, k] = tn.ex.esum(
                tn.ex.mul(K[a, b, c], secs[i][a], secs[j][b], secs[k][c])
                for a in range(4) for b in range(4) for c in range(4)
            )
        kp_pm = np.array(
            [
                tn.ex.esum(
                    tn.ex.mul(0.5, ginv.comps[k, a], Kres[k, a, z])
                    for k in range(n) for a in range(n)
                )
                for z in range(n)
            ],
            dtype=object,
        )
        # the restriction to the graph eigenbundle: nab_{Psi(d_k)} Psi(d_a) =
        # Psi(gpm[k][a][c] d_c), read off the vector part
        gpm = [[alg.connection_apply(base_gamma, secs[k], secs[a])[:n] for a in range(n)]
               for k in range(n)]
        div_terms = []
        norm_terms = []
        for k, a in itertools.product(range(n), repeat=2):
            nab = tn.ex.differentiate(kp_pm[a], C2.coord(k)) - tn.ex.esum(
                tn.ex.mul(gpm[k][a][c], kp_pm[c]) for c in range(n)
            )
            div_terms.append(tn.ex.mul(0.5, ginv.comps[k, a], nab))
            norm_terms.append(tn.ex.mul(0.5, ginv.comps[k, a], kp_pm[k], kp_pm[a]))
        shift = shift + float(sign) * 2.0 * tn.ex.esum(div_terms) - tn.ex.esum(norm_terms)
    lhs_g = gconn.scalar_G(other)
    total = gconn.scalar_G(base) + values(shift, C2)
    assert tn.ex.max_abs_on_points(lhs_g - total, pts)[0] < 1e-9


def test_trace_identity_for_valid_params():
    g = bumpy_metric(C2, salt=45)
    H = closed_h(C2, salt=46)
    params = random_params(C2, g, salt=47)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    K, _ = gconn.param_tensor_frame(params, gtb.gen_metric(g))
    res = gconn.trace_identity_residual(conn, K)
    assert max_abs(res, C2) < 1e-10


# ---------------------------------------------------------------------------
# shears and transport
# ---------------------------------------------------------------------------


def bumpy_b(c, salt=51, scale=0.25):
    gen = c.rng(salt)
    coeffs = {
        (i, j): tn.ex.random_polynomial(c, gen, 2, scale)
        for i in range(c.dim) for j in range(i + 1, c.dim)
    }
    return tn.form_from_wedge_coeffs(c, 2, coeffs)


def test_untwist_with_zero_b_is_identity():
    g = bumpy_metric(C2, salt=53)
    H = closed_h(C2, salt=54)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    same = gconn.untwist(conn, tn.zeros(C2, (DOWN, DOWN)))
    np.testing.assert_array_equal(same.gamma, conn.gamma)
    np.testing.assert_array_equal(same.dgamma, conn.dgamma)


def test_untwist_roundtrip():
    g = bumpy_metric(C2, salt=55)
    H = closed_h(C2, salt=56)
    B = bumpy_b(C2, salt=57)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    back = gconn.untwist(gconn.untwist(conn, B), B.scale(-1))
    assert max_abs(conn.gamma - back.gamma, C2) < 1e-10
    assert max_abs(conn.dgamma - back.dgamma, C2) < 1e-10


def test_untwisted_connection_is_levi_civita_for_pair_metric():
    g = bumpy_metric(C2, salt=58)
    H = closed_h(C2, salt=59)
    B = bumpy_b(C2, salt=60)
    conn = gconn.untwist(gconn.minimal_connection(rm.christoffel(g), H), B)
    assert max_abs(gconn.gualtieri_torsion(conn), C2) < 1e-9
    assert max_abs(gconn.pairing_compat_residual(conn), C2) < 1e-10
    assert max_abs(gconn.metric_compat_residual(conn), C2) < 1e-9


def test_scalars_invariant_under_untwist():
    g = bumpy_metric(C2, salt=61)
    H = closed_h(C2, salt=62)
    B = bumpy_b(C2, salt=63)
    hat = gconn.with_params(gconn.minimal_connection(rm.christoffel(g), H), random_params(C2, g, salt=64))
    conn = gconn.untwist(hat, B)
    pts = C2.sample_points()
    assert tn.ex.max_abs_on_points(gconn.scalar_E(hat) - gconn.scalar_E(conn), pts)[0] < 1e-9
    assert tn.ex.max_abs_on_points(gconn.scalar_G(hat) - gconn.scalar_G(conn), pts)[0] < 1e-9


def test_covariance_of_torsion_riemann_ricci_under_shear():
    """T, R, Ric transported through e^B: the hatted tensors are the
    pullbacks of the untwisted ones."""
    g = bumpy_metric(C2, salt=65)
    H = closed_h(C2, salt=66)
    B = bumpy_b(C2, salt=67)
    hat = gconn.block_lc_connection(rm.christoffel(g), H)  # torsionful: stresses T covariance
    conn = gconn.untwist(hat, B)
    M = gtb.GeneralizedMetric(g, B, tn.metric_inverse(g)).shear_matrix(-1)  # e^{-B}: hat = pullback of conn
    dim2 = 4
    # torsion and curvature are numbers at the sample points, so M is valued there
    Mv = values(M, C2)
    That = gconn.gualtieri_torsion(hat)
    Tun = gconn.gualtieri_torsion(conn)
    res = []
    for a, b, c in itertools.product(range(dim2), repeat=3):
        want = sum(Tun[d, e, f] * Mv[d, a] * Mv[e, b] * Mv[f, c]
                   for d in range(dim2) for e in range(dim2) for f in range(dim2))
        res.append(That[a, b, c] - want)
    assert max_abs(np.array(res), C2) < 1e-9

    Rhat = gconn.ricci(hat)
    Run = gconn.ricci(conn)
    res = []
    for a, b in itertools.product(range(dim2), repeat=2):
        want = sum(Run[d, e] * Mv[d, a] * Mv[e, b] for d in range(dim2) for e in range(dim2))
        res.append(Rhat[a, b] - want)
    assert max_abs(np.array(res), C2) < 1e-9

    # rank-4 curvature transport
    riem_hat = gconn.gen_riemann(hat)
    riem_un = gconn.gen_riemann(conn)
    pulled = np.einsum("defgp,dap,ebp,fcp,ghp->abchp", riem_un, Mv, Mv, Mv, Mv)
    assert max_abs(riem_hat - pulled, C2) < 1e-9

    d_scalar = gconn.scalar_E(hat) - gconn.scalar_E(conn)
    assert max_abs(d_scalar, C2) < 1e-9


def test_char_vf_invariant_under_untwist():
    g = bumpy_metric(C2, salt=68)
    H = closed_h(C2, salt=69)
    B = bumpy_b(C2, salt=70)
    params = random_params(C2, g, salt=71)
    hat = gconn.with_params(gconn.minimal_connection(rm.christoffel(g), H), params)
    conn = gconn.untwist(hat, B)
    assert max_abs(gconn.char_vf(hat) - gconn.char_vf(conn), C2) < 1e-10


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 5]))
def test_parameter_family_and_transports_match_the_symbolic_ones(salt, count):
    # the jets of with_params, untwist and theta_transport against the jets of
    # the same coefficients built as expressions, on rank 2n, with a random
    # parameter pair and with the dilaton's
    bg = random_background(2, salt=salt % 1000, invertible_b=True, seed=salt, num_points=count)
    derived = streff.Derived(bg)
    minimal, B = derived.minimal, bg.B
    alg, metric = minimal.algebroid, minimal.metric
    gamma = gconn._minimal_coefficients(derived.gamma, derived.h_prime)
    params = random_params(bg.chart, bg.g, salt=salt)
    family = gconn.with_params(minimal, params)
    family_gamma = symbolic_with_params(alg, gamma, params, metric)
    untwisted = gconn.untwist(family, B)
    untwisted_gamma = symbolic_untwist(alg, family_gamma, metric, B)
    pkg = derived.symplectic
    F, Finv = gtb.theta_twist_matrices(pkg.theta, B)
    cases = [
        (family, family_gamma),
        (untwisted, untwisted_gamma),
        (gconn.theta_transport(untwisted, pkg.theta, B, pkg.metric),
         symbolic_transport(untwisted.algebroid, untwisted_gamma, F, Finv)),
        (derived.dilaton, symbolic_dilaton(derived)),
        (derived.theta_connection, symbolic_theta_connection(derived)),
    ]
    for conn, want in cases:
        values, partials = tn.jets_at(want, bg.chart.sample_points())
        assert np.abs(partials).max() > 1e-2
        np.testing.assert_allclose(conn.gamma, values, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(conn.dgamma, partials, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# dilaton connection
# ---------------------------------------------------------------------------


def test_dilaton_constant_phi_reduces_to_minimal():
    g = bumpy_metric(C2, salt=72)
    H = closed_h(C2, salt=73)
    minimal = gconn.minimal_connection(rm.christoffel(g), H)
    conn = gconn.dilaton_connection_twisted(minimal, tn.ex.Const(3.0))
    assert max_abs(conn.gamma - minimal.gamma, C2) < 1e-12
    assert max_abs(conn.dgamma - minimal.dgamma, C2) < 1e-12


def test_dilaton_connection_traces():
    g = bumpy_metric(C2, salt=74)
    H = closed_h(C2, salt=75)
    B = bumpy_b(C2, salt=76)
    phi = tn.ex.parse_expr("x*y/2 + x^2/4", C2)
    H_prime = H + tn.exterior_derivative(B)
    conn = gconn.dilaton_connection(gconn.minimal_connection(rm.christoffel(g), H_prime), B, phi)
    assert max_abs(gconn.char_vf(conn), C2) < 1e-10
    tr = gconn.v_trace(conn, conn.metric.h_form())
    assert max_abs(tr - values(tn.d_scalar(C2, phi).comps, C2), C2) < 1e-10


def test_parameter_space_dimension():
    assert gconn.lc_parameter_space_dim(2) == 4
    assert gconn.lc_parameter_space_dim(3) == 16
