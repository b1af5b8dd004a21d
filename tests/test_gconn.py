"""Connections on the double bundle: torsion, curvature, traces, the
parameter family, shears, and the closed-form trace identities."""

import itertools

import numpy as np
import pytest

from gencourant import gconn
from gencourant import gtb
from gencourant import riemann as rm
from gencourant import tensors as tn
from gencourant.errors import NotAntisymmetric
from gencourant.expr import chart, evaluate
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
    alg = conn.algebroid
    dim2 = alg.dim2
    calH = np.empty((dim2,) * 3, dtype=object)
    for a, b, c in itertools.product(range(dim2), repeat=3):
        calH[a, b, c] = conn.lowered(a, b, c) - base.lowered(a, b, c)
    tau = conn.metric.tau_matrix()
    res1, res2, res3 = [], [], []
    n = C2.dim
    for a, b, c in itertools.product(range(dim2), repeat=3):
        res1.append(calH[a, b, c] + calH[a, c, b])
        res2.append(
            tn.ex.esum(
                [tn.ex.mul(tau[f, c], calH[a, b, f]) for f in range(dim2)]
                + [tn.ex.mul(tau[f, b], calH[a, c, f]) for f in range(dim2)]
            )
        )
        anchor_pullback = H.comps[a, b, c] if max(a, b, c) < n else tn.ex.ZERO
        res3.append(calH[a, b, c] + calH[b, c, a] + calH[c, a, b] + anchor_pullback)
    assert max_abs(res1, C2) < 1e-10
    assert max_abs(res2, C2) < 1e-10
    assert max_abs(res3, C2) < 1e-10


def test_block_lc_torsion_is_anchor_pullback_of_twist():
    g = bumpy_metric(C2)
    H = closed_h(C2)
    base = gconn.block_lc_connection(rm.christoffel(g), H)
    T = gconn.gualtieri_torsion(base)
    n = C2.dim
    res = []
    for a, b, c in itertools.product(range(2 * n), repeat=3):
        want = H.comps[a, b, c] if max(a, b, c) < n else tn.ex.ZERO
        res.append(T[a, b, c] - want)
    assert max_abs(res, C2) < 1e-10


def test_torsion_is_totally_antisymmetric():
    g = bumpy_metric(C2, salt=5)
    H = closed_h(C2, salt=6)
    T = gconn.gualtieri_torsion(gconn.block_lc_connection(rm.christoffel(g), H))
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        swapped = np.swapaxes(T, i, j)
        assert max_abs([a + b for a, b in zip(T.reshape(-1), swapped.reshape(-1))], C2) < 1e-10


# ---------------------------------------------------------------------------
# curvature of the minimal connection
# ---------------------------------------------------------------------------


def test_scalar_E_of_minimal_vanishes():
    g = bumpy_metric(C2, salt=11)
    H = closed_h(C2, salt=12)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    assert tn.ex.max_abs_on_points([gconn.scalar_E(conn)], C2.sample_points())[0] < 1e-10


def test_scalar_G_closed_form_random_background():
    g = bumpy_metric(C2, salt=13)
    H = closed_h(C2, salt=14)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    sg = gconn.scalar_G(conn)
    _, rg = rm.curvature_package(rm.christoffel(g))
    want = rg - 0.5 * rm.form_inner(H, H, tn.metric_inverse(g))
    assert tn.ex.max_abs_on_points([sg - want], C2.sample_points())[0] < 1e-9


def test_scalar_G_constant_twist_flat_r3():
    cc = 1.7
    g = tn.euclidean_metric(C3)
    H = tn.form_from_wedge_coeffs(C3, 3, {(0, 1, 2): cc})
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    sg = gconn.scalar_G(conn)
    for p in C3.sample_points()[:4]:
        assert evaluate(sg, p) == pytest.approx(-(cc ** 2) / 2.0, abs=1e-10)
    assert tn.ex.max_abs_on_points([gconn.scalar_E(conn)], C3.sample_points())[0] < 1e-10


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
        assert max_abs(res, C2) < 1e-9


def test_ricci_symmetric():
    g = bumpy_metric(C2, salt=17)
    H = closed_h(C2, salt=18)
    ric = gconn.ricci(gconn.minimal_connection(rm.christoffel(g), H))
    assert max_abs([ric[a, b] - ric[b, a] for a in range(4) for b in range(4)], C2) < 1e-9


@pytest.mark.parametrize("ricci_first", [True, False], ids=["ricci-first", "riemann-first"])
def test_ricci_is_the_trace_of_the_kept_riemann_entries(ricci_first):
    g = bumpy_metric(C2, salt=17)
    conn = gconn.with_params(gconn.minimal_connection(rm.christoffel(g), closed_h(C2, salt=18)), random_params(C2, g))
    if ricci_first:
        ric = gconn.ricci(conn)
        r = gconn.gen_riemann(conn)
    else:
        r = gconn.gen_riemann(conn)
        ric = gconn.ricci(conn)
    swap = conn.algebroid.swap
    for c, b in itertools.product(range(4), repeat=2):
        summands = [r[swap(lam), c, lam, b] for lam in range(4)]
        assert all(isinstance(e, tn.ex.Mul) for e in summands)
        assert len(ric[c, b].terms) == 4
        assert all(t is e for t, e in zip(ric[c, b].terms, summands))


def test_bianchi_torsion_free():
    g = bumpy_metric(C2, salt=19)
    H = closed_h(C2, salt=20)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    r = gconn.gen_riemann(conn)
    res = []
    for d, a, b, c in itertools.product(range(4), repeat=4):
        res.append(tn.ex.esum([r[d, c, a, b], r[d, a, b, c], r[d, b, c, a]]))
    assert max_abs(res, C2) < 1e-9


def test_bianchi_with_torsion_for_block_transport():
    g = bumpy_metric(C2, salt=21)
    H = closed_h(C2, salt=22)
    base = gconn.block_lc_connection(rm.christoffel(g), H)
    assert max_abs(gconn.bianchi_residual(base), C2) < 1e-9


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
    assert max_abs([a - b for a, b in zip(conn.gamma.reshape(-1), same.gamma.reshape(-1))], C2) == 0.0


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
    assert tn.ex.max_abs_on_points([se - want_e], C2.sample_points())[0] < 1e-9

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
    assert tn.ex.max_abs_on_points([sg - want_g], C2.sample_points())[0] < 1e-9


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
        diffs.append(res.comps[i, j] - want)
    assert tn.ex.max_abs_on_points(diffs, C2.sample_points())[0] < 1e-9


def test_char_vf_and_v_tensor_with_params():
    g = bumpy_metric(C2, salt=37)
    H = closed_h(C2, salt=38)
    params = random_params(C2, g, salt=39)
    minimal = gconn.minimal_connection(rm.christoffel(g), H)
    # the minimal connection has vanishing divergence of the differential
    assert gconn.char_vf(minimal).max_abs()[0] < 1e-10
    assert gconn.v_tensor(minimal).max_abs()[0] < 1e-10

    conn = gconn.with_params(minimal, params)
    Jp, _ = _traces(params, g)
    x = gconn.char_vf(conn)
    assert (x - Jp.scale(2.0)).max_abs()[0] < 1e-10

    v = gconn.v_tensor(conn)
    ginv = tn.metric_inverse(g)
    n = 2
    diffs = []
    for i, j, k in itertools.product(range(n), repeat=3):
        want = tn.ex.esum(
            tn.ex.mul(ginv.comps[i, a], ginv.comps[j, b], ginv.comps[k, c], params.W.comps[a, b, c])
            for a in range(n) for b in range(n) for c in range(n)
        )
        diffs.append(v.comps[i, j, k] - want)
    assert tn.ex.max_abs_on_points(diffs, C2.sample_points())[0] < 1e-10

    # trace against the induced form gives back the trace of W
    _, Wp = _traces(params, g)
    tr = gconn.v_trace(conn, conn.metric.h_form())
    assert (tr - Wp).max_abs()[0] < 1e-10


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
    K = gconn.param_tensor_frame(dparams, gtb.gen_metric(g))
    alg = base.algebroid
    eta = gtb.pairing_gram(C2)
    kp = tn.contract("lm,lmc->c", eta, K)  # K'(psi) = K(e_l, e^l, psi)
    # Div K' = (nab_{e_l} K')(e^l) and |K'|^2 = K'(e_l) K'(e^l)
    nab_kp = np.array([alg.connection_apply_dual(base.gamma, lam, kp) for lam in range(4)])
    pts = C2.sample_points()

    lhs = gconn.scalar_E(other)
    rhs = (
        gconn.scalar_E(base)
        + 2.0 * tn.contract("lm,lm->", eta, nab_kp)
        - tn.contract("lm,l,m->", eta, kp, kp)
    )
    assert tn.ex.max_abs_on_points([lhs - rhs], pts)[0] < 1e-9

    # the metric-trace version, via the graph restrictions
    n = 2
    ginv = tn.metric_inverse(g)
    coordfields = [gconn._coord_field(C2, i) for i in range(n)]
    gm = base.metric
    total = gconn.scalar_G(base)
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
        gpm = [[alg.connection_apply(base.gamma, secs[k], secs[a])[:n] for a in range(n)]
               for k in range(n)]
        div_terms = []
        norm_terms = []
        for k, a in itertools.product(range(n), repeat=2):
            nab = tn.ex.differentiate(kp_pm[a], C2.coord(k)) - tn.ex.esum(
                tn.ex.mul(gpm[k][a][c], kp_pm[c]) for c in range(n)
            )
            div_terms.append(tn.ex.mul(0.5, ginv.comps[k, a], nab))
            norm_terms.append(tn.ex.mul(0.5, ginv.comps[k, a], kp_pm[k], kp_pm[a]))
        total = total + float(sign) * 2.0 * tn.ex.esum(div_terms) - tn.ex.esum(norm_terms)
    lhs_g = gconn.scalar_G(other)
    assert tn.ex.max_abs_on_points([lhs_g - total], pts)[0] < 1e-9


def test_trace_identity_for_valid_params():
    g = bumpy_metric(C2, salt=45)
    H = closed_h(C2, salt=46)
    params = random_params(C2, g, salt=47)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    K = gconn.param_tensor_frame(params, gtb.gen_metric(g))
    res = gconn.trace_identity_residual(conn, K)
    assert tn.ex.max_abs_on_points([res], C2.sample_points())[0] < 1e-10


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
    assert max_abs([a - b for a, b in zip(conn.gamma.reshape(-1), same.gamma.reshape(-1))], C2) == 0.0


def test_untwist_roundtrip():
    g = bumpy_metric(C2, salt=55)
    H = closed_h(C2, salt=56)
    B = bumpy_b(C2, salt=57)
    conn = gconn.minimal_connection(rm.christoffel(g), H)
    back = gconn.untwist(gconn.untwist(conn, B), B.scale(-1))
    assert max_abs([a - b for a, b in zip(conn.gamma.reshape(-1), back.gamma.reshape(-1))], C2) < 1e-10


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
    assert tn.ex.max_abs_on_points([gconn.scalar_E(hat) - gconn.scalar_E(conn)], pts)[0] < 1e-9
    assert tn.ex.max_abs_on_points([gconn.scalar_G(hat) - gconn.scalar_G(conn)], pts)[0] < 1e-9


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
    That = gconn.gualtieri_torsion(hat)
    Tun = gconn.gualtieri_torsion(conn)
    res = []
    for a, b, c in itertools.product(range(dim2), repeat=3):
        want = tn.ex.esum(
            tn.ex.mul(Tun[d, e, f], M[d, a], M[e, b], M[f, c])
            for d in range(dim2) for e in range(dim2) for f in range(dim2)
        )
        res.append(That[a, b, c] - want)
    assert max_abs(res, C2) < 1e-9

    Rhat = gconn.ricci(hat)
    Run = gconn.ricci(conn)
    res = []
    for a, b in itertools.product(range(dim2), repeat=2):
        want = tn.ex.esum(
            tn.ex.mul(Run[d, e], M[d, a], M[e, b]) for d in range(dim2) for e in range(dim2)
        )
        res.append(Rhat[a, b] - want)
    assert max_abs(res, C2) < 1e-9

    # rank-4 curvature transport, contracted numerically at sample points
    riem_hat = gconn.gen_riemann(hat)
    riem_un = gconn.gen_riemann(conn)
    for p in C2.sample_points()[:3]:
        Rh = np.array(tn.ex.evaluate_many(list(riem_hat.reshape(-1)), p)).reshape((dim2,) * 4)
        Ru = np.array(tn.ex.evaluate_many(list(riem_un.reshape(-1)), p)).reshape((dim2,) * 4)
        Mv = np.array(tn.ex.evaluate_many(list(M.reshape(-1)), p)).reshape((dim2, dim2))
        pulled = np.einsum("defg,da,eb,fc,gh->abch", Ru, Mv, Mv, Mv, Mv)
        assert np.max(np.abs(Rh - pulled)) < 1e-9

    pts = C2.sample_points()
    d_scalar = gconn.scalar_E(hat) - gconn.scalar_E(conn)
    assert tn.ex.max_abs_on_points([d_scalar], pts)[0] < 1e-9


def test_char_vf_invariant_under_untwist():
    g = bumpy_metric(C2, salt=68)
    H = closed_h(C2, salt=69)
    B = bumpy_b(C2, salt=70)
    params = random_params(C2, g, salt=71)
    hat = gconn.with_params(gconn.minimal_connection(rm.christoffel(g), H), params)
    conn = gconn.untwist(hat, B)
    d = gconn.char_vf(hat) - gconn.char_vf(conn)
    assert d.max_abs()[0] < 1e-10


# ---------------------------------------------------------------------------
# dilaton connection
# ---------------------------------------------------------------------------


def test_dilaton_constant_phi_reduces_to_minimal():
    g = bumpy_metric(C2, salt=72)
    H = closed_h(C2, salt=73)
    minimal = gconn.minimal_connection(rm.christoffel(g), H)
    conn = gconn.dilaton_connection_twisted(minimal, tn.ex.Const(3.0))
    assert max_abs([a - b for a, b in zip(conn.gamma.reshape(-1), minimal.gamma.reshape(-1))], C2) < 1e-12


def test_dilaton_connection_traces():
    g = bumpy_metric(C2, salt=74)
    H = closed_h(C2, salt=75)
    B = bumpy_b(C2, salt=76)
    phi = tn.ex.parse_expr("x*y/2 + x^2/4", C2)
    H_prime = H + tn.exterior_derivative(B)
    conn = gconn.dilaton_connection(gconn.minimal_connection(rm.christoffel(g), H_prime), B, phi)
    assert gconn.char_vf(conn).max_abs()[0] < 1e-10
    tr = gconn.v_trace(conn, conn.metric.h_form())
    dphi = tn.d_scalar(C2, phi)
    assert (tr - dphi).max_abs()[0] < 1e-10


def test_parameter_space_dimension():
    assert gconn.lc_parameter_space_dim(2) == 4
    assert gconn.lc_parameter_space_dim(3) == 16
