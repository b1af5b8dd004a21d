"""Connections on the double bundle: torsion, curvature, traces, the
parameter family, shears, and the closed-form trace identities."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
import conftest
import oracles
from conftest import (
    Oracle,
    family_closed_forms,
    matrix_inverse,
    projected_params,
    random_background,
    shear_matrix,
    standard_frame,
    symbolic_covariant_derivative,
    symbolic_gualtieri_torsion,
    symbolic_param_tensor_frame,
    symbolic_transport,
    symbolic_with_params,
    uniform_jet,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gencourant import gconn
from gencourant import gtb
from gencourant import riemann as rm
from gencourant import streff
from gencourant import tensors as tn
from gencourant.errors import NotAntisymmetric
from gencourant.expr import chart
from gencourant.scene import from_upper


C2 = chart("x y", seed=101)
C3 = chart("x y z", seed=103)


def bumpy_metric(c, scale=0.2, salt=1):
    gen = c.rng(salt)
    n = c.dim
    pert = [[tn.ex.random_polynomial(c, gen, 2, scale) for _ in range(n)] for _ in range(n)]
    return conftest.from_function(
        c, 2, lambda i, j: (tn.ex.ONE if i == j else tn.ex.ZERO) + pert[min(i, j)][max(i, j)],
    )


def closed_h(c, salt=2, scale=0.2):
    gen = c.rng(salt)
    coeffs = {
        (i, j): tn.ex.random_polynomial(c, gen, 2, scale)
        for i in range(c.dim) for j in range(i + 1, c.dim)
    }
    return tn.d_of_partials(tn.partials(from_upper(c.dim, 2, coeffs), c), 2)


def random_pair(c, salt=3, scale=0.2):
    """A random parameter pair of chart fields, skew in the last two slots."""
    gen = c.rng(salt)
    J, W = (conftest.antisymmetrize(conftest.from_function(
        c, 3, lambda *i: tn.ex.random_polynomial(c, gen, 2, scale)), (1, 2)) for _ in range(2))
    return J, W


def random_params(c, g, salt=3, scale=0.2):
    return gconn.validate_params(*conftest.param_jets(*random_pair(c, salt, scale), c))


def max_abs(arr, c):
    return tn.ex.max_abs_on_points(arr, c.sample_points())[0]


def values(e, c):
    """An Expr, or an array of them, valued at the chart's sample points:
    the point set of the numeric stages."""
    return tn.values_at(e, c.sample_points())


def jets(e, c):
    return tn.jets_at(e, c)


# the connections of Expr arrays of g and H on C2, or on the chart c
def lc(g, c=C2):
    return rm.christoffel(*tn.field_jets(g, c), c)


def block_lc(g, H, c=C2):
    return gconn.block_lc_connection(lc(g, c), jets(H, c))


def minimal(g, H, c=C2):
    return gconn.minimal_connection(block_lc(g, H, c))


# ---------------------------------------------------------------------------
# frame algebroid mechanics
# ---------------------------------------------------------------------------


def test_conjugated_algebroid_brackets_the_columns_with_dorfman():
    # with F^{-1} the identity, the conjugated brackets are the one
    # gtb.dorfman call over every pair of columns of F and the anchor is their
    # vector parts: against the Expr bracket of the column sections
    H = closed_h(C2)
    gen = C2.rng(7)
    cols = [conftest.random_section(C2, gen) for _ in range(4)]
    F = np.stack([col.components() for col in cols], axis=1)  # [A, x]: column x
    alg = gconn.conjugated_algebroid(C2, tn.field_jets(F, C2), tn.constant_jet(np.eye(4), C2),
                                     jets(H, C2))
    cases = [(alg.anchor, jets(F[:2].T, C2))]
    for x, y in itertools.product(range(4), repeat=2):
        cases.append((alg.structure[:, x, y], jets(conftest.dorfman(cols[x], cols[y], H).components(), C2)))
    for got, want in cases:
        np.testing.assert_allclose(got.value, want.value, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.partial, want.partial, rtol=1e-12, atol=1e-12)


def test_dual_anchor_is_the_differential_of_the_coordinates():
    alg = gconn.standard_algebroid(C2, jets(closed_h(C2), C2))
    dual = alg.anchor[gconn._swap(alg)].value  # [C, m]: (D x^m)^C
    for m in range(C2.dim):
        want = values(conftest.d_map(C2, C2.coord(m)).components(), C2)
        assert max_abs(dual[:, m] - want, C2) == 0.0


# ---------------------------------------------------------------------------
# minimal connection
# ---------------------------------------------------------------------------


def test_minimal_flat_no_twist_is_zero():
    conn = minimal(conftest.identity(2), tn.zeros_array((2,) * 3))
    assert max_abs(conn.gamma.value, C2) == 0.0
    assert max_abs(gconn.gen_riemann(conn), C2) == 0.0


def test_minimal_is_torsion_free_and_compatible():
    g = bumpy_metric(C3)
    H = closed_h(C3)
    conn = minimal(g, H, C3)
    assert max_abs(gconn.gualtieri_torsion(conn), C3) < 1e-10
    assert max_abs(gconn.pairing_compat_residual(conn), C3) < 1e-10
    assert max_abs(gconn.metric_compat_residual(conn), C3) < 1e-10


def test_minimal_correction_solves_the_three_conditions():
    """The difference H = minimal - block transport satisfies, on the frame:
    skew in the last two slots, skew after tau on the last two slots, and
    cyclic sum equal to minus the anchor pullback of the twist."""
    g = bumpy_metric(C2)
    H = closed_h(C2)
    conn = minimal(g, H)
    base = block_lc(g, H)
    swap = gconn._swap(conn.algebroid)
    # <nab_{e_a} e_b, e_c> is the e_swap(c) component for the swap Gram
    calH = np.einsum("cabp->abcp", (conn.gamma.value - base.gamma.value)[swap])
    tau = conn.metric.tau_matrix()
    n = C2.dim
    pullback = np.zeros_like(calH)
    pullback[:n, :n, :n] = values(H, C2)
    res1 = calH + np.einsum("acbp->abcp", calH)
    res2 = np.einsum("fcp,abfp->abcp", tau, calH) + np.einsum("fbp,acfp->abcp", tau, calH)
    res3 = (calH + np.einsum("bcap->abcp", calH) + np.einsum("cabp->abcp", calH) + pullback)
    assert max_abs(res1, C2) < 1e-10
    assert max_abs(res2, C2) < 1e-10
    assert max_abs(res3, C2) < 1e-10


def test_block_lc_torsion_is_anchor_pullback_of_twist():
    g = bumpy_metric(C2)
    H = closed_h(C2)
    base = block_lc(g, H)
    T = gconn.gualtieri_torsion(base)
    n = C2.dim
    want = np.zeros_like(T)
    want[:n, :n, :n] = values(H, C2)
    assert max_abs(T - want, C2) < 1e-10


def test_torsion_is_totally_antisymmetric():
    g = bumpy_metric(C2, salt=5)
    H = closed_h(C2, salt=6)
    T = gconn.gualtieri_torsion(block_lc(g, H))
    for i, j in [(0, 1), (1, 2), (0, 2)]:
        assert max_abs(T + np.swapaxes(T, i, j), C2) < 1e-10


# ---------------------------------------------------------------------------
# curvature of the minimal connection
# ---------------------------------------------------------------------------


def test_scalar_E_of_minimal_vanishes():
    g = bumpy_metric(C2, salt=11)
    H = closed_h(C2, salt=12)
    conn = minimal(g, H)
    assert max_abs(gconn.scalar_E(conn), C2) < 1e-10


def test_scalar_G_closed_form_random_background():
    g = bumpy_metric(C2, salt=13)
    H = closed_h(C2, salt=14)
    conn = minimal(g, H)
    sg = gconn.scalar_G(conn)
    gamma = lc(g)
    _, rg = rm.curvature_package(gamma)
    Hv = values(H, C2)
    assert max_abs(sg - (rg - 0.5 * rm.form_inner(Hv, Hv, gamma.ginv.value)), C2) < 1e-9


def test_scalar_G_constant_twist_flat_r3():
    cc = 1.7
    H = from_upper(3, 3, {(0, 1, 2): cc})
    conn = minimal(conftest.identity(3), H, C3)
    sg = gconn.scalar_G(conn)
    for value in sg[:4]:
        assert value == pytest.approx(-(cc ** 2) / 2.0, abs=1e-10)
    assert max_abs(gconn.scalar_E(conn), C3) < 1e-10


def test_riemann_symmetries():
    g = bumpy_metric(C2, salt=15)
    H = closed_h(C2, salt=16)
    conn = minimal(g, H)
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
    ric = gconn.ricci(minimal(g, H))
    assert max_abs(np.array([ric[a, b] - ric[b, a] for a in range(4) for b in range(4)]), C2) < 1e-9


@pytest.mark.parametrize("ricci_first", [True, False], ids=["ricci-first", "riemann-first"])
def test_ricci_is_the_trace_of_the_kept_riemann_tensor(ricci_first):
    g = bumpy_metric(C2, salt=17)
    conn = conftest.with_pair(minimal(g, closed_h(C2, salt=18)), random_params(C2, g))
    if ricci_first:
        ric = gconn.ricci(conn)
        r = gconn.gen_riemann(conn)
    else:
        r = gconn.gen_riemann(conn)
        ric = gconn.ricci(conn)
    # each is computed once per connection, at the chart's sample points
    assert gconn.gen_riemann(conn) is r and gconn.ricci(conn) is ric
    assert r.shape == (4,) * 4 + (len(C2.sample_points()),)
    swap = gconn._swap(conn.algebroid)
    for c, b in itertools.product(range(4), repeat=2):
        trace = sum(r[swap[lam], c, lam, b] for lam in range(4))
        np.testing.assert_allclose(ric[c, b], trace, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 4), count=st.sampled_from([1, 5]), salt=st.integers(0, 2**16))
def test_ricci_traced_term_by_term_matches_the_trace_of_the_curvature_tensor(dim, count, salt):
    # a random metric, closed H and B (invertible on even charts): the Ricci
    # tensor of the minimal connection, of the same with a random parameter
    # pair and of the theta-transported dilaton connection against the
    # trace of the full curvature tensor, to 1e-12 of its largest entry
    c = chart("x y z w".split()[:dim], seed=salt, num_points=count)
    g = bumpy_metric(c, salt=salt)
    assume(conftest.well_conditioned(g, c))
    B = conftest.bumpy_b(c, salt=salt + 1, offset=1.0 if dim % 2 == 0 else 0.0)
    phi = tn.ex.random_polynomial(c, c.rng(salt + 2), 2, 0.3)
    derived = streff.Derived(streff.Background(c, g, B, phi, closed_h(c, salt=salt + 3)))
    conns = [derived.minimal, conftest.with_pair(derived.minimal, random_params(c, g, salt + 4))]
    if dim % 2 == 0:
        conns.append(derived.theta_connection)
    for conn in conns:
        want = oracles.ricci_reference(conn)
        scale = np.abs(gconn.gen_riemann(conn)).max()
        np.testing.assert_allclose(gconn.ricci(conn), want, rtol=1e-12, atol=1e-12 * scale)


def test_bianchi_torsion_free():
    g = bumpy_metric(C2, salt=19)
    H = closed_h(C2, salt=20)
    conn = minimal(g, H)
    r = gconn.gen_riemann(conn)
    res = []
    for d, a, b, c in itertools.product(range(4), repeat=4):
        res.append(r[d, c, a, b] + r[d, a, b, c] + r[d, b, c, a])
    assert max_abs(np.array(res), C2) < 1e-9


def test_bianchi_with_torsion_for_block_transport():
    g = bumpy_metric(C2, salt=21)
    H = closed_h(C2, salt=22)
    base = block_lc(g, H)
    assert max_abs(gconn.bianchi_residual(base), C2) < 1e-9


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 5]))
def test_bianchi_torsion_terms_match_the_definition(salt, count):
    # term by term: on the block transport the Bianchi residual is ~1e-17
    # whatever its terms are, and T T vanishes (T lives on vector legs), so
    # random polynomials are added to its coefficients
    c = chart("x y z", seed=salt, num_points=count)
    g = bumpy_metric(c, scale=0.02, salt=salt)  # positive definite on the box
    H = closed_h(c, salt=salt + 1)
    base = block_lc(g, H, c)
    frame = standard_frame(c, H)
    gen = c.rng(salt + 2)
    gamma = Oracle(streff.Background(c, g, tn.zeros_array((3, 3)), 0.0, H)).block_transport
    gamma = gamma + np.array([tn.ex.random_polynomial(c, gen) for _ in range(gamma.size)]
                             ).reshape(gamma.shape)
    points = c.sample_points()
    conn = gconn.GenConnection(base.algebroid, tn.jets_at(gamma, c), base.metric)
    nabT, TT = gconn.torsion_terms(conn)
    T = symbolic_gualtieri_torsion(frame, gamma)
    want_nabT = symbolic_covariant_derivative(frame, gamma, T)
    want_TT = np.empty((frame.rank,) * 4, dtype=object)
    for x, y, z, d in itertools.product(range(frame.rank), repeat=4):
        want_TT[x, y, z, d] = tn.ex.add(*(tn.ex.mul(T[y, z, frame.swap(f)], T[x, f, d])
                                          for f in range(frame.rank)))
    for got, want in ((nabT, want_nabT), (TT, want_TT)):
        want = tn.values_at(want, points)
        assert np.abs(want).max() > 1e-2
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# parameter family
# ---------------------------------------------------------------------------


def test_validate_params_cases():
    g = bumpy_metric(C2)
    zero = tn.zeros_array((2,) * 3)
    gconn.validate_params(*conftest.param_jets(zero, zero, C2))  # W = 0 valid

    # fully antisymmetric W projects to zero
    gen = C2.rng(31)
    c3 = chart("x y z", seed=9)
    W3 = conftest.antisymmetrize(
        conftest.from_function(c3, 3, lambda *i: tn.ex.random_polynomial(c3, gen)), (0, 1, 2)
    )
    params = gconn.validate_params(*conftest.param_jets(tn.zeros_array((3,) * 3), W3, c3))
    assert max_abs(params.W.value, c3) < 1e-12

    # the dilaton choice already has a zero cyclic sum, so the projection keeps it
    phi = tn.ex.parse_expr("x*y", C2)
    dphi = tn.partials(phi, C2)
    W = np.einsum("ij,k->ijk", g, dphi) - np.einsum("ik,j->ijk", g, dphi)
    dil = oracles.dilaton_params(tn.field_jets(g, C2)[0], tn.field_jets(phi, C2)[1])
    kept = gconn.validate_params(*conftest.param_jets(zero, W, C2))
    assert max_abs(kept.W.value - dil.W.value, C2) < 1e-12
    assert max_abs(kept.W.partial - dil.W.partial, C2) < 1e-12

    # antisymmetry in the last two slots is a hard requirement
    bad = conftest.from_function(C2, 3, lambda i, j, k: tn.ex.ONE)
    with pytest.raises(NotAntisymmetric):
        gconn.validate_params(*conftest.param_jets(zero, bad, C2))


def test_with_params_zero_is_identity():
    g = bumpy_metric(C2, salt=23)
    H = closed_h(C2, salt=24)
    conn = minimal(g, H)
    zero = tn.constant_jet(np.zeros((2, 2, 2)), C2)
    same = conftest.with_pair(conn, gconn.ConnParams(zero, zero))
    np.testing.assert_array_equal(same.gamma.value, conn.gamma.value)
    np.testing.assert_array_equal(same.gamma.partial, conn.gamma.partial)


def test_with_params_stays_levi_civita():
    g = bumpy_metric(C2, salt=25)
    H = closed_h(C2, salt=26)
    conn = conftest.with_pair(minimal(g, H), random_params(C2, g, salt=27))
    assert max_abs(gconn.gualtieri_torsion(conn), C2) < 1e-9
    assert max_abs(gconn.pairing_compat_residual(conn), C2) < 1e-10
    assert max_abs(gconn.metric_compat_residual(conn), C2) < 1e-9


def family(salt):
    g = bumpy_metric(C2, salt=salt)
    H = closed_h(C2, salt=salt + 1)
    J, W = random_pair(C2, salt=salt + 2)
    conn = conftest.with_pair(minimal(g, H), gconn.validate_params(*conftest.param_jets(J, W, C2)))
    return conn, family_closed_forms(C2, g, H, *projected_params(J, W))


def test_scalar_closed_forms_with_params():
    """Brute-force frame traces against the closed forms in terms of the
    chart geometry and the partial traces of (J, W)."""
    conn, (want_e, want_g, _, _, _) = family(29)
    assert max_abs(gconn.scalar_E(conn) - want_e, C2) < 1e-9
    assert max_abs(gconn.scalar_G(conn) - want_g, C2) < 1e-9


def test_ricci_compat_closed_form_with_params():
    conn, (_, _, want, _, _) = family(33)
    assert max_abs(gconn.ricci_compat_residual(conn) - want, C2) < 1e-9


def test_char_vf_and_v_tensor_with_params():
    g = bumpy_metric(C2, salt=37)
    H = closed_h(C2, salt=38)
    J, W = random_pair(C2, salt=39)
    base = minimal(g, H)
    # the minimal connection has vanishing divergence of the differential
    assert max_abs(gconn.char_vf(base), C2) < 1e-10
    assert max_abs(oracles.v_tensor(base), C2) < 1e-10

    conn = conftest.with_pair(base, gconn.validate_params(*conftest.param_jets(J, W, C2)))
    Jx, Wx = projected_params(J, W)
    *_, Jp, Wp = family_closed_forms(C2, g, H, Jx, Wx)
    assert max_abs(gconn.char_vf(conn) - Jp * 2.0, C2) < 1e-10

    ginv = matrix_inverse(g)
    want = np.einsum("ia,jb,kc,abc->ijk", ginv, ginv, ginv, Wx)
    assert max_abs(oracles.v_tensor(conn) - values(want, C2), C2) < 1e-10

    # trace against the induced form gives back the trace of W
    tr = oracles.v_trace(conn, conn.metric.h_form())
    assert max_abs(tr - Wp, C2) < 1e-10


def test_affine_family_scalar_relations():
    """Moving within the family by a deformation tensor shifts the two
    scalar traces by divergence and norm terms of its partial traces."""
    g = bumpy_metric(C2, salt=41)
    H = closed_h(C2, salt=42)
    pair1, pair2 = random_pair(C2, salt=43), random_pair(C2, salt=44)
    base = conftest.with_pair(minimal(g, H), gconn.validate_params(*conftest.param_jets(*pair1, C2)))
    other = conftest.with_pair(minimal(g, H), gconn.validate_params(*conftest.param_jets(*pair2, C2)))
    (J1, W1), (J2, W2) = projected_params(*pair1), projected_params(*pair2)
    # the identities are checked on the symbolic coefficients of base
    ginv = matrix_inverse(g)
    K = symbolic_param_tensor_frame(J2 - J1, W2 - W1, g, ginv)
    alg = standard_frame(C2, H)
    oracle = Oracle(streff.Background(C2, g, tn.zeros_array((2, 2)), 0.0, H))
    base_gamma = symbolic_with_params(alg, oracle.minimal, J1, W1, g, ginv)
    eta = gtb.pairing_gram(C2)
    kp = np.einsum("lm,lmc->c", eta, K)  # K'(psi) = K(e_l, e^l, psi)
    # Div K' = (nab_{e_l} K')(e^l) and |K'|^2 = K'(e_l) K'(e^l)
    nab_kp = alg.connection_apply_dual(base_gamma, kp)

    lhs = gconn.scalar_E(other)
    rhs = gconn.scalar_E(base) + values(
        2.0 * np.einsum("lm,lm->", eta, nab_kp) - np.einsum("lm,l,m->", eta, kp, kp), C2
    )
    assert max_abs(lhs - rhs, C2) < 1e-9

    # the metric-trace version, via the graph restrictions
    n = 2
    shift = tn.ex.ZERO
    for sign in (+1, -1):
        # Psi_pm(d_i) = (d_i, pm g(d_i)) on the block-diagonal metric
        secs = [np.concatenate([conftest.identity(n)[i], g[:, i] if sign > 0 else -g[:, i]])
                for i in range(n)]
        Kres = np.empty((n, n, n), dtype=object)
        for i, j, k in itertools.product(range(n), repeat=3):
            Kres[i, j, k] = tn.ex.add(*(
                tn.ex.mul(K[a, b, c], secs[i][a], secs[j][b], secs[k][c])
                for a in range(4) for b in range(4) for c in range(4)
            ))
        kp_pm = np.array(
            [
                tn.ex.add(*(
                    tn.ex.mul(0.5, ginv[k, a], Kres[k, a, z])
                    for k in range(n) for a in range(n)
                ))
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
            nab = tn.ex.differentiate(kp_pm[a], C2.coord(k)) - tn.ex.add(*(
                tn.ex.mul(gpm[k][a][c], kp_pm[c]) for c in range(n)
            ))
            div_terms.append(tn.ex.mul(0.5, ginv[k, a], nab))
            norm_terms.append(tn.ex.mul(0.5, ginv[k, a], kp_pm[k], kp_pm[a]))
        shift = shift + float(sign) * 2.0 * tn.ex.add(*div_terms) - tn.ex.add(*norm_terms)
    lhs_g = gconn.scalar_G(other)
    total = gconn.scalar_G(base) + values(shift, C2)
    assert max_abs(lhs_g - total, C2) < 1e-9


def test_trace_identity_for_valid_params():
    g = bumpy_metric(C2, salt=45)
    H = closed_h(C2, salt=46)
    params = random_params(C2, g, salt=47)
    conn = minimal(g, H)
    K, _ = gconn.param_tensor_frame(params, conn.metric)
    res = gconn.trace_identity_residual(conn, K)
    assert max_abs(res, C2) < 1e-10


def random_block_metric(rng, c):
    """The generalized metric for the random jet of g = A^T A + n and its
    inverse."""
    a = uniform_jet(rng, c, (c.dim, c.dim))
    g = tn.jet_contract("ki,kj->ij", a, a) + tn.constant_jet(c.dim * np.eye(c.dim), c)
    return gtb.GeneralizedMetric(c, g, None, tn.jet_inverse(g))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 4), count=st.sampled_from([1, 5]), seed=st.integers(0, 2**32 - 1))
def test_param_tensor_frame_a_leg_at_a_time_matches_the_one_einsum_reference(dim, count, seed):
    # random jets of a metric and of a parameter pair; K contracted a leg
    # at a time against the reference that contracts each term's legs in
    # one einsum
    c = chart("x y z w".split()[:dim], num_points=count)
    rng = np.random.default_rng(seed)
    metric = random_block_metric(rng, c)
    skew = lambda t: 0.5 * (t - t.swapaxes(1, 2))
    params = gconn.validate_params(*(uniform_jet(rng, c, (dim,) * 3).map(skew) for _ in range(2)))
    got = gconn.param_tensor_frame(params, metric)
    want = oracles.param_tensor_frame_reference(params, metric)
    for half in ("value", "partial"):
        np.testing.assert_allclose(getattr(got, half), getattr(want, half), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("count", [1, 5])
@pytest.mark.parametrize("J", ["zero", "zero values", "a NaN"])
def test_param_tensor_frame_with_a_zero_j_equals_the_reference(dim, count, J):
    # a J that is zero, zero only in its values, or has a NaN is contracted
    # a leg at a time like any other, where the reference contracts all its
    # legs at once.  On jets of small integers every product and sum is
    # exact, so any difference would be a fault, not roundoff
    c = chart("x y z w".split()[:dim], num_points=count)
    rng = np.random.default_rng(10 * dim + count)
    ints = lambda rng, shape: rng.integers(-3, 4, shape).astype(float)
    g, ginv = (uniform_jet(rng, c, (dim, dim), ints).map(lambda t: t + t.swapaxes(0, 1)) for _ in range(2))
    metric = gtb.GeneralizedMetric(c, g, None, ginv)
    skew = lambda t: t - t.swapaxes(1, 2)
    W = uniform_jet(rng, c, (dim,) * 3, ints).map(skew)
    zero = 0.0 * W
    if J == "zero values":
        zero.partial = skew(ints(rng, zero.partial.shape))
    elif J == "a NaN":
        zero.value[0, 0, 1, 0] = np.nan
    params = gconn.ConnParams(zero, W)
    got = gconn.param_tensor_frame(params, metric)
    want = oracles.param_tensor_frame_reference(params, metric)
    for half in ("value", "partial"):
        assert np.array_equal(getattr(got, half), getattr(want, half), equal_nan=True)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("count", [1, 5])
def test_param_tensor_frame_and_trace_identity_index_like_np_ix_bit_for_bit(dim, count):
    # K's blocks written through slices, and its legs permuted by open-mesh
    # index arrays in the trace identity, give the bits of the np.ix_ forms
    c = chart("x y z w u v".split()[:dim], num_points=count)
    rng = np.random.default_rng(10 * dim + count)
    metric = random_block_metric(rng, c)
    skew = lambda t: t - t.swapaxes(1, 2)
    params = gconn.ConnParams(*(uniform_jet(rng, c, (dim,) * 3).map(skew) for _ in range(2)))
    got, want = gconn.param_tensor_frame(params, metric), oracles.param_tensor_frame_ix(params, metric)
    for half in ("value", "partial"):
        np.testing.assert_array_equal(getattr(got, half), getattr(want, half))
    conn = SimpleNamespace(algebroid=SimpleNamespace(chart=c), chart=c)
    np.testing.assert_array_equal(gconn.trace_identity_residual(conn, got.value),
                                  oracles.trace_identity_residual_ix(conn, got.value))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 4), count=st.sampled_from([1, 5]), seed=st.integers(0, 2**32 - 1))
def test_minimal_connection_from_one_raised_twist_matches_the_three_term_reference(dim, count, seed):
    # random jets of a metric, of a totally antisymmetric H' and of the
    # block coefficients: H' raised once and read three ways against the
    # reference that contracts each raised term on its own, to 1e-12 of
    # the largest term
    c = chart("x y z w".split()[:dim], num_points=count)
    rng = np.random.default_rng(seed)
    metric = random_block_metric(rng, c)
    H = uniform_jet(rng, c, (dim,) * 3).map(gconn._alt3)
    block = gconn.GenConnection(gconn.standard_algebroid(c, H), uniform_jet(rng, c, (2 * dim,) * 3), metric)
    got = gconn.minimal_connection(block).gamma
    want = oracles.minimal_connection_reference(block).gamma
    for half in ("value", "partial"):
        base, expect = getattr(block.gamma, half), getattr(want, half)
        scale = max(np.abs(base).max(), np.abs(expect - base).max())
        np.testing.assert_allclose(getattr(got, half), expect, rtol=1e-12, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# shears and transport
# ---------------------------------------------------------------------------


def bumpy_b(c, salt=51, scale=0.25):
    gen = c.rng(salt)
    coeffs = {
        (i, j): tn.ex.random_polynomial(c, gen, 2, scale)
        for i in range(c.dim) for j in range(i + 1, c.dim)
    }
    return from_upper(c.dim, 2, coeffs)


def b_jets(B):
    return tn.field_jets(B, C2)


def test_untwist_with_zero_b_is_identity():
    g = bumpy_metric(C2, salt=53)
    H = closed_h(C2, salt=54)
    conn = minimal(g, H)
    same = oracles.untwist(conn, b_jets(tn.zeros_array((2, 2))))
    np.testing.assert_array_equal(same.gamma.value, conn.gamma.value)
    np.testing.assert_array_equal(same.gamma.partial, conn.gamma.partial)


def test_untwist_roundtrip():
    g = bumpy_metric(C2, salt=55)
    H = closed_h(C2, salt=56)
    B = bumpy_b(C2, salt=57)
    conn = minimal(g, H)
    back = oracles.untwist(oracles.untwist(conn, b_jets(B)), b_jets(-1 * B))
    assert max_abs(conn.gamma.value - back.gamma.value, C2) < 1e-10
    assert max_abs(conn.gamma.partial - back.gamma.partial, C2) < 1e-10


def test_untwisted_connection_is_levi_civita_for_pair_metric():
    g = bumpy_metric(C2, salt=58)
    H = closed_h(C2, salt=59)
    B = bumpy_b(C2, salt=60)
    conn = oracles.untwist(minimal(g, H), b_jets(B))
    assert max_abs(gconn.gualtieri_torsion(conn), C2) < 1e-9
    assert max_abs(gconn.pairing_compat_residual(conn), C2) < 1e-10
    assert max_abs(gconn.metric_compat_residual(conn), C2) < 1e-9


def test_scalars_invariant_under_untwist():
    g = bumpy_metric(C2, salt=61)
    H = closed_h(C2, salt=62)
    B = bumpy_b(C2, salt=63)
    hat = conftest.with_pair(minimal(g, H), random_params(C2, g, salt=64))
    conn = oracles.untwist(hat, b_jets(B))
    assert max_abs(gconn.scalar_E(hat) - gconn.scalar_E(conn), C2) < 1e-9
    assert max_abs(gconn.scalar_G(hat) - gconn.scalar_G(conn), C2) < 1e-9


def test_covariance_of_torsion_riemann_ricci_under_shear():
    """T, R, Ric transported through e^B: the hatted tensors are the
    pullbacks of the untwisted ones."""
    g = bumpy_metric(C2, salt=65)
    H = closed_h(C2, salt=66)
    B = bumpy_b(C2, salt=67)
    hat = block_lc(g, H)  # torsionful: stresses T covariance
    conn = oracles.untwist(hat, b_jets(B))
    Mv = values(shear_matrix(B, -1), C2)  # e^{-B}: hat = pullback of conn
    dim2 = 4
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
    hat = conftest.with_pair(minimal(g, H), params)
    conn = oracles.untwist(hat, b_jets(B))
    assert max_abs(gconn.char_vf(hat) - gconn.char_vf(conn), C2) < 1e-10


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 5]))
def test_connections_match_the_symbolic_ones(salt, count):
    # the jets of the minimal connection, the block transport, with_params
    # and theta_transport against the jets of the same coefficients built as
    # expressions in the block picture, on rank 2n, with a random parameter
    # pair and with the dilaton's; theta_transport goes through
    # e^{-B} o F_theta, the symbolic product of the two frame matrices.  The
    # shear by e^B of the tests' oracle against its symbolic transport too.
    bg = random_background(2, salt=salt % 1000, invertible_b=True, seed=salt, num_points=count)
    derived, oracle = streff.Derived(bg), Oracle(bg)
    minimal_conn, B = derived.minimal, bg.B
    J, W = random_pair(bg.chart, salt=salt)
    family_conn = conftest.with_pair(minimal_conn,
                                     gconn.validate_params(*conftest.param_jets(J, W, bg.chart)))
    family_gamma = symbolic_with_params(oracle.standard, oracle.minimal, *projected_params(J, W),
                                        bg.g, oracle.ginv)
    pkg = derived.symplectic
    cases = [
        (minimal_conn, oracle.minimal),
        (derived.block_lc, oracle.block_transport),
        (family_conn, family_gamma),
        (gconn.theta_transport(family_conn, *derived.f_theta, pkg.metric),
         symbolic_transport(oracle.standard, family_gamma, *oracle.theta_matrices)),
        (oracles.untwist(family_conn, derived.jets.B),
         symbolic_transport(oracle.standard, family_gamma, shear_matrix(B, -1), shear_matrix(B, +1))),
        (derived.dilaton, oracle.dilaton),
        (derived.theta_connection, oracle.theta_connection),
    ]
    for conn, want in cases:
        values, partials = tn.jets_at(want, bg.chart)
        assert np.abs(partials).max() > 1e-2
        np.testing.assert_allclose(conn.gamma.value, values, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(conn.gamma.partial, partials, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# dilaton connection
# ---------------------------------------------------------------------------


def test_dilaton_constant_phi_reduces_to_minimal():
    g = bumpy_metric(C2, salt=72)
    H = closed_h(C2, salt=73)
    base = minimal(g, H)
    conn = gconn.dilaton_connection(base, tn.field_jets(tn.ex.Const(3.0), C2)[1])
    assert max_abs(conn.gamma.value - base.gamma.value, C2) < 1e-12
    assert max_abs(conn.gamma.partial - base.gamma.partial, C2) < 1e-12


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 6), count=st.sampled_from([1, 5]), seed=st.integers(0, 2**32 - 1))
def test_dilaton_connection_in_closed_form_matches_the_contracted_parameters(dim, count, seed):
    # random jets of a metric, of dphi and of the base coefficients: the
    # closed-form deformation tensor against param_tensor_frame of the
    # dilaton parameters, which contracts g^{-1} into W a leg at a time, to
    # 1e-12 of the largest entry of K in each half
    c = chart("x y z w u v".split()[:dim], num_points=count)
    rng = np.random.default_rng(seed)
    metric = random_block_metric(rng, c)
    base = gconn.GenConnection(gconn.standard_algebroid(c, uniform_jet(rng, c, (dim,) * 3).map(gconn._alt3)),
                               uniform_jet(rng, c, (2 * dim,) * 3), metric)
    dphi = uniform_jet(rng, c, (dim,))
    got = gconn.dilaton_connection(base, dphi).gamma
    K = gconn.param_tensor_frame(oracles.dilaton_params(metric.g, dphi), metric)
    want = gconn.with_params(base, K).gamma
    for half in ("value", "partial"):
        scale = np.abs(getattr(K, half)).max()
        np.testing.assert_allclose(getattr(got, half), getattr(want, half), rtol=0, atol=1e-12 * scale)


def test_dilaton_connection_traces():
    # zero characteristic vector field and partial trace dphi, in the block
    # picture and after the shear by e^B onto the H-twisted bracket
    g = bumpy_metric(C2, salt=74)
    H = closed_h(C2, salt=75)
    B = bumpy_b(C2, salt=76)
    phi = tn.ex.parse_expr("x*y/2 + x^2/4", C2)
    H_prime = H + tn.d_of_partials(tn.partials(B, C2), 2)
    block = gconn.dilaton_connection(minimal(g, H_prime), tn.field_jets(phi, C2)[1])
    for conn in (block, oracles.untwist(block, b_jets(B))):
        assert max_abs(gconn.char_vf(conn), C2) < 1e-10
        tr = oracles.v_trace(conn, conn.metric.h_form())
        assert max_abs(tr - values(tn.partials(phi, C2), C2), C2) < 1e-10


def test_parameter_space_dimension():
    assert oracles.lc_parameter_space_dim(2) == 4
    assert oracles.lc_parameter_space_dim(3) == 16
