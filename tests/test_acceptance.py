"""Acceptance criteria.

One test per criterion, each printing a pass/fail line and asserting at the
stated tolerance.  Independent oracles: finite differences for the
expression engine, the chart-geometry module for every closed form, and
exact rational arithmetic for the Lie-algebra case.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from gencourant import gconn, gtb, riemann as rm, streff, tensors as tn
from gencourant.expr import SplitMix64, chart, differentiate, evaluate
from gencourant.tensors import DOWN, UP

from conftest import bumpy_b, bumpy_metric, random_background
from test_qla import so3_so3


def report(number, title, worst, tol):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"criterion {number:02d} {status}: {title} (max residual {worst:.3e}, tol {tol:.1e})")
    assert worst <= tol, f"criterion {number}: {worst:.3e} > {tol:.1e}"


def max_abs(fields, points):
    return tn.ex.max_abs_on_points(fields, points)[0]


# ---------------------------------------------------------------------------


def test_criterion_01_courant_axioms():
    """Bracket axioms on 20 seeded random section triples, twist from a
    random polynomial potential."""
    worst = 0.0
    for n, base_salt in ((2, 300), (3, 400)):
        names = "x y z"[: 2 * n - 1]
        c = chart(names, seed=base_salt, num_points=10)
        gen = c.rng(base_salt)
        B0 = bumpy_b(c, salt=base_salt + 1)
        H = tn.exterior_derivative(B0)
        pts = c.sample_points()
        for _ in range(10):
            a, b, d = (gtb.random_section(c, gen) for _ in range(3))
            fields = list(gtb.jacobiator(a, b, d, H).components())
            lhs = tn.ex.esum(
                tn.ex.mul(a.vec.comps[m], differentiate(gtb.pairing(b, d), c.coord(m)))
                for m in range(n)
            )
            fields.append(
                lhs
                - gtb.pairing(gtb.dorfman(a, b, H), d)
                - gtb.pairing(b, gtb.dorfman(a, d, H))
            )
            fields.extend(
                (
                    gtb.dorfman(a, b, H)
                    + gtb.dorfman(b, a, H)
                    - gtb.d_map(c, gtb.pairing(a, b))
                ).components()
            )
            f = tn.ex.random_polynomial(c, gen)
            g2 = tn.ex.random_polynomial(c, gen)
            fields.extend(gtb.dorfman(gtb.d_map(c, f), a, H).components())
            fields.append(gtb.pairing(gtb.d_map(c, f), gtb.d_map(c, g2)))
            worst = max(worst, max_abs(fields, pts))
    report(1, "Courant axioms on random sections", worst, 1e-9)


def test_criterion_02_minimal_connection():
    worst_torsion = 0.0
    worst_scalar_e = 0.0
    worst_closed = 0.0
    for n, salt in ((2, 310), (3, 410)):
        names = "x y z"[: 2 * n - 1]
        c = chart(names, seed=salt, num_points=10)
        g = bumpy_metric(c, salt=salt)
        H = tn.exterior_derivative(bumpy_b(c, salt=salt + 1))
        conn = gconn.minimal_connection(rm.christoffel(g), H)
        pts = c.sample_points()
        worst_torsion = max(worst_torsion, max_abs(gconn.gualtieri_torsion(conn), pts))
        worst_scalar_e = max(worst_scalar_e, max_abs(gconn.scalar_E(conn), pts))
        _, rscal = rm.curvature_package(rm.christoffel(g))
        closed = rscal - 0.5 * rm.form_inner(H, H, tn.metric_inverse(g))
        closed_res = gconn.scalar_G(conn) - tn.values_at(closed, pts)
        worst_closed = max(worst_closed, max_abs(closed_res, pts))
    report(2, "distinguished connection: torsion", worst_torsion, 1e-10)
    report(2, "distinguished connection: pairing scalar", worst_scalar_e, 1e-10)
    report(2, "distinguished connection: metric scalar closed form", worst_closed, 1e-9)


def test_criterion_03_curvature_symmetries_and_bianchi():
    worst = 0.0
    for n, salt in ((2, 320), (3, 420)):
        names = "x y z"[: 2 * n - 1]
        c = chart(names, seed=salt, num_points=8)
        g = bumpy_metric(c, salt=salt)
        H = tn.exterior_derivative(bumpy_b(c, salt=salt + 1))
        conn = gconn.minimal_connection(rm.christoffel(g), H)
        r = gconn.gen_riemann(conn)
        dim2 = 2 * n
        fields = []
        for d, cc, a, b in itertools.product(range(dim2), repeat=4):
            fields.append(r[d, cc, a, b] + r[d, cc, b, a])
            fields.append(r[d, cc, a, b] + r[cc, d, a, b])
            fields.append(r[d, cc, a, b] - r[b, a, cc, d])
            fields.append(r[d, cc, a, b] - r[a, b, d, cc])
            fields.append(r[d, cc, a, b] + r[d, a, b, cc] + r[d, b, cc, a])
        pts = c.sample_points()
        worst = max(worst, max_abs(np.array(fields), pts))
        base = gconn.block_lc_connection(rm.christoffel(g), H)
        worst = max(worst, max_abs(gconn.bianchi_residual(base), pts))
    report(3, "curvature symmetries and both Bianchi identities", worst, 1e-9)


def _random_valid_params(c, salt, scale=0.2):
    gen = c.rng(salt)
    J = tn.antisymmetrize(
        tn.from_function(c, (UP,) * 3, lambda *i: tn.ex.random_polynomial(c, gen, 2, scale)), (1, 2)
    )
    W = tn.antisymmetrize(
        tn.from_function(c, (DOWN,) * 3, lambda *i: tn.ex.random_polynomial(c, gen, 2, scale)), (1, 2)
    )
    return gconn.validate_params(J, W)


def _partial_traces(params, g):
    c = g.chart
    n = c.dim
    ginv = tn.metric_inverse(g)
    Jp = tn.TensorField(
        c, (UP,),
        np.array(
            [
                tn.ex.esum(
                    tn.ex.mul(g.comps[a, k], params.J.comps[k, a, l])
                    for k in range(n) for a in range(n)
                )
                for l in range(n)
            ],
            dtype=object,
        ),
    )
    Wp = tn.TensorField(
        c, (DOWN,),
        np.array(
            [
                tn.ex.esum(
                    tn.ex.mul(ginv.comps[k, a], params.W.comps[k, a, l])
                    for k in range(n) for a in range(n)
                )
                for l in range(n)
            ],
            dtype=object,
        ),
    )
    return Jp, Wp


def _family_fixture(salt):
    c = chart("x y", seed=330 + salt, num_points=10)
    g = bumpy_metric(c, salt=salt)
    H = tn.exterior_derivative(bumpy_b(c, salt=salt + 50))
    params = _random_valid_params(c, salt + 100)
    conn = gconn.with_params(gconn.minimal_connection(rm.christoffel(g), H), params)
    return c, g, H, params, conn


def test_criterion_04_scalar_closed_forms():
    worst = 0.0
    for salt in range(10):
        c, g, H, params, conn = _family_fixture(salt)
        Jp, Wp = _partial_traces(params, g)
        gamma = rm.christoffel(g)
        ginv = gamma.metric_inverse
        n = 2
        jw = tn.ex.esum(tn.ex.mul(Jp.comps[a], Wp.comps[a]) for a in range(n))
        want_e = -4.0 * rm.divergence(Jp, gamma) + 8.0 * jw
        _, rg = rm.curvature_package(rm.christoffel(g))
        w2 = tn.ex.esum(
            tn.ex.mul(ginv.comps[a, b], Wp.comps[a], Wp.comps[b])
            for a in range(n) for b in range(n)
        )
        j2 = tn.ex.esum(
            tn.ex.mul(g.comps[a, b], Jp.comps[a], Jp.comps[b])
            for a in range(n) for b in range(n)
        )
        want_g = (
            rg - 0.5 * rm.form_inner(H, H, tn.metric_inverse(g))
            + 4.0 * rm.divergence_oneform(Wp, gamma) - 4.0 * w2 - 4.0 * j2
        )
        pts = c.sample_points()
        worst = max(worst, max_abs(gconn.scalar_E(conn) - tn.values_at(want_e, pts), pts))
        worst = max(worst, max_abs(gconn.scalar_G(conn) - tn.values_at(want_g, pts), pts))
    report(4, "scalar traces vs closed forms, 10 random parameter pairs", worst, 1e-9)


def test_criterion_05_off_block_ricci_closed_form():
    worst = 0.0
    for salt in range(10):
        c, g, H, params, conn = _family_fixture(salt + 20)
        res = gconn.ricci_compat_residual(conn)
        Jp, Wp = _partial_traces(params, g)
        gamma = rm.christoffel(g)
        ginv = gamma.metric_inverse
        ric, _ = rm.curvature_package(rm.christoffel(g))
        deltaH = rm.codifferential(H, gamma)
        nabW = rm.covariant_derivative(Wp, gamma)
        nabJ = rm.covariant_derivative(Jp, gamma)
        n = 2
        diffs = []
        for i, j in itertools.product(range(n), repeat=2):
            ixH = tn.interior_product(gconn._coord_field(c, i), H)
            jyH = tn.interior_product(gconn._coord_field(c, j), H)
            hw = tn.ex.esum(
                tn.ex.mul(ginv.comps[a, b], H.comps[j, i, a], Wp.comps[b])
                for a in range(n) for b in range(n)
            )
            want = (
                ric.comps[i, j]
                - 0.5 * deltaH.comps[i, j]
                - 0.5 * rm.form_inner(ixH, jyH, tn.metric_inverse(g))
                + nabW.comps[i, j] + nabW.comps[j, i] + hw
                + tn.ex.esum(tn.ex.mul(nabJ.comps[i, a], g.comps[a, j]) for a in range(n))
                - tn.ex.esum(tn.ex.mul(nabJ.comps[j, a], g.comps[a, i]) for a in range(n))
            )
            diffs.append(res[i, j] - tn.values_at(want, c.sample_points()))
        worst = max(worst, max_abs(np.array(diffs), c.sample_points()))
    report(5, "off-block Ricci vs closed form, 10 random parameter pairs", worst, 1e-9)


def test_criterion_06_characteristic_field_and_v_trace():
    worst = 0.0
    for salt in (0, 3, 7):
        c, g, H, params, conn = _family_fixture(salt + 40)
        Jp, Wp = _partial_traces(params, g)
        pts = c.sample_points()
        worst = max(worst, max_abs(gconn.char_vf(conn) - 2.0 * tn.values_at(Jp.comps, pts), pts))
        tr = gconn.v_trace(conn, conn.metric.h_form())
        worst = max(worst, max_abs(tr - tn.values_at(Wp.comps, pts), pts))
    report(6, "characteristic field = 2 J' and V-trace = W'", worst, 1e-10)


def test_criterion_07_central_identities():
    worst = 0.0
    cases = [(2, s) for s in range(14)] + [(3, s) for s in range(14, 20)]
    for n, salt in cases:
        bg = random_background(n, salt=600 + salt, with_b=True, with_h=(salt % 2 == 0))
        assert bg.B.max_abs()[0] > 0  # the shear path is exercised
        res = streff.central_residuals(streff.Derived(bg))
        worst = max(worst, res.max_abs(bg.chart.sample_points())[0])
    report(7, "flatness/compatibility identities on 20 random backgrounds", worst, 1e-9)


def test_criterion_08_parameter_space_dimension():
    d2 = gconn.lc_parameter_space_dim(2)
    d3 = gconn.lc_parameter_space_dim(3)
    ok = (d2 == 4) and (d3 == 16)
    print(f"criterion 08 {'PASS' if ok else 'FAIL'}: parameter space dimensions {d2}, {d3} "
          f"(expected 4, 16)")
    assert d2 == 4
    assert d3 == 16


def test_criterion_09_quadratic_lie_algebra_exact():
    qla = so3_so3()
    gamma = gconn.qla_lc(qla)
    T = gconn.qla_torsion(qla, gamma)
    compat = gconn.qla_compat_residual(qla, gamma)
    bad = sum(
        1
        for a in range(6) for b in range(6) for c in range(6)
        if T[a][b][c] != Fraction(0) or compat[a][b][c] != Fraction(0)
    )
    print(f"criterion 09 {'PASS' if bad == 0 else 'FAIL'}: exact rational torsion and "
          f"compatibility ({bad} nonzero entries)")
    assert bad == 0


def test_criterion_10_symplectic_equivalence():
    worst = 0.0
    for salt in range(10):
        bg = random_background(2, salt=700 + salt, invertible_b=True)
        residual = streff.transport_identity_residual(streff.Derived(bg))
        worst = max(worst, max_abs(residual, bg.chart.sample_points()))
    report(10, "Ricci transport through the bivector shear, 10 backgrounds", worst, 1e-9)

    c = chart("x y", seed=99, num_points=10)
    flat = streff.Background(
        c, tn.euclidean_metric(c), tn.form_from_wedge_coeffs(c, 2, {(0, 1): 1}), 0.0
    )
    rep = streff.equivalence_report(streff.Derived(flat))
    ok = rep.beta_on_shell and rep.symplectic_on_shell
    print(f"criterion 10 {'PASS' if ok else 'FAIL'}: flat background vanishes simultaneously "
          f"(beta {rep.beta_max:.1e}, dual {rep.symplectic_max:.1e})")
    assert ok


def test_criterion_11_finite_difference_convergence():
    from test_expr import _central_difference, _random_safe_expr

    c = chart("x y", seed=2024)
    gen = SplitMix64(77)
    checked = 0
    worst_ratio_err = 0.0
    tried = 0
    while checked < 50 and tried < 400:
        tried += 1
        e = _random_safe_expr(c, gen)
        i = gen.randint(0, 1)
        point = (gen.uniform(-0.9, 0.9), gen.uniform(-0.9, 0.9))
        d = evaluate(differentiate(e, c.coord(i)), point)
        err3 = abs(_central_difference(e, point, i, 1e-3) - d)
        err4 = abs(_central_difference(e, point, i, 1e-4) - d)
        if err4 < 1e-11:
            continue
        ratio = err3 / err4
        worst_ratio_err = max(worst_ratio_err, abs(ratio - 100.0))
        checked += 1
    ok = checked >= 50 and worst_ratio_err <= 20.0
    print(f"criterion 11 {'PASS' if ok else 'FAIL'}: order-2 convergence on {checked} expressions "
          f"(worst |ratio - 100| = {worst_ratio_err:.1f})")
    assert checked >= 50
    assert worst_ratio_err <= 20.0
