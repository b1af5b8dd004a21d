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
from gencourant.scene import from_upper

import conftest
import oracles
from conftest import bumpy_b, bumpy_metric, family_closed_forms, projected_params, random_background
from test_qla import so3_so3


def report(number, title, worst, tol):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"criterion {number:02d} {status}: {title} (max residual {worst:.3e}, tol {tol:.1e})")
    assert worst <= tol, f"criterion {number}: {worst:.3e} > {tol:.1e}"


def max_abs(fields, points):
    return tn.ex.max_abs_on_points(fields, points)[0]


def chart_connection(g, c):
    return rm.christoffel(*tn.field_jets(g, c), c)


def minimal(g, H, c):
    return gconn.minimal_connection(gconn.block_lc_connection(chart_connection(g, c), tn.jets_at(H, c)))


def dB(B, c):
    """H = dB of the Expr array of a 2-form."""
    return tn.d_of_partials(tn.partials(B, c), 2)


# ---------------------------------------------------------------------------


def test_criterion_01_courant_axioms():
    """Bracket axioms on 20 seeded random section triples, twist from a
    random polynomial potential: the numeric bracket of the sections'
    polynomial 2-jets."""
    worst = 0.0
    for n, base_salt in ((2, 300), (3, 400)):
        names = "x y z"[: 2 * n - 1]
        c = chart(names, seed=base_salt, num_points=10)
        gen = c.rng(base_salt)
        B0 = bumpy_b(c, salt=base_salt + 1)
        pts = c.sample_points()
        H = tn.jets_at(dB(B0, c), c)
        br = lambda u, v: gtb.dorfman(u, v, H)  # noqa: E731
        for _ in range(10):
            a, b, d = gtb.random_sections(c, gen, 3)
            _, dfg = tn.random_polynomial_jets(c, gen, (2,))  # f and g2
            (a1, _), (b1, _), (d1, _) = a, b, d
            invariance = (np.einsum("mp,mp->p", a1.value[:n], gtb.pairing(b1, d1).partial)
                          - gtb.pairing(br(a1, b1), d1.value) - gtb.pairing(b1.value, br(a1, d1)))
            fields = [
                gtb.jacobiator(a, b, d, H),
                invariance[None],
                br(a1, b1) + br(b1, a1) - gtb.d_map(gtb.pairing(a1, b1).partial),
                br(gtb.d_map(dfg[0]), a1),
                gtb.pairing(gtb.d_map(dfg[0].value), gtb.d_map(dfg[1].value))[None],
            ]
            worst = max(worst, max_abs(np.concatenate(fields), pts))
    report(1, "Courant axioms on random sections", worst, 1e-9)


def test_criterion_02_minimal_connection():
    worst_torsion = 0.0
    worst_scalar_e = 0.0
    worst_closed = 0.0
    for n, salt in ((2, 310), (3, 410)):
        names = "x y z"[: 2 * n - 1]
        c = chart(names, seed=salt, num_points=10)
        g = bumpy_metric(c, salt=salt)
        H = dB(bumpy_b(c, salt=salt + 1), c)
        conn = minimal(g, H, c)
        pts = c.sample_points()
        worst_torsion = max(worst_torsion, max_abs(gconn.gualtieri_torsion(conn), pts))
        worst_scalar_e = max(worst_scalar_e, max_abs(gconn.scalar_E(conn), pts))
        lc = chart_connection(g, c)
        _, rscal = rm.curvature_package(lc)
        Hv = tn.values_at(H, pts)
        closed_res = gconn.scalar_G(conn) - (rscal - 0.5 * rm.form_inner(Hv, Hv, lc.ginv.value))
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
        H = dB(bumpy_b(c, salt=salt + 1), c)
        conn = minimal(g, H, c)
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
        base = gconn.block_lc_connection(chart_connection(g, c), tn.jets_at(H, c))
        worst = max(worst, max_abs(gconn.bianchi_residual(base), pts))
    report(3, "curvature symmetries and both Bianchi identities", worst, 1e-9)


def _random_pair(c, salt, scale=0.2):
    gen = c.rng(salt)
    J, W = (conftest.antisymmetrize(conftest.from_function(
        c, 3, lambda *i: tn.ex.random_polynomial(c, gen, 2, scale)), (1, 2)) for _ in range(2))
    return J, W


def _family_fixture(salt):
    """The connection minimal + (J, W) for a random pair, and the closed
    forms of ``conftest.family_closed_forms`` in the chart geometry."""
    c = chart("x y", seed=330 + salt, num_points=10)
    g = bumpy_metric(c, salt=salt)
    H = dB(bumpy_b(c, salt=salt + 50), c)
    J, W = _random_pair(c, salt + 100)
    conn = gconn.with_params(minimal(g, H, c), gconn.validate_params(*conftest.param_jets(J, W, c)))
    return c, conn, family_closed_forms(c, g, H, *projected_params(J, W))


def test_criterion_04_scalar_closed_forms():
    worst = 0.0
    for salt in range(10):
        c, conn, (want_e, want_g, _, _, _) = _family_fixture(salt)
        pts = c.sample_points()
        worst = max(worst, max_abs(gconn.scalar_E(conn) - want_e, pts))
        worst = max(worst, max_abs(gconn.scalar_G(conn) - want_g, pts))
    report(4, "scalar traces vs closed forms, 10 random parameter pairs", worst, 1e-9)


def test_criterion_05_off_block_ricci_closed_form():
    worst = 0.0
    for salt in range(10):
        c, conn, (_, _, want, _, _) = _family_fixture(salt + 20)
        worst = max(worst, max_abs(gconn.ricci_compat_residual(conn) - want, c.sample_points()))
    report(5, "off-block Ricci vs closed form, 10 random parameter pairs", worst, 1e-9)


def test_criterion_06_characteristic_field_and_v_trace():
    worst = 0.0
    for salt in (0, 3, 7):
        c, conn, (_, _, _, Jp, Wp) = _family_fixture(salt + 40)
        pts = c.sample_points()
        worst = max(worst, max_abs(gconn.char_vf(conn) - 2.0 * Jp, pts))
        tr = oracles.v_trace(conn, conn.metric.h_form())
        worst = max(worst, max_abs(tr - Wp, pts))
    report(6, "characteristic field = 2 J' and V-trace = W'", worst, 1e-10)


def test_criterion_07_central_identities():
    worst = 0.0
    cases = [(2, s) for s in range(14)] + [(3, s) for s in range(14, 20)]
    for n, salt in cases:
        bg = random_background(n, salt=600 + salt, with_b=True, with_h=(salt % 2 == 0))
        assert conftest.max_abs_of(bg.B, bg.chart.sample_points()) > 0  # the shear path is exercised
        for residual in streff.central_residuals(streff.Derived(bg)):
            worst = max(worst, max_abs(residual, bg.chart.sample_points()))
    report(7, "flatness/compatibility identities on 20 random backgrounds", worst, 1e-9)


def test_criterion_08_parameter_space_dimension():
    d2 = oracles.lc_parameter_space_dim(2)
    d3 = oracles.lc_parameter_space_dim(3)
    ok = (d2 == 4) and (d3 == 16)
    print(f"criterion 08 {'PASS' if ok else 'FAIL'}: parameter space dimensions {d2}, {d3} "
          f"(expected 4, 16)")
    assert d2 == 4
    assert d3 == 16


def test_criterion_09_quadratic_lie_algebra_exact():
    qla = so3_so3()
    gamma = oracles.qla_lc(qla)
    T = oracles.qla_torsion(qla, gamma)
    compat = oracles.qla_compat_residual(qla, gamma)
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
    flat = streff.Background(c, conftest.identity(2), from_upper(2, 2, {(0, 1): 1}), 0.0)
    derived = streff.Derived(flat)
    (beta_max, _), (symplectic_max, _) = derived.beta_max, derived.symplectic_max
    ok = beta_max < streff.VANISH_TOL and symplectic_max < streff.VANISH_TOL
    print(f"criterion 10 {'PASS' if ok else 'FAIL'}: flat background vanishes simultaneously "
          f"(beta {beta_max:.1e}, dual {symplectic_max:.1e})")
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
        i = oracles.randint(gen, 0, 1)
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
