"""Shared builders for random chart backgrounds, and the symbolic
formulas that the numeric frame calculus is checked against."""

import itertools

import numpy as np

from gencourant import gconn, gtb
from gencourant import tensors as tn
from gencourant.expr import chart
from gencourant.streff import Background
from gencourant.tensors import DOWN


def bumpy_metric(c, scale=0.2, salt=1):
    gen = c.rng(salt)
    n = c.dim
    pert = [[tn.ex.random_polynomial(c, gen, 2, scale) for _ in range(n)] for _ in range(n)]
    return tn.from_function(
        c, (DOWN, DOWN),
        lambda i, j: (tn.ex.ONE if i == j else tn.ex.ZERO) + pert[min(i, j)][max(i, j)],
    )


def bumpy_b(c, salt=2, scale=0.2, offset=0.0):
    """Random polynomial 2-form; offset adds a constant top block so the
    form is invertible on even charts."""
    gen = c.rng(salt)
    coeffs = {}
    for i in range(c.dim):
        for j in range(i + 1, c.dim):
            e = tn.ex.random_polynomial(c, gen, 2, scale)
            if offset and j == i + 1 and i % 2 == 0:
                e = e + offset
            coeffs[(i, j)] = e
    return tn.form_from_wedge_coeffs(c, 2, coeffs)


def random_background(n, salt, with_b=True, with_h=True, invertible_b=False, seed=500,
                      num_points=12):
    names = "x y z w"[: 2 * n - 1]
    c = chart(names, seed=seed + salt, num_points=num_points)
    gen = c.rng(salt + 17)
    g = bumpy_metric(c, salt=salt)
    B = (
        bumpy_b(c, salt=salt + 1, offset=1.0 if invertible_b else 0.0)
        if with_b
        else tn.zeros(c, (DOWN, DOWN))
    )
    phi = tn.ex.random_polynomial(c, gen, 2, 0.3)
    if with_h:
        H = tn.exterior_derivative(bumpy_b(c, salt=salt + 2))
    else:
        H = tn.zeros(c, (DOWN,) * 3)
    return Background(c, g, B, phi, H)


def symbolic_covariant_derivative(frame, gamma, omega):
    """nab[a, i1..ip] of a covariant frame tensor omega as expressions, from
    the definition a(E_a).omega_{i1..ip} - sum_s Gamma^c_{a i_s} omega_{..c..},
    with the frame derivative anchor[a, m] d omega / d x^m by
    ``differentiate``."""
    ex = tn.ex
    r = frame.rank
    coords = frame.chart.coords()
    out = np.empty((r,) + omega.shape, dtype=object)
    for a in range(r):
        for idx in itertools.product(range(r), repeat=omega.ndim):
            terms = [ex.mul(frame.anchor[a, m], ex.differentiate(omega[idx], x))
                     for m, x in enumerate(coords)]
            for s, b in enumerate(idx):
                for c in range(r):
                    moved = idx[:s] + (c,) + idx[s + 1:]
                    terms.append(ex.neg(ex.mul(gamma[c, a, b], omega[moved])))
            out[(a,) + idx] = ex.esum(terms)
    return out


def symbolic_gualtieri_torsion(frame, gamma):
    """T[a, b, c] = <nab_a e_b - nab_b e_a - [e_a, e_b], e_c> + <nab_c e_a, e_b>
    as expressions, for the swap Gram of a Courant frame."""
    ex = tn.ex
    out = np.empty((frame.rank,) * 3, dtype=object)
    for a, b, c in itertools.product(range(frame.rank), repeat=3):
        sc, sb = frame.swap(c), frame.swap(b)
        out[a, b, c] = ex.esum([gamma[sc, a, b], ex.neg(gamma[sc, b, a]),
                                ex.neg(frame.structure[sc, a, b]), gamma[sb, c, a]])
    return out


# ---------------------------------------------------------------------------
# the parameter family and the transports, as expressions
# ---------------------------------------------------------------------------


def symbolic_param_tensor_frame(params, metric):
    """K[A, B, C] of ``gconn.param_tensor_frame`` as expressions, one term
    per frame type combination: W with g^{-1} on the form legs when an odd
    number of legs are forms, else -J with g on the vector legs."""
    ex = tn.ex
    n = metric.chart.dim
    g, ginv = metric.g.comps, metric.g_inv.comps
    J, W = params.J.comps, params.W.comps
    K = np.empty((2 * n,) * 3, dtype=object)
    for A, B, C in itertools.product(range(2 * n), repeat=3):
        legs = [(s >= n, s % n) for s in (A, B, C)]
        odd = sum(f for f, _ in legs) % 2 == 1
        terms = []
        for idx in itertools.product(range(n), repeat=3):
            factors = []
            for (is_form, i), a in zip(legs, idx):
                if is_form == odd:
                    factors.append(ginv[i, a] if odd else g[a, i])
                elif a != i:
                    break
            else:
                factors.append(W[idx] if odd else J[idx])
                terms.append(ex.mul(*factors))
        K[A, B, C] = ex.esum(terms) if odd else ex.neg(ex.esum(terms))
    return K


def symbolic_with_params(frame, gamma, params, metric):
    """Gamma^C_{AB} + K[A, B, swap(C)] as expressions."""
    K = symbolic_param_tensor_frame(params, metric)
    out = np.empty(gamma.shape, dtype=object)
    for c, a, b in itertools.product(range(frame.rank), repeat=3):
        out[c, a, b] = tn.ex.add(gamma[c, a, b], K[a, b, frame.swap(c)])
    return out


def symbolic_transport(frame, gamma, F, Finv):
    """F^{-1 G}_E ( F^C_A F^D_B Gamma^E_{CD} + F^C_A rho(e_C).F^E_B ) as
    expressions, with the frame derivative of the source ``frame`` written
    with ``differentiate``."""
    ex = tn.ex
    r = frame.rank
    coords = frame.chart.coords()
    out = np.empty((r,) * 3, dtype=object)
    for g_, a, b in itertools.product(range(r), repeat=3):
        terms = []
        for e, c in itertools.product(range(r), repeat=2):
            for d in range(r):
                terms.append(ex.mul(Finv[g_, e], F[c, a], F[d, b], gamma[e, c, d]))
            for m, x in enumerate(coords):
                terms.append(ex.mul(Finv[g_, e], F[c, a], frame.anchor[c, m],
                                    ex.differentiate(F[e, b], x)))
        out[g_, a, b] = ex.esum(terms)
    return out


def symbolic_untwist(frame, gamma, metric, B):
    """Coefficients of ``gconn.untwist``: the transport through e^{-B}."""
    sheared = gtb.GeneralizedMetric(metric.g, B, metric.g_inv)
    return symbolic_transport(frame, gamma, sheared.shear_matrix(-1), sheared.shear_matrix(+1))


def symbolic_dilaton(derived):
    """Coefficients of ``derived.dilaton`` as expressions: the dilaton
    parameters added to the minimal coefficients, then untwisted by B."""
    bg, minimal = derived.bg, derived.minimal
    gamma = gconn._minimal_coefficients(derived.gamma, derived.h_prime)
    params = gconn.dilaton_params(bg.g, bg.phi)
    twisted = symbolic_with_params(minimal.algebroid, gamma, params, minimal.metric)
    return symbolic_untwist(minimal.algebroid, twisted, minimal.metric, bg.B)


def symbolic_theta_connection(derived):
    """Coefficients of ``derived.theta_connection`` as expressions: the
    symbolic dilaton coefficients pulled back through F_theta."""
    F, Finv = gtb.theta_twist_matrices(derived.symplectic.theta, derived.bg.B)
    return symbolic_transport(derived.dilaton.algebroid, symbolic_dilaton(derived), F, Finv)
