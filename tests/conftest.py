"""Shared builders for random chart backgrounds, and the symbolic
formulas that the numeric frame calculus is checked against."""

import itertools

import numpy as np

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


def random_background(n, salt, with_b=True, with_h=True, invertible_b=False, seed=500):
    names = "x y z w"[: 2 * n - 1]
    c = chart(names, seed=seed + salt, num_points=12)
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
