"""Classical operators of a chart metric: Levi-Civita connection, curvature,
form inner products, codifferential, divergence and Laplacian.

Conventions (locked by the unit-sphere and flat-metric tests):

- Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{lj} + d_j g_{il} - d_l g_{ij})
- R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_{[X,Y]} Z, components
  R^k_{lij} = d_i Gamma^k_{jl} - d_j Gamma^k_{il}
              + Gamma^k_{im} Gamma^m_{jl} - Gamma^k_{jm} Gamma^m_{il}
- Ric_{lj} = R^k_{lkj};  scalar = g^{lj} Ric_{lj}  (unit 2-sphere: +2)
- <a, b>_g = (1/p!) a_{i1..ip} b^{i1..ip} for p-forms
- (delta_g w)(X,...) = -g^{ka} (nab_k w)(d_a, X, ...)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import tensors as tn
from .errors import DegreeMismatch, SlotError
from .expr import Chart, Expr, add, esum, mul, neg
from .tensors import DOWN, UP, TensorField


@dataclass
class Christoffel:
    """Levi-Civita connection coefficients Gamma^k_{ij}, symmetric in (i,j).

    Carries the metric and its symbolic inverse, so the operators below
    take it in place of the metric and never invert g again.
    """

    chart: Chart
    coeffs: np.ndarray  # [k, i, j]
    metric: TensorField
    metric_inverse: TensorField

    def __post_init__(self):
        n = self.chart.dim
        diffs = [
            add(self.coeffs[k, i, j], neg(self.coeffs[k, j, i]))
            for k in range(n)
            for i in range(n)
            for j in range(i + 1, n)
        ]
        if diffs:
            worst, _ = ex.max_abs_on_points(diffs, self.chart.sample_points())
            if not worst <= 1e-10:
                raise SlotError(f"connection coefficients not symmetric: {worst:.3e}")


def christoffel(g: TensorField) -> Christoffel:
    """Levi-Civita coefficients of a symmetric nondegenerate (0,2) metric."""
    ginv = tn.metric_inverse(g)  # also checks symmetry and nondegeneracy
    n = g.chart.dim
    coords = g.chart.coords()
    dg = np.empty((n, n, n), dtype=object)  # dg[l, i, j] = d_l g_{ij}
    for l in range(n):
        for i in range(n):
            for j in range(n):
                dg[l, i, j] = ex.differentiate(g.comps[i, j], coords[l])
    out = np.empty((n, n, n), dtype=object)
    for k, i, j in itertools.product(range(n), repeat=3):
        out[k, i, j] = mul(
            0.5,
            esum(
                mul(ginv.comps[k, l], add(dg[i, l, j], dg[j, i, l], neg(dg[l, i, j])))
                for l in range(n)
            ),
        )
    return Christoffel(g.chart, out, g, ginv)


def covariant_derivative(t: TensorField, gamma: Christoffel) -> TensorField:
    """nab t with one extra leading down slot: +Gamma on up slots,
    -Gamma on down slots."""
    if not t.tensorial:
        raise SlotError("covariant derivative needs a tensorial field")
    n = t.chart.dim
    grad = tn.coordinate_gradient(t)
    out = np.empty(grad.comps.shape, dtype=object)
    for full in itertools.product(range(n), repeat=t.rank + 1):
        mu, idx = full[0], full[1:]
        terms = [grad.comps[full]]
        for slot, var in enumerate(t.variance):
            a = idx[slot]
            for b in range(n):
                src = idx[:slot] + (b,) + idx[slot + 1:]
                if var == UP:
                    terms.append(mul(gamma.coeffs[a, mu, b], t.comps[src]))
                else:
                    terms.append(neg(mul(gamma.coeffs[b, mu, a], t.comps[src])))
        out[full] = esum(terms)
    return TensorField(t.chart, (DOWN,) + t.variance, out)


def curvature_package(gamma: Christoffel):
    """(Riemann (1,3), Ricci (0,2), scalar Expr) of the metric of gamma."""
    chart = gamma.chart
    n = chart.dim
    coords = chart.coords()
    dG = np.empty((n, n, n, n), dtype=object)  # dG[m, k, i, j] = d_m Gamma^k_{ij}
    for m in range(n):
        for k, i, j in itertools.product(range(n), repeat=3):
            dG[m, k, i, j] = ex.differentiate(gamma.coeffs[k, i, j], coords[m])
    riem = np.empty((n, n, n, n), dtype=object)  # [k, l, i, j]
    for k, l, i, j in itertools.product(range(n), repeat=4):
        terms = [dG[i, k, j, l], neg(dG[j, k, i, l])]
        for m in range(n):
            terms.append(mul(gamma.coeffs[k, i, m], gamma.coeffs[m, j, l]))
            terms.append(neg(mul(gamma.coeffs[k, j, m], gamma.coeffs[m, i, l])))
        riem[k, l, i, j] = esum(terms)
    ric = np.empty((n, n), dtype=object)
    for l, j in itertools.product(range(n), repeat=2):
        ric[l, j] = esum(riem[k, l, k, j] for k in range(n))
    scalar = esum(
        mul(gamma.metric_inverse.comps[l, j], ric[l, j])
        for l in range(n)
        for j in range(n)
    )
    riem_t = TensorField(chart, (UP, DOWN, DOWN, DOWN), riem)
    ric_t = TensorField(chart, (DOWN, DOWN), ric)
    return riem_t, ric_t, scalar


def form_inner(alpha: TensorField, beta: TensorField, ginv: TensorField) -> Expr:
    """(1/p!) alpha_{i1..ip} beta^{i1..ip}, indices raised by the inverse
    metric ginv; on a flat metric <dx^dy, dx^dy> = 1.  Both arguments are
    taken to be forms: only their slots are checked."""
    if alpha.rank != beta.rank:
        raise DegreeMismatch(f"degree {alpha.rank} vs {beta.rank}")
    if any(v != DOWN for v in alpha.variance + beta.variance):
        raise SlotError("form_inner expects covariant forms")
    if alpha.rank == 0:
        return mul(alpha[()], beta[()])
    n = ginv.chart.dim
    p = alpha.rank
    norm = 1.0 / float(np.prod(range(1, p + 1)))
    terms = []
    for idx in itertools.product(range(n), repeat=p):
        for jdx in itertools.product(range(n), repeat=p):
            factors = [alpha.comps[idx], beta.comps[jdx]]
            factors.extend(ginv.comps[idx[s], jdx[s]] for s in range(p))
            terms.append(mul(*factors))
    return mul(norm, esum(terms))


def codifferential(omega: TensorField, gamma: Christoffel) -> TensorField:
    """delta_g on a fully antisymmetric covariant p-form via the metric
    trace of its covariant derivative; frame independent."""
    n = gamma.chart.dim
    nab = covariant_derivative(omega, gamma)  # [k, a, rest...]
    ginv = gamma.metric_inverse
    out = np.empty((n,) * (omega.rank - 1), dtype=object)
    for idx in itertools.product(range(n), repeat=omega.rank - 1):
        out[idx] = neg(
            esum(
                mul(ginv.comps[k, a], nab.comps[(k, a) + idx])
                for k in range(n)
                for a in range(n)
            )
        )
    return TensorField(gamma.chart, (DOWN,) * (omega.rank - 1), out)


def gradient_vector(phi, ginv: TensorField) -> TensorField:
    """grad phi = g^{-1} dphi."""
    dphi = tn.d_scalar(ginv.chart, phi)
    return TensorField(ginv.chart, (UP,), tn.contract("az,z->a", ginv.comps, dphi.comps))


def divergence(v: TensorField, gamma: Christoffel) -> Expr:
    """Trace of the Levi-Civita derivative of a vector field."""
    if v.variance != (UP,):
        raise SlotError("divergence expects a vector field")
    nab = covariant_derivative(v, gamma)
    return esum(nab.comps[k, k] for k in range(gamma.chart.dim))


def divergence_oneform(w: TensorField, gamma: Christoffel) -> Expr:
    """Div_g of a 1-form: metric trace g^{ka} (nab_k w)_a."""
    nab = covariant_derivative(w, gamma)
    ginv = gamma.metric_inverse
    n = gamma.chart.dim
    return esum(mul(ginv.comps[k, a], nab.comps[k, a]) for k in range(n) for a in range(n))


def laplace_divergence(phi, gamma: Christoffel):
    """(Delta_g phi, gradient vector, |grad phi|^2_g)."""
    grad = gradient_vector(phi, gamma.metric_inverse)
    lap = divergence(grad, gamma)
    dphi = tn.d_scalar(gamma.chart, phi)
    norm2 = esum(mul(dphi.comps[a], grad.comps[a]) for a in range(gamma.chart.dim))
    return lap, grad, norm2
