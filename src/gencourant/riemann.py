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

Only what the checks read is built.  ``riemann_entry`` builds one entry
R^k_{lij} and differentiates only the two Gamma entries it reads, so
``curvature_package`` builds the n^3 traced entries R^k_{lkj} that Ricci
sums, not the n^4 tensor.  ``form_inner`` raises b's slots one at a time
(p n^{p+1} products) before pairing with a, rather than summing the n^{2p}
products a_I b_J g^{i1 j1}..g^{ip jp}.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import tensors as tn
from .errors import DegreeMismatch, SlotError
from .expr import Chart, Coord, Expr, add, esum, mul, neg
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


def riemann_entry(gamma: Christoffel, k: int, l: int, i: int, j: int) -> Expr:
    """R^k_{lij}.  Of dGamma it reads d_i Gamma^k_{jl} and d_j Gamma^k_{il},
    which ``differentiate`` caches on the Gamma nodes, so entries reading
    the same derivative share it."""
    G, n = gamma.coeffs, gamma.chart.dim
    terms = [ex.differentiate(G[k, j, l], Coord(gamma.chart, i)),
             neg(ex.differentiate(G[k, i, l], Coord(gamma.chart, j)))]
    for m in range(n):
        terms.append(mul(G[k, i, m], G[m, j, l]))
        terms.append(neg(mul(G[k, j, m], G[m, i, l])))
    return esum(terms)


def curvature_package(gamma: Christoffel):
    """(Ricci (0,2), scalar Expr) of the metric of gamma, from the n^3
    traced entries R^k_{lkj}."""
    n = gamma.chart.dim
    ric = np.empty((n, n), dtype=object)
    for l, j in itertools.product(range(n), repeat=2):
        ric[l, j] = esum(riemann_entry(gamma, k, l, k, j) for k in range(n))
    scalar = tn.contract("lj,lj->", gamma.metric_inverse.comps, ric)
    return TensorField(gamma.chart, (DOWN, DOWN), ric), scalar


def form_inner(alpha: TensorField, beta: TensorField, ginv: TensorField) -> Expr:
    """(1/p!) alpha_{i1..ip} beta^{i1..ip}, indices raised by the inverse
    metric ginv one slot at a time; on a flat metric <dx^dy, dx^dy> = 1.
    Both arguments are taken to be forms: only their slots are checked."""
    if alpha.rank != beta.rank:
        raise DegreeMismatch(f"degree {alpha.rank} vs {beta.rank}")
    if any(v != DOWN for v in alpha.variance + beta.variance):
        raise SlotError("form_inner expects covariant forms")
    p = alpha.rank
    if p == 0:
        return mul(alpha[()], beta[()])
    slots = "abcdefgh"[:p]
    raised = beta.comps
    for s in range(p):  # raised[.., a_s, ..] = g^{a_s z} raised[.., z, ..]
        raised = tn.contract(f"{slots[s]}z,{slots[:s]}z{slots[s + 1:]}->{slots}", ginv.comps, raised)
    return mul(1.0 / math.factorial(p), tn.contract(f"{slots},{slots}->", alpha.comps, raised))


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
