"""Classical operators of a chart metric: Levi-Civita connection, curvature,
form inner products, codifferential, divergence and Laplacian, as numbers
at the chart's sample points.

A field is a ``tensors.Jet`` (values and first partials, the point axis
last), or a float array of values when no partial of it is read.  The
connection is built from the 2-jet of g (``tensors.field_jets``): g^{-1}
is one ``np.linalg.inv`` per point, d g^{-1} = -g^{-1} dg g^{-1}, and the
partials of Gamma come from the second partials of g by
``tensors.jet_contract``.  Everything else is ``tensors.einsum`` over them.

Conventions (locked by the unit-sphere and flat-metric tests):

- Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{lj} + d_j g_{il} - d_l g_{ij})
- R(X,Y)Z = nab_X nab_Y Z - nab_Y nab_X Z - nab_{[X,Y]} Z, components
  R^k_{lij} = d_i Gamma^k_{jl} - d_j Gamma^k_{il}
              + Gamma^k_{im} Gamma^m_{jl} - Gamma^k_{jm} Gamma^m_{il}
- Ric_{lj} = R^k_{lkj};  scalar = g^{lj} Ric_{lj}  (unit 2-sphere: +2)
- <a, b>_g = (1/p!) a_{i1..ip} b^{i1..ip} for p-forms
- (delta_g w)(X,...) = -g^{ka} (nab_k w)(d_a, X, ...)

Only what the checks read is computed: ``curvature_package`` sums the n^3
traced entries R^k_{lkj}, not the n^4 tensor, and ``form_inner`` raises
b's slots one at a time (p n^{p+1} products) before pairing with a, rather
than summing the n^{2p} products a_I b_J g^{i1 j1}..g^{ip jp}.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensors as tn
from .errors import DegreeMismatch
from .expr import Chart
from .tensors import DOWN, UP, Jet


# Records are plain classes: a NamedTuple or a dataclass builds methods from generated code at import.
class Christoffel:
    """The Levi-Civita connection of a chart metric at the sample points:
    the jets of g, of its inverse and of the coefficients Gamma^k_{ij}, so
    the operators below take it in place of the metric and never invert g
    again."""

    __slots__ = ("chart", "g", "ginv", "coeffs")

    def __init__(self, chart: Chart, g: Jet, ginv: Jet, coeffs: Jet):
        self.chart = chart
        self.g = g  # [i, j, p]
        self.ginv = ginv  # [i, j, p]
        self.coeffs = coeffs  # [k, i, j, p]


def christoffel(g: Jet, dg: Jet, chart: Chart) -> Christoffel:
    """The Levi-Civita connection of a symmetric nondegenerate metric from
    its 2-jet at the chart's sample points: its jet g and the jet dg of its
    partials, dg[i, j, m] = d_m g_{ij}, finite and with |det g| >= DET_TOL
    (``streff.Background`` checks both when the scene is loaded)."""
    points = chart.sample_points()
    with np.errstate(all="ignore"):
        ginv = tn.finite("inverse metric", tn.jet_inverse(g), points)
        # [l, i, j] = d_i g_{lj} + d_j g_{il} - d_l g_{ij}
        first = (tn.jet_contract("lji->lij", dg) + tn.jet_contract("ilj->lij", dg)
                 - tn.jet_contract("ijl->lij", dg))
        coeffs = tn.finite("Christoffel jet", 0.5 * tn.jet_contract("kl,lij->kij", ginv, first),
                           points)
    return Christoffel(chart, g, ginv, coeffs)


def covariant_derivative(t: Jet, variance, gamma: Christoffel) -> np.ndarray:
    """nab t [mu, slots.., p] of a tensor field of the given variance (one
    ``tensors.UP`` or ``DOWN`` per slot), with one extra leading down slot:
    the partial, +Gamma on up slots and -Gamma on down slots."""
    G = gamma.coeffs.value
    idx = "acdefgh"[:len(variance)]
    out = t.partial.transpose([-2, *range(t.partial.ndim - 2), -1]).copy()  # [mu, idx, p]
    for slot, var in enumerate(variance):
        a, src = idx[slot], idx[:slot] + "b" + idx[slot + 1:]
        if var == UP:  # Gamma^a_{mu b} t[.. b ..]
            out += tn.einsum(f"{a}mbq,{src}q->m{idx}q", G, t.value)
        else:  # -Gamma^b_{mu a} t[.. b ..]
            out -= tn.einsum(f"bm{a}q,{src}q->m{idx}q", G, t.value)
    return out


def curvature_package(gamma: Christoffel):
    """(Ricci [l, j, p], scalar [p]) of the metric of gamma, from the n^3
    traced entries R^k_{lkj}."""
    G, dG = gamma.coeffs  # dG[k, i, j, m] = d_m Gamma^k_{ij}
    ric = (tn.einsum("kjlkp->ljp", dG) - tn.einsum("kkljp->ljp", dG)
           + tn.einsum("kkmp,mjlp->ljp", G, G) - tn.einsum("kjmp,mklp->ljp", G, G))
    return ric, tn.einsum("ljp,ljp->p", gamma.ginv.value, ric)


def form_inner(alpha: np.ndarray, beta: np.ndarray, ginv: np.ndarray,
               degree: int | None = None) -> np.ndarray:
    """(1/p!) alpha_{i1..ip} beta^{i1..ip} at each point, for the values of
    two p-forms and of the inverse metric, indices raised one slot at a
    time; on a flat metric <dx^dy, dx^dy> = 1.  When ``degree`` is p, the
    slots of either operand before its last p are free indices of the
    result, alpha's then beta's: alpha[x] and beta[y] paired give [x, y, q]."""
    if degree is None:
        if alpha.ndim != beta.ndim:
            raise DegreeMismatch(f"degree {alpha.ndim - 1} vs {beta.ndim - 1}")
        degree = alpha.ndim - 1
    slots = "abcdefgh"[:degree]
    x, y = "ijkl"[:alpha.ndim - 1 - degree], "mnor"[:beta.ndim - 1 - degree]
    raised = beta
    for s in range(degree):  # raised[y.., a_s, ..] = g^{a_s z} raised[y.., z, ..]
        raised = tn.einsum(f"{slots[s]}zq,{y}{slots[:s]}z{slots[s + 1:]}q->{y}{slots}q",
                           ginv, raised)
    return tn.einsum(f"{x}{slots}q,{y}{slots}q->{x}{y}q", alpha, raised) / math.factorial(degree)


def codifferential(omega: Jet, gamma: Christoffel) -> np.ndarray:
    """delta_g [rest.., p] of a fully antisymmetric covariant p-form via the
    metric trace of its covariant derivative; frame independent."""
    rank = omega.value.ndim - 1
    nab = covariant_derivative(omega, (DOWN,) * rank, gamma)  # [k, a, rest..]
    rest = "bcdefgh"[:rank - 1]
    return -tn.einsum(f"kaq,ka{rest}q->{rest}q", gamma.ginv.value, nab)


def gradient_vector(dphi: Jet, ginv: Jet) -> Jet:
    """grad phi = g^{-1} dphi, from the jet of the partials of phi."""
    return tn.jet_contract("az,z->a", ginv, dphi)


def divergence(v: Jet, gamma: Christoffel) -> np.ndarray:
    """Trace of the Levi-Civita derivative of a vector field, at each point."""
    return tn.einsum("kkq->q", covariant_derivative(v, (UP,), gamma))


def laplace_divergence(dphi: Jet, gamma: Christoffel):
    """(Delta_g phi [p], gradient vector jet, |grad phi|^2_g [p]) from the jet
    of the partials of phi."""
    grad = gradient_vector(dphi, gamma.ginv)
    return (divergence(grad, gamma), grad,
            tn.einsum("aq,aq->q", dphi.value, grad.value))
