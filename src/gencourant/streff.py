"""String-background residuals.

Given a background (g, B, phi) with a closed 3-form twist H, this module
evaluates

- the three one-loop residual tensors of the sigma-model Weyl anomaly
  (symmetric, antisymmetric, scalar) and their dependent scalar combination,
- the two identities that tie them to the curvature of the dilaton
  connection on TM (+) T*M: the metric trace of its Ricci tensor equals the
  scalar residual, and its off-block Ricci components equal the difference
  of the symmetric and antisymmetric residuals,
- for invertible B, the bivector-gauge side: the cotangent Lie algebroid of
  theta = B^{-1}, its Levi-Civita connection for the fiber metric G^{-1}
  with G = -B g^{-1} B, and the three residuals of the dual gravity
  equations, plus the transport identity connecting both Ricci tensors.

The residuals that read no connection on TM (+) T*M or on the cotangent
algebroid are exact symbolic fields, which the CLI samples at the chart's
seeded points.  What is read from those connections (curvature, covariant
derivatives) is numbers at those points (see ``gtb`` and ``gconn``), so the
residuals that involve them are float arrays ending in the point axis, with
their symbolic parts valued at the same points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import expr as ex
from . import gconn
from . import gtb
from . import riemann as rm
from . import tensors as tn
from .expr import Chart, Expr, add, esum, mul, neg
from .gtb import GeneralizedMetric, LieAlgebroidCotangent
from .tensors import DOWN, TensorField


# ---------------------------------------------------------------------------
# backgrounds
# ---------------------------------------------------------------------------


@dataclass
class Background:
    """Chart background fields: Riemannian g, 2-form B, dilaton phi, and a
    closed 3-form twist H (defaults to zero).  H may instead be supplied
    through a potential 2-form, guaranteeing closedness by construction."""

    chart: Chart
    g: TensorField
    B: TensorField
    phi: Expr
    H: TensorField = None

    def __post_init__(self):
        if self.H is None:
            self.H = tn.zeros(self.chart, (DOWN,) * 3)
        gtb._check_positive_definite(self.g)
        tn.check_antisymmetric(self.B)
        tn.check_antisymmetric(self.H)
        gtb.check_closed(self.H)
        self.phi = ex._coerce(self.phi)

    def h_total(self) -> TensorField:
        """H' = H + dB: the twist seen by the sheared, block-diagonal picture."""
        return self.H + tn.exterior_derivative(self.B)


class Derived:
    """The derived quantities of one background that the checks read, each
    built on first read, by the public builder named below, and kept:

    - ``h_prime``: H' = H + dB (``Background.h_total``), checked once to be
      an antisymmetric closed 3-form;
    - ``gamma``: the chart Christoffel symbols (``riemann.christoffel``),
      which carry g and ``ginv`` = g^{-1}, the one inversion of g;
    - ``curvature``: (Ricci, scalar) of g (``riemann.curvature_package``);
    - ``betas``: the residual tensors (``beta_all``);
    - ``metric``: the generalized metric of the pair (g, B);
    - ``minimal``, ``block_lc``, ``dilaton``: the connections on TM (+) T*M
      (``gconn.minimal_connection``, ``block_lc_connection``,
      ``dilaton_connection``);
    - ``symplectic``, ``dual_residuals``, ``theta_connection``, ``transport``:
      the bivector side for invertible B (``build_symplectic``,
      ``symplectic_residuals``, ``theta_transported_connection``,
      ``transport_identity_residual``).

    g, B, H and phi are validated when the ``Background`` is made.  Nothing
    is built when the context is made, and a builder that raises stores
    nothing, so the next read raises again."""

    def __init__(self, bg: Background):
        self.bg = bg

    @cached_property
    def h_prime(self) -> TensorField:
        Hp = self.bg.h_total()
        gtb.check_closed(Hp)
        tn.check_antisymmetric(Hp)
        return Hp

    @cached_property
    def gamma(self) -> rm.Christoffel:
        return rm.christoffel(self.bg.g)

    @property
    def ginv(self) -> TensorField:
        return self.gamma.metric_inverse

    @cached_property
    def curvature(self):
        return rm.curvature_package(self.gamma)

    @cached_property
    def betas(self) -> "BetaResiduals":
        return beta_all(self)

    @cached_property
    def metric(self) -> GeneralizedMetric:
        return GeneralizedMetric(self.bg.g, self.bg.B, self.ginv)

    @cached_property
    def minimal(self) -> gconn.GenConnection:
        return gconn.minimal_connection(self.gamma, self.h_prime)

    @cached_property
    def block_lc(self) -> gconn.GenConnection:
        return gconn.block_lc_connection(self.gamma, self.h_prime)

    @cached_property
    def dilaton(self) -> gconn.GenConnection:
        return gconn.dilaton_connection(self.minimal, self.bg.B, self.bg.phi)

    @cached_property
    def symplectic(self) -> "SymplecticPackage":
        return build_symplectic(self)

    @cached_property
    def dual_residuals(self):
        return symplectic_residuals(self.symplectic)

    @cached_property
    def theta_connection(self) -> gconn.GenConnection:
        return theta_transported_connection(self)

    @cached_property
    def transport(self) -> np.ndarray:
        return transport_identity_residual(self)


@dataclass
class BetaResiduals:
    beta_g: TensorField        # symmetric (0,2)
    beta_B: TensorField        # antisymmetric (0,2)
    beta_phi: Expr
    beta_phi_prime: Expr

    def max_abs(self, points):
        fields = list(self.beta_g.comps.reshape(-1)) + list(self.beta_B.comps.reshape(-1))
        fields += [self.beta_phi]
        return ex.max_abs_on_points(fields, points)


def beta_all(derived: Derived) -> BetaResiduals:
    """Index-free assembly of the three residual tensors:

    beta_g(X,Y)  = Ric(X,Y) - (1/2) <i_X H', i_Y H'>_g
                   + (nab_X dphi)(Y) + (nab_Y dphi)(X)
    beta_B(X,Y)  = (1/2) (delta_g H')(X,Y) + H'(X, Y, grad phi)
    beta_phi     = R(g) - (1/2) <H',H'>_g + 4 Lap(phi) - 4 |grad phi|^2
    beta_phi'    = -(1/4) (beta_phi - tr_g beta_g)
    """
    bg = derived.bg
    chart = bg.chart
    n = chart.dim
    Hp, gamma, ginv = derived.h_prime, derived.gamma, derived.ginv
    ric, rscal = derived.curvature
    hess = rm.covariant_derivative(tn.d_scalar(chart, bg.phi), gamma)
    lap, grad, norm2 = rm.laplace_divergence(bg.phi, gamma)
    deltaH = rm.codifferential(Hp, gamma)

    iH = [tn.interior_product(gconn._coord_field(chart, i), Hp) for i in range(n)]
    inner = np.array([[rm.form_inner(a, b, ginv) for b in iH] for a in iH], dtype=object)
    bg_comps = tn.contract("zij->ij", np.stack([ric.comps, tn.contract(",ij->ij", -0.5, inner),
                                                hess.comps, hess.comps.T]))
    bB_comps = (tn.contract(",ij->ij", 0.5, deltaH.comps)
                + tn.contract("ija,a->ij", Hp.comps, grad.comps))
    beta_g = TensorField(chart, (DOWN, DOWN), bg_comps)
    beta_B = TensorField(chart, (DOWN, DOWN), bB_comps)
    beta_phi = esum([rscal, mul(-0.5, rm.form_inner(Hp, Hp, ginv)), mul(4.0, lap),
                     mul(-4.0, norm2)])
    trace = tn.contract("ij,ij->", ginv.comps, bg_comps)
    beta_phi_prime = mul(-0.25, add(beta_phi, neg(trace)))
    return BetaResiduals(beta_g, beta_B, beta_phi, beta_phi_prime)


def beta_b_conformal_form(derived: Derived) -> TensorField:
    """The equivalent divergence form (1/2) e^{2 phi} delta_g(e^{-2 phi} H')."""
    phi = derived.bg.phi
    weight = ex.exp(mul(-2.0, phi))
    weighted = derived.h_prime.map(lambda c: mul(weight, c))
    delta = rm.codifferential(weighted, derived.gamma)
    back = ex.exp(mul(2.0, phi))
    return delta.map(lambda c: mul(0.5, back, c))


def beta_g_index_form(derived: Derived) -> TensorField:
    """Raw index-sum assembly Ric_{mn} - (1/4) H'_{m a b} H'_n{}^{a b}
    + 2 (nab dphi)_{(mn)}: an independent formula path used as an oracle
    against the index-free assembly."""
    chart = derived.bg.chart
    Hp, gamma = derived.h_prime.comps, derived.gamma
    ginv = gamma.metric_inverse.comps
    ric, _ = derived.curvature
    hess = rm.covariant_derivative(tn.d_scalar(chart, derived.bg.phi), gamma)
    quad = tn.contract("mab,vcd,ac,bd->mv", Hp, Hp, ginv, ginv)
    out = tn.contract("zmv->mv", np.stack([ric.comps, tn.contract(",mv->mv", -0.25, quad),
                                           hess.comps, hess.comps.T]))
    return TensorField(chart, (DOWN, DOWN), out)


# ---------------------------------------------------------------------------
# the flatness / block-diagonality dictionary
# ---------------------------------------------------------------------------


@dataclass
class CentralResiduals:
    """Identity residuals at the chart's sample points: both vanish for every
    background, on-shell or not."""

    scalar_residual: np.ndarray        # [p]: metric Ricci trace minus beta_phi
    ricci_residual: np.ndarray         # [i, j, p]: off-block Ricci minus (beta_g - beta_B)


def central_residuals(derived: Derived) -> CentralResiduals:
    """The two identity residuals of the dilaton connection for (g, B, phi)
    on the H-twisted bracket (built through the shear, so B != 0 exercises
    the conjugation path)."""
    pts = derived.bg.chart.sample_points()
    betas = derived.betas
    conn = derived.dilaton
    scalar_res = gconn.scalar_G(conn) - tn.values_at(betas.beta_phi, pts)
    beta_diff = tn.values_at((betas.beta_g - betas.beta_B).comps, pts)
    return CentralResiduals(scalar_res, gconn.ricci_compat_residual(conn) - beta_diff)


# ---------------------------------------------------------------------------
# the bivector gauge: cotangent algebroid quantities
# ---------------------------------------------------------------------------


@dataclass
class SymplecticPackage:
    """Everything attached to theta = B^{-1}: the dual metric G = -B g^{-1} B,
    the cotangent Lie algebroid with its Levi-Civita connection for G^{-1},
    the transported twist, and the dilaton data in the dual variables.  The
    curvature of the connection is computed when the residuals are
    (``algebroid_curvature``)."""

    chart: Chart
    theta: TensorField                  # bivector, (2,0)
    G: TensorField                      # Riemannian metric (0,2)
    metric: GeneralizedMetric           # BlockDiag(G, G^{-1}) on TM (+) T*M
    g_A: np.ndarray                     # fiber metric on T*M: matrix of G^{-1} = -theta g theta
    cotangent: LieAlgebroidCotangent
    gamma: np.ndarray                   # connection coefficients [c, a, b]
    H_theta: np.ndarray                 # frame 3-form H'(theta., theta., theta.)
    dphi_dual: np.ndarray               # d_theta phi as dual-frame components


def build_symplectic(derived: Derived) -> SymplecticPackage:
    bg = derived.bg
    chart = bg.chart
    theta = gtb.theta_matrix_from_b(bg.B)  # raises SingularB when not invertible
    B, ginv = bg.B.comps, derived.ginv.comps
    G = TensorField(chart, (DOWN, DOWN), -tn.contract("ia,ab,bj->ij", B, ginv, B))
    metric = gtb.gen_metric(G)  # checks that G is positive definite
    cot = LieAlgebroidCotangent.build(theta, tn.exterior_derivative(bg.B))
    # g_A = G^{-1} = -theta g theta (inverse without another adjugate pass)
    th = theta.comps
    g_A = -tn.contract("am,mk,kb->ab", th, bg.g.comps, th)
    gamma = cot.algebroid.lc_connection(g_A)
    H_theta = tn.contract("ijk,ia,jb,kc->abc", derived.h_prime.comps, th, th, th)
    dphi_dual = gtb.d_theta(chart, bg.phi, theta).comps
    return SymplecticPackage(chart, theta, G, metric, g_A, cot, gamma, H_theta, dphi_dual)


def algebroid_curvature(cot: LieAlgebroidCotangent, gamma: np.ndarray, G: TensorField):
    """(Ricci [a, b, p] over the coframe, G-trace scalar [p]) of an algebroid
    connection at the chart's sample points: Ric[c, b] = R0[a, c, a, b]."""
    pts = cot.chart.sample_points()
    r0 = cot.algebroid.curvature(*tn.jets_at(gamma, pts), pts)
    ric = np.einsum("acabp->cbp", r0)
    return ric, np.einsum("abp,abp->p", tn.values_at(G.comps, pts), ric)


def _pform_inner_dual(P: np.ndarray, Q: np.ndarray, G: TensorField, degree: int):
    """(1/p!) P(E^{i1}..) Q(G E_{i1} ..) for frame p-forms on the cotangent
    algebroid (G lowers the algebroid frame indices).  A slot of P or Q
    beyond the last ``degree`` ones is a free index of the result, so
    P[x] and Q[y] paired over x and y give an array [x, y]."""
    i, j = "abc"[:degree], "def"[:degree]
    x, y = "x"[: P.ndim - degree], "y"[: Q.ndim - degree]
    spec = ",".join([x + i, y + j] + [b + a for a, b in zip(i, j)]) + "->" + x + y
    norm = 1.0 / float(np.prod(range(1, degree + 1)))
    return norm * tn.contract(spec, P, Q, *[G.comps] * degree)


def symplectic_residuals(pkg: SymplecticPackage):
    """Residuals of the dual gravity equations at the chart's sample points,
    as float arrays [p], [a, b, p] and [a, b, p]:

    1. scalar:  R^theta(G^{-1}) - (1/2) <H'_th, H'_th>_G + 4 Lap_th(phi)
                - 4 |d_th phi|^2_G
    2. symm:    Ric^theta(xi,eta) - (1/2) <i_xi H'_th, i_eta H'_th>_G
                + (nab_xi d_th phi)(eta) + (nab_eta d_th phi)(xi)
    3. skew:    H'_th(xi,eta, G(d_th phi))
                - (1/2) (nab_{E^k} H'_th)(G(E_k), xi, eta)

    The curvature terms and the covariant derivatives of d_th phi and H'_th
    are numbers (``gtb.AnchoredFrame.covariant_derivative_at``); the other
    terms are built symbolically and valued."""
    chart = pkg.chart
    pts = chart.sample_points()
    alg = pkg.cotangent.algebroid
    G = pkg.G
    w = pkg.dphi_dual
    ric, scalar = algebroid_curvature(pkg.cotangent, pkg.gamma, G)
    Gv, gamma = tn.values_at(G.comps, pts), tn.values_at(pkg.gamma, pts)
    nab_w = alg.covariant_derivative_at(gamma, w, pts)  # [k, a, p] = (nab_{E_k} w)_a
    lap = np.einsum("akp,kap->p", Gv, nab_w)  # G^{ak} (nab_{E_k} w)_a
    norm2 = tn.contract("ab,a,b->", G.comps, w, w)
    hh = _pform_inner_dual(pkg.H_theta, pkg.H_theta, G, 3)
    rest1 = add(mul(-0.5, hh), mul(-4.0, norm2))
    # <i_{E^x} H'_th, i_{E^y} H'_th>_G, with i_{E^x} the slice of the first slot
    inner = _pform_inner_dual(pkg.H_theta, pkg.H_theta, G, 2)
    u = tn.contract("am,m->a", G.comps, w)  # G(d_th phi) as a frame section of the algebroid
    nabH = alg.covariant_derivative_at(gamma, pkg.H_theta, pts)  # [k, a, b, c, p]
    return (
        scalar + 4.0 * lap + tn.values_at(rest1, pts),
        ric + nab_w + nab_w.swapaxes(0, 1) - 0.5 * tn.values_at(inner, pts),
        (tn.values_at(tn.contract("abc,c->ab", pkg.H_theta, u), pts)
         - 0.5 * np.einsum("mkp,kmabp->abp", Gv, nabH)),
    )


# ---------------------------------------------------------------------------
# equivalence of the two descriptions
# ---------------------------------------------------------------------------


VANISH_TOL = 1e-7


@dataclass
class EquivalenceReport:
    """Max-abs of each residual family over the sample points, with the
    point where it is reached."""

    beta_max: float
    beta_point: tuple
    symplectic_max: float
    symplectic_point: tuple
    beta_on_shell: bool
    symplectic_on_shell: bool
    verdict: str


def theta_transported_connection(derived: Derived) -> gconn.GenConnection:
    """The dilaton connection pulled back through the bivector shear; its
    metric is the block-diagonal package of G."""
    pkg = derived.symplectic
    return gconn.theta_transport(derived.dilaton, pkg.theta, derived.bg.B, pkg.metric)


def dual_fields(derived: Derived) -> np.ndarray:
    """The three dual residuals as one float array [field, p]."""
    res1, res2, res3 = derived.dual_residuals
    count = len(res1)
    return np.concatenate([res1[None], res2.reshape(-1, count), res3.reshape(-1, count)])


def transport_identity_residual(derived: Derived) -> np.ndarray:
    """Ric_theta(psi, psi') - Ric(F_theta psi, F_theta psi') on the frame, at
    the chart's sample points: [a, b, p]."""
    F, _ = gtb.theta_twist_matrices(derived.symplectic.theta, derived.bg.B)
    F = tn.values_at(F, derived.bg.chart.sample_points())
    return (gconn.ricci(derived.theta_connection)
            - np.einsum("cdp,cap,dbp->abp", gconn.ricci(derived.dilaton), F, F))


def equivalence_report(derived: Derived) -> EquivalenceReport:
    """Both residual families on the sample points."""
    points = derived.bg.chart.sample_points()
    beta_max, beta_point = derived.betas.max_abs(points)
    sym_max, sym_point = ex.max_abs_on_points(dual_fields(derived), points)
    beta_on = beta_max < VANISH_TOL
    sym_on = sym_max < VANISH_TOL
    if beta_on and sym_on:
        verdict = "equivalent: both on-shell"
    elif not beta_on and not sym_on:
        verdict = "equivalent: both off-shell"
    else:
        verdict = "inconsistent: one family vanishes without the other"
    return EquivalenceReport(beta_max, beta_point, sym_max, sym_point, beta_on, sym_on, verdict)
