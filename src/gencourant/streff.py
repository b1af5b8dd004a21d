"""String-background residuals.

Given a background (g, B, phi) with a closed 3-form twist H, this module
evaluates

- the three one-loop residual tensors of the sigma-model Weyl anomaly
  (symmetric, antisymmetric, scalar) and their dependent scalar combination,
- the two identities that tie them to the curvature of the dilaton
  connection on TM (+) T*M, read in the block picture (bracket twisted by
  H' = H + dB, metric BlockDiag(g, g^{-1})): the metric trace of its Ricci
  tensor equals the scalar residual, and its off-block Ricci components
  equal the difference of the symmetric and antisymmetric residuals,
- for invertible B, the bivector-gauge side: the cotangent Lie algebroid of
  theta = B^{-1}, its Levi-Civita connection for the fiber metric G^{-1}
  with G = -B g^{-1} B, and the three residuals of the dual gravity
  equations, plus the transport identity connecting both Ricci tensors
  through the bivector shear e^{-B} o F_theta, whose frame matrix is built
  once,
- the max-abs of each residual family, the beta and the dual residuals
  (``Derived.beta_max``, ``Derived.symplectic_max``), from which the
  equivalence suite reads whether the two vanish together.

The parsed fields of a ``Background`` are the last expressions: it takes
their jets once, when it is made, at the chart's seeded sample points (the
2-jets of g, B and phi and the jet of H, ``Background.jets``, from their
symbolic partials; the jet of H from B0's 2-jet when the twist is given by
its potential B0), and every quantity above is numbers computed from them
(``riemann``, ``gtb``, ``gconn``), each array ending in the point axis.
The random sections and parameters of the checks are numbers too
(``tensors.random_polynomial_jets``).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import expr as ex
from . import gconn
from . import gtb
from . import riemann as rm
from . import tensors as tn
from .errors import SingularMetric
from .expr import Chart, Expr
from .gtb import AnchoredFrame, GeneralizedMetric
from .tensors import DOWN, Jet


# ---------------------------------------------------------------------------
# backgrounds
# ---------------------------------------------------------------------------


# Records are plain classes: a NamedTuple or a dataclass builds methods from generated code at import.
class FieldJets:
    """The background's fields at the chart's sample points: the 2-jets of
    g, B and phi (each the jet of the field and the jet of its partials,
    ``tensors.field_jets``) and the jet of H."""

    __slots__ = ("g", "B", "phi", "H")

    def __init__(self, g: tuple[Jet, Jet], B: tuple[Jet, Jet], phi: tuple[Jet, Jet], H: Jet):
        self.g = g
        self.B = B
        self.phi = phi
        self.H = H


class Background:
    """Chart background fields: Riemannian g, 2-form B, dilaton phi, and a
    closed 3-form twist, given as H or as its potential B0 (H = dB0; at
    most one of them, and zero when neither is given), each an object
    array of Expr with one axis per index (phi an Expr), as
    ``scene.scene_from_dict`` fills them.

    The fields are valued once, when the background is made: ``jets``
    holds their jets at the chart's sample points, checked finite.  The jet
    of H is valued from H, or is the exterior derivative of the first and
    second partials in B0's 2-jet (``tensors.d_of_partials``, as
    ``Derived.h_prime`` takes dB).  g (symmetric, positive definite, with
    |det g| >= DET_TOL), B and H (antisymmetric) and dH = 0 are validated on
    those numbers, once: nothing after the load checks them again."""

    def __init__(self, chart: Chart, g: np.ndarray, B: np.ndarray, phi: Expr,
                 H: np.ndarray | None = None, B0: np.ndarray | None = None):
        self.chart, self.g, self.B, self.B0 = chart, g, B, B0
        self.H = tn.zeros_array((chart.dim,) * 3) if H is None and B0 is None else H
        self.phi = ex._coerce(phi)
        pts = chart.sample_points()

        def checked(name, jets):
            return tuple(tn.finite(f"scene field {name}", j, pts) for j in jets)

        fields = [checked(name, tn.field_jets(f, chart))
                  for name, f in (("g", g), ("B", B), ("phi", self.phi))]
        if B0 is None:
            H = tn.jets_at(self.H, chart)
        else:
            with np.errstate(all="ignore"):
                H = checked("B0", tn.field_jets(B0, chart))[1].map(lambda t: tn.d_of_partials(t, 2))
        self.jets = jets = FieldJets(*fields, tn.finite("scene field H", H, pts))
        g_values = jets.g[0].value.transpose(2, 0, 1)
        gtb.check_positive_definite(g_values, pts)
        for p, det in zip(pts, np.linalg.det(g_values)):
            if not abs(det) >= tn.DET_TOL:
                raise SingularMetric(f"|det| < {tn.DET_TOL} at sample point {tuple(p)}")
        tn.check_antisymmetric(jets.B[0].value, pts)
        tn.check_antisymmetric(jets.H.value, pts)
        with np.errstate(all="ignore"):
            dH = tn.d_of_partials(jets.H.partial, 3)
        gtb.check_closed(dH, pts)


class Derived:
    """The derived quantities of one background that the checks read, each
    built on first read, by the public builder named below, and kept:

    - ``h_prime``: the jet of H' = H + dB, checked antisymmetric and closed;
    - ``gamma``: the chart Christoffel symbols (``riemann.christoffel``),
      which carry g and ``ginv`` = g^{-1}, the one inversion of g;
    - ``curvature``: (Ricci, scalar) of g (``riemann.curvature_package``);
    - ``betas``: the residual tensors (``beta_all``);
    - ``metric``: the generalized metric of the pair (g, B);
    - ``block_lc``, ``minimal``, ``dilaton``: the connections on TM (+) T*M,
      all in the block picture (bracket twisted by H', metric
      BlockDiag(g, g^{-1})): the block transport
      (``gconn.block_lc_connection``), the same made torsion-free
      (``minimal_connection``) and ``dilaton_connection``, which both the
      central and the equivalence suite read.  Those suites read Ricci
      tensors (``gconn.ricci``, traced term by term), so only the curvature
      suite builds a full curvature tensor (``gconn.gen_riemann``), of
      ``minimal`` and ``block_lc``;
    - ``symplectic``, ``dual_residuals``, ``f_theta``, ``theta_connection``,
      ``transport``: the bivector side for invertible B (``build_symplectic``,
      ``symplectic_residuals``, ``gtb.theta_twist_matrices``: the 2-jet of
      e^{-B} o F_theta and the jet of its inverse,
      ``theta_transported_connection``, ``transport_identity_residual``);
    - ``beta_max``, ``symplectic_max``: the max-abs of each residual family
      over the sample points and the point where it is reached, as
      ``expr.max_abs_on_points`` picks it: the beta residuals and the three
      dual residuals (``dual_fields``).  The beta, symplectic and
      equivalence suites all read them.

    ``jets`` is the background's ``FieldJets``: g, B, H and phi are valued
    and validated when the ``Background`` is made.  Nothing
    is built when the context is made, and a builder that raises stores
    nothing, so the next read raises again."""

    def __init__(self, bg: Background):
        self.bg = bg

    @property
    def jets(self) -> FieldJets:
        return self.bg.jets

    @cached_property
    def h_prime(self) -> Jet:
        pts = self.bg.chart.sample_points()
        with np.errstate(all="ignore"):
            Hp = self.jets.H + self.jets.B[1].map(lambda t: tn.d_of_partials(t, 2))
        tn.finite("twist H' = H + dB", Hp, pts)
        tn.check_antisymmetric(Hp.value, pts)
        gtb.check_closed(tn.d_of_partials(Hp.partial, 3), pts)
        return Hp

    @cached_property
    def gamma(self) -> rm.Christoffel:
        return rm.christoffel(*self.jets.g, self.bg.chart)

    @property
    def ginv(self) -> Jet:
        return self.gamma.ginv

    @cached_property
    def curvature(self):
        return rm.curvature_package(self.gamma)

    @cached_property
    def betas(self) -> "BetaResiduals":
        return beta_all(self)

    @cached_property
    def metric(self) -> GeneralizedMetric:
        return GeneralizedMetric(self.bg.chart, self.jets.g[0], self.jets.B[0], self.ginv)

    @cached_property
    def minimal(self) -> gconn.GenConnection:
        return gconn.minimal_connection(self.block_lc)

    @cached_property
    def block_lc(self) -> gconn.GenConnection:
        return gconn.block_lc_connection(self.gamma, self.h_prime)

    @cached_property
    def dilaton(self) -> gconn.GenConnection:
        return gconn.dilaton_connection(self.minimal, self.jets.phi[1])

    @cached_property
    def symplectic(self) -> "SymplecticPackage":
        return build_symplectic(self)

    @cached_property
    def dual_residuals(self):
        return symplectic_residuals(self.symplectic)

    @cached_property
    def f_theta(self) -> tuple[tuple[Jet, Jet], Jet]:
        return gtb.theta_twist_matrices(self.symplectic.theta, self.jets.B)

    @cached_property
    def theta_connection(self) -> gconn.GenConnection:
        return theta_transported_connection(self)

    @cached_property
    def transport(self) -> np.ndarray:
        return transport_identity_residual(self)

    @cached_property
    def beta_max(self) -> tuple[float, tuple]:
        b = self.betas
        count = len(b.beta_phi)
        fields = [b.beta_g.reshape(-1, count), b.beta_B.reshape(-1, count), b.beta_phi[None]]
        return ex.max_abs_on_points(np.concatenate(fields), self.bg.chart.sample_points())

    @cached_property
    def symplectic_max(self) -> tuple[float, tuple]:
        return ex.max_abs_on_points(dual_fields(self), self.bg.chart.sample_points())


class BetaResiduals:
    """The residual tensors at the chart's sample points."""

    __slots__ = ("beta_g", "beta_B", "beta_phi", "beta_phi_prime")

    def __init__(self, beta_g: np.ndarray, beta_B: np.ndarray, beta_phi: np.ndarray,
                 beta_phi_prime: np.ndarray):
        self.beta_g = beta_g  # [i, j, p], symmetric
        self.beta_B = beta_B  # [i, j, p], antisymmetric
        self.beta_phi = beta_phi  # [p]
        self.beta_phi_prime = beta_phi_prime  # [p]


def _hessian(derived: Derived) -> np.ndarray:
    """nab dphi [m, a, p]."""
    return rm.covariant_derivative(derived.jets.phi[1], (DOWN,), derived.gamma)


def beta_all(derived: Derived) -> BetaResiduals:
    """Index-free assembly of the three residual tensors:

    beta_g(X,Y)  = Ric(X,Y) - (1/2) <i_X H', i_Y H'>_g
                   + (nab_X dphi)(Y) + (nab_Y dphi)(X)
    beta_B(X,Y)  = (1/2) (delta_g H')(X,Y) + H'(X, Y, grad phi)
    beta_phi     = R(g) - (1/2) <H',H'>_g + 4 Lap(phi) - 4 |grad phi|^2
    beta_phi'    = -(1/4) (beta_phi - tr_g beta_g)
    """
    Hp, gamma = derived.h_prime, derived.gamma
    ginv = gamma.ginv.value
    ric, rscal = derived.curvature
    hess = _hessian(derived)
    lap, grad, norm2 = rm.laplace_divergence(derived.jets.phi[1], gamma)
    deltaH = rm.codifferential(Hp, gamma)
    # <i_{d_i} H', i_{d_j} H'>_g, i_{d_i} H' the slice of the first slot
    inner = rm.form_inner(Hp.value, Hp.value, ginv, 2)
    beta_g = ric - 0.5 * inner + hess + hess.swapaxes(0, 1)
    beta_B = 0.5 * deltaH + np.einsum("ijap,ap->ijp", Hp.value, grad.value)
    beta_phi = rscal - 0.5 * rm.form_inner(Hp.value, Hp.value, ginv) + 4.0 * lap - 4.0 * norm2
    trace = np.einsum("ijp,ijp->p", ginv, beta_g)
    return BetaResiduals(beta_g, beta_B, beta_phi, -0.25 * (beta_phi - trace))


def beta_b_conformal_form(derived: Derived) -> np.ndarray:
    """The equivalent divergence form (1/2) e^{2 phi} delta_g(e^{-2 phi} H'),
    with the jet of e^{-2 phi} from the 2-jet of phi."""
    phi, dphi = derived.jets.phi
    pts = derived.bg.chart.sample_points()
    with np.errstate(all="ignore"):
        weight = np.exp(-2.0 * phi.value)
        weight = tn.finite("weight e^(-2 phi)", Jet(weight, -2.0 * weight * dphi.value), pts)
        back = tn.finite("weight e^(2 phi)", np.exp(2.0 * phi.value), pts)
    delta = rm.codifferential(tn.jet_contract(",ijk->ijk", weight, derived.h_prime), derived.gamma)
    return 0.5 * back * delta


def beta_g_index_form(derived: Derived) -> np.ndarray:
    """Raw index-sum assembly Ric_{mn} - (1/4) H'_{m a b} H'_n{}^{a b}
    + 2 (nab dphi)_{(mn)}: an independent formula path used as an oracle
    against the index-free assembly."""
    Hp, ginv = derived.h_prime.value, derived.ginv.value
    ric, _ = derived.curvature
    hess = _hessian(derived)
    # H'_{m a b} g^{ac} g^{bd} H'_{v c d}, raised a leg at a time
    raised = np.einsum("bdp,mcbp->mcdp", ginv, np.einsum("acp,mabp->mcbp", ginv, Hp))
    quad = np.einsum("mcdp,vcdp->mvp", raised, Hp)
    return ric - 0.25 * quad + hess + hess.swapaxes(0, 1)


# ---------------------------------------------------------------------------
# the flatness / block-diagonality dictionary
# ---------------------------------------------------------------------------


def central_residuals(derived: Derived) -> tuple[np.ndarray, np.ndarray]:
    """The two identity residuals of the dilaton connection for (g, B, phi)
    at the chart's sample points, (scalar [p], off-block [i, j, p]): the
    metric Ricci trace minus beta_phi, and the off-block Ricci minus
    (beta_g - beta_B).  Both vanish for every background, on-shell or not.
    They are read in the block picture, where the graphs Psi_pm(X) are
    (X, pm g(X)).
    The dictionary is e^B-covariant: e^B carries this picture to the
    H-twisted bracket with the metric of the pair (g, B), and Ric, its
    metric trace and the graphs with it.  So shearing first would change
    no term of either identity; it would only add roundoff that grows like
    |B|^4 eps, enough to fail a true identity at a constant B of 100."""
    betas = derived.betas
    conn = derived.dilaton
    return (gconn.scalar_G(conn) - betas.beta_phi,
            gconn.ricci_compat_residual(conn) - (betas.beta_g - betas.beta_B))


# ---------------------------------------------------------------------------
# the bivector gauge: cotangent algebroid quantities
# ---------------------------------------------------------------------------


class SymplecticPackage:
    """Everything attached to theta = B^{-1}, as jets at the chart's sample
    points: the dual metric G = -B g^{-1} B, the twist dB and the cotangent
    Lie algebroid it twists (``gtb.cotangent_algebroid``) with its
    Levi-Civita connection for G^{-1}, the transported twist, and
    the dilaton data in the dual variables.  The curvature of the
    connection is computed when the residuals are (``algebroid_curvature``)."""

    __slots__ = ("theta", "G", "metric", "g_A", "twist", "algebroid", "gamma", "H_theta",
                 "dphi_dual")

    def __init__(self, theta: tuple[Jet, Jet], G: Jet, metric: GeneralizedMetric, g_A: Jet,
                 twist: Jet, algebroid: AnchoredFrame, gamma: Jet, H_theta: Jet, dphi_dual: Jet):
        self.theta = theta  # 2-jet of the bivector theta^{mn}
        self.G = G  # Riemannian metric (0,2)
        self.metric = metric  # BlockDiag(G, G^{-1}) on TM (+) T*M
        self.g_A = g_A  # fiber metric on T*M: G^{-1} = -theta g theta
        self.twist = twist  # 3-form dB twisting the Koszul bracket
        self.algebroid = algebroid  # the cotangent Lie algebroid of theta
        self.gamma = gamma  # connection coefficients [c, a, b]
        self.H_theta = H_theta  # frame 3-form H'(theta., theta., theta.)
        self.dphi_dual = dphi_dual  # d_theta phi as dual-frame components


def build_symplectic(derived: Derived) -> SymplecticPackage:
    jets = derived.jets
    chart = derived.bg.chart
    pts = chart.sample_points()
    (g, dg), (B, dB) = jets.g, jets.B
    theta, dtheta = gtb.theta_from_b(B, dB, pts)  # raises SingularB when not invertible
    with np.errstate(all="ignore"):
        G = -tn.jet_contract("ia,ab,bj->ij", B, derived.ginv, B)
    tn.finite("dual metric G = -B g^-1 B", G, pts)
    gtb.check_positive_definite(G.value.transpose(2, 0, 1), pts)
    # g_A = G^{-1} = -theta g theta and G = g_A^{-1}, each without an
    # inversion; the jet of the partials of g_A by the product rule
    g_A = -tn.jet_contract("am,mk,kb->ab", theta, g, theta)
    dg_A = -(tn.jet_contract("amc,mk,kb->abc", dtheta, g, theta)
             + tn.jet_contract("am,mkc,kb->abc", theta, dg, theta)
             + tn.jet_contract("am,mk,kbc->abc", theta, g, dtheta))
    twist = dB.map(lambda t: tn.d_of_partials(t, 2))
    algebroid = gtb.cotangent_algebroid(chart, (theta, dtheta), twist)
    gamma = gtb.lc_connection(algebroid, g_A, dg_A, G)
    H_theta = gtb.theta_pullback(derived.h_prime, theta)
    dphi_dual = gtb.d_theta(jets.phi[1], theta)
    metric = GeneralizedMetric(chart, G, None, g_A)
    return SymplecticPackage((theta, dtheta), G, metric, g_A, twist, algebroid, gamma, H_theta,
                             dphi_dual)


def algebroid_curvature(frame: AnchoredFrame, gamma: Jet, G: np.ndarray):
    """(Ricci [a, b, p] over the coframe, G-trace scalar [p]) of an algebroid
    connection with jet gamma on ``frame``, for the values G[a, b, p] of the
    metric: Ric[c, b] = R0[a, c, a, b], the trace that ``gtb.frame_curvature``
    takes term by term."""
    ric = gtb.frame_curvature(*gamma, frame.anchor.value, frame.structure.value, "acab->cb")
    return ric, np.einsum("abp,abp->p", G, ric)


def symplectic_residuals(pkg: SymplecticPackage):
    """Residuals of the dual gravity equations at the chart's sample points,
    as float arrays [p], [a, b, p] and [a, b, p]:

    1. scalar:  R^theta(G^{-1}) - (1/2) <H'_th, H'_th>_G + 4 Lap_th(phi)
                - 4 |d_th phi|^2_G
    2. symm:    Ric^theta(xi,eta) - (1/2) <i_xi H'_th, i_eta H'_th>_G
                + (nab_xi d_th phi)(eta) + (nab_eta d_th phi)(xi)
    3. skew:    H'_th(xi,eta, G(d_th phi))
                - (1/2) (nab_{E^k} H'_th)(G(E_k), xi, eta)

    The covariant derivatives of d_th phi and H'_th are those of their jets
    (``gtb.covariant_derivative``)."""
    anchor = pkg.algebroid.anchor.value
    G, gamma = pkg.G.value, pkg.gamma.value
    w, H = pkg.dphi_dual, pkg.H_theta.value
    ric, scalar = algebroid_curvature(pkg.algebroid, pkg.gamma, G)
    nab_w = gtb.covariant_derivative(gamma, anchor, *w)  # [k, a, p] = (nab_{E_k} w)_a
    lap = np.einsum("akp,kap->p", G, nab_w)  # G^{ak} (nab_{E_k} w)_a
    norm2 = np.einsum("abp,ap,bp->p", G, w.value, w.value)
    # <i_{E^x} H'_th, i_{E^y} H'_th>_G, with i_{E^x} the slice of the first slot
    inner = rm.form_inner(H, H, G, 2)
    u = np.einsum("amp,mp->ap", G, w.value)  # G(d_th phi) as a frame section of the algebroid
    nabH = gtb.covariant_derivative(gamma, anchor, *pkg.H_theta)  # [k, a, b, c, p]
    return (
        scalar + 4.0 * lap - 0.5 * rm.form_inner(H, H, G) - 4.0 * norm2,
        ric + nab_w + nab_w.swapaxes(0, 1) - 0.5 * inner,
        np.einsum("abcp,cp->abp", H, u) - 0.5 * np.einsum("mkp,kmabp->abp", G, nabH),
    )


# ---------------------------------------------------------------------------
# equivalence of the two descriptions
# ---------------------------------------------------------------------------


VANISH_TOL = 1e-7


def theta_transported_connection(derived: Derived) -> gconn.GenConnection:
    """The dilaton connection of the block picture pulled back through the
    bivector shear e^{-B} o F_theta (``Derived.f_theta``); its metric is
    the block-diagonal package of G."""
    return gconn.theta_transport(derived.dilaton, *derived.f_theta, derived.symplectic.metric)


def dual_fields(derived: Derived) -> np.ndarray:
    """The three dual residuals as one float array [field, p]."""
    res1, res2, res3 = derived.dual_residuals
    count = len(res1)
    return np.concatenate([res1[None], res2.reshape(-1, count), res3.reshape(-1, count)])


def transport_identity_residual(derived: Derived) -> np.ndarray:
    """Ric_theta(psi, psi') - Ric(F psi, F psi') on the frame, at the
    chart's sample points: [a, b, p], for F = e^{-B} o F_theta and Ric that
    of the dilaton connection in the block picture."""
    F = derived.f_theta[0][0].value
    return (gconn.ricci(derived.theta_connection)
            - np.einsum("cdp,cap,dbp->abp", gconn.ricci(derived.dilaton), F, F))

