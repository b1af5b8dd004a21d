"""Metric-compatible, torsion-free connections on TM (+) T*M and their
curvature tensors, over the 2n-element generalized coordinate frame
e_A in {(d_mu, 0)} u {(0, dx^mu)}.

A connection is a coefficient array Gamma[C, A, B] with
nab_{e_A} e_B = Gamma^C_{AB} e_C, attached to a ``CourantFrame``: the
anchored frame of ``gtb.AnchoredFrame`` (anchor and frame brackets of the
ambient bracket) plus the constant pairing Gram matrix.  The frame calculus
(frame derivatives, connection action, covariant derivative of frame forms,
the torsion of a frame and the curvature R0 below) is that of
``gtb.AnchoredFrame``; this module adds what is specific to Courant
algebroids: the pairing, the left-Leibniz term of the bracket, the Gualtieri
torsion, the symmetrised curvature R and its pairing-dual traces.
Everything downstream is computed from those two ingredients, so the same
code serves the standard twisted bracket, its shear by e^B, and the
bivector-sheared bracket.

A connection is its coefficients at the chart's sample points: the values
Gamma[C, A, B, p] and the first partials dGamma[C, A, B, m, p] (a jet).  The
minimal connection and the block transport are built as expressions and
valued once, by ``tensors.jets_at``; the parameter family (``with_params``)
and the transports (``untwist``, ``theta_transport``) compute their jets
from the jets of their ingredients by ``tensors.jet_contract``, the product
rule applied to one einsum.  The brackets and the anchor of a picture, the
metric and the parameters stay expressions.  Everything read from a
connection is numbers at those points, each array ending in the point
axis: the torsion (``torsion_map``), the compatibility residuals
(``gtb.covariant_derivative``), R0 (``gtb.AnchoredFrame.curvature``), from
which R, the Ricci tensor and its traces follow by einsum, and the
characteristic field and the V tensor.  An expression that meets them (the
graph sections Psi_pm, the inverse Gram matrix, the twist) is valued at
the same points first (``tensors.values_at`` or ``tensors.jets_at``).

Curvature conventions:
    R0(psi,psi')phi = nab_psi nab_psi' phi - nab_psi' nab_psi phi
                      - nab_{[psi,psi']} phi
    R(phi',phi,psi,psi') = (1/2) { <R0(psi,psi')phi, phi'>
                                   + <R0(phi,phi')psi, psi'>
                                   + <nab_{e_l} psi, psi'> <nab_{e^l} phi, phi'> }
    Ric(psi,psi') = R(e^l, psi, e_l, psi'),  with e^l the pairing-dual frame
    scalar_E     = Ric(e^l, e_l)
    scalar_G     = Ric(G^{-1} e^l, e_l)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import expr as ex
from . import gtb
from . import riemann as rm
from . import tensors as tn
from .errors import InvalidLieAlgebra, NotAntisymmetric, SingularMetric
from .expr import Chart, Expr, add, esum, mul, neg
from .gtb import GeneralizedMetric
from .tensors import DOWN, UP, TensorField


def _zeros(shape) -> np.ndarray:
    a = np.empty(shape, dtype=object)
    a.reshape(-1)[:] = [ex.ZERO] * a.size
    return a


# ---------------------------------------------------------------------------
# the ambient bracket data on the frame
# ---------------------------------------------------------------------------


class CourantFrame(gtb.AnchoredFrame):
    """The generalized coordinate frame of a Courant structure: an anchored
    frame of rank 2n (anchor [A, mu], frame brackets [e_A, e_B] =
    structure^C_{AB} e_C) with the pairing.  The Gram matrix of the pairing
    is the constant block swap in every picture used here (all our
    isomorphisms are orthogonal)."""

    @property
    def dim2(self) -> int:
        return self.rank

    def swap(self, a: int) -> int:
        n = self.chart.dim
        return a + n if a < n else a - n

    def d_map_components(self, f: Expr) -> np.ndarray:
        """Frame components of the bracket differential: <Df, e_A> = rho(e_A).f,
        so (Df)^C = rho(e_{swap(C)}).f."""
        return np.array(
            [self.frame_derivative(self.swap(c), f) for c in range(self.dim2)], dtype=object
        )

    def rho_star_components(self, mu: int) -> np.ndarray:
        """Frame components of rho*(dx^mu) = g_E^{-1} rho^T dx^mu."""
        return np.array(
            [self.anchor[self.swap(c), mu] for c in range(self.dim2)], dtype=object
        )


def standard_algebroid(chart: Chart, H: TensorField) -> CourantFrame:
    """The twisted Dorfman bracket on the coordinate frame: anchor projects
    to the vector part; the only nonzero frame brackets are
    [(d_mu,0),(d_nu,0)] = (0, -H(d_mu, d_nu, .))."""
    n = chart.dim
    anchor = _zeros((2 * n, n))
    for m in range(n):
        anchor[m, m] = ex.ONE
    brackets = _zeros((2 * n, 2 * n, 2 * n))
    for m, v, l in itertools.product(range(n), repeat=3):
        brackets[n + l, m, v] = neg(H.comps[m, v, l])
    return CourantFrame(chart, anchor, brackets)


def conjugated_algebroid(chart: Chart, F: np.ndarray, Finv: np.ndarray,
                         source: CourantFrame) -> CourantFrame:
    """Pull the bracket of ``source`` back through the frame isomorphism F:
    [e_A, e_B]_new = F^{-1} [F e_A, F e_B]_source."""
    n = chart.dim
    dim2 = 2 * n
    anchor = np.array([source.anchor_of(F[:, a]) for a in range(dim2)], dtype=object)
    brackets = _zeros((dim2, dim2, dim2))
    for a in range(dim2):
        for b in range(dim2):
            br = _bracket_components(source, F[:, a], F[:, b])
            brackets[:, a, b] = tn.contract("cd,d->c", Finv, br)
    return CourantFrame(chart, anchor, brackets)


def _bracket_components(alg: CourantFrame, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """[psi, phi] of general sections: the anchored-frame bracket
    u^A v^B [e_A,e_B] + (rho(u).v^C) e_C - (rho(v).u^C) e_C plus the
    left-Leibniz term of the Courant bracket, the D<u, e_B> contributions
    from the left slot: [f e_A, .] = f [e_A, .] - (rho(.).f) e_A + <e_A, .> Df."""
    dim2 = alg.dim2
    coords = alg.chart.coords()
    n = alg.chart.dim
    out = alg.bracket(u, v)
    eta = gtb.pairing_gram(alg.chart)
    for c in range(dim2):
        # left-Leibniz correction <e_A, v> D(u^A), projected on e_c:
        # (Df)^c = rho(e_swap(c)).f
        sc = alg.swap(c)
        out[c] = add(
            out[c],
            esum(
                mul(
                    esum(mul(v[b], eta[a, b]) for b in range(dim2)),
                    mul(alg.anchor[sc, m], ex.differentiate(u[a], coords[m])),
                )
                for a in range(dim2)
                for m in range(n)
            ),
        )
    return out


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


@dataclass
class GenConnection:
    """Connection coefficients over the generalized frame at the chart's
    sample points, together with the bracket data and the generalized metric
    of its picture.  Its curvature and Ricci tensor are computed once, on
    first read (``gen_riemann``, ``ricci``)."""

    algebroid: CourantFrame
    gamma: np.ndarray  # [C, A, B, p]
    dgamma: np.ndarray  # [C, A, B, m, p]: the partial along x^m
    metric: GeneralizedMetric
    _riemann: np.ndarray | None = field(default=None, repr=False, compare=False)
    _ricci: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def chart(self) -> Chart:
        return self.algebroid.chart


def _valued(alg: CourantFrame, gamma: np.ndarray, metric: GeneralizedMetric) -> GenConnection:
    """The connection with coefficients gamma, an object array of Expr, by
    one ``tensors.jets_at`` at the chart's sample points."""
    return GenConnection(alg, *tn.jets_at(gamma, alg.chart.sample_points()), metric)


def pairing_compat_residual(conn: GenConnection) -> np.ndarray:
    """[A, B, C, p]: (nab_A <,>)(e_B, e_C) at the chart's sample points, the
    covariant derivative of the constant pairing Gram matrix (its partials
    are zero)."""
    pts = conn.chart.sample_points()
    alg = conn.algebroid
    eta = np.broadcast_to(gtb.pairing_gram(conn.chart)[..., None], (alg.dim2,) * 2 + (len(pts),))
    return gtb.covariant_derivative(conn.gamma, tn.values_at(alg.anchor, pts),
                                    eta, np.zeros(eta.shape[:2] + (conn.chart.dim, len(pts))))


def metric_compat_residual(conn: GenConnection) -> np.ndarray:
    """[A, B, C, p]: (nab_A G)(e_B, e_C) = rho(e_A).G(e_B,e_C) - G(nab_A e_B, e_C)
    - G(e_B, nab_A e_C) at the chart's sample points, from the jets of the
    Gram matrix."""
    return conn.algebroid.covariant_derivative_at(conn.gamma, conn.metric.gram(),
                                                  conn.chart.sample_points())


def torsion_map(alg: CourantFrame, gamma: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The Gualtieri torsion T[A, B, D, ...] of connection coefficients
    gamma[D, A, B, ...] on a frame with structure functions C[D, A, B, ...],
    over arrays with any trailing axes:
    T(A,B,D) = <nab_A e_B - nab_B e_A - [e_A,e_B], e_D> + <nab_D e_A, e_B>.
    It is linear, so applied to the values it gives T and applied to the
    partials it gives the partials of T."""
    swap = _swap(alg)
    return (np.einsum("cab...->abc...", gtb.frame_torsion(gamma, C)[swap])
            + np.einsum("bca...->abc...", gamma[swap]))


def gualtieri_torsion(conn: GenConnection) -> np.ndarray:
    """Totally antisymmetric torsion 3-form T[A, B, C, p] on the frame at the
    chart's sample points (``torsion_map``)."""
    pts = conn.chart.sample_points()
    alg = conn.algebroid
    return torsion_map(alg, conn.gamma, tn.values_at(alg.structure, pts))


def _swap(alg: CourantFrame) -> list:
    """The frame index permutation a -> swap(a): the pairing-dual frame."""
    return [alg.swap(a) for a in range(alg.dim2)]


def gen_riemann(conn: GenConnection) -> np.ndarray:
    """Curvature tensor R[D, C, A, B, p] = R(e_D, e_C, e_A, e_B) (the argument
    order of the defining formula: R(phi', phi, psi, psi')) at the chart's
    sample points p, computed on first read and kept.  With
    r0[D, C, A, B] = <R0(e_A,e_B)e_C, e_D>, the e_swap(D) component of R0,
        R[D, C, A, B] = (1/2) { r0[D, C, A, B] + r0[B, A, C, D]
                                + <nab_{e_l} e_A, e_B> <nab_{e^l} e_C, e_D> }."""
    if conn._riemann is None:
        alg = conn.algebroid
        swap = _swap(alg)
        r0 = alg.curvature(conn.gamma, conn.dgamma, conn.chart.sample_points())[swap]
        low = conn.gamma[swap]  # low[C, A, B] = <nab_{e_A} e_B, e_C>
        third = np.einsum("blap,dlcp->dcabp", low, low[:, swap])
        conn._riemann = 0.5 * (r0 + np.einsum("bacdp->dcabp", r0) + third)
    return conn._riemann


def ricci(conn: GenConnection) -> np.ndarray:
    """Ric[C, B, p] = R(e^l, e_C, e_l, e_B), symmetric; computed once."""
    if conn._ricci is None:
        conn._ricci = np.einsum("lclbp->cbp", gen_riemann(conn)[_swap(conn.algebroid)])
    return conn._ricci


def scalar_E(conn: GenConnection) -> np.ndarray:
    """Pairing trace of the Ricci tensor, at each sample point."""
    return np.einsum("llp->p", ricci(conn)[_swap(conn.algebroid)])


def scalar_G(conn: GenConnection) -> np.ndarray:
    """Generalized-metric trace of the Ricci tensor, at each sample point."""
    ginv = tn.values_at(conn.metric.gram_inverse(), conn.chart.sample_points())
    return np.einsum("lmp,mlp->p", ginv, ricci(conn))


def divergence_section(conn: GenConnection, psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """Div(psi)[..., p] = <nab_{e_l} psi, e^l>, the e_l component of
    nab_{e_l} psi, at the chart's sample points, for sections given by
    their values psi[A, ..., p] and partials dpsi[A, ..., m, p] there."""
    anchor = tn.values_at(conn.algebroid.anchor, conn.chart.sample_points())
    return (np.einsum("llbp,b...p->...p", conn.gamma, psi)  # Gamma^l_{lb} psi^b
            + np.einsum("lmp,l...mp->...p", anchor, dpsi))  # rho(e_l).psi^l


def char_vf(conn: GenConnection) -> np.ndarray:
    """Characteristic vector field [m, p]: f -> Div(Df), read off on the
    coordinate functions, at the chart's sample points."""
    chart = conn.chart
    alg = conn.algebroid
    sections = np.array([alg.d_map_components(chart.coord(m)) for m in range(chart.dim)]).T
    return divergence_section(conn, *tn.jets_at(sections, chart.sample_points()))


def v_tensor(conn: GenConnection) -> np.ndarray:
    """V[i, j, k, p] = <nab_{rho* xi} rho* eta, rho* zeta> on the coordinate
    coframe, at the chart's sample points; antisymmetric in the last two
    slots.  With R[C, i] the frame components of rho*(dx^i),
        nab_{R_i} R_j = R_i^A R_j^B Gamma^C_{AB} + rho(R_i).R_j^C,
    and its pairing with R_k is its contraction with anchor[C, k]."""
    chart = conn.chart
    pts = chart.sample_points()
    alg = conn.algebroid
    R, dR = tn.jets_at(np.array([alg.rho_star_components(m) for m in range(chart.dim)]).T, pts)
    anchor = tn.values_at(alg.anchor, pts)
    nab = (np.einsum("aip,bjp,cabp->cijp", R, R, conn.gamma)
           + np.einsum("aip,axp,cjxp->cijp", R, anchor, dR))
    return np.einsum("cijp,ckp->ijkp", nab, anchor)


def v_trace(conn: GenConnection, h: TensorField) -> np.ndarray:
    """Partial trace [l, p] of the V tensor against the inverse of the
    induced form h: Z -> V(dx^k, h^{-1}(d_k), h^{-1}(Z)), at the chart's
    sample points."""
    hinv = tn.values_at(tn.matrix_inverse(h.comps), conn.chart.sample_points())
    return np.einsum("kabp,akp,blp->lp", v_tensor(conn), hinv, hinv)


def ricci_compat_residual(conn: GenConnection) -> np.ndarray:
    """[i, j, p]: Ric(Psi_+(d_i), Psi_-(d_j)) at the chart's sample points,
    the off-block part of the Ricci tensor with respect to the eigenbundle
    splitting of the metric."""
    gm = conn.metric
    chart = conn.chart
    pts = chart.sample_points()
    plus = [gm.psi_plus(_coord_field(chart, i)).components() for i in range(chart.dim)]
    minus = [gm.psi_minus(_coord_field(chart, j)).components() for j in range(chart.dim)]
    return np.einsum("abp,iap,jbp->ijp", ricci(conn), tn.values_at(plus, pts),
                     tn.values_at(minus, pts))


def _coord_field(chart: Chart, i: int) -> TensorField:
    return tn.from_function(chart, (UP,), lambda m: ex.ONE if m == i else ex.ZERO)


def torsion_terms(conn: GenConnection) -> tuple[np.ndarray, np.ndarray]:
    """(nabT, TT), each [X, Y, Z, D, p] at the chart's sample points:
    nabT = (nab_{e_X} T)(e_Y, e_Z, e_D), from T and its partials
    (``torsion_map`` of the jets of Gamma and C), and
    TT = T(e_Y, e_Z, e^F) T(e_X, e_F, e_D)."""
    pts = conn.chart.sample_points()
    alg = conn.algebroid
    C, dC = tn.jets_at(alg.structure, pts)
    T = torsion_map(alg, conn.gamma, C)
    nabT = gtb.covariant_derivative(conn.gamma, tn.values_at(alg.anchor, pts), T,
                                    torsion_map(alg, conn.dgamma, dC))
    return nabT, np.einsum("yzfp,xfdp->xyzdp", T[:, :, _swap(alg)], T)


def bianchi_residual(conn: GenConnection) -> np.ndarray:
    """Residual [D, A, B, C, p] of the algebraic Bianchi identity with torsion
    terms at the chart's sample points:
    <R(e_A,e_B)e_C + cyc, e_D>
      - (1/2){ sum_cyc [ (nab_A T)(B,C,D) - T(A, T-op(B,C), D) ]
               - (nab_D T)(A,B,C) }
    with the torsion terms of ``torsion_terms``."""
    nabT, TT = torsion_terms(conn)
    S = nabT - TT
    torsion = (np.einsum("abcdp->dabcp", S) + np.einsum("bcadp->dabcp", S)
               + np.einsum("cabdp->dabcp", S) - nabT)
    r = gen_riemann(conn)
    cyclic = np.einsum("dcabp->dabcp", r) + r + np.einsum("dbcap->dabcp", r)
    return cyclic - 0.5 * torsion


# ---------------------------------------------------------------------------
# construction: minimal connection, parameter family, dilaton choice
# ---------------------------------------------------------------------------


def _block_metric(lc: rm.Christoffel) -> GeneralizedMetric:
    """BlockDiag(g, g^{-1}) for the metric and inverse that lc carries."""
    return GeneralizedMetric(lc.metric, None, lc.metric_inverse)


def _block_transport(lc: rm.Christoffel) -> np.ndarray:
    """Coefficients of the block-diagonal transport by the chart connection."""
    n = lc.chart.dim
    gamma = _zeros((2 * n,) * 3)
    for k, i, j in itertools.product(range(n), repeat=3):
        gamma[k, i, j] = lc.coeffs[k, i, j]
        gamma[n + k, i, n + j] = neg(lc.coeffs[j, i, k])
    return gamma


def minimal_connection(lc: rm.Christoffel, H_prime: TensorField) -> GenConnection:
    """The distinguished torsion-free metric connection for the block
    diagonal metric of g (the metric of the chart connection lc) and the
    bracket twisted by the closed 3-form H_prime (``_minimal_coefficients``)."""
    return _valued(standard_algebroid(lc.chart, H_prime), _minimal_coefficients(lc, H_prime),
                   _block_metric(lc))


def _minimal_coefficients(lc: rm.Christoffel, H_prime: TensorField) -> np.ndarray:
    """The coefficients of the minimal connection, as expressions:

    nab^0_{(X,xi)} (Y,eta) =
      ( nabLC_X Y + (1/6) g^{-1} H'(g^{-1} xi, Y, .) - (1/3) g^{-1} H'(X, g^{-1} eta, .),
        nabLC_X eta - (1/3) H'(X, Y, .) + (1/6) H'(g^{-1} xi, g^{-1} eta, .) )."""
    n = lc.chart.dim
    ginv = lc.metric_inverse.comps
    Hc = H_prime.comps
    gamma = _block_transport(lc)
    # g^{-1} H'(X, g^{-1} eta, .), g^{-1} H'(g^{-1} xi, Y, .), H'(g^{-1} xi, g^{-1} eta, .)
    vec_form = tn.contract("la,vb,mba->mvl", ginv, ginv, Hc)
    form_vec = tn.contract("la,mb,bva->mvl", ginv, ginv, Hc)
    form_form = tn.contract("ma,vb,abl->mvl", ginv, ginv, Hc)
    for m, v, l in itertools.product(range(n), repeat=3):
        gamma[n + l, m, v] = add(gamma[n + l, m, v], mul(-1.0 / 3.0, Hc[m, v, l]))
        gamma[l, m, n + v] = add(gamma[l, m, n + v], mul(-1.0 / 3.0, vec_form[m, v, l]))
        gamma[l, n + m, v] = add(gamma[l, n + m, v], mul(1.0 / 6.0, form_vec[m, v, l]))
        gamma[n + l, n + m, n + v] = add(gamma[n + l, n + m, n + v],
                                         mul(1.0 / 6.0, form_form[m, v, l]))
    return gamma


def block_lc_connection(lc: rm.Christoffel, H_prime: TensorField) -> GenConnection:
    """The block-diagonal transport by the chart connection lc alone
    (metric compatible but torsionful: its torsion 3-form is the anchor
    pullback of H_prime)."""
    return _valued(standard_algebroid(lc.chart, H_prime), _block_transport(lc), _block_metric(lc))


@dataclass
class ConnParams:
    """Validated parameter pair for the affine family of torsion-free
    metric connections: J fully contravariant, W fully covariant, both
    antisymmetric in their last two slots with vanishing cyclic sum."""

    J: TensorField
    W: TensorField


def _alt3(t: TensorField) -> TensorField:
    return tn.antisymmetrize(t, (0, 1, 2))


def validate_params(J: TensorField, W: TensorField) -> ConnParams:
    """Check the antisymmetry of a parameter pair in the last two slots,
    and restore the cyclic constraint by T -> T - Alt(T), which zeroes the
    cyclic sum of a tensor skew in its last two slots."""
    if J.variance != (UP, UP, UP) or W.variance != (DOWN, DOWN, DOWN):
        raise NotAntisymmetric("J must be fully contravariant, W fully covariant")
    for t, name in ((J, "J"), (W, "W")):
        swapped = np.swapaxes(t.comps, 1, 2)
        diff = [add(a, b) for a, b in zip(t.comps.reshape(-1), swapped.reshape(-1))]
        worst, _ = ex.max_abs_on_points(diff, t.chart.sample_points())
        if not worst <= 1e-10:
            raise NotAntisymmetric(f"{name} not antisymmetric in its last two slots ({worst:.3e})")
    return ConnParams(J - _alt3(J), W - _alt3(W))


def param_tensor_frame(params: ConnParams, metric: GeneralizedMetric):
    """The jet (K[A,B,C,p], dK[A,B,C,m,p]) at the chart's sample points of
    the frame components of the deformation tensor built from (J, W):

    K((X,xi),(Y,eta),(Z,zeta)) =
        W(g1 xi, Y, Z) + W(X, g1 eta, Z) + W(X, Y, g1 zeta) + W(g1 xi, g1 eta, g1 zeta)
      - J(g X, eta, zeta) - J(xi, g Y, zeta) - J(xi, eta, g Z) - J(g X, g Y, g Z)

    with g = metric.g and g1 = g^{-1}.  Exactly one term survives for each
    frame type combination; each is a ``tensors.jet_contract`` of the jets
    of g or g1 and of J or W."""
    chart = metric.chart
    n = chart.dim
    pts = chart.sample_points()
    g, ginv, J, W = (tn.jets_at(t.comps, pts) for t in (metric.g, metric.g_inv, params.J, params.W))
    K = np.zeros((2 * n,) * 3 + (len(pts),))
    dK = np.zeros((2 * n,) * 3 + (n, len(pts)))
    for forms in itertools.product((False, True), repeat=3):
        # W survives on an odd number of form legs, with g^{-1} on them;
        # -J on an even number, with g on the vector legs
        odd = sum(forms) % 2 == 1
        legs, slots = [], ""
        for out, s, is_form in zip("ijk", "abc", forms):
            if is_form == odd:
                legs.append(f"{out}{s}" if odd else f"{s}{out}")
            slots += s if is_form == odd else out
        leg, t = (ginv, W) if odd else (g, J)
        block, dblock = tn.jet_contract(",".join(legs + [slots]) + "->ijk", *[leg] * len(legs), t)
        where = np.ix_(*[range(n, 2 * n) if f else range(n) for f in forms])
        K[where], dK[where] = (block, dblock) if odd else (-block, -dblock)
    return K, dK


def trace_identity_residual(conn: GenConnection, K: np.ndarray) -> np.ndarray:
    """K(g_E^{-1} K(., e_l, e_m), e^m, e^l) - 2 K(e^m, g_E^{-1} K(e_l, e_m, .), e^l)
    at each sample point, identically zero for any parameter tensor with the
    cyclic property, from the values K[A, B, C, p] there.  Written as the
    equivalent full contraction
    K(e^n, e^m, e^l) { K(e_n, e_l, e_m) - 2 K(e_l, e_n, e_m) }."""
    swap = _swap(conn.algebroid)
    up = K[np.ix_(swap, swap, swap)]
    return np.einsum("nmlp,nlmp->p", up, K - 2.0 * np.einsum("lnmp->nlmp", K))


def with_params(base: GenConnection, params: ConnParams) -> GenConnection:
    """base + g_E^{-1} K(., ., .): every torsion-free metric connection for
    the block-diagonal metric arises this way.  Gamma^C_{AB} gains
    K[A, B, swap(C)], and its partials gain those of K."""
    swap = _swap(base.algebroid)
    K, dK = param_tensor_frame(params, base.metric)
    return GenConnection(base.algebroid,
                         base.gamma + np.einsum("abc...->cab...", K[:, :, swap]),
                         base.dgamma + np.einsum("abc...->cab...", dK[:, :, swap]),
                         base.metric)


def dilaton_params(g: TensorField, phi) -> ConnParams:
    """J = 0 and W(X,Y,Z) = (1/(n-1)){ g(X,Y) <dphi, Z> - g(X,Z) <dphi, Y> }:
    the choice with vanishing characteristic vector field and partial trace
    exactly dphi.  The g-trace of the brace is (n-1) dphi, which fixes the
    normalization; needs n > 1."""
    chart = g.chart
    n = chart.dim
    if n < 2:
        raise SingularMetric("the dilaton trace condition needs a chart of dimension > 1")
    dphi = tn.d_scalar(chart, phi)
    W = np.empty((n, n, n), dtype=object)
    for i, j, k in itertools.product(range(n), repeat=3):
        W[i, j, k] = mul(
            1.0 / (n - 1),
            add(mul(g.comps[i, j], dphi.comps[k]), neg(mul(g.comps[i, k], dphi.comps[j]))),
        )
    return ConnParams(
        tn.zeros(chart, (UP, UP, UP)), TensorField(chart, (DOWN, DOWN, DOWN), W)
    )


def dilaton_connection(minimal: GenConnection, B: TensorField, phi) -> GenConnection:
    """The connection of the flatness/compatibility dictionary for the
    background (g, B, phi), from the minimal connection of g with twist
    H' = H + dB: the dilaton parameters are added in that block-diagonal
    picture, and the result is sheared back by e^B so that it lives on the
    H-twisted bracket and is compatible with the metric of the pair (g, B)."""
    return untwist(dilaton_connection_twisted(minimal, phi), B)


def dilaton_connection_twisted(minimal: GenConnection, phi) -> GenConnection:
    """Same connection, left in the block-diagonal picture."""
    return with_params(minimal, dilaton_params(minimal.metric.g, phi))


# ---------------------------------------------------------------------------
# transport along bundle isomorphisms
# ---------------------------------------------------------------------------


def transport_connection(conn: GenConnection, F: np.ndarray, Finv: np.ndarray,
                         algebroid: CourantFrame, metric: GeneralizedMetric) -> GenConnection:
    """Pull a connection back through a frame isomorphism F into a new
    bracket picture: nab'_psi psi' = F^{-1}( nab_{F psi} F(psi') ), so
        Gamma'^G_{AB} = F^{-1 G}_E ( F^C_A F^D_B Gamma^E_{CD}
                                     + F^C_A rho_src(e_C).F^E_B ).
    F and F^{-1} are object arrays of Expr; the jets of the result follow
    from those of F, F^{-1}, the frame derivatives rho_src(e_C).F and the
    source coefficients by ``tensors.jet_contract``."""
    src = conn.algebroid
    pts = conn.chart.sample_points()
    along = np.array([[[src.frame_derivative(c, f) for f in row] for row in F]
                      for c in range(src.dim2)], dtype=object)  # [C, E, B]
    Fj, Finvj, alongj = (tn.jets_at(m, pts) for m in (F, Finv, along))
    # F^C_A F^D_B Gamma^E_{CD}, summed over C first
    pulled = tn.jet_contract("ca,ecd->ead", Fj, (conn.gamma, conn.dgamma))
    pulled = tn.jet_contract("ead,db->eab", pulled, Fj)
    derivs = tn.jet_contract("ca,ceb->eab", Fj, alongj)
    inner = (pulled[0] + derivs[0], pulled[1] + derivs[1])
    return GenConnection(algebroid, *tn.jet_contract("ge,eab->gab", Finvj, inner), metric)


def untwist(conn: GenConnection, B: TensorField) -> GenConnection:
    """Shear a connection by e^B: if the input is torsion-free and metric
    for BlockDiag(g, g^{-1}) with bracket twist H', the output is
    torsion-free and metric for the pair (g, B) with twist H' - dB."""
    gm_new = GeneralizedMetric(conn.metric.g, B, conn.metric.g_inv)
    F = gm_new.shear_matrix(-1)  # matrix of e^{-B}
    Finv = gm_new.shear_matrix(+1)
    H_new = _current_twist(conn) - tn.exterior_derivative(B)
    alg_new = standard_algebroid(conn.chart, H_new)
    return transport_connection(conn, F, Finv, alg_new, gm_new)


def _current_twist(conn: GenConnection) -> TensorField:
    """Recover the twist 3-form from the standard-frame brackets."""
    chart = conn.chart
    n = chart.dim
    comps = np.empty((n, n, n), dtype=object)
    for m, v, l in itertools.product(range(n), repeat=3):
        comps[m, v, l] = neg(conn.algebroid.structure[n + l, m, v])
    return TensorField(chart, (DOWN, DOWN, DOWN), comps)


def theta_transport(conn: GenConnection, theta: TensorField, B: TensorField,
                    metric: GeneralizedMetric) -> GenConnection:
    """Pull a connection on the standard twisted bracket back through the
    bivector shear F_theta; the result lives on the sheared bracket and is
    compatible with ``metric``, BlockDiag(G, G^{-1}) for G = -B g^{-1} B."""
    F, Finv = gtb.theta_twist_matrices(theta, B)
    alg_new = conjugated_algebroid(conn.chart, F, Finv, conn.algebroid)
    return transport_connection(conn, F, Finv, alg_new, metric)


# ---------------------------------------------------------------------------
# dimension of the parameter space
# ---------------------------------------------------------------------------


def lc_parameter_space_dim(n: int) -> int:
    """Dimension of the null space of the pointwise linear constraints on a
    frame 3-tensor K: skew in the last two slots, compatibility with the
    flat block-diagonal metric (K(., ., tau .) pairing condition), and
    vanishing cyclic sum.  Equals (2/3) n (n^2 - 1)."""
    dim2 = 2 * n

    def swap(a):
        return a + n if a < n else a - n

    def flat(a, b, c):
        return (a * dim2 + b) * dim2 + c

    rows = []
    for a, b, c in itertools.product(range(dim2), repeat=3):
        r1 = np.zeros(dim2 ** 3)
        r1[flat(a, b, c)] += 1
        r1[flat(a, c, b)] += 1
        rows.append(r1)
        r2 = np.zeros(dim2 ** 3)
        r2[flat(a, b, swap(c))] += 1
        r2[flat(a, c, swap(b))] += 1
        rows.append(r2)
        r3 = np.zeros(dim2 ** 3)
        r3[flat(a, b, c)] += 1
        r3[flat(b, c, a)] += 1
        r3[flat(c, a, b)] += 1
        rows.append(r3)
    rank = np.linalg.matrix_rank(np.array(rows))
    return dim2 ** 3 - rank


# ---------------------------------------------------------------------------
# quadratic Lie algebras: the zero-anchor case in exact arithmetic
# ---------------------------------------------------------------------------


def _frac_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in rows]


def _frac_matmul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _frac_inverse(m):
    k = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(m)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] != 0), None)
        if pivot is None:
            raise InvalidLieAlgebra("pairing matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def _leading_minors(m):
    k = len(m)
    minors = []
    for size in range(1, k + 1):
        sub = [row[:size] for row in m[:size]]
        minors.append(_frac_det(sub))
    return minors


def _frac_det(m):
    k = len(m)
    if k == 1:
        return m[0][0]
    det = Fraction(0)
    for j in range(k):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _frac_det(minor)
        det += term if j % 2 == 0 else -term
    return det


@dataclass
class QuadraticLieAlgebra:
    """Finite-dimensional quadratic Lie algebra with rational structure
    constants c[k][i][j] ([b_i, b_j] = c^k_{ij} b_k), an invariant pairing,
    and a chosen maximal positive-definite subspace (rows of vplus_basis)."""

    dim: int
    structure: list
    pairing: list
    vplus_basis: list

    def __post_init__(self):
        d = self.dim
        c = [[[Fraction(v) for v in row] for row in plane] for plane in self.structure]
        P = _frac_matrix(self.pairing)
        V = _frac_matrix(self.vplus_basis)
        self.structure, self.pairing, self.vplus_basis = c, P, V
        for k, i, j in itertools.product(range(d), repeat=3):
            if c[k][i][j] != -c[k][j][i]:
                raise InvalidLieAlgebra("structure constants not antisymmetric")
        for i, j, k, l in itertools.product(range(d), repeat=4):
            lhs = sum((c[m][j][k] * c[l][i][m] for m in range(d)), Fraction(0))
            rhs = sum((c[m][i][j] * c[l][m][k] + c[m][i][k] * c[l][j][m] for m in range(d)), Fraction(0))
            if lhs != rhs:
                raise InvalidLieAlgebra("Jacobi identity fails")
        for i in range(d):
            for j in range(d):
                if P[i][j] != P[j][i]:
                    raise InvalidLieAlgebra("pairing not symmetric")
        self.pairing_inv = _frac_inverse(P)
        for i, j, k in itertools.product(range(d), repeat=3):
            val = sum((c[m][i][j] * P[m][k] + c[m][i][k] * P[j][m] for m in range(d)), Fraction(0))
            if val != 0:
                raise InvalidLieAlgebra("pairing not invariant under the adjoint action")
        # positive definiteness of V+ and negativity of its orthogonal complement
        gram_plus = _frac_matmul(_frac_matmul(V, P), [list(r) for r in zip(*V)])
        if any(m <= 0 for m in _leading_minors(gram_plus)):
            raise InvalidLieAlgebra("chosen subspace is not positive definite")
        comp = self._complement_basis()
        gram_minus = _frac_matmul(_frac_matmul(comp, P), [list(r) for r in zip(*comp)])
        # negative definite iff the leading minors alternate: (-1)^s m_s > 0
        minors = _leading_minors(gram_minus)
        if any((m >= 0 if s % 2 == 1 else m <= 0) for s, m in enumerate(minors, start=1)):
            raise InvalidLieAlgebra("orthogonal complement is not negative definite")

    def _complement_basis(self):
        """Exact nullspace basis of V P (the pairing-orthogonal complement)."""
        d = self.dim
        VP = _frac_matmul(self.vplus_basis, self.pairing)
        rows = [list(r) for r in VP]
        pivots = []
        r = 0
        for c_ in range(d):
            pivot = next((i for i in range(r, len(rows)) if rows[i][c_] != 0), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            rows[r] = [v / rows[r][c_] for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c_]:
                    f = rows[i][c_]
                    rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
            pivots.append(c_)
            r += 1
        free = [c_ for c_ in range(d) if c_ not in pivots]
        basis = []
        for fc in free:
            vec = [Fraction(0)] * d
            vec[fc] = Fraction(1)
            for ri, pc in enumerate(pivots):
                vec[pc] = -rows[ri][fc]
            basis.append(vec)
        return basis

    def projector_plus(self):
        """Pairing-orthogonal projector onto the positive subspace."""
        V = self.vplus_basis
        P = self.pairing
        Vt = [list(r) for r in zip(*V)]
        core = _frac_inverse(_frac_matmul(_frac_matmul(V, P), Vt))
        return _frac_matmul(Vt, _frac_matmul(core, _frac_matmul(V, P)))


def qla_lc(qla: QuadraticLieAlgebra):
    """Exact coefficients of the canonical torsion-free metric connection
    on a quadratic Lie algebra with a chosen splitting:

    <nab_x y, z> = (1/3)<[x+,y+],z+> + (1/3)<[x-,y-],z->
                   + <[x-,y+],z+> + <[x+,y-],z->.

    Returns Gamma[c][a][b] with nab_{b_a} b_b = Gamma^c_{ab} b_c, all
    Fractions."""
    d = qla.dim
    c = qla.structure
    P = qla.pairing
    Pp = qla.projector_plus()
    Pm = [[Fraction(int(i == j)) - Pp[i][j] for j in range(d)] for i in range(d)]

    def bracket(u, v):
        return [
            sum((c[k][i][j] * u[i] * v[j] for i in range(d) for j in range(d)), Fraction(0))
            for k in range(d)
        ]

    def pair(u, v):
        return sum((u[i] * P[i][j] * v[j] for i in range(d) for j in range(d)), Fraction(0))

    basis = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]

    def proj(M, u):
        return [sum((M[i][j] * u[j] for j in range(d)), Fraction(0)) for i in range(d)]

    lowered = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]  # [a][b][e]
    for a in range(d):
        xp, xm = proj(Pp, basis[a]), proj(Pm, basis[a])
        for b in range(d):
            yp, ym = proj(Pp, basis[b]), proj(Pm, basis[b])
            for e in range(d):
                zp, zm = proj(Pp, basis[e]), proj(Pm, basis[e])
                lowered[a][b][e] = (
                    Fraction(1, 3) * pair(bracket(xp, yp), zp)
                    + Fraction(1, 3) * pair(bracket(xm, ym), zm)
                    + pair(bracket(xm, yp), zp)
                    + pair(bracket(xp, ym), zm)
                )
    Pinv = qla.pairing_inv
    gamma = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]  # [cc][a][b]
    for cc, a, b in itertools.product(range(d), repeat=3):
        gamma[cc][a][b] = sum((Pinv[cc][e] * lowered[a][b][e] for e in range(d)), Fraction(0))
    return gamma


def qla_torsion(qla: QuadraticLieAlgebra, gamma):
    """Exact torsion 3-form T(a,b,e) = <nab_a b - nab_b a - [a,b], e>
    + <nab_e a, b> (zero anchor)."""
    d = qla.dim
    P = qla.pairing
    c = qla.structure

    def low(a, b, e):
        return sum((gamma[cc][a][b] * P[cc][e] for cc in range(d)), Fraction(0))

    T = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for a, b, e in itertools.product(range(d), repeat=3):
        br = sum((c[m][a][b] * P[m][e] for m in range(d)), Fraction(0))
        T[a][b][e] = low(a, b, e) - low(b, a, e) - br + low(e, a, b)
    return T


def qla_compat_residual(qla: QuadraticLieAlgebra, gamma):
    """Exact pairing-compatibility residual <nab_a b, e> + <b, nab_a e>."""
    d = qla.dim
    P = qla.pairing

    def low(a, b, e):
        return sum((gamma[cc][a][b] * P[cc][e] for cc in range(d)), Fraction(0))

    return [
        [[low(a, b, e) + low(a, e, b) for e in range(d)] for b in range(d)]
        for a in range(d)
    ]
