"""Metric-compatible, torsion-free connections on TM (+) T*M and their
curvature tensors, over the 2n-element generalized coordinate frame
e_A in {(d_mu, 0)} u {(0, dx^mu)}.

A connection is a coefficient array Gamma[C, A, B] with
nab_{e_A} e_B = Gamma^C_{AB} e_C, attached to the ``gtb.AnchoredFrame`` of
its bracket (anchor and frame brackets); the pairing is the permutation
``gtb.dual_index`` in every picture used here (all our isomorphisms are
orthogonal).  The frame calculus (covariant derivative, torsion and the
curvature R0 below) is that of ``gtb``; this module adds what is specific
to Courant algebroids: the pairing, the Gualtieri torsion, the symmetrised
curvature R and its pairing-dual traces.  Everything downstream is
computed from those two ingredients, so the same code serves the block
picture (the bracket twisted by H' = H + dB, the metric BlockDiag(g, g^{-1}))
and the bivector-sheared bracket, whose structure functions are
``gtb.dorfman`` pulled back through e^{-B} o F_theta
(``conjugated_algebroid``).  No connection here is sheared by e^B: e^B
carries the block picture to the H-twisted bracket with the metric of the
pair (g, B), and torsion, curvature and their traces with it, so the
shear would add work and roundoff (growing like |B|^4 eps for a constant
B) but no content.

A connection is its coefficients at the chart's sample points, the jet
``gamma`` of Gamma[C, A, B].  Everything it is built from is a jet too
(``tensors.Jet``): the chart connection and H' for the block transport,
which the minimal connection makes torsion-free, the deformation tensor
K of the family (``with_params``; ``param_tensor_frame`` contracts it
from a parameter pair and the metric, ``dilaton_connection`` writes the
dilaton's in closed form), the 2-jet of the bivector shear for its
transport (``theta_transport``), the anchor and the brackets of each
picture.  They are combined by ``tensors.jet_contract``, the product
rule applied to one einsum, or by broadcasting where no index is
summed.  Everything read from a connection is numbers at those points,
each array ending in the point axis: the torsion (``torsion_map``), the
compatibility residuals (``gtb.covariant_derivative``), R0 and its
traces (``gtb.frame_curvature``), from which R, and without R the Ricci
tensor and its traces, follow by einsum, and the characteristic field.
The random parameter pair of the curvature suite is the jet of random
polynomials (``tensors.random_polynomial_jets``), checked by
``validate_params``.

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

import numpy as np

from . import gtb
from . import riemann as rm
from . import tensors as tn
from .errors import NotAntisymmetric
from .expr import Chart
from .gtb import AnchoredFrame, GeneralizedMetric
from .tensors import Jet


# ---------------------------------------------------------------------------
# the ambient bracket data on the frame
# ---------------------------------------------------------------------------


def standard_algebroid(chart: Chart, H: Jet) -> AnchoredFrame:
    """The twisted Dorfman bracket on the coordinate frame, for the jet of
    the twist: anchor projects to the vector part; the only nonzero frame
    brackets are [(d_mu,0),(d_nu,0)] = (0, -H(d_mu, d_nu, .))."""
    n = chart.dim
    anchor = tn.constant_jet(np.concatenate([np.eye(n), np.zeros((n, n))]), chart)
    brackets = tn.constant_jet(np.zeros((2 * n,) * 3), chart)
    brackets[n:, :n, :n] = -tn.jet_contract("mvl->lmv", H)  # [n + l, m, v] = -H[m, v, l]
    return AnchoredFrame(chart, anchor, brackets)


def conjugated_algebroid(chart: Chart, F: tuple[Jet, Jet], Finv: Jet, H: Jet) -> AnchoredFrame:
    """Pull the H-twisted Dorfman bracket back through the frame
    isomorphism with 2-jet F: [e_A, e_B]_new = F^{-1} [F e_A, F e_B]^H, the
    brackets of all pairs of columns of F in one ``gtb.dorfman`` call, the
    pairs side by side on the point axis (``tensors.on_points``); the
    anchor of e_A is the vector part of F e_A."""
    Fj, dF = F
    rank, count = len(Fj), Fj.value.shape[-1]
    cols = [(Fj[:, A], dF[:, A]) for A in range(rank)]  # the 2-jet of column A
    psi = [tn.on_points(*[cols[A][k] for A in range(rank) for _ in range(rank)]) for k in (0, 1)]
    phi = [tn.on_points(*[cols[B][k] for _ in range(rank) for B in range(rank)]) for k in (0, 1)]
    out = gtb.dorfman(psi, phi, tn.on_points(*[H] * rank ** 2))  # [C, (A, B, p)]
    brackets = Jet(out.value.reshape((rank,) * 3 + (count,)),
                   out.partial.reshape(rank, chart.dim, rank, rank, count).transpose(0, 2, 3, 1, 4))
    anchor = Fj[:chart.dim].map(lambda t: t.swapaxes(0, 1))
    return AnchoredFrame(chart, anchor, tn.jet_contract("cd,dab->cab", Finv, brackets))


# ---------------------------------------------------------------------------
# connections
# ---------------------------------------------------------------------------


# Records are plain classes: a NamedTuple or a dataclass builds methods from generated code at import.
class GenConnection:
    """Connection coefficients over the generalized frame at the chart's
    sample points, together with the bracket data and the generalized metric
    of its picture.  Its Ricci tensor (``ricci``) is contracted term by term
    with its trace, so it needs no curvature tensor; the curvature tensor
    (``gen_riemann``) is built only for the checks that read it.  Each is
    computed once, on first read."""

    def __init__(self, algebroid: AnchoredFrame, gamma: Jet, metric: GeneralizedMetric):
        self.algebroid = algebroid
        self.gamma = gamma  # [C, A, B]
        self.metric = metric
        self._riemann = self._ricci = None

    @property
    def chart(self) -> Chart:
        return self.algebroid.chart


def _connection(stage: str, alg: AnchoredFrame, gamma: Jet,
                metric: GeneralizedMetric) -> GenConnection:
    """The connection with coefficient jet gamma, after checking that it is
    finite (``tensors.finite``, which names ``stage``)."""
    return GenConnection(alg, tn.finite(stage, gamma, alg.chart.sample_points()), metric)


def pairing_compat_residual(conn: GenConnection) -> np.ndarray:
    """[A, B, C, p]: (nab_A <,>)(e_B, e_C) at the chart's sample points, the
    covariant derivative of the constant pairing Gram matrix."""
    eta = tn.constant_jet(gtb.pairing_gram(conn.chart), conn.chart)
    return gtb.covariant_derivative(conn.gamma.value, conn.algebroid.anchor.value, *eta)


def metric_compat_residual(conn: GenConnection) -> np.ndarray:
    """[A, B, C, p]: (nab_A G)(e_B, e_C) = rho(e_A).G(e_B,e_C) - G(nab_A e_B, e_C)
    - G(e_B, nab_A e_C) at the chart's sample points, from the jet of the
    Gram matrix."""
    return gtb.covariant_derivative(conn.gamma.value, conn.algebroid.anchor.value,
                                    *conn.metric.gram())


def torsion_map(alg: AnchoredFrame, gamma: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The Gualtieri torsion T[A, B, D, ...] of connection coefficients
    gamma[D, A, B, ...] on a frame with structure functions C[D, A, B, ...],
    over arrays with any trailing axes:
    T(A,B,D) = <nab_A e_B - nab_B e_A - [e_A,e_B], e_D> + <nab_D e_A, e_B>.
    It is linear, so applied to the values it gives T and applied to the
    partials it gives the partials of T."""
    swap = _swap(alg)
    return (tn.einsum("cab...->abc...", gtb.frame_torsion(gamma, C)[swap])
            + tn.einsum("bca...->abc...", gamma[swap]))


def gualtieri_torsion(conn: GenConnection) -> np.ndarray:
    """Totally antisymmetric torsion 3-form T[A, B, C, p] on the frame at the
    chart's sample points (``torsion_map``)."""
    return torsion_map(conn.algebroid, conn.gamma.value, conn.algebroid.structure.value)


def _swap(alg: AnchoredFrame) -> np.ndarray:
    """The pairing-dual frame permutation of a rank-2n frame (``gtb.dual_index``)."""
    return gtb.dual_index(alg.chart.dim)


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
        r0 = gtb.frame_curvature(*conn.gamma, alg.anchor.value, alg.structure.value)[swap]
        low = conn.gamma.value[swap]  # low[C, A, B] = <nab_{e_A} e_B, e_C>
        third = tn.einsum("blap,dlcp->dcabp", low, low[:, swap])
        conn._riemann = 0.5 * (r0 + tn.einsum("bacdp->dcabp", r0) + third)
    return conn._riemann


def ricci(conn: GenConnection) -> np.ndarray:
    """Ric[C, B, p] = R(e^l, e_C, e_l, e_B), symmetric; computed once.  The
    formula of ``gen_riemann`` traced over (swap(l), l) term by term, with
    Gamma[d, b, c] = Gamma^d_{bc}:
        Ric[c, b] = (1/2) sum_l { R0[l, c, l, b] + R0[swap(b), l, c, swap(l)]
                                  + sum_k Gamma[swap(b), k, l] Gamma[l, swap(k), c] },
    since r0[swap(l), c, l, b] = R0[l, c, l, b], r0[b, l, c, swap(l)] =
    R0[swap(b), l, c, swap(l)], and the third term's entry at
    (swap(l), c, l, b) is the last sum.  ``gtb.frame_curvature`` takes both
    traces of R0 itself.  The second it takes on the coefficients and their
    partials with the axes of the slots d and c permuted by swap, whose
    curvature is R0[swap(d), swap(c), a, b]; labelled "bkck->cb", that is
    sum_k R0[swap(b), swap(k), c, k], the sum over l = swap(k).  So no
    (2n)^4 array is built, and no einsum loops over more than (2n)^4 index
    combinations per point."""
    if conn._ricci is None:
        alg = conn.algebroid
        swap = _swap(alg)
        (gamma, dgamma), anchor, C = conn.gamma, alg.anchor.value, alg.structure.value
        low = gamma[swap]  # low[d, b, c] = Gamma[swap(d), b, c]
        dual = (low[:, :, swap], dgamma[swap][:, :, swap], anchor, C)
        third = tn.einsum("bklp,lkcp->cbp", low, gamma[:, swap])
        conn._ricci = 0.5 * (gtb.frame_curvature(gamma, dgamma, anchor, C, "lclb->cb")
                             + gtb.frame_curvature(*dual, "bkck->cb") + third)
    return conn._ricci


def scalar_E(conn: GenConnection) -> np.ndarray:
    """Pairing trace of the Ricci tensor, at each sample point."""
    return tn.einsum("llp->p", ricci(conn)[_swap(conn.algebroid)])


def scalar_G(conn: GenConnection) -> np.ndarray:
    """Generalized-metric trace of the Ricci tensor, at each sample point."""
    return tn.einsum("lmp,mlp->p", conn.metric.gram_inverse(), ricci(conn))


def divergence_section(conn: GenConnection, psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """Div(psi)[..., p] = <nab_{e_l} psi, e^l>, the e_l component of
    nab_{e_l} psi, at the chart's sample points, for sections given by
    their values psi[A, ..., p] and partials dpsi[A, ..., m, p] there."""
    anchor = conn.algebroid.anchor.value
    return (tn.einsum("llbp,b...p->...p", conn.gamma.value, psi)  # Gamma^l_{lb} psi^b
            + tn.einsum("lmp,l...mp->...p", anchor, dpsi))  # rho(e_l).psi^l


def char_vf(conn: GenConnection) -> np.ndarray:
    """Characteristic vector field [m, p]: f -> Div(Df), read off on the
    coordinate functions, at the chart's sample points.  The frame
    components of D(x^m) are (Dx^m)^C = rho(e_swap(C)).x^m, the anchor
    entries [swap(C), m]."""
    alg = conn.algebroid
    return divergence_section(conn, *alg.anchor[_swap(alg)])


def ricci_compat_residual(conn: GenConnection) -> np.ndarray:
    """[i, j, p]: Ric(Psi_+(d_i), Psi_-(d_j)) at the chart's sample points,
    the off-block part of the Ricci tensor with respect to the eigenbundle
    splitting of the metric."""
    gm = conn.metric
    return tn.einsum("abp,aip,bjp->ijp", ricci(conn), gm.graph(+1), gm.graph(-1))


def torsion_terms(conn: GenConnection) -> tuple[np.ndarray, np.ndarray]:
    """(nabT, TT), each [X, Y, Z, D, p] at the chart's sample points:
    nabT = (nab_{e_X} T)(e_Y, e_Z, e_D), from T and its partials
    (``torsion_map`` of the jets of Gamma and C), and
    TT = T(e_Y, e_Z, e^F) T(e_X, e_F, e_D)."""
    alg = conn.algebroid
    (C, dC), (gamma, dgamma) = alg.structure, conn.gamma
    T = torsion_map(alg, gamma, C)
    nabT = gtb.covariant_derivative(gamma, alg.anchor.value, T, torsion_map(alg, dgamma, dC))
    return nabT, tn.einsum("yzfp,xfdp->xyzdp", T[:, :, _swap(alg)], T)


def bianchi_residual(conn: GenConnection) -> np.ndarray:
    """Residual [D, A, B, C, p] of the algebraic Bianchi identity with torsion
    terms at the chart's sample points:
    <R(e_A,e_B)e_C + cyc, e_D>
      - (1/2){ sum_cyc [ (nab_A T)(B,C,D) - T(A, T-op(B,C), D) ]
               - (nab_D T)(A,B,C) }
    with the torsion terms of ``torsion_terms``."""
    nabT, TT = torsion_terms(conn)
    S = nabT - TT
    torsion = (tn.einsum("abcdp->dabcp", S) + tn.einsum("bcadp->dabcp", S)
               + tn.einsum("cabdp->dabcp", S) - nabT)
    r = gen_riemann(conn)
    cyclic = tn.einsum("dcabp->dabcp", r) + r + tn.einsum("dbcap->dabcp", r)
    return cyclic - 0.5 * torsion


# ---------------------------------------------------------------------------
# construction: block transport, minimal connection, parameter family,
# dilaton choice
# ---------------------------------------------------------------------------


def _block_transport(lc: rm.Christoffel) -> Jet:
    """The jet of the coefficients of the block-diagonal transport by the
    chart connection: Gamma^k_{ij} on vectors and -Gamma^j_{ik} on forms."""
    n = lc.chart.dim
    gamma = tn.constant_jet(np.zeros((2 * n,) * 3), lc.chart)
    gamma[:n, :n, :n] = lc.coeffs
    gamma[n:, :n, n:] = -tn.jet_contract("jik->kij", lc.coeffs)  # [n + k, i, n + j] = -Gamma^j_{ik}
    return gamma


def block_lc_connection(lc: rm.Christoffel, H_prime: Jet) -> GenConnection:
    """The block-diagonal transport by the chart connection lc alone, for
    BlockDiag(g, g^{-1}) of the metric and inverse that lc carries (metric
    compatible but torsionful: its torsion 3-form is the anchor pullback of
    H_prime)."""
    return _connection("block transport jet", standard_algebroid(lc.chart, H_prime),
                       _block_transport(lc), GeneralizedMetric(lc.chart, lc.g, None, lc.ginv))


def minimal_connection(block: GenConnection) -> GenConnection:
    """The distinguished torsion-free metric connection for the block
    diagonal metric of g and the bracket twisted by the closed 3-form H':
    the block transport ``block`` (``block_lc_connection``) made
    torsion-free, on its bracket and metric, with H' read back from that
    bracket and g^{-1} from that metric:

    nab^0_{(X,xi)} (Y,eta) =
      ( nabLC_X Y + (1/6) g^{-1} H'(g^{-1} xi, Y, .) - (1/3) g^{-1} H'(X, g^{-1} eta, .),
        nabLC_X eta - (1/3) H'(X, Y, .) + (1/6) H'(g^{-1} xi, g^{-1} eta, .) ).

    The three terms with g^{-1} are one tensor: H' with its last two legs
    raised, R[m, v, l] = g^{-1}[v, b] g^{-1}[l, a] H'[m, b, a], contracted a
    leg at a time (``_leg_into``).  On the frame, g^{-1} H'(X, g^{-1} eta, .)
    is R[m, v, l] (X = d_m, eta = dx^v, output l); H'(g^{-1} xi, g^{-1} eta,
    .) is R[l, m, v], since H' is invariant under cyclic shifts; and
    g^{-1} H'(g^{-1} xi, Y, .) is -R[v, m, l], since H' changes sign under
    a swap of its first two slots.  Both hold because H' is totally
    antisymmetric (``streff.Derived.h_prime`` checks it)."""
    n = block.chart.dim
    ginv, Hc = block.metric.g_inv, _current_twist(block)
    gamma = block.gamma.map(np.copy)
    R = _leg_into(ginv, 2, _leg_into(ginv, 1, Hc), "ajc")  # R[m, v, l]
    # each H' term is indexed [l, m, v] (the output slot l, the legs m and v)
    # and adds c times itself to the block of Gamma[l, m, v] whose slots are
    # the vector (first n) or form (last n) frame indices it names
    vec_vec = Hc.map(lambda t: t.swapaxes(0, 2).swapaxes(1, 2))  # H'[m, v, l]: H'(X, Y, .)
    vec_form = R.map(lambda t: t.swapaxes(0, 2).swapaxes(1, 2))  # R[m, v, l]: g^{-1} H'(X, g^{-1} eta, .)
    form_vec = -R.map(lambda t: t.swapaxes(0, 2))  # -R[v, m, l]: g^{-1} H'(g^{-1} xi, Y, .)
    form_form = R  # R[l, m, v]: H'(g^{-1} xi, g^{-1} eta, .)
    vec, form = slice(0, n), slice(n, 2 * n)
    for part, c, term in (((form, vec, vec), -1.0 / 3.0, vec_vec),
                           ((vec, vec, form), -1.0 / 3.0, vec_form),
                           ((vec, form, vec), 1.0 / 6.0, form_vec),
                           ((form, form, form), 1.0 / 6.0, form_form)):
        gamma[part] = gamma[part] + c * term
    return _connection("minimal connection jet", block.algebroid, gamma, block.metric)


class ConnParams:
    """Validated parameter pair for the affine family of torsion-free
    metric connections, as jets at the chart's sample points: J fully
    contravariant, W fully covariant, both antisymmetric in their last two
    slots with vanishing cyclic sum."""

    __slots__ = ("J", "W")

    def __init__(self, J: Jet, W: Jet):
        self.J = J
        self.W = W


def _alt3(t: np.ndarray) -> np.ndarray:
    """The alternation of an array over its three leading slots."""
    rest = tuple(range(3, t.ndim))
    even = t + t.transpose((1, 2, 0) + rest) + t.transpose((2, 0, 1) + rest)
    odd = t.transpose((1, 0, 2) + rest) + t.transpose((0, 2, 1) + rest) + t.transpose((2, 1, 0) + rest)
    return (even - odd) / 6.0


def validate_params(J: Jet, W: Jet) -> ConnParams:
    """Check the antisymmetry in the last two slots of a parameter pair
    given by its jets, J^{ijk} and W_{ijk}, on their values, and restore the
    cyclic constraint by T -> T - Alt(T) on both halves, which zeroes the
    cyclic sum of a tensor skew in its last two slots."""
    for t, name in ((J, "J"), (W, "W")):
        # written so that a NaN fails the test
        worst = np.abs(t.value + t.value.swapaxes(1, 2)).max(initial=0.0)
        if not worst <= 1e-10:
            raise NotAntisymmetric(f"{name} not antisymmetric in its last two slots ({worst:.3e})")
    return ConnParams(J - J.map(_alt3), W - W.map(_alt3))


def param_tensor_frame(params: ConnParams, metric: GeneralizedMetric) -> Jet:
    """The jet (K[A,B,C,p], dK[A,B,C,m,p]) at the chart's sample points of
    the frame components of the deformation tensor built from (J, W):

    K((X,xi),(Y,eta),(Z,zeta)) =
        W(g1 xi, Y, Z) + W(X, g1 eta, Z) + W(X, Y, g1 zeta) + W(g1 xi, g1 eta, g1 zeta)
      - J(g X, eta, zeta) - J(xi, g Y, zeta) - J(xi, eta, g Z) - J(g X, g Y, g Z)

    with g = metric.g and g1 = g^{-1}.  Exactly one term survives for each
    frame type combination: W on an odd number of form legs, with g1 on
    them, and -J on an even number, with g on the vector legs.  Each leg
    is contracted on its own, a ``tensors.jet_contract`` of two jets, so
    no einsum loops over all the indices of a three-leg term at once; the
    three-leg term goes on from the one-leg term of its first slot."""
    n = metric.chart.dim
    K = tn.constant_jet(np.zeros((2 * n,) * 3), metric.chart)
    vec, form = slice(0, n), slice(n, 2 * n)
    for leg, t, legged, rest, sign in ((metric.g_inv, params.W, form, vec, 1.0),
                                      (metric.g, params.J, vec, form, -1.0)):
        ones = [_leg_into(leg, k, t) for k in range(3)]
        for k, block in enumerate(ones):
            K[tuple(legged if j == k else rest for j in range(3))] = sign * block
        K[legged, legged, legged] = sign * _leg_into(leg, 2, _leg_into(leg, 1, ones[0], "ibc"), "ijc")
    return K


def _leg_into(leg: Jet, k: int, block: Jet, slots: str = "abc") -> Jet:
    """leg[i, a] summed into slot k of a three-slot block whose indices are
    named ``slots``; the slot's new index is "ijk"[k]."""
    free, summed = "ijk"[k], slots[k]
    return tn.jet_contract(f"{free}{summed},{slots}->{slots[:k]}{free}{slots[k + 1:]}", leg, block)


def trace_identity_residual(conn: GenConnection, K: np.ndarray) -> np.ndarray:
    """K(g_E^{-1} K(., e_l, e_m), e^m, e^l) - 2 K(e^m, g_E^{-1} K(e_l, e_m, .), e^l)
    at each sample point, identically zero for any parameter tensor with the
    cyclic property, from the values K[A, B, C, p] there.  Written as the
    equivalent full contraction
    K(e^n, e^m, e^l) { K(e_n, e_l, e_m) - 2 K(e_l, e_n, e_m) }."""
    swap = _swap(conn.algebroid)
    # the open mesh of np.ix_ gives a C-ordered copy; chained indexing would
    # not, and einsum would sum the contraction in another order
    up = K[swap[:, None, None], swap[:, None], swap]
    return tn.einsum("nmlp,nlmp->p", up, K - 2.0 * tn.einsum("lnmp->nlmp", K))


def with_params(base: GenConnection, K: Jet) -> GenConnection:
    """base + g_E^{-1} K(., ., .): every torsion-free metric connection for
    the block-diagonal metric arises this way, for the jet of the frame
    components K[A, B, C] of a deformation tensor (``param_tensor_frame``
    of a parameter pair, or the dilaton's closed form).  Gamma^C_{AB}
    gains K[A, B, swap(C)], and its partials gain those of K."""
    return _connection("parameter family jet", base.algebroid,
                       base.gamma + tn.jet_contract("abc->cab", K[:, :, _swap(base.algebroid)]),
                       base.metric)


def dilaton_connection(minimal: GenConnection, dphi: Jet) -> GenConnection:
    """The connection of the flatness/compatibility dictionary for the
    background (g, B, phi), in the block picture: the minimal connection of
    g with twist H' = H + dB plus the dilaton parameters J = 0 and
    W(X,Y,Z) = c{ g(X,Y) <dphi, Z> - g(X,Z) <dphi, Y> }, c = 1/(n-1), for
    the jet of the partials of phi: the choice with vanishing characteristic
    vector field and partial trace exactly dphi.  The g-trace of the brace
    is (n-1) dphi, which fixes c; needs n > 1, which the central suite
    checks before it builds anything.  It is torsion-free and compatible
    with BlockDiag(g, g^{-1}) on the H'-twisted bracket.

    Its deformation tensor K (``param_tensor_frame`` of these parameters)
    is written in closed form, g^{-1} g = 1 cancelled by hand: with
    f = c dphi and psi = g^{-1} f, the only summed contraction,
        K[n+i, b, k]     = delta_ib f_k - delta_ik f_b
        K[a, n+j, k]     = delta_aj f_k - g_ak psi_j
        K[a, b, n+k]     = g_ab psi_k - delta_ak f_b
        K[n+i, n+j, n+k] = g^{-1}_ij psi_k - g^{-1}_ik psi_j,
    each block a difference of the outer products D = delta f, G = g psi
    and Gi = g^{-1} psi and of their transposes in the last two slots; its
    other blocks are zero.  D is a broadcast product (delta is constant),
    G and Gi one ``tensors.jet_contract`` each: broadcast products of the
    strided views g, g^{-1} and psi read a higher peak RSS in the
    benchmark's fresh processes."""
    metric = minimal.metric
    n = metric.chart.dim
    f = (1.0 / (n - 1)) * dphi
    psi = tn.jet_contract("ij,j->i", metric.g_inv, f)
    eye = np.eye(n)
    D = Jet(eye[:, :, None, None] * f.value, eye[:, :, None, None, None] * f.partial)
    G, Gi = (tn.jet_contract("xy,z->xyz", M, psi) for M in (metric.g, metric.g_inv))
    D_t, G_t, Gi_t = (t.map(lambda a: a.swapaxes(1, 2)) for t in (D, G, Gi))
    K = tn.constant_jet(np.zeros((2 * n,) * 3), metric.chart)
    vec, form = slice(0, n), slice(n, 2 * n)
    K[form, vec, vec] = D - D_t
    K[vec, form, vec] = D - G_t
    K[vec, vec, form] = G - D_t
    K[form, form, form] = Gi - Gi_t
    return with_params(minimal, K)


# ---------------------------------------------------------------------------
# transport along bundle isomorphisms
# ---------------------------------------------------------------------------


def transport_connection(conn: GenConnection, F: tuple[Jet, Jet], Finv: Jet,
                         algebroid: AnchoredFrame, metric: GeneralizedMetric) -> GenConnection:
    """Pull a connection back through a frame isomorphism F into a new
    bracket picture: nab'_psi psi' = F^{-1}( nab_{F psi} F(psi') ), so
        Gamma'^G_{AB} = F^{-1 G}_E ( F^C_A F^D_B Gamma^E_{CD}
                                     + F^C_A rho_src(e_C).F^E_B ),
    from the 2-jet (F, dF) of F, the jet of F^{-1} and the source
    coefficients by ``tensors.jet_contract``."""
    (Fj, dF), src = F, conn.algebroid
    along = tn.jet_contract("cm,ebm->ceb", src.anchor, dF)  # rho(e_C).F^E_B
    # F^C_A F^D_B Gamma^E_{CD}, summed over C first
    pulled = tn.jet_contract("ca,ecd->ead", Fj, conn.gamma)
    pulled = tn.jet_contract("ead,db->eab", pulled, Fj)
    inner = pulled + tn.jet_contract("ca,ceb->eab", Fj, along)
    return _connection("transported connection jet", algebroid,
                       tn.jet_contract("ge,eab->gab", Finv, inner), metric)


def _current_twist(conn: GenConnection) -> Jet:
    """The jet of the twist 3-form, -C^{n+l}_{mv}, from the standard-frame brackets; in C order
    (the einsum is a transposed view) like the H it was built from, so contractions sum alike."""
    n = conn.chart.dim
    return (-tn.jet_contract("lmv->mvl", conn.algebroid.structure[n:, :n, :n])).map(np.ascontiguousarray)


def theta_transport(conn: GenConnection, F: tuple[Jet, Jet], Finv: Jet,
                    metric: GeneralizedMetric) -> GenConnection:
    """Pull a connection of the block picture (the bracket twisted by H')
    back through the bivector shear e^{-B} o F_theta, for its 2-jet F and
    the jet of its inverse (``gtb.theta_twist_matrices``); the result lives
    on the sheared bracket and is compatible with ``metric``,
    BlockDiag(G, G^{-1}) for G = -B g^{-1} B."""
    alg_new = conjugated_algebroid(conn.chart, F, Finv, _current_twist(conn))
    return transport_connection(conn, F, Finv, alg_new, metric)
