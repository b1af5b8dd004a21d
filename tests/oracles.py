"""Oracles that only the tests read: quantities the verifier does not
check, computed from its numeric stages, the one-einsum references of
the contractions it takes a leg at a time, the Ricci tensor as the trace
of the full curvature tensor, the sheared picture, which the
verifier does not build (the dilaton connection sheared by e^B, then
transported through F_theta alone), and the zero-anchor (quadratic Lie
algebra) case in exact rational arithmetic, independent of the frame
calculus it is compared with.
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gencourant import gconn, gtb
from gencourant import tensors as tn
from gencourant.errors import GencourantError
from gencourant.riemann import covariant_derivative
from gencourant.tensors import DOWN


def randint(gen, lo: int, hi: int) -> int:
    """Integer in [lo, hi] from the SplitMix64 generator ``gen``, by
    rejection-free modular draw (tiny bias is irrelevant for test data)."""
    return lo + gen.next_u64() % (hi - lo + 1)


# ---------------------------------------------------------------------------
# classical and frame oracles on the numeric stages
# ---------------------------------------------------------------------------


def divergence_oneform(w, gamma):
    """Div_g of a 1-form with jet w: metric trace g^{ka} (nab_k w)_a, at each
    point, for the ``riemann.Christoffel`` gamma."""
    return np.einsum("kaq,kaq->q", gamma.ginv.value, covariant_derivative(w, (DOWN,), gamma))


def v_tensor(conn):
    """V[i, j, k, p] = <nab_{rho* xi} rho* eta, rho* zeta> on the coordinate
    coframe, at the chart's sample points; antisymmetric in the last two
    slots.  With R[C, i] the frame components of rho*(dx^i),
        nab_{R_i} R_j = R_i^A R_j^B Gamma^C_{AB} + rho(R_i).R_j^C,
    and its pairing with R_k is its contraction with anchor[C, k]."""
    alg = conn.algebroid
    R, dR = alg.anchor[gtb.dual_index(alg.chart.dim)]  # R[C, i] = rho*(dx^i)^C
    anchor = alg.anchor.value
    nab = (np.einsum("aip,bjp,cabp->cijp", R, R, conn.gamma.value)
           + np.einsum("aip,axp,cjxp->cijp", R, anchor, dR))
    return np.einsum("cijp,ckp->ijkp", nab, anchor)


def v_trace(conn, h):
    """Partial trace [l, p] of the V tensor against the inverse of the
    induced form with values h[i, j, p]: Z -> V(dx^k, h^{-1}(d_k), h^{-1}(Z)),
    at the chart's sample points."""
    hinv = np.moveaxis(np.linalg.inv(np.moveaxis(h, -1, 0)), 0, -1)
    return np.einsum("kabp,akp,blp->lp", v_tensor(conn), hinv, hinv)


def minimal_connection_reference(block):
    """``gconn.minimal_connection`` with each of its three raised H' terms
    one ``tensors.jet_contract`` of g^{-1}, g^{-1} and H' (three operands),
    read off the formula as written, not off one raised tensor."""
    n = block.chart.dim
    ginv, Hc = block.metric.g_inv, gconn._current_twist(block)
    gamma = block.gamma.map(np.copy)
    vec_vec = tn.jet_contract("mvl->lmv", Hc)  # H'(X, Y, .)
    vec_form = tn.jet_contract("la,vb,mba->lmv", ginv, ginv, Hc)  # g^{-1} H'(X, g^{-1} eta, .)
    form_vec = tn.jet_contract("la,mb,bva->lmv", ginv, ginv, Hc)  # g^{-1} H'(g^{-1} xi, Y, .)
    form_form = tn.jet_contract("ma,vb,abl->lmv", ginv, ginv, Hc)  # H'(g^{-1} xi, g^{-1} eta, .)
    vec, form = slice(0, n), slice(n, 2 * n)
    for part, c, term in (((form, vec, vec), -1.0 / 3.0, vec_vec),
                           ((vec, vec, form), -1.0 / 3.0, vec_form),
                           ((vec, form, vec), 1.0 / 6.0, form_vec),
                           ((form, form, form), 1.0 / 6.0, form_form)):
        gamma[part] = gamma[part] + c * term
    return gconn.GenConnection(block.algebroid, gamma, block.metric)


def ricci_reference(conn):
    """Ric[C, B, p] = R(e^l, e_C, e_l, e_B) as the trace of the full curvature
    tensor ``gconn.gen_riemann``, not contracted term by term with the
    trace as ``gconn.ricci`` contracts it."""
    return np.einsum("lclbp->cbp", gconn.gen_riemann(conn)[gtb.dual_index(conn.chart.dim)])


def param_tensor_frame_reference(params, metric):
    """The jet of the frame components K[A, B, C] of the deformation tensor
    of ``gconn.param_tensor_frame``, each three-leg term one
    ``tensors.jet_contract`` of all its legs and J or W at once (four
    operands), not a leg at a time."""
    chart = metric.chart
    n = chart.dim
    g, ginv, J, W = metric.g, metric.g_inv, params.J, params.W
    K = tn.constant_jet(np.zeros((2 * n,) * 3), chart)
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
        block = tn.jet_contract(",".join(legs + [slots]) + "->ijk", *[leg] * len(legs), t)
        K[np.ix_(*[range(n, 2 * n) if f else range(n) for f in forms])] = block if odd else -block
    return K


def lc_parameter_space_dim(n: int) -> int:
    """Dimension of the null space of the pointwise linear constraints on a
    frame 3-tensor K: skew in the last two slots, compatibility with the
    flat block-diagonal metric (K(., ., tau .) pairing condition), and
    vanishing cyclic sum.  Equals (2/3) n (n^2 - 1)."""
    dim2 = 2 * n
    swap = gtb.dual_index(n)
    at = np.arange(dim2 ** 3).reshape((dim2,) * 3)  # at[a, b, c]: the position of K[a, b, c]
    unit = np.eye(dim2 ** 3)
    # for each (a, b, c), the rows K[abc] + K[acb], K[ab swap(c)] + K[ac swap(b)]
    # and K[abc] + K[bca] + K[cab]
    paired = at[:, :, swap]
    rows = np.concatenate([
        unit[at.reshape(-1)] + unit[at.transpose(0, 2, 1).reshape(-1)],
        unit[paired.reshape(-1)] + unit[paired.transpose(0, 2, 1).reshape(-1)],
        unit[at.reshape(-1)] + unit[at.transpose(2, 0, 1).reshape(-1)]
        + unit[at.transpose(1, 2, 0).reshape(-1)],
    ])
    rank = np.linalg.matrix_rank(rows)
    return dim2 ** 3 - rank


# ---------------------------------------------------------------------------
# the sheared picture: e^B, then F_theta
# ---------------------------------------------------------------------------


def untwist(conn, B):
    """Shear a connection by e^B, for the 2-jet (B, dB) of B: if the input
    is torsion-free and metric for BlockDiag(g, g^{-1}) with bracket twist
    H', the output is torsion-free and metric for the pair (g, B) with
    twist H' - dB."""
    B, dB = B
    gm_new = gtb.GeneralizedMetric(conn.chart, conn.metric.g, B, conn.metric.g_inv)
    F = (gtb.shear(B, -1), tn.jet_block([[0, 0], [-dB, 0]]))  # e^{-B} and its partials
    H_new = gconn._current_twist(conn) - dB.map(lambda t: tn.d_of_partials(t, 2))
    alg_new = gconn.standard_algebroid(conn.chart, H_new)
    return gconn.transport_connection(conn, F, gtb.shear(B, +1), alg_new, gm_new)


def f_theta_matrices(theta, B):
    """The 2-jet of the frame matrix of F_theta(X, xi) = (theta(xi),
    xi - B(X)) alone and the jet of its inverse (X, xi) |-> (X - theta(xi),
    B(X)), from the 2-jets of theta and B."""
    (th, dth), (b, db) = theta, B
    F = tn.jet_block([[0, th], [-b, 1]])
    return (F, tn.jet_block([[0, dth], [-db, 0]])), tn.jet_block([[1, -th], [b, 0]])


class ShearedPicture:
    """The central and equivalence quantities of a ``streff.Derived`` read
    through the shear: its dilaton connection sheared by e^B onto the
    H-twisted bracket, and that connection transported through F_theta."""

    def __init__(self, derived):
        self.derived = derived
        self.dilaton = untwist(derived.dilaton, derived.jets.B)

    def central_residuals(self):
        """(scalar, off-block) residuals of the sheared dilaton connection."""
        betas, conn = self.derived.betas, self.dilaton
        return (gconn.scalar_G(conn) - betas.beta_phi,
                gconn.ricci_compat_residual(conn) - (betas.beta_g - betas.beta_B))

    @functools.cached_property
    def f_theta(self):
        return f_theta_matrices(self.derived.symplectic.theta, self.derived.jets.B)

    @functools.cached_property
    def theta_connection(self):
        return gconn.theta_transport(self.dilaton, *self.f_theta, self.derived.symplectic.metric)

    def transport_residual(self):
        """Ric_theta(psi, psi') - Ric(F_theta psi, F_theta psi') with Ric of
        the sheared dilaton connection."""
        F = self.f_theta[0][0].value
        return (gconn.ricci(self.theta_connection)
                - np.einsum("cdp,cap,dbp->abp", gconn.ricci(self.dilaton), F, F))


# ---------------------------------------------------------------------------
# quadratic Lie algebras: the zero-anchor case in exact arithmetic
# ---------------------------------------------------------------------------


class InvalidLieAlgebra(GencourantError):
    """Quadratic Lie algebra input violates one of its axioms."""


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
