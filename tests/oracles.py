"""Oracles that only the tests read: quantities the verifier does not
check, computed from its numeric stages, the one-einsum references of
the contractions it takes a leg at a time, ``jet_contract`` with one spec
per operand's partials term, the Ricci tensor as the trace of the full
curvature tensor, the dense e^{+-B} frame matrices that the Gram pair and
the e^B shear are written without, the sheared picture, which the
verifier does not build (the dilaton connection sheared by e^B, then
transported through F_theta alone), numpy's helper forms (np.ix_,
np.tril_indices, np.broadcast_to, np.stack and np.split) of the index,
block and split code that the package writes without them, the dilaton
parameter pair whose deformation tensor the verifier writes in closed
form, the expression front end as a per-character tokenizer and recursive
parser, and the zero-anchor (quadratic Lie algebra) case in exact rational
arithmetic, independent of the frame calculus it is compared with.
"""

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from gencourant import gconn, gtb
from gencourant import tensors as tn
from gencourant.errors import ExprSyntaxError, GencourantError, UnknownSymbol
from gencourant.expr import _FUNCTIONS, Chart, Const, Coord, Expr, add, div, mul, neg, powi
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


def jet_contract_reference(spec, *jets):
    """``tensors.jet_contract`` with the point axis p and the derivative
    axis m named in the specs: the values' spec, with p on every operand,
    and one spec per operand for the term of its partials, which carry m
    before p; not one spec whose trailing axes broadcast under ``...``."""
    lhs, _, out = spec.partition("->")
    subs = lhs.split(",")
    m, p = [c for c in "abcdefghijklmnopqrstuvwxyz" if c not in spec][:2]
    value_spec = ",".join(s + p for s in subs) + f"->{out}{p}"
    if not isinstance(jets[0], tn.Jet):
        return np.einsum(value_spec, *jets)
    values = [v for v, _ in jets]
    partials = 0.0
    for i, (_, d) in enumerate(jets):
        dspec = ",".join(s + (m + p if j == i else p) for j, s in enumerate(subs)) + f"->{out}{m}{p}"
        partials = partials + np.einsum(dspec, *values[:i], d, *values[i + 1:])
    return tn.Jet(np.einsum(value_spec, *values), partials)


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


def dilaton_params(g, dphi):
    """The dilaton parameters J = 0 and
    W(X,Y,Z) = (1/(n-1)){ g(X,Y) <dphi, Z> - g(X,Z) <dphi, Y> } from the
    jets of g and of the partials of phi, whose ``param_tensor_frame``
    contracts g^{-1} into W a leg at a time, where
    ``gconn.dilaton_connection`` writes the resulting K in closed form."""
    n = g.value.shape[0]
    W = (1.0 / (n - 1)) * (tn.jet_contract("ij,k->ijk", g, dphi) - tn.jet_contract("ik,j->ijk", g, dphi))
    return gconn.ConnParams(0.0 * W, W)


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
# the dense e^{+-B}: the Gram pair and the shear of a section
# ---------------------------------------------------------------------------


def shear(B, sign):
    """The jet of the frame matrix of e^{sign*B}, (X, xi) |-> (X, xi +
    sign B(X)), orthogonal for the pairing: B in the (form, vector)
    corner."""
    return tn.jet_block([[1, 0], [sign * B, 1]])


def _b_or_zero(metric):
    return 0.0 * metric.g if metric.B is None else metric.B


def gram_reference(metric):
    """The jet of G = (e^{-B})^T BlockDiag(g, g^{-1}) e^{-B} of a
    ``gtb.GeneralizedMetric``, as dense (2n)x(2n) products, not from its
    n x n blocks."""
    n = metric.chart.dim
    M = shear(_b_or_zero(metric), -1)
    return (tn.jet_contract("ij,ia,jb->ab", metric.g, M[:n], M[:n])
            + tn.jet_contract("ij,ia,jb->ab", metric.g_inv, M[n:], M[n:]))


def gram_inverse_reference(metric):
    """Values of G^{-1} = e^{B} BlockDiag(g^{-1}, g) (e^{B})^T, one einsum
    over the dense (2n)x(2n) matrices."""
    M = shear(_b_or_zero(metric), +1).value
    core = tn.jet_block([[metric.g_inv, 0], [0, metric.g]]).value
    return np.einsum("ikp,klp,jlp->ijp", M, core, M)


def b_twist_reference(u, B):
    """e^B(X, xi) of a section given by its values or its jet, as the
    product with e^B's dense frame matrix."""
    M = shear(B, +1)
    return tn.jet_contract("ca,a->c", M if isinstance(u, tn.Jet) else M.value, u)


# ---------------------------------------------------------------------------
# numpy's helper forms (np.ix_, np.tril_indices, np.broadcast_to, np.stack
# and np.split) of the package's index, block and split code, which must
# give the same bits
# ---------------------------------------------------------------------------


def per_triple_reference(residual):
    """``cli._per_triple``: the point axis split in three and the parts
    stacked on a new leading axis."""
    return np.stack(np.split(residual, 3, axis=-1))


def gram_reference_tril(metric):
    """``gtb.GeneralizedMetric.gram`` with the entries below the diagonal
    indexed by ``np.tril_indices``."""
    g, g_inv, B = metric.g, metric.g_inv, metric.B
    Bg = None if B is None else tn.jet_contract("ia,ab->ib", B, g_inv)
    gram = tn.jet_block([[g, 0], [0, g_inv]] if B is None else
                        [[g - tn.jet_contract("ia,ab->ib", Bg, B), Bg], [0, g_inv]])
    below = np.tril_indices(2 * metric.chart.dim, -1)
    gram[below] = gram.map(lambda t: t.swapaxes(0, 1))[below]
    return gram


def graph_reference(metric, sign):
    """``gtb.GeneralizedMetric.graph``: a broadcast identity concatenated
    with the form block."""
    n, count = metric.chart.dim, metric.g.value.shape[-1]
    vec = np.broadcast_to(np.eye(n)[..., None], (n, n, count))
    form = sign * metric.g.value
    return np.concatenate([vec, form if metric.B is None else form + metric.B.value])


def param_tensor_frame_ix(params, metric):
    """``gconn.param_tensor_frame`` with each block of K indexed by
    ``np.ix_`` over index ranges, not by slices."""
    n = metric.chart.dim
    K = tn.constant_jet(np.zeros((2 * n,) * 3), metric.chart)
    vec, form = range(n), range(n, 2 * n)
    for leg, t, legged, rest, sign in ((metric.g_inv, params.W, form, vec, 1.0),
                                      (metric.g, params.J, vec, form, -1.0)):
        ones = [gconn._leg_into(leg, k, t) for k in range(3)]
        for k, block in enumerate(ones):
            K[np.ix_(*[legged if j == k else rest for j in range(3)])] = sign * block
        inner = gconn._leg_into(leg, 1, ones[0], "ibc")
        K[np.ix_(legged, legged, legged)] = sign * gconn._leg_into(leg, 2, inner, "ijc")
    return K


def trace_identity_residual_ix(conn, K):
    """``gconn.trace_identity_residual`` with K's legs permuted by
    ``np.ix_``."""
    swap = gtb.dual_index(conn.chart.dim)
    up = K[np.ix_(swap, swap, swap)]
    return tn.einsum("nmlp,nlmp->p", up, K - 2.0 * tn.einsum("lnmp->nlmp", K))


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
    F = (shear(B, -1), tn.jet_block([[0, 0], [-dB, 0]]))  # e^{-B} and its partials
    H_new = gconn._current_twist(conn) - dB.map(lambda t: tn.d_of_partials(t, 2))
    alg_new = gconn.standard_algebroid(conn.chart, H_new)
    return gconn.transport_connection(conn, F, shear(B, +1), alg_new, gm_new)


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


# ---------------------------------------------------------------------------
# the expression front end as a per-character tokenizer and a recursive
# descent parser: the reference the pattern tokenizer is compared with
# ---------------------------------------------------------------------------

_IDENT_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_REST = _IDENT_FIRST | set("0123456789")

_TOK_NUM, _TOK_NAME, _TOK_OP, _TOK_END = "num", "name", "op", "end"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append((_TOK_OP, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append((_TOK_NUM, text[i:j], i))
            i = j
            continue
        if c in _IDENT_FIRST:
            j = i
            while j < n and text[j] in _IDENT_REST:
                j += 1
            tokens.append((_TOK_NAME, text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character '{c}'", i)
    tokens.append((_TOK_END, "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, chart_: Chart):
        self.text = text
        self.chart = chart_
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.next()
        if kind != _TOK_OP or val != op:
            raise ExprSyntaxError(f"expected '{op}'", at)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, at = self.peek()
        if kind != _TOK_END:
            raise ExprSyntaxError(f"unexpected '{val}'", at)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.next()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else add(e, neg(rhs))
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "*/":
                self.next()
                rhs = self.factor()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == _TOK_OP and val in "+-":
            self.next()
            inner = self.factor()
            return neg(inner) if val == "-" else inner
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == _TOK_OP and val == "^":
            self.next()
            return powi(base, self.exponent())
        return base

    def exponent(self) -> int:
        kind, val, at = self.next()
        sign = 1
        parens = False
        if kind == _TOK_OP and val == "(":
            parens = True
            kind, val, at = self.next()
        if kind == _TOK_OP and val == "-":
            sign = -1
            kind, val, at = self.next()
        if kind != _TOK_NUM or any(c in val for c in ".eE"):
            raise ExprSyntaxError("power exponent must be an integer literal", at)
        if parens:
            self.expect_op(")")
        return sign * int(val)

    def atom(self) -> Expr:
        kind, val, at = self.next()
        if kind == _TOK_NUM:
            return Const(float(val))
        if kind == _TOK_OP and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == _TOK_NAME:
            nkind, nval, _ = self.peek()
            if nkind == _TOK_OP and nval == "(":
                fn = _FUNCTIONS.get(val)
                if fn is None:
                    raise UnknownSymbol(val, at)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return fn(arg)
            if val in self.chart.coord_names:
                return Coord(self.chart, self.chart.coord_names.index(val))
            raise UnknownSymbol(val, at)
        raise ExprSyntaxError(f"unexpected '{val}'" if val else "unexpected end of input", at)


def parse_reference(text: str, chart_):
    """``expr.parse_expr`` as the reference front end parses ``text``: the
    same grammar, errors and nodes, with one recursion per unary sign and
    ``str.isdigit`` for digits."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, chart_).parse()
