"""The generalized tangent bundle TM (+) T*M over a chart.

Sections are (vector field, 1-form) pairs.  This module provides the
canonical pairing, the twisted Dorfman bracket and its differential, the
generalized metric package built from a pair (g, B), the shear maps e^B and
F_theta, the twisted Koszul bracket, a Schouten-bracket residual check, and
the calculus on an anchored frame (``AnchoredFrame``: frame derivative,
anchored bracket, connections, Cartan differential, Levi-Civita connection,
and the curvature of a connection).  That calculus serves both the
cotangent Lie algebroid of an invertible 2-form and, through
``gconn.CourantFrame``, the generalized coordinate frame of TM (+) T*M.

The expressions stop at the Levi-Civita connection of an anchored frame,
its brackets and its anchor; what is read from a connection is numbers.
``frame_curvature``, ``covariant_derivative`` and ``frame_torsion`` are
einsum stages over float arrays with a trailing point axis: values, and
first partials from ``tensors.jets_at``.

Convention: a 2-form acts on a vector through its *second* argument,
B(X) = B(. , X), i.e. B(X)_m = B_{m n} X^n; the same rule applies to
bivectors, theta(xi)^m = theta^{m n} xi_n.  Every matrix realization below
follows this rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import tensors as tn
from .errors import (
    ChartMismatch,
    NotClosed,
    NotPositiveDefinite,
    NotTwistedPoisson,
    SingularB,
)
from .expr import Chart, Expr, add, esum, mul, neg
from .tensors import DOWN, UP, TensorField

CLOSEDNESS_TOL = 1e-10


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


@dataclass
class GenSection:
    """Section (X, xi) of TM (+) T*M."""

    vec: TensorField  # (1,0)
    form: TensorField  # (0,1)

    def __post_init__(self):
        if self.vec.chart != self.form.chart:
            raise ChartMismatch("section parts on different charts")
        if self.vec.variance != (UP,) or self.form.variance != (DOWN,):
            raise ValueError("GenSection needs a vector and a 1-form")

    @property
    def chart(self) -> Chart:
        return self.vec.chart

    def components(self) -> np.ndarray:
        """Length-2n object array over the frame (d_mu, 0), (0, dx^mu)."""
        return np.concatenate([self.vec.comps, self.form.comps])

    @staticmethod
    def from_components(chart: Chart, comps) -> "GenSection":
        n = chart.dim
        comps = np.asarray(comps, dtype=object)
        vec = TensorField(chart, (UP,), comps[:n])
        form = TensorField(chart, (DOWN,), comps[n:])
        return GenSection(vec, form)

    def __add__(self, other):
        return GenSection(self.vec + other.vec, self.form + other.form)

    def __sub__(self, other):
        return GenSection(self.vec - other.vec, self.form - other.form)

    def scale(self, factor):
        return GenSection(self.vec.scale(factor), self.form.scale(factor))

    def max_abs(self, points=None):
        return ex.max_abs_on_points(self.components(), points or self.chart.sample_points())


def random_section(chart: Chart, gen: ex.SplitMix64) -> GenSection:
    """Random section with polynomial coefficients of total degree <= 2."""
    n = chart.dim
    comps = np.array([ex.random_polynomial(chart, gen) for _ in range(2 * n)], dtype=object)
    return GenSection.from_components(chart, comps)


# ---------------------------------------------------------------------------
# pairing, differential, Dorfman bracket
# ---------------------------------------------------------------------------


def pairing(psi: GenSection, phi: GenSection) -> Expr:
    """<(X,xi),(Y,eta)> = eta(X) + xi(Y); split signature (n, n)."""
    if psi.chart != phi.chart:
        raise ChartMismatch("sections on different charts")
    return add(tn.contract("a,a->", phi.form.comps, psi.vec.comps),
               tn.contract("a,a->", psi.form.comps, phi.vec.comps))


def pairing_gram(chart: Chart) -> np.ndarray:
    """Constant Gram matrix of the pairing on the coordinate frame: the
    off-diagonal block swap.  It is its own inverse."""
    n = chart.dim
    eta = np.zeros((2 * n, 2 * n))
    eta[:n, n:] = np.eye(n)
    eta[n:, :n] = np.eye(n)
    return eta


def d_map(chart: Chart, f) -> GenSection:
    """The bracket-side differential: f |-> (0, df)."""
    return GenSection(tn.zeros(chart, (UP,)), tn.d_scalar(chart, f))


def check_closed(H: TensorField):
    """Raise NotClosed with the max |dH| component unless dH vanishes at
    the chart's sample points."""
    dH = tn.exterior_derivative(H)
    worst, _ = ex.max_abs_on_points(dH.comps, H.chart.sample_points())
    if not worst <= CLOSEDNESS_TOL:
        raise NotClosed(worst)


def dorfman(psi: GenSection, phi: GenSection, H: TensorField) -> GenSection:
    """Twisted Dorfman bracket
    [(X,xi),(Y,eta)] = ([X,Y], L_X eta - i_Y d xi - H(X,Y,.)), for a
    validated closed 3-form H (``Background`` and ``Derived.h_prime`` check
    it once)."""
    if psi.chart != phi.chart:
        raise ChartMismatch("sections on different charts")
    X, xi = psi.vec, psi.form
    Y, eta = phi.vec, phi.form
    vec = tn.lie_bracket(X, Y)
    lie = tn.lie_derivative_oneform(X, eta)
    iydxi = tn.interior_product(Y, tn.exterior_derivative(xi))
    hterm = tn.contract("abm,a,b->m", H.comps, X.comps, Y.comps)
    form = lie - iydxi - TensorField(psi.chart, (DOWN,), hterm)
    return GenSection(vec, form)


def jacobiator(psi, phi, chi, H: TensorField) -> GenSection:
    """Failure of the in-bracket derivation rule:
    [psi,[phi,chi]] - [[psi,phi],chi] - [phi,[psi,chi]], for a validated
    closed 3-form H."""
    br = lambda a, b: dorfman(a, b, H)
    return br(psi, br(phi, chi)) - br(br(psi, phi), chi) - br(phi, br(psi, chi))


# ---------------------------------------------------------------------------
# generalized metric
# ---------------------------------------------------------------------------


def _check_positive_definite(g: TensorField):
    pts = g.chart.sample_points()
    for p, m in zip(pts, g.evaluate_points(pts)):
        # written so that a NaN or an infinity fails the test, before m - m.T sees it
        if not (np.isfinite(m).all() and np.max(np.abs(m - m.T)) <= 1e-10):
            raise NotPositiveDefinite(f"metric not finite and symmetric at {p}")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(f"metric not positive definite at sample point {p}")


class GeneralizedMetric:
    """The (g, B) package: fiber metric on TM (+) T*M, involution, graph
    embeddings and projectors, and the induced form on T*M.  It is built
    from a validated metric g, its inverse g_inv and a validated 2-form B
    (None for B = 0); ``gen_metric`` validates and inverts g for B = 0.

    Block identities that define it (verified by the test suite):
        G(psi, phi)   = g(X, Y) + g^{-1}(xi - B(X), eta - B(Y))
        tau           = eta^{-1} G        (eta = pairing Gram)
        Psi_pm(X)     = (X, (pm g + B)(X))
        h_G(xi, eta)  = G(rho* xi, rho* eta) = g^{-1}(xi, eta)
    """

    def __init__(self, g: TensorField, B: TensorField | None, g_inv: TensorField):
        self.chart = g.chart
        self.g = g
        self.B = B if B is not None else tn.zeros(self.chart, (DOWN, DOWN))
        self.g_inv = g_inv
        self._gram = None
        self._tau = None

    # -- frame matrices ------------------------------------------------

    def shear_matrix(self, sign: int) -> np.ndarray:
        """Frame matrix of e^{sign*B}: block lower-triangular with B in the
        (form, vector) corner."""
        n = self.chart.dim
        m = np.empty((2 * n, 2 * n), dtype=object)
        m.reshape(-1)[:] = [ex.ZERO] * m.size
        for i in range(2 * n):
            m[i, i] = ex.ONE
        for i in range(n):
            for j in range(n):
                b = self.B.comps[i, j]
                m[n + i, j] = b if sign > 0 else neg(b)
        return m

    def gram(self) -> np.ndarray:
        """(2n)x(2n) Gram matrix G_ab = G(e_a, e_b) via the shear product
        form: G = (e^{-B})^T BlockDiag(g, g^{-1}) (e^{-B}); the entries
        below the diagonal are those above it."""
        if self._gram is None:
            n = self.chart.dim
            M = self.shear_matrix(-1)
            gram = (tn.contract("ij,ia,jb->ab", self.g.comps, M[:n], M[:n])
                    + tn.contract("ij,ia,jb->ab", self.g_inv.comps, M[n:], M[n:]))
            below = np.tril_indices(2 * n, -1)
            gram[below] = gram.T[below]
            self._gram = gram
        return self._gram

    def gram_inverse(self) -> np.ndarray:
        """Inverse Gram through the shear factorization (no symbolic 2n x 2n
        inversion): G^{-1} = M BlockDiag(g^{-1}, g) M^T with M = e^{B}'s
        frame matrix."""
        n = self.chart.dim
        M = self.shear_matrix(+1)
        core = np.empty((2 * n, 2 * n), dtype=object)
        core.reshape(-1)[:] = [ex.ZERO] * core.size
        core[:n, :n] = self.g_inv.comps
        core[n:, n:] = self.g.comps
        return tn.contract("ik,jk->ij", tn.contract("ik,kj->ij", M, core), M)

    def tau_matrix(self) -> np.ndarray:
        """Involution tau = eta^{-1} G on frame components."""
        if self._tau is None:
            self._tau = tn.contract("ik,kj->ij", pairing_gram(self.chart), self.gram())
        return self._tau

    # -- graphs of (pm g + B) -------------------------------------------

    def psi_plus(self, X: TensorField) -> GenSection:
        return self._graph(X, +1)

    def psi_minus(self, X: TensorField) -> GenSection:
        return self._graph(X, -1)

    def _graph(self, X: TensorField, sign: int) -> GenSection:
        form = tn.contract("ma,a->m", sign * self.g.comps + self.B.comps, X.comps)
        return GenSection(X, TensorField(self.chart, (DOWN,), form))

    def projector_matrix(self, sign: int) -> np.ndarray:
        """P_pm = (1 pm tau)/2 on frame components."""
        n = self.chart.dim
        tau = self.tau_matrix()
        out = np.empty((2 * n, 2 * n), dtype=object)
        for i in range(2 * n):
            for j in range(2 * n):
                diag = ex.ONE if i == j else ex.ZERO
                out[i, j] = mul(0.5, add(diag, tau[i, j] if sign > 0 else neg(tau[i, j])))
        return out

    def project(self, psi: GenSection, sign: int) -> GenSection:
        comps = tn.contract("ij,j->i", self.projector_matrix(sign), psi.components())
        return GenSection.from_components(self.chart, comps)

    def h_form(self) -> TensorField:
        """Induced symmetric form on T*M, h(xi, eta) = G(rho* xi, rho* eta):
        the form-form block of the Gram matrix (rho* xi = (0, xi)).  It
        equals g^{-1} for every B."""
        n = self.chart.dim
        return TensorField(self.chart, (UP, UP), self.gram()[n:, n:].copy())


def gen_metric(g: TensorField) -> GeneralizedMetric:
    """The package of (g, 0), after checking that g is positive definite at
    the sample points."""
    _check_positive_definite(g)
    return GeneralizedMetric(g, None, tn.metric_inverse(g))


# ---------------------------------------------------------------------------
# shears: e^B and F_theta
# ---------------------------------------------------------------------------


def b_twist(psi: GenSection, B: TensorField) -> GenSection:
    """e^B(X, xi) = (X, xi + B(X)); orthogonal for the pairing."""
    form = psi.form.comps + tn.contract("ma,a->m", B.comps, psi.vec.comps)
    return GenSection(psi.vec, TensorField(psi.chart, (DOWN,), form))


def twisted_bracket_check(B: TensorField, H: TensorField):
    """(max residual, worst point) of e^B([psi,phi]^{H+dB}) - [e^B psi,
    e^B phi]^H over three seeded section pairs, as ``ex.worst_of`` picks it;
    a zero residual means e^B intertwines the two brackets.  B and H are
    taken to be validated: a 2-form and a closed 3-form."""
    chart = B.chart
    HdB = H + tn.exterior_derivative(B)
    gen = chart.rng(101)
    sections = [(random_section(chart, gen), random_section(chart, gen)) for _ in range(3)]
    pts = chart.sample_points()

    def residual(psi, phi):
        lhs = b_twist(dorfman(psi, phi, HdB), B)
        rhs = dorfman(b_twist(psi, B), b_twist(phi, B), H)
        return (lhs - rhs).max_abs(pts)

    return ex.worst_of(residual(psi, phi) for psi, phi in sections)


def theta_matrix_from_b(B: TensorField) -> TensorField:
    """theta = B^{-1} as a bivector: theta^{m n} with theta(B(X)) = X, for
    a validated 2-form B.  Raises SingularB on odd-dimensional charts or
    degenerate B."""
    chart = B.chart
    n = chart.dim
    if n % 2 == 1:
        raise SingularB("an antisymmetric 2-form on an odd-dimensional chart is singular")
    pts = chart.sample_points()
    for p, m in zip(pts, B.evaluate_points(pts)):
        # written so that a NaN or an infinity fails the test, before det sees it
        if not (np.isfinite(m).all() and abs(np.linalg.det(m)) >= tn.DET_TOL):
            raise SingularB(f"B degenerate at sample point {p}")
    inv = tn.matrix_inverse(B.comps)
    # matrix inverse of B_{mn} gives theta with theta^{m a} B_{a n} = delta
    return TensorField(chart, (UP, UP), inv)


def theta_twist_matrices(theta: TensorField, B: TensorField):
    """Frame matrices (F, F^{-1}) of the bivector shear
    F_theta(X, xi) = (theta(xi), xi - B(X)) for theta = B^{-1}, which is
    orthogonal for the pairing, with inverse (X, xi) |-> (X - theta(xi), B(X))."""
    chart = theta.chart
    n = chart.dim
    F = np.empty((2 * n, 2 * n), dtype=object)
    Finv = np.empty((2 * n, 2 * n), dtype=object)
    for m in (F, Finv):
        m.reshape(-1)[:] = [ex.ZERO] * m.size
    for i in range(n):
        for j in range(n):
            F[i, n + j] = theta.comps[i, j]
            F[n + i, j] = neg(B.comps[i, j])
            Finv[i, j] = ex.ONE if i == j else ex.ZERO
            Finv[i, n + j] = neg(theta.comps[i, j])
            Finv[n + i, j] = B.comps[i, j]
        F[n + i, n + i] = ex.ONE
    return F, Finv


# ---------------------------------------------------------------------------
# bivectors: Schouten residual, Koszul bracket, cotangent Lie algebroid
# ---------------------------------------------------------------------------


def schouten_check(theta: TensorField, twist: TensorField) -> TensorField:
    """Componentwise residual of
        (1/2)[theta,theta](xi,eta,zeta) + twist(theta xi, theta eta, theta zeta)
    on coordinate 1-forms; identically zero iff theta is a twisted Poisson
    structure for the given twist 3-form."""
    tn.check_antisymmetric(theta)
    chart = theta.chart
    n = chart.dim
    coords = chart.coords()
    th = theta.comps
    tw = tn.contract("abc,ai,bj,ck->ijk", twist.comps, th, th, th)
    out = np.empty((n, n, n), dtype=object)
    for i, j, k in itertools.product(range(n), repeat=3):
        # (1/2)[theta,theta](dx^i, dx^j, dx^k), from the bracket identity
        # [theta xi, theta eta] - theta(L_{theta xi} eta - i_{theta eta} d xi)
        half = esum(
            [mul(th[a, i], ex.differentiate(th[k, j], coords[a])) for a in range(n)]
            + [neg(mul(th[a, j], ex.differentiate(th[k, i], coords[a]))) for a in range(n)]
            + [neg(mul(th[k, b], ex.differentiate(th[j, i], coords[b]))) for b in range(n)]
        )
        out[i, j, k] = add(half, tw[i, j, k])
    return TensorField(chart, (UP, UP, UP), out)


def validate_twisted_poisson(theta: TensorField, twist: TensorField):
    res = schouten_check(theta, twist)
    worst, _ = res.max_abs()
    if not worst <= 1e-9:
        raise NotTwistedPoisson(worst)


def koszul(xi: TensorField, eta: TensorField, theta: TensorField, H: TensorField) -> TensorField:
    """Twisted Koszul bracket on 1-forms:
    [xi, eta] = L_{theta xi} eta - i_{theta eta} d xi + H(theta xi, theta eta, .).

    The twist enters as an honest 1-form in the last slot; this is the
    reading under which theta is a bracket morphism onto vector-field
    commutators (see the test suite)."""
    chart = xi.chart
    thxi = TensorField(chart, (UP,), tn.contract("ma,a->m", theta.comps, xi.comps))
    theta_eta = TensorField(chart, (UP,), tn.contract("ma,a->m", theta.comps, eta.comps))
    lie = tn.lie_derivative_oneform(thxi, eta)
    idxi = tn.interior_product(theta_eta, tn.exterior_derivative(xi))
    hterm = tn.contract("abm,a,b->m", H.comps, thxi.comps, theta_eta.comps)
    return lie - idxi + TensorField(chart, (DOWN,), hterm)


def d_theta(chart: Chart, f, theta: TensorField) -> TensorField:
    """Anchored differential of a function: (d_theta f)(xi) = <df, theta(xi)>,
    a vector field with components theta^{a m} d_a f."""
    df = tn.d_scalar(chart, f)
    return TensorField(chart, (UP,), tn.contract("am,a->m", theta.comps, df.comps))


# ---------------------------------------------------------------------------
# calculus on an anchored frame
# ---------------------------------------------------------------------------


class AnchoredFrame:
    """A bundle over a chart whose sections are spanned by a frame {E_a},
    with an anchor a(E_a)^m and structure functions [E_a, E_b] = C^c_{ab} E_c.

    This is the calculus shared by the cotangent Lie algebroid of an
    invertible 2-form (rank n) and the generalized coordinate frame of a
    Courant algebroid (rank 2n, ``gconn.CourantFrame``): frame derivatives,
    the anchored bracket, connections and their curvature.  Sections are
    component arrays over the frame; exterior forms are plain antisymmetric
    component arrays over the frame indices."""

    def __init__(self, chart: Chart, anchor: np.ndarray, structure: np.ndarray):
        self.chart = chart
        self.rank = anchor.shape[0]
        self.anchor = anchor  # [a, m]: vector field of E_a
        self.structure = structure  # [c, a, b]

    def _along(self, vec, f) -> Expr:
        """Derivative of f along the vector field with components vec."""
        return tn.contract("m,m->", vec, ex.gradient(f, self.chart))

    def frame_derivative(self, a: int, f) -> Expr:
        """a(E_a).f"""
        return self._along(self.anchor[a], f)

    def anchor_of(self, u) -> np.ndarray:
        """Vector-field components of a(u) for a section u^a E_a."""
        return tn.contract("a,am->m", u, self.anchor)

    def connection_apply(self, gamma: np.ndarray, u, v) -> np.ndarray:
        """nab_u v = (u^a v^b Gamma^c_{ab} + a(u).v^c) E_c for connection
        coefficients nab_{E_a} E_b = Gamma^c_{ab} E_c."""
        rho_u = self.anchor_of(u)
        out = tn.contract("a,b,cab->c", u, v, gamma)
        for c in range(self.rank):
            out[c] = add(out[c], self._along(rho_u, v[c]))
        return out

    def connection_apply_dual(self, gamma: np.ndarray, a: int, x) -> np.ndarray:
        """nab_{E_a} on dual sections: (nab x)_b = a(E_a).x_b - Gamma^c_{ab} x_c.
        With gamma = structure this is the Lie derivative L_{E_a}."""
        along = np.array([self.frame_derivative(a, xb) for xb in x], dtype=object)
        return along - tn.contract("cb,c->b", gamma[:, a, :], x)

    def bracket(self, u, v) -> np.ndarray:
        """[u, v]^c = u^a v^b C^c_{ab} + a(u).v^c - a(v).u^c.  A Courant
        bracket adds a left-Leibniz term to this (see gconn)."""
        lie = self.connection_apply(self.structure, u, v)
        rho_v = self.anchor_of(v)
        return np.array(
            [add(lie[c], neg(self._along(rho_v, u[c]))) for c in range(self.rank)], dtype=object
        )

    def differential(self, omega: np.ndarray, degree: int) -> np.ndarray:
        """Cartan formula for d on a degree-p form over the frame."""
        r = self.rank
        p = degree
        out = np.empty((r,) * (p + 1), dtype=object)
        for idx in itertools.product(range(r), repeat=p + 1):
            terms = []
            for i in range(p + 1):
                rest = idx[:i] + idx[i + 1:]
                val = omega[rest] if p else omega[()]
                term = self.frame_derivative(idx[i], val)
                terms.append(term if i % 2 == 0 else neg(term))
            for i in range(p + 1):
                for j in range(i + 1, p + 1):
                    rest = tuple(idx[k] for k in range(p + 1) if k not in (i, j))
                    for c in range(r):
                        coef = self.structure[c, idx[i], idx[j]]
                        if ex.is_zero(coef):
                            continue
                        term = mul(coef, omega[(c,) + rest])
                        terms.append(term if (i + j) % 2 == 0 else neg(term))
            out[idx] = esum(terms)
        return out

    def lc_connection(self, g_A: np.ndarray) -> np.ndarray:
        """Torsion-free metric connection coefficients Gamma^c_{ab} from
        nab_{E_a} E_b =
          (1/2) { [E_a, E_b] + g^{-1}( L_{E_a}(g E_b) + i_{E_b} d(g E_a) ) }."""
        r = self.rank
        g_inv = tn.matrix_inverse(g_A)
        out = np.empty((r, r, r), dtype=object)  # [c, a, b]
        for a in range(r):
            for b in range(r):
                lie = self.connection_apply_dual(self.structure, a, g_A[:, b])
                dga = self.differential(g_A[:, a], 1)  # [c, d] 2-form
                raised = tn.contract("cd,d->c", g_inv, lie + dga[b])
                out[:, a, b] = 0.5 * (self.structure[:, a, b] + raised)
        return out

    def covariant_derivative_at(self, gamma: np.ndarray, omega: np.ndarray, points) -> np.ndarray:
        """nab[a, i1..ip, p]: ``covariant_derivative`` of a covariant frame
        tensor omega, an object array of Expr, at ``points``, for the values
        gamma[c, a, b, p] of connection coefficients there, from the jets of
        omega."""
        return covariant_derivative(gamma, tn.values_at(self.anchor, points),
                                    *tn.jets_at(omega, points))

    def curvature(self, gamma: np.ndarray, dgamma: np.ndarray, points) -> np.ndarray:
        """R0[d, c, a, b, p] (``frame_curvature``) of connection coefficients
        with values gamma[c, a, b, p] and first partials dgamma[c, a, b, m, p]
        at ``points``, where the anchor and the structure functions are
        valued."""
        anchor, C = tn.values_at(self.anchor, points), tn.values_at(self.structure, points)
        return frame_curvature(gamma, dgamma, anchor, C)


def frame_curvature(gamma: np.ndarray, dgamma: np.ndarray, anchor: np.ndarray,
                    C: np.ndarray) -> np.ndarray:
    """The curvature R0[d, c, a, b, p] (the E_d component of R(E_a,E_b)E_c at
    point p) of connection coefficients on an anchored frame, with
        R(E_a,E_b)E_c = nab_a nab_b E_c - nab_b nab_a E_c - nab_{[E_a,E_b]} E_c,
    from float arrays that end in the point axis: gamma[d, b, c, p] =
    Gamma^d_{bc}, dgamma[d, b, c, m, p] its partial along x^m, anchor[a, m, p]
    and C[e, a, b, p].  The frame derivative a(E_a).Gamma^d_{bc} is
    anchor[a, m] dgamma[d, b, c, m].  Plain ``np.einsum`` (no BLAS), so the
    same inputs give the same bits."""
    along = np.einsum("amp,dbcmp->dcabp", anchor, dgamma)  # a(E_a).Gamma^d_{bc}
    return (along - along.swapaxes(2, 3)
            + np.einsum("ebcp,daep->dcabp", gamma, gamma)
            - np.einsum("eacp,dbep->dcabp", gamma, gamma)
            - np.einsum("eabp,decp->dcabp", C, gamma))


def covariant_derivative(gamma: np.ndarray, anchor: np.ndarray, omega: np.ndarray,
                         domega: np.ndarray) -> np.ndarray:
    """nab[a, i1..ip, p] = (nab_{E_a} omega)(E_i1, .., E_ip) at point p for a
    degree-p frame form (or any covariant frame tensor) omega:
        a(E_a).omega_{i1..ip} - sum_s Gamma^c_{a i_s} omega_{i1..c..ip},
    from float arrays that end in the point axis: gamma[c, a, b, p],
    anchor[a, m, p], omega[i1..ip, p] and domega[i1..ip, m, p], its partial
    along x^m.  Plain ``np.einsum``, as in ``frame_curvature``."""
    slots = "bdefgh"[:omega.ndim - 1]
    out = np.einsum(f"amp,{slots}mp->a{slots}p", anchor, domega)
    for s, b in enumerate(slots):
        moved = slots[:s] + "c" + slots[s + 1:]
        out -= np.einsum(f"ca{b}p,{moved}p->a{slots}p", gamma, omega)
    return out


def frame_torsion(gamma: np.ndarray, C: np.ndarray) -> np.ndarray:
    """T[c, a, b, ...] = Gamma^c_{ab} - Gamma^c_{ba} - C^c_{ab}, the E_c
    component of nab_{E_a} E_b - nab_{E_b} E_a - [E_a, E_b], over arrays with
    any trailing axes.  It is linear, so the partials of gamma and C give
    the partials of T."""
    return gamma - gamma.swapaxes(1, 2) - C


@dataclass
class LieAlgebroidCotangent:
    """T*M with anchor theta and the twisted Koszul bracket."""

    chart: Chart
    theta: TensorField
    twist: TensorField  # 3-form twisting the Koszul bracket (dB in practice)
    algebroid: AnchoredFrame

    @staticmethod
    def build(theta: TensorField, twist: TensorField) -> "LieAlgebroidCotangent":
        """The algebroid of theta, after checking that its twisted Jacobi
        residual vanishes at the sample points."""
        chart = theta.chart
        validate_twisted_poisson(theta, twist)
        n = chart.dim
        anchor = theta.comps.T.copy()  # [a, m] = theta(dx^a)^m
        structure = np.empty((n, n, n), dtype=object)
        frame_forms = [
            tn.from_function(chart, (DOWN,), lambda i, a=a: ex.ONE if i == a else ex.ZERO)
            for a in range(n)
        ]
        for a in range(n):
            for b in range(n):
                br = koszul(frame_forms[a], frame_forms[b], theta, twist)
                for c in range(n):
                    structure[c, a, b] = br.comps[c]
        return LieAlgebroidCotangent(chart, theta, twist, AnchoredFrame(chart, anchor, structure))
