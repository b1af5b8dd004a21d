"""Shared builders for random chart backgrounds, and the symbolic
formulas that the numeric stages are checked against: each is the
expression version of a quantity that ``streff.Derived`` computes as jets
from the scene's fields (``Oracle``), or that ``gtb`` computes from the
jets of random sections (``GenSection``, ``dorfman``, ...), built with
exact differentiation and valued at the same points."""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gencourant import tensors as tn
from gencourant.expr import Chart, chart
from gencourant.scene import from_upper
from gencourant.streff import Background
from gencourant.tensors import DOWN, UP

ex = tn.ex


# ---------------------------------------------------------------------------
# fields as object arrays, vector calculus and the Dorfman bracket
# ---------------------------------------------------------------------------


def from_function(c, rank, fn):
    """The object array of shape (n,) * rank with entries fn(*idx)."""
    out = tn.zeros_array((c.dim,) * rank)
    for idx in np.ndindex(out.shape):
        out[idx] = ex._coerce(fn(*idx))
    return out


def identity(n):
    """The n x n identity as an object array of ONE and ZERO."""
    return np.where(np.eye(n, dtype=bool), ex.ONE, ex.ZERO)


def at(a, point):
    """The float values of an object array of Expr at one point."""
    return tn.values_at(a, [point])[..., 0]


def max_abs_of(a, points):
    """The largest |value| of an Expr or an object array of them at points."""
    return ex.max_abs_on_points(tn.values_at(a, points), points)[0]


def antisymmetrize(t, slots):
    """The alternation of an object array over the given slots."""
    terms = []
    for perm in itertools.permutations(range(len(slots))):
        # term[idx] = t[src] with src[slots[pos]] = idx[slots[perm[pos]]]
        axes = list(range(t.ndim))
        for pos, s in enumerate(slots):
            axes[slots[perm[pos]]] = s
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
        terms.append(-t.transpose(axes) if odd else t.transpose(axes))
    return (1.0 / math.factorial(len(slots))) * np.stack(terms).sum(axis=0)


def lie_bracket(c, x, y):
    """Commutator of two vector fields: [X, Y]^c = X^a d_a Y^c - Y^a d_a X^c."""
    dx, dy = tn.partials(x, c), tn.partials(y, c)
    return np.einsum("as,sca->c", np.stack([x, y], 1), np.stack([dy, -dx]))


def lie_derivative_oneform(c, x, eta):
    """(L_X eta)_m = X^a d_a eta_m + eta_a d_m X^a."""
    dx, deta = tn.partials(x, c), tn.partials(eta, c)
    return np.einsum("as,sma->m", np.stack([x, eta], 1), np.stack([deta, dx.T]))


def interior_product(x, omega):
    """i_X omega: plug the vector into the first slot of a covariant form."""
    rest = "bcdefgh"[:omega.ndim - 1]
    return np.einsum(f"a,a{rest}->{rest}", x, omega)


@dataclass
class GenSection:
    """Section (X, xi) of TM (+) T*M as object arrays of Expr."""

    chart: Chart
    vec: np.ndarray
    form: np.ndarray

    def components(self):
        """Length-2n object array over the frame (d_mu, 0), (0, dx^mu)."""
        return np.concatenate([self.vec, self.form])

    @staticmethod
    def from_components(c, comps):
        comps = np.asarray(comps, dtype=object)
        return GenSection(c, comps[:c.dim], comps[c.dim:])

    def __add__(self, other):
        return GenSection(self.chart, self.vec + other.vec, self.form + other.form)

    def __sub__(self, other):
        return GenSection(self.chart, self.vec - other.vec, self.form - other.form)

    def scale(self, factor):
        return GenSection(self.chart, np.multiply(factor, self.vec), np.multiply(factor, self.form))

    def max_abs(self, points=None):
        points = points or self.chart.sample_points()
        return ex.max_abs_on_points(tn.values_at(self.components(), points), points)


def random_section(c, gen):
    """Random section with polynomial coefficients of total degree <= 2,
    drawn as ``gtb.random_sections`` draws one."""
    comps = np.array([ex.random_polynomial(c, gen) for _ in range(2 * c.dim)], dtype=object)
    return GenSection.from_components(c, comps)


def pairing(psi, phi):
    """<(X,xi),(Y,eta)> = eta(X) + xi(Y)."""
    return ex.add(np.einsum("a,a->", phi.form, psi.vec), np.einsum("a,a->", psi.form, phi.vec))


def d_map(c, f):
    """f |-> (0, df)."""
    return GenSection(c, tn.zeros_array(c.dim), tn.partials(f, c))


def dorfman(psi, phi, H):
    """[(X,xi),(Y,eta)] = ([X,Y], L_X eta - i_Y d xi - H(X,Y,.)) for the
    Expr array of a closed 3-form H."""
    c = psi.chart
    X, xi = psi.vec, psi.form
    Y, eta = phi.vec, phi.form
    lie = lie_derivative_oneform(c, X, eta)
    iydxi = interior_product(Y, tn.d_of_partials(tn.partials(xi, c), 1))
    hterm = np.einsum("abm,a,b->m", H, X, Y)
    return GenSection(c, lie_bracket(c, X, Y), lie - iydxi - hterm)


def jacobiator(psi, phi, chi, H):
    """[psi,[phi,chi]] - [[psi,phi],chi] - [phi,[psi,chi]]."""
    br = lambda a, b: dorfman(a, b, H)
    return br(psi, br(phi, chi)) - br(br(psi, phi), chi) - br(phi, br(psi, chi))


def b_twist(psi, B):
    """e^B(X, xi) = (X, xi + B(X)) for the Expr array of a 2-form B."""
    return GenSection(psi.chart, psi.vec, psi.form + np.einsum("ma,a->m", B, psi.vec))


def bumpy_metric(c, scale=0.2, salt=1):
    gen = c.rng(salt)
    n = c.dim
    pert = [[tn.ex.random_polynomial(c, gen, 2, scale) for _ in range(n)] for _ in range(n)]
    return from_function(
        c, 2, lambda i, j: (tn.ex.ONE if i == j else tn.ex.ZERO) + pert[min(i, j)][max(i, j)],
    )


def well_conditioned(g, c, floor=0.05):
    """Whether the eigenvalues of the metric g are at least ``floor`` at
    every sample point.  A random ``bumpy_metric`` can be indefinite or
    nearly singular there, which no scene may be; the 1e-12 comparisons
    with the oracles need a metric a scene could have, since a
    near-singular one amplifies the roundoff of either side past them."""
    values = np.moveaxis(tn.values_at(g, c.sample_points()), -1, 0)
    return np.linalg.eigvalsh(values).min() >= floor


def bumpy_b(c, salt=2, scale=0.2, offset=0.0):
    """Random polynomial 2-form; offset adds a constant top block so the
    form is invertible on even charts."""
    gen = c.rng(salt)
    coeffs = {}
    for i in range(c.dim):
        for j in range(i + 1, c.dim):
            e = tn.ex.random_polynomial(c, gen, 2, scale)
            if offset and j == i + 1 and i % 2 == 0:
                e = e + offset
            coeffs[(i, j)] = e
    return from_upper(c.dim, 2, coeffs)


def random_background(n, salt, with_b=True, with_h=True, invertible_b=False, seed=500,
                      num_points=12):
    names = "x y z w"[: 2 * n - 1]
    c = chart(names, seed=seed + salt, num_points=num_points)
    gen = c.rng(salt + 17)
    g = bumpy_metric(c, salt=salt)
    B = (
        bumpy_b(c, salt=salt + 1, offset=1.0 if invertible_b else 0.0)
        if with_b
        else tn.zeros_array((n, n))
    )
    phi = tn.ex.random_polynomial(c, gen, 2, 0.3)
    H = tn.d_of_partials(tn.partials(bumpy_b(c, salt=salt + 2), c), 2) if with_h else None
    return Background(c, g, B, phi, H)


def symbolic_covariant_derivative(frame, gamma, omega):
    """nab[a, i1..ip] of a covariant frame tensor omega as expressions, from
    the definition a(E_a).omega_{i1..ip} - sum_s Gamma^c_{a i_s} omega_{..c..},
    with the frame derivative anchor[a, m] d omega / d x^m by
    ``differentiate``."""
    ex = tn.ex
    r = frame.rank
    coords = frame.chart.coords()
    out = np.empty((r,) + omega.shape, dtype=object)
    for a in range(r):
        for idx in itertools.product(range(r), repeat=omega.ndim):
            terms = [ex.mul(frame.anchor[a, m], ex.differentiate(omega[idx], x))
                     for m, x in enumerate(coords)]
            for s, b in enumerate(idx):
                for c in range(r):
                    moved = idx[:s] + (c,) + idx[s + 1:]
                    terms.append(ex.neg(ex.mul(gamma[c, a, b], omega[moved])))
            out[(a,) + idx] = ex.add(*terms)
    return out


def symbolic_gualtieri_torsion(frame, gamma):
    """T[a, b, c] = <nab_a e_b - nab_b e_a - [e_a, e_b], e_c> + <nab_c e_a, e_b>
    as expressions, for the swap Gram of a Courant frame."""
    ex = tn.ex
    out = np.empty((frame.rank,) * 3, dtype=object)
    for a, b, c in itertools.product(range(frame.rank), repeat=3):
        sc, sb = frame.swap(c), frame.swap(b)
        out[a, b, c] = ex.add(gamma[sc, a, b], ex.neg(gamma[sc, b, a]),
                              ex.neg(frame.structure[sc, a, b]), gamma[sb, c, a])
    return out


# ---------------------------------------------------------------------------
# the parameter family and the transports, as expressions
# ---------------------------------------------------------------------------


def symbolic_param_tensor_frame(J, W, g, ginv):
    """K[A, B, C] of ``gconn.param_tensor_frame`` as expressions, from the
    Expr arrays of J, W, g and g^{-1}, one term per frame type combination:
    W with g^{-1} on the form legs when an odd number of legs are forms,
    else -J with g on the vector legs."""
    n = g.shape[0]
    K = np.empty((2 * n,) * 3, dtype=object)
    for A, B, C in itertools.product(range(2 * n), repeat=3):
        legs = [(s >= n, s % n) for s in (A, B, C)]
        odd = sum(f for f, _ in legs) % 2 == 1
        terms = []
        for idx in itertools.product(range(n), repeat=3):
            factors = []
            for (is_form, i), a in zip(legs, idx):
                if is_form == odd:
                    factors.append(ginv[i, a] if odd else g[a, i])
                elif a != i:
                    break
            else:
                factors.append(W[idx] if odd else J[idx])
                terms.append(ex.mul(*factors))
        K[A, B, C] = ex.add(*terms) if odd else ex.neg(ex.add(*terms))
    return K


def symbolic_with_params(frame, gamma, J, W, g, ginv):
    """Gamma^C_{AB} + K[A, B, swap(C)] as expressions."""
    K = symbolic_param_tensor_frame(J, W, g, ginv)
    out = np.empty(gamma.shape, dtype=object)
    for c, a, b in itertools.product(range(frame.rank), repeat=3):
        out[c, a, b] = ex.add(gamma[c, a, b], K[a, b, frame.swap(c)])
    return out


def param_jets(J, W, c):
    """The jets at the sample points of a parameter pair of Expr arrays,
    as ``gconn.validate_params`` takes them."""
    return tn.jets_at(J, c), tn.jets_at(W, c)


def projected_params(J, W):
    """The Expr arrays of the parameter pair that ``gconn.validate_params``
    makes of (J, W): T - Alt(T)."""
    return tuple(t - antisymmetrize(t, (0, 1, 2)) for t in (J, W))


def symbolic_transport(frame, gamma, F, Finv):
    """F^{-1 G}_E ( F^C_A F^D_B Gamma^E_{CD} + F^C_A rho(e_C).F^E_B ) as
    expressions, with the frame derivative of the source ``frame`` written
    with ``differentiate``."""
    r = frame.rank
    coords = frame.chart.coords()
    out = np.empty((r,) * 3, dtype=object)
    for g_, a, b in itertools.product(range(r), repeat=3):
        terms = []
        for e, c in itertools.product(range(r), repeat=2):
            for d in range(r):
                terms.append(ex.mul(Finv[g_, e], F[c, a], F[d, b], gamma[e, c, d]))
            for m, x in enumerate(coords):
                terms.append(ex.mul(Finv[g_, e], F[c, a], frame.anchor[c, m],
                                    ex.differentiate(F[e, b], x)))
        out[g_, a, b] = ex.add(*terms)
    return out


def shear_matrix(B, sign):
    """Frame matrix of e^{sign*B} as expressions."""
    n = B.shape[0]
    one, zero = identity(n), tn.zeros_array((n, n))
    return np.block([[one, zero], [B if sign > 0 else -B, one]])


def theta_twist_matrices(theta, B):
    """Frame matrices (F, F^{-1}) of the bivector shear as expressions."""
    n = theta.shape[0]
    one, zero = identity(n), tn.zeros_array((n, n))
    return np.block([[zero, theta], [-B, one]]), np.block([[one, -theta], [B, zero]])


# ---------------------------------------------------------------------------
# symbolic linear algebra and the classical operators
# ---------------------------------------------------------------------------


def _det(m):
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    if n == 2:
        return ex.add(ex.mul(m[0, 0], m[1, 1]), ex.neg(ex.mul(m[0, 1], m[1, 0])))
    terms = []
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        term = ex.mul(m[0, j], _det(minor))
        terms.append(term if j % 2 == 0 else ex.neg(term))
    return ex.add(*terms)


def matrix_inverse(m):
    """Adjugate-over-determinant inverse of a square object array of Expr."""
    n = m.shape[0]
    d = _det(m)
    out = np.empty((n, n), dtype=object)
    if n == 1:
        out[0, 0] = ex.div(ex.ONE, d)
        return out
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(m, j, axis=0), i, axis=1)
            cof = _det(minor)
            out[i, j] = ex.div(ex.neg(cof) if (i + j) % 2 else cof, d)
    return out


def christoffel(g, ginv, c):
    """Gamma^k_{ij} = (1/2) g^{kl} (d_i g_{lj} + d_j g_{il} - d_l g_{ij}) as
    expressions, from the Expr arrays of g and g^{-1}."""
    n = c.dim
    dg = np.moveaxis(tn.partials(g, c), -1, 0)  # dg[l, i, j] = d_l g_{ij}
    out = np.empty((n, n, n), dtype=object)
    for k, i, j in itertools.product(range(n), repeat=3):
        out[k, i, j] = ex.mul(0.5, ex.add(*(
            ex.mul(ginv[k, l], ex.add(dg[i, l, j], dg[j, i, l], ex.neg(dg[l, i, j])))
            for l in range(n))))
    return out


def riemann_entry(G, c, k, l, i, j):
    """R^k_{lij} of the coefficients G as an expression."""
    terms = [ex.differentiate(G[k, j, l], c.coord(i)), ex.neg(ex.differentiate(G[k, i, l], c.coord(j)))]
    for m in range(c.dim):
        terms.append(ex.mul(G[k, i, m], G[m, j, l]))
        terms.append(ex.neg(ex.mul(G[k, j, m], G[m, i, l])))
    return ex.add(*terms)


def covariant_derivative(t, variance, G, c):
    """nab t with one extra leading down slot, as expressions, for an Expr
    array t of the given variance and coefficients G."""
    idx = "acdefgh"[:len(variance)]
    terms = [np.moveaxis(tn.partials(t, c), -1, 0)[None]]
    for slot, var in enumerate(variance):
        a, src = idx[slot], idx[:slot] + "b" + idx[slot + 1:]
        if var == UP:
            terms.append(np.einsum(f"{a}mb,{src}->bm{idx}", G, t))
        else:
            terms.append(np.einsum(f",bm{a},{src}->bm{idx}", -1.0, G, t))
    return np.einsum(f"zm{idx}->m{idx}", np.concatenate(terms))


def form_inner(alpha, beta, ginv):
    """(1/p!) alpha_{i1..ip} beta^{i1..ip} as an expression."""
    p = alpha.ndim
    if p == 0:
        return ex.mul(alpha[()], beta[()])
    slots = "abcdefgh"[:p]
    raised = beta
    for s in range(p):
        raised = np.einsum(f"{slots[s]}z,{slots[:s]}z{slots[s + 1:]}->{slots}", ginv, raised)
    return ex.mul(1.0 / math.factorial(p), np.einsum(f"{slots},{slots}->", alpha, raised))


def codifferential(omega, G, ginv, c):
    rest = "bcdefgh"[:omega.ndim - 1]
    nab = covariant_derivative(omega, (DOWN,) * omega.ndim, G, c)
    return -np.einsum(f"ka,ka{rest}->{rest}", ginv, nab)


# ---------------------------------------------------------------------------
# anchored frames as expressions
# ---------------------------------------------------------------------------


class SymbolicFrame:
    """An anchored frame with the Expr arrays anchor[a, m] and structure
    functions C[c, a, b], and the calculus on it as expressions: the
    definitions that the numeric frame calculus is checked against."""

    def __init__(self, c, anchor, structure):
        self.chart = c
        self.rank = anchor.shape[0]
        self.anchor = anchor
        self.structure = structure

    def swap(self, a):
        n = self.chart.dim
        return a + n if a < n else a - n

    def anchor_of(self, u):
        x = "x"[:u.ndim - 1]
        return np.einsum(f"a{x},am->m{x}", u, self.anchor)

    def connection_apply(self, gamma, u, v):
        """nab_u v = (u^a v^b Gamma^c_{ab} + a(u).v^c) E_c, on sections or
        batches u[a, x], v[b, y]."""
        x, y = "x"[:u.ndim - 1], "y"[:v.ndim - 1]
        return (np.einsum(f"a{x},b{y},cab->c{x}{y}", u, v, gamma)
                + np.einsum(f"m{x},c{y}m->c{x}{y}", self.anchor_of(u), tn.partials(v, self.chart)))

    def connection_apply_dual(self, gamma, x):
        """(nab_{E_a} x)_b = a(E_a).x_b - Gamma^c_{ab} x_c (batch x[b, y])."""
        y = "y"[:x.ndim - 1]
        return (np.einsum(f"am,b{y}m->ab{y}", self.anchor, tn.partials(x, self.chart))
                - np.einsum(f"cab,c{y}->ab{y}", gamma, x))

    def bracket(self, u, v):
        """The anchored bracket u^a v^b C^c_{ab} + a(u).v^c - a(v).u^c."""
        x, y = "x"[:u.ndim - 1], "y"[:v.ndim - 1]
        return (self.connection_apply(self.structure, u, v)
                - np.einsum(f"m{y},c{x}m->c{x}{y}", self.anchor_of(v), tn.partials(u, self.chart)))

    def courant_bracket(self, u, v):
        """The bracket plus the left-Leibniz term <e_A, v> D(u^A) of a
        Courant bracket, (Df)^C = rho(e_swap(C)).f."""
        x, y = "x"[:u.ndim - 1], "y"[:v.ndim - 1]
        n = self.chart.dim
        eta = np.block([[np.zeros((n, n)), np.eye(n)], [np.eye(n), np.zeros((n, n))]])
        paired = np.einsum(f"b{y},ab->a{y}", v, eta)
        dual_anchor = self.anchor[[self.swap(a) for a in range(self.rank)]]
        products = np.einsum(f"cm,a{x}m->ca{x}m", dual_anchor, tn.partials(u, self.chart))
        return self.bracket(u, v) + np.einsum(f"a{y},ca{x}m->c{x}{y}", paired, products)

    def differential(self, omega, degree):
        """Cartan's d on a degree-p frame form omega[i1..ip] (or a batch
        omega[i1..ip, x])."""
        idx = "abdefgh"[:degree + 1]
        x = "x"[:omega.ndim - degree]
        along = np.einsum(f"{idx[0]}m,{idx[1:]}{x}m->{idx}{x}", self.anchor,
                            tn.partials(omega, self.chart))
        terms = [np.moveaxis(along, 0, k)[None] for k in range(degree + 1)]
        terms = [t if k % 2 == 0 else -t for k, t in enumerate(terms)]
        for k, l in itertools.combinations(range(degree + 1), 2):
            spec = f"c{idx[k]}{idx[l]},c{idx[:k]}{idx[k + 1:l]}{idx[l + 1:]}{x}->c{idx}{x}"
            terms.append(np.einsum(spec, self.structure, omega) if (k + l) % 2 == 0
                         else np.einsum("," + spec, -1.0, self.structure, omega))
        return np.einsum(f"z{idx}{x}->{idx}{x}", np.concatenate(terms))

    def lc_connection(self, g_A):
        """Levi-Civita coefficients of the fiber metric g_A as expressions."""
        lie = self.connection_apply_dual(self.structure, g_A)
        dga = self.differential(g_A, 1)
        raised = np.einsum("cd,abd->cab", matrix_inverse(g_A),
                             lie.transpose(0, 2, 1) + dga.transpose(2, 0, 1))
        return 0.5 * (self.structure + raised)


def standard_frame(c, H):
    """The twisted Dorfman bracket on the coordinate frame, for the Expr
    array of the twist."""
    n = c.dim
    anchor = np.concatenate([identity(n), tn.zeros_array((n, n))])
    brackets = tn.zeros_array((2 * n,) * 3)
    brackets[n:, :n, :n] = np.moveaxis(-H, 2, 0)
    return SymbolicFrame(c, anchor, brackets)


def conjugated_frame(c, F, Finv, source):
    """The bracket of ``source`` pulled back through F, as expressions."""
    anchor = source.anchor_of(F).T
    return SymbolicFrame(c, anchor, np.einsum("cd,dab->cab", Finv, source.courant_bracket(F, F)))


def koszul(c, xi, eta, theta, H):
    """Twisted Koszul bracket on 1-forms (Expr arrays):
    [xi, eta] = L_{theta xi} eta - i_{theta eta} d xi + H(theta xi, theta eta, .)."""
    thxi = np.einsum("ma,a->m", theta, xi)
    theta_eta = np.einsum("ma,a->m", theta, eta)
    lie = lie_derivative_oneform(c, thxi, eta)
    idxi = interior_product(theta_eta, tn.d_of_partials(tn.partials(xi, c), 1))
    return lie - idxi + np.einsum("abm,a,b->m", H, thxi, theta_eta)


def cotangent_frame(c, theta, twist):
    """The cotangent Lie algebroid of the bivector theta (an Expr array),
    with the Koszul bracket twisted by the 3-form ``twist``."""
    frame = identity(c.dim)
    brackets = np.array([[koszul(c, fa, fb, theta, twist) for fb in frame] for fa in frame],
                        dtype=object)
    return SymbolicFrame(c, theta.T.copy(), np.moveaxis(brackets, -1, 0))


# ---------------------------------------------------------------------------
# the numeric stages of a background, as expressions
# ---------------------------------------------------------------------------


class Oracle:
    """The Expr versions of what ``streff.Derived`` computes as numbers for
    a background: each attribute is an Expr array built from the parsed
    fields by exact differentiation."""

    def __init__(self, bg):
        self.bg = bg
        self.chart = bg.chart

    def values(self, e):
        return tn.values_at(e, self.chart.sample_points())

    def jets(self, e):
        return tn.jets_at(e, self.chart)

    @cached_property
    def ginv(self):
        return matrix_inverse(self.bg.g)

    @cached_property
    def gamma(self):
        return christoffel(self.bg.g, self.ginv, self.chart)

    @cached_property
    def dB(self):
        return tn.d_of_partials(tn.partials(self.bg.B, self.chart), 2)

    @cached_property
    def h_prime(self):
        return self.bg.H + self.dB

    @cached_property
    def curvature(self):
        n, c = self.chart.dim, self.chart
        ric = np.empty((n, n), dtype=object)
        for l, j in itertools.product(range(n), repeat=2):
            ric[l, j] = ex.add(*(riemann_entry(self.gamma, c, k, l, k, j) for k in range(n)))
        return ric, np.einsum("lj,lj->", self.ginv, ric)

    @cached_property
    def dphi(self):
        return tn.partials(self.bg.phi, self.chart)

    @cached_property
    def hessian(self):
        return covariant_derivative(self.dphi, (DOWN,), self.gamma, self.chart)

    @cached_property
    def grad(self):
        return np.einsum("az,z->a", self.ginv, self.dphi)

    @cached_property
    def laplacian(self):
        return np.einsum("kk->", covariant_derivative(self.grad, (UP,), self.gamma, self.chart))

    @cached_property
    def delta_h(self):
        return codifferential(self.h_prime, self.gamma, self.ginv, self.chart)

    @cached_property
    def betas(self):
        """(beta_g, beta_B, beta_phi) by the index-free assembly."""
        Hp, ginv, n = self.h_prime, self.ginv, self.chart.dim
        ric, rscal = self.curvature
        inner = np.array([[form_inner(Hp[i], Hp[j], ginv) for j in range(n)] for i in range(n)],
                         dtype=object)
        beta_g = np.einsum("zij->ij", np.stack([ric, np.einsum(",ij->ij", -0.5, inner),
                                                  self.hessian, self.hessian.T]))
        beta_B = (np.einsum(",ij->ij", 0.5, self.delta_h)
                  + np.einsum("ija,a->ij", Hp, self.grad))
        norm2 = np.einsum("a,a->", self.dphi, self.grad)
        beta_phi = ex.add(rscal, ex.mul(-0.5, form_inner(Hp, Hp, ginv)),
                          ex.mul(4.0, self.laplacian), ex.mul(-4.0, norm2))
        return beta_g, beta_B, beta_phi

    @cached_property
    def standard(self):
        return standard_frame(self.chart, self.h_prime)

    @cached_property
    def block_transport(self):
        n = self.chart.dim
        gamma = tn.zeros_array((2 * n,) * 3)
        gamma[:n, :n, :n] = self.gamma
        gamma[n:, :n, n:] = -self.gamma.transpose(2, 1, 0)
        return gamma

    @cached_property
    def minimal(self):
        n, ginv, Hc = self.chart.dim, self.ginv, self.h_prime
        gamma = self.block_transport.copy()
        vec, form = slice(0, n), slice(n, 2 * n)
        for block, c, term in (
                ((form, vec, vec), -1.0 / 3.0, np.moveaxis(Hc, 2, 0)),
                ((vec, vec, form), -1.0 / 3.0, np.einsum("la,vb,mba->lmv", ginv, ginv, Hc)),
                ((vec, form, vec), 1.0 / 6.0, np.einsum("la,mb,bva->lmv", ginv, ginv, Hc)),
                ((form, form, form), 1.0 / 6.0, np.einsum("ma,vb,abl->lmv", ginv, ginv, Hc))):
            gamma[block] = gamma[block] + np.einsum(",lmv->lmv", c, term)
        return gamma

    @cached_property
    def dilaton(self):
        """The dilaton parameters added to the minimal coefficients: the
        dilaton connection of the block picture, on ``standard``."""
        n, g = self.chart.dim, self.bg.g
        W = np.einsum(",zijk->ijk", 1.0 / (n - 1), np.stack(
            [np.einsum("ij,k->ijk", g, self.dphi), np.einsum(",ik,j->ijk", -1.0, g, self.dphi)]))
        return symbolic_with_params(self.standard, self.minimal, tn.zeros_array((n,) * 3), W, g, self.ginv)

    @cached_property
    def theta(self):
        return matrix_inverse(self.bg.B)

    @cached_property
    def cotangent(self):
        return cotangent_frame(self.chart, self.theta, self.dB)

    @cached_property
    def g_A(self):
        return -np.einsum("am,mk,kb->ab", self.theta, self.bg.g, self.theta)

    @cached_property
    def lc_gamma(self):
        return self.cotangent.lc_connection(self.g_A)

    @cached_property
    def theta_matrices(self):
        """(F, F^{-1}) of the bivector shear read from the block picture:
        e^{-B} composed with F_theta, and the inverse in reverse order."""
        B = self.bg.B
        F, Finv = theta_twist_matrices(self.theta, B)
        return (np.einsum("ab,bc->ac", shear_matrix(B, -1), F),
                np.einsum("ab,bc->ac", Finv, shear_matrix(B, +1)))

    @cached_property
    def theta_connection(self):
        F, Finv = self.theta_matrices
        return symbolic_transport(self.standard, self.dilaton, F, Finv)


# ---------------------------------------------------------------------------
# closed forms of the parameter family in the chart geometry
# ---------------------------------------------------------------------------


def partial_traces(g, J, W):
    """The Expr arrays of the partial traces J'^l = g_{ak} J^{kal} and
    W'_l = g^{ka} W_{kal} of a parameter pair."""
    return np.einsum("ak,kal->l", g, J), np.einsum("ka,kal->l", matrix_inverse(g), W)


def family_closed_forms(c, g, H, J, W):
    """Closed forms, in the chart geometry of g (``riemann``), of what the
    connection minimal(g, H) + (J, W) gives, at the chart's sample points:
    (scalar_E [p], scalar_G [p], off-block Ricci [i, j, p], J' [l, p],
    W' [l, p]), for the Expr arrays of g, H and a projected parameter
    pair."""
    from gencourant import riemann as rm
    from oracles import divergence_oneform

    lc = rm.christoffel(*tn.field_jets(g, c), c)
    Jp, Wp = (tn.jets_at(t, c) for t in partial_traces(g, J, W))
    Hj = tn.jets_at(H, c)
    gv, ginv, Hv, Jv, Wv = lc.g.value, lc.ginv.value, Hj.value, Jp.value, Wp.value
    ric, rg = rm.curvature_package(lc)
    want_e = -4.0 * rm.divergence(Jp, lc) + 8.0 * np.einsum("ap,ap->p", Jv, Wv)
    want_g = (rg - 0.5 * rm.form_inner(Hv, Hv, ginv) + 4.0 * divergence_oneform(Wp, lc)
              - 4.0 * np.einsum("abp,ap,bp->p", ginv, Wv, Wv)
              - 4.0 * np.einsum("abp,ap,bp->p", gv, Jv, Jv))
    nabW = rm.covariant_derivative(Wp, (DOWN,), lc)
    nabJ = rm.covariant_derivative(Jp, (UP,), lc)
    n = c.dim
    inner = np.array([[rm.form_inner(Hv[i], Hv[j], ginv) for j in range(n)] for i in range(n)])
    off = (ric - 0.5 * rm.codifferential(Hj, lc) - 0.5 * inner + nabW + nabW.swapaxes(0, 1)
           + np.einsum("abp,jiap,bp->ijp", ginv, Hv, Wv)
           + np.einsum("iap,ajp->ijp", nabJ, gv) - np.einsum("jap,aip->ijp", nabJ, gv))
    return want_e, want_g, off, Jv, Wv
