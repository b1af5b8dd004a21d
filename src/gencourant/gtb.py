"""The generalized tangent bundle TM (+) T*M over a chart.

Sections are (vector field, 1-form) pairs.  This module provides the
canonical pairing (one frame permutation, ``dual_index``), the twisted
Dorfman bracket (``dorfman``, the only Courant bracket) and its
differential, the generalized metric package built from a pair (g, B), the
frame matrices of the shear e^B (``shear``, the only e^B) and of the
bivector shear e^{-B} o F_theta (``theta_twist_matrices``), the
cotangent Lie algebroid of theta = B^{-1} with its twisted Koszul bracket,
a Schouten residual check, and the calculus on an ``AnchoredFrame``
(Levi-Civita connection of a fiber metric, covariant derivative, torsion,
curvature).
That calculus serves both the cotangent Lie algebroid and the generalized
coordinate frame of TM (+) T*M (``gconn.standard_algebroid``).

Everything here is numbers at the chart's sample points (``tensors.Jet``).
A section is its frame components u[A] over (d_mu, 0), (0, dx^mu): its
values, its jet (values and first partials) or its 2-jet (the jets of u
and of its partials du[A, m]); the random sections of the axioms suite
are polynomial 2-jets.  The pairing, the differential, the e^B shear and
the bracket are one formula each, ``tensors.jet_contract`` on jets and
``np.einsum`` on values, so the bracket of two 2-jets is the jet of the
bracket.  The generalized metric, theta and the shear matrices, the anchor
and the structure functions of a frame and its Levi-Civita connection are
jets too, and ``frame_curvature``, ``covariant_derivative`` and
``frame_torsion`` are einsum stages over float arrays with a trailing
point axis.

Convention: a 2-form acts on a vector through its *second* argument,
B(X) = B(. , X), i.e. B(X)_m = B_{m n} X^n; the same rule applies to
bivectors, theta(xi)^m = theta^{m n} xi_n.  Every matrix realization below
follows this rule.
"""

from __future__ import annotations

import functools

import numpy as np

from . import expr as ex
from . import tensors as tn
from .errors import NotClosed, NotPositiveDefinite, SingularB
from .expr import Chart
from .tensors import Jet

CLOSEDNESS_TOL = 1e-10


# ---------------------------------------------------------------------------
# sections: pairing, differential, Dorfman bracket
# ---------------------------------------------------------------------------


def random_sections(chart: Chart, gen: ex.SplitMix64, count: int) -> list:
    """The 2-jets of ``count`` random sections, each component a random
    polynomial of total degree <= 2 (``tensors.random_polynomial_jets``),
    section by section."""
    u, du = tn.random_polynomial_jets(chart, gen, (count, 2 * chart.dim))
    return [(u[k], du[k]) for k in range(count)]


@functools.lru_cache(maxsize=8)
def dual_index(n: int) -> np.ndarray:
    """The frame index permutation A -> swap(A), (d_mu, 0) <-> (0, dx^mu),
    of TM (+) T*M over an n-chart: e_swap(A) is the pairing-dual of e_A.
    Built once per n, so the array is read-only."""
    swap = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
    swap.flags.writeable = False
    return swap


def _swap(u):
    """The frame components of a section with its vector and form parts
    exchanged, so that <u, v> = u . swap(v)."""
    return u[dual_index(len(u) // 2)]


def pairing(u, v):
    """<(X,xi),(Y,eta)> = eta(X) + xi(Y), split signature (n, n), of two
    sections given by their values or their jets."""
    return tn.jet_contract("a,a->", u, _swap(v))


def pairing_gram(chart: Chart) -> np.ndarray:
    """Constant Gram matrix of the pairing on the coordinate frame: the
    off-diagonal block swap.  It is its own inverse."""
    return np.eye(2 * chart.dim)[dual_index(chart.dim)]


def d_map(df):
    """The bracket-side differential f |-> (0, df), from the values or the
    jet of the partials df[m] of f; any 1-form embeds the same way."""
    embed = lambda t: np.concatenate([np.zeros_like(t), t])
    return df.map(embed) if isinstance(df, Jet) else embed(df)


def check_closed(dH: np.ndarray, points):
    """Raise NotClosed with the max |dH| component unless dH, the values
    [..., p] of the exterior derivative of a 3-form at ``points``,
    vanishes there."""
    worst, _ = ex.max_abs_on_points(dH, points)
    if not worst <= CLOSEDNESS_TOL:
        raise NotClosed(worst)


def dorfman(psi, phi, H: Jet):
    """Twisted Dorfman bracket
    [(X,xi),(Y,eta)] = ([X,Y], L_X eta - i_Y d xi - H(X,Y,.)), for the jet of
    a validated closed 3-form H (``Background`` and ``Derived.h_prime``
    check it once), written on the frame components u of psi and v of phi
    (X and Y their vector parts) as
        X.dv - Y.du + (0, <v, d_m u> - H(X, Y, d_m)).
    On the 2-jets (u, du) of the sections (Jets) it gives the bracket's
    jet; on their jets (values and first partials) it gives its values.
    Batch axes after the frame index (u[A, ...], du[A, m, ...]) broadcast:
    u[A, x, 1] against v[B, 1, y] gives the brackets [C, x, y] of all pairs."""
    (u, du), (v, dv) = psi, phi
    n = len(H)
    twist = H if isinstance(u, Jet) else H.value
    out = tn.jet_contract("a...,ca...->c...", u[:n], dv) - tn.jet_contract("a...,ca...->c...", v[:n], du)
    out[n:] = (out[n:] + tn.jet_contract("a...,am...->m...", _swap(v), du)
               - tn.jet_contract("abm,a...,b...->m...", twist, u[:n], v[:n]))
    return out


def jacobiator(psi, phi, chi, H: Jet) -> np.ndarray:
    """Values of the failure of the in-bracket derivation rule,
    [psi,[phi,chi]] - [[psi,phi],chi] - [phi,[psi,chi]], for the 2-jets of
    the sections and the jet of a validated closed 3-form H."""
    br = lambda a, b: dorfman(a, b, H)
    return br(psi[0], br(phi, chi)) - br(br(psi, phi), chi[0]) - br(phi[0], br(psi, chi))


# ---------------------------------------------------------------------------
# generalized metric
# ---------------------------------------------------------------------------


def check_positive_definite(matrices, points):
    """Raise NotPositiveDefinite at the first of ``points`` where the matrix
    of ``matrices`` (one per point, in order) is not finite, symmetric and
    positive definite."""
    for p, m in zip(points, matrices):
        # written so that a NaN or an infinity fails the test, before m - m.T sees it
        if not (np.isfinite(m).all() and np.max(np.abs(m - m.T)) <= 1e-10):
            raise NotPositiveDefinite(f"metric not finite and symmetric at {tuple(p)}")
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise NotPositiveDefinite(f"metric not positive definite at sample point {tuple(p)}")


class GeneralizedMetric:
    """The (g, B) package at the chart's sample points: fiber metric on
    TM (+) T*M, involution, graph embeddings and projectors, and the
    induced form on T*M.  It is built from the jets of a validated metric g,
    of its inverse g_inv and of a validated 2-form B (None for B = 0).

    Block identities that define it (verified by the test suite):
        G(psi, phi)   = g(X, Y) + g^{-1}(xi - B(X), eta - B(Y))
        tau           = eta^{-1} G        (eta = pairing Gram)
        Psi_pm(X)     = (X, (pm g + B)(X))
        h_G(xi, eta)  = G(rho* xi, rho* eta) = g^{-1}(xi, eta)
    """

    def __init__(self, chart: Chart, g: Jet, B: Jet | None, g_inv: Jet):
        self.chart = chart
        self.g = g
        self.B = B if B is not None else 0.0 * g
        self.g_inv = g_inv
        self._gram = None

    # -- frame matrices ------------------------------------------------

    def gram(self) -> Jet:
        """(2n)x(2n) Gram matrix G_ab = G(e_a, e_b) via the shear product
        form: G = (e^{-B})^T BlockDiag(g, g^{-1}) (e^{-B}); the entries
        below the diagonal are those above it."""
        if self._gram is None:
            n = self.chart.dim
            M = shear(self.B, -1)
            gram = (tn.jet_contract("ij,ia,jb->ab", self.g, M[:n], M[:n])
                    + tn.jet_contract("ij,ia,jb->ab", self.g_inv, M[n:], M[n:]))
            below = np.tril_indices(2 * n, -1)
            gram[below] = gram.map(lambda t: t.swapaxes(0, 1))[below]
            self._gram = gram
        return self._gram

    def gram_inverse(self) -> np.ndarray:
        """Values of the inverse Gram matrix through the shear factorization:
        G^{-1} = M BlockDiag(g^{-1}, g) M^T with M = e^{B}'s frame matrix."""
        M = shear(self.B, +1).value
        core = tn.jet_block([[self.g_inv, 0], [0, self.g]]).value
        return np.einsum("ikp,klp,jlp->ijp", M, core, M)

    def tau_matrix(self) -> np.ndarray:
        """Values of the involution tau = eta^{-1} G on frame components:
        the rows of G in pairing-dual order."""
        return self.gram().value[dual_index(self.chart.dim)]

    # -- graphs of (pm g + B) -------------------------------------------

    def graph(self, sign: int) -> np.ndarray:
        """Values of the frame matrix [A, i, p] of X -> Psi_pm(X) =
        (X, (pm g + B)(X)) on vector components."""
        n, count = self.chart.dim, self.g.value.shape[-1]
        vec = np.broadcast_to(np.eye(n)[..., None], (n, n, count))
        return np.concatenate([vec, sign * self.g.value + self.B.value])

    def projector_matrix(self, sign: int) -> np.ndarray:
        """Values of P_pm = (1 pm tau)/2 on frame components."""
        one = np.eye(2 * self.chart.dim)[..., None]
        return 0.5 * (one + sign * self.tau_matrix())

    def project(self, psi: np.ndarray, sign: int) -> np.ndarray:
        """P_pm psi for the values psi[A, p] of a section."""
        return np.einsum("ijp,jp->ip", self.projector_matrix(sign), psi)

    def h_form(self) -> np.ndarray:
        """Values of the induced symmetric form on T*M, h(xi, eta) =
        G(rho* xi, rho* eta): the form-form block of the Gram matrix
        (rho* xi = (0, xi)).  It equals g^{-1} for every B."""
        n = self.chart.dim
        return self.gram().value[n:, n:]


# ---------------------------------------------------------------------------
# shears: e^B and F_theta
# ---------------------------------------------------------------------------


def shear(B: Jet, sign: int) -> Jet:
    """The jet of the frame matrix of e^{sign*B}, (X, xi) |-> (X, xi + sign B(X)),
    orthogonal for the pairing: B in the (form, vector) corner."""
    return tn.jet_block([[1, 0], [sign * B, 1]])


def b_twist(u, M: Jet):
    """e^B(X, xi) = (X, xi + B(X)) of a section given by its values or its
    jet, for the jet M of e^B's frame matrix (``shear(B, +1)``)."""
    return tn.jet_contract("ca,a->c", M if isinstance(u, Jet) else M.value, u)


def twisted_bracket_check(chart: Chart, B: Jet, H: Jet, h_prime: Jet):
    """(max residual, worst point) of e^B([psi,phi]^{H'}) - [e^B psi,
    e^B phi]^H over three seeded section pairs, as ``ex.worst_of`` picks it
    from the maximum of each pair, from the jets of B, of H and of
    H' = H + dB; a zero residual means e^B intertwines the two brackets.
    B and H are taken to be validated: a 2-form and a closed 3-form.  The
    three pairs are bracketed in one call, side by side on the point axis
    (``tensors.on_points``), with e^B's frame matrix built once."""
    sections = [u for u, _ in random_sections(chart, chart.rng(101), 6)]
    pts = chart.sample_points()
    psi, phi = tn.on_points(*sections[0::2]), tn.on_points(*sections[1::2])
    B, H, h_prime = (tn.on_points(t, t, t) for t in (B, H, h_prime))
    M = shear(B, +1)
    lhs = b_twist(dorfman(psi, phi, h_prime), M)
    rhs = dorfman(b_twist(psi, M), b_twist(phi, M), H)
    return ex.worst_of(ex.max_abs_on_points(r, pts) for r in np.split(lhs - rhs, 3, axis=-1))


def theta_from_b(B: Jet, dB: Jet, points) -> tuple[Jet, Jet]:
    """The 2-jet of theta = B^{-1} as a bivector (theta^{m a} B_{a n} =
    delta) from the 2-jet (B, dB) of a validated 2-form: the jet of theta
    (one ``np.linalg.inv`` per point) and the jet of its partials,
    d theta = -theta dB theta.  Raises SingularB where |det B| < DET_TOL,
    as it is everywhere on an odd-dimensional chart."""
    for p, m in zip(points, np.moveaxis(B.value, -1, 0)):
        # written so that a NaN or an infinity fails the test, before det sees it
        if not (np.isfinite(m).all() and abs(np.linalg.det(m)) >= tn.DET_TOL):
            raise SingularB(f"B degenerate at sample point {tuple(p)}")
    with np.errstate(all="ignore"):
        theta = tn.finite("theta", tn.jet_inverse(B), points)
        dtheta = tn.finite("theta", -tn.jet_contract("ia,abm,bj->ijm", theta, dB, theta), points)
    return theta, dtheta


def theta_twist_matrices(theta: tuple[Jet, Jet], B: tuple[Jet, Jet]):
    """The 2-jet (F, dF) of the frame matrix of the bivector shear read
    from the block picture, e^{-B} o F_theta (X, xi) = (theta(xi), -B(X)),
    with F_theta(X, xi) = (theta(xi), xi - B(X)) for theta = B^{-1}, and
    the jet of its inverse (X, xi) |-> (-theta(xi), B(X)), from the 2-jets
    of theta and B.  It is orthogonal for the pairing; since theta B = 1,
    the form-form block xi - B theta xi is exactly zero, not a difference
    of floats."""
    (th, dth), (b, db) = theta, B
    F = tn.jet_block([[0, th], [-b, 0]])
    dF = tn.jet_block([[0, dth], [-db, 0]])
    return (F, dF), tn.jet_block([[0, -th], [b, 0]])


# ---------------------------------------------------------------------------
# bivectors: Schouten residual, cotangent Lie algebroid
# ---------------------------------------------------------------------------


def schouten_check(theta: Jet, twist: np.ndarray, points) -> np.ndarray:
    """Values [i, j, k, p] of the componentwise residual of
        (1/2)[theta,theta](xi,eta,zeta) + twist(theta xi, theta eta, theta zeta)
    on coordinate 1-forms, from the jet of theta and the values of the
    twist; identically zero iff theta is a twisted Poisson structure for
    the given twist 3-form.  Raises NotAntisymmetric unless theta is."""
    tn.check_antisymmetric(theta.value, points)
    th, dth = theta  # dth[k, j, a] = d_a theta^{kj}
    tw = theta_pullback(twist, th)
    # (1/2)[theta,theta](dx^i, dx^j, dx^k), from the bracket identity
    # [theta xi, theta eta] - theta(L_{theta xi} eta - i_{theta eta} d xi):
    # theta^{ai} d_a theta^{kj} - theta^{aj} d_a theta^{ki} - theta^{kb} d_b theta^{ji}
    half = (np.einsum("aip,kjap->ijkp", th, dth) - np.einsum("ajp,kiap->ijkp", th, dth)
            - np.einsum("kbp,jibp->ijkp", th, dth))
    return half + tw


def theta_pullback(form, theta):
    """form(theta ., theta ., theta .)[i, j, k] = form[a, b, c] theta[a, i]
    theta[b, j] theta[c, k] of a 3-form, for jets, or for their values
    alone: contracted a leg at a time, so no einsum loops over all six
    indices at once."""
    for spec in ("abc,ai->ibc", "ibc,bj->ijc", "ijc,ck->ijk"):
        form = tn.jet_contract(spec, form, theta)
    return form


def d_theta(df: Jet, theta: Jet) -> Jet:
    """Anchored differential of a function from the jet of its partials:
    (d_theta f)(xi) = <df, theta(xi)>, a vector field with components
    theta^{a m} d_a f."""
    return tn.jet_contract("am,a->m", theta, df)


# ---------------------------------------------------------------------------
# calculus on an anchored frame
# ---------------------------------------------------------------------------


# Records are plain classes: a NamedTuple or a dataclass builds methods from generated code at import.
class AnchoredFrame:
    """A bundle over a chart whose sections are spanned by a frame {E_a},
    with an anchor a(E_a)^m and structure functions [E_a, E_b] = C^c_{ab} E_c,
    both held as jets at the chart's sample points: the cotangent Lie
    algebroid (rank n) and the generalized coordinate frame of a Courant
    algebroid (rank 2n), which share the functions below."""

    __slots__ = ("chart", "anchor", "structure")

    def __init__(self, chart: Chart, anchor: Jet, structure: Jet):
        self.chart = chart
        self.anchor = anchor  # [a, m]: vector field of E_a
        self.structure = structure  # [c, a, b]


def lc_connection(frame: AnchoredFrame, g_A: Jet, dg_A: Jet, ginv: Jet) -> Jet:
    """The jet of the torsion-free metric connection coefficients
    Gamma^c_{ab} on ``frame`` for the fiber metric with 2-jet (g_A, dg_A)
    and the jet ``ginv`` of its inverse, from nab_{E_a} E_b =
      (1/2) { [E_a, E_b] + g^{-1}( L_{E_a}(g E_b) + i_{E_b} d(g E_a) ) }."""
    points = frame.chart.sample_points()
    with np.errstate(all="ignore"):
        along = tn.jet_contract("am,bym->aby", frame.anchor, dg_A)  # a(E_a).g_{by}
        Cg = tn.jet_contract("cab,cy->aby", frame.structure, g_A)  # C^c_{ab} g_{cy}
        # lie[a, d, b] = (L_{E_a}(g E_b))_d, dga[b, d, a] = d(g E_a)_{bd}
        lie = along - Cg
        dga = along - along.map(lambda t: t.swapaxes(0, 1)) - Cg
        both = lie.map(lambda t: t.swapaxes(1, 2)) + dga.map(lambda t: np.moveaxis(t, 2, 0))
        gamma = 0.5 * (frame.structure + tn.jet_contract("cd,abd->cab", ginv, both))
        return tn.finite("algebroid Levi-Civita connection jet", gamma, points)


# The five terms of R0[d, c, a, b] = a(E_a).Gamma^d_{bc} - a(E_b).Gamma^d_{ac}
# + Gamma^d_{ae} Gamma^e_{bc} - Gamma^d_{be} Gamma^e_{ac} - C^e_{ab} Gamma^d_{ec},
# each the einsum of two operands (anchor and dgamma, gamma and gamma, C and
# gamma) in the slot names d, c, a, b, the summed frame index e, the
# derivative axis m and the point axis p.
_R0_SPECS = ("amp,dbcmp", "bmp,dacmp", "ebcp,daep", "eacp,dbep", "eabp,decp")
# Summed over a pair of slots that the last two terms share, those terms
# fold into one over gamma and gamma + C with two slots of C swapped: over
# (d, a) it is sum_{e,x} Gamma^e_{xc} (Gamma^x_{be} + C^x_{eb}), over (c, b)
# sum_{e,x} Gamma^d_{xe} (Gamma^e_{ax} + C^x_{ae}).  Per pair of slot
# positions: the folded term's spec and the slots of C swapped.
_R0_FOLDS = {(0, 2): ("eacp,dbep", (1, 2)), (1, 3): ("dbep,eacp", (0, 2))}


@functools.lru_cache(maxsize=16)
def _r0_specs(slots: str) -> tuple:
    """The einsum specs of the terms of R0 for the labelling ``slots`` of
    ``frame_curvature``, and the slots of C swapped when the last two fold
    (None when they do not)."""
    lhs, out = slots.split("->")
    specs, swapped = _R0_SPECS, None
    for (i, j), (spec, axes) in _R0_FOLDS.items():
        if lhs[i] == lhs[j]:
            specs, swapped = _R0_SPECS[:3] + (spec,), axes
            break
    table = str.maketrans("dcab", lhs)
    return tuple(f"{spec.translate(table)}->{out}p" for spec in specs), swapped


def frame_curvature(gamma: np.ndarray, dgamma: np.ndarray, anchor: np.ndarray,
                    C: np.ndarray, slots: str = "dcab->dcab") -> np.ndarray:
    """The curvature R0[d, c, a, b, p] (the E_d component of R(E_a,E_b)E_c at
    point p) of connection coefficients on an anchored frame, with
        R(E_a,E_b)E_c = nab_a nab_b E_c - nab_b nab_a E_c - nab_{[E_a,E_b]} E_c,
    from float arrays that end in the point axis: gamma[d, b, c, p] =
    Gamma^d_{bc}, dgamma[d, b, c, m, p] its partial along x^m, anchor[a, m, p]
    and C[e, a, b, p].  The frame derivative a(E_a).Gamma^d_{bc} is
    anchor[a, m] dgamma[d, b, c, m].

    ``slots`` labels the four slots d, c, a, b and the result in einsum's
    notation, in letters other than e, m and p: a letter repeated on the
    left is summed, so each term is contracted with the trace in one einsum
    and no rank-4 array is built for it.  "acab->cb" is the Ricci trace
    sum_a R0[a, c, a, b]; a trace over d and a, or over c and b, folds the
    last two terms into one.  A trace through a frame permutation is taken
    on operands whose axes are permuted (``gconn.ricci``).  Plain
    ``np.einsum`` (no BLAS), so the same inputs give the same bits."""
    specs, swapped = _r0_specs(slots)
    r0 = (np.einsum(specs[0], anchor, dgamma) - np.einsum(specs[1], anchor, dgamma)
          + np.einsum(specs[2], gamma, gamma))
    if swapped is not None:
        return r0 - np.einsum(specs[3], gamma, gamma + C.swapaxes(*swapped))
    return r0 - np.einsum(specs[3], gamma, gamma) - np.einsum(specs[4], C, gamma)


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


def cotangent_algebroid(chart: Chart, theta: tuple[Jet, Jet], twist: Jet) -> AnchoredFrame:
    """T*M with anchor theta and the twisted Koszul bracket, for the 2-jet
    of the bivector theta and the jet of the twist 3-form (dB in practice).
    The bracket satisfies the Jacobi identity only where theta is twisted
    Poisson for the twist; the check ``symplectic.twisted-jacobi`` reports
    that residual (``schouten_check``).  The Koszul bracket of the
    coordinate coframe,
    [dx^a, dx^b] = L_{theta dx^a} dx^b + twist(theta dx^a, theta dx^b, .),
    has the structure functions
    C^c_{ab} = d_c theta^{ba} + twist_{ijc} theta^{ia} theta^{jb}."""
    th, dth = theta
    anchor = th.map(lambda t: t.swapaxes(0, 1))  # [a, m] = theta(dx^a)^m
    structure = (dth.map(lambda t: np.moveaxis(t, 2, 0).swapaxes(1, 2))
                 + tn.jet_contract("ijc,ia,jb->cab", twist, th, th))
    return AnchoredFrame(chart, anchor, structure)
