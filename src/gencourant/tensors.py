"""Arrays of fields over a chart, and their jets at the sample points.

A scene's fields are numpy object arrays of Expr, one axis per index, all
parsed against the scene's one chart (``scene.scene_from_dict`` fills
them).  A coordinate derivative is one more index: ``partials(comps,
chart)`` is the array of first partials with the derivative along x^m as a
trailing axis, each entry the cached ``expr.differentiate``.
``d_of_partials`` is the exterior derivative of a form read off the
numbers of its partials (a jet's partials: dB for H' = H + dB, and dB0
for the H of a scene that gives its potential B0).

The expressions stop at the scene: what is built from a background's
fields is numbers at the chart's sample points.  A ``Jet`` holds the values
and first partials of an array of fields there.  ``jets_at`` takes the jet
of a parsed field and ``field_jets`` its 2-jet (the jet of the field and
the jet of its partials, so second partials are the partials of the
second), each valuing the field with its symbolic ``partials`` in one
``values_at`` call; a background takes them once, when it is made
(``streff.Background``).  Every later quantity is a jet combined by
``jet_contract``, the product rule applied to one einsum in numpy's
notation (``"cd,ca,db->ab"`` is out[a, b] = sum_c sum_d ric[c, d] F[c, a]
F[d, b]; one spec for every term), or by a linear map of both halves
(``Jet.map``); ``on_points`` puts jets of the same fields side by side on
the point axis, so that one pointwise formula serves them all.
``jet_inverse`` inverts a matrix field (one ``np.linalg.inv`` per point),
and ``finite`` is the check at each numeric stage boundary.  Random fields
are jets from the start: ``random_polynomial_jets`` gives the 2-jets of
seeded random polynomials from the 2-jet of their monomial basis.

Every contraction of the package calls ``einsum``: numpy's own
implementation of ``np.einsum``, the same C kernel without ``optimize``,
but without the ``__array_function__`` dispatch (NEP 18) that
``np.einsum`` runs first on every call.  The operands here are plain
ndarrays, so the dispatch finds nothing, yet it costs about a third of a
small contraction.  Callers read it as ``tn.einsum``, so one module
attribute sees every contraction.
"""

from __future__ import annotations

import functools
import inspect
import math

import numpy as np

from . import expr as ex
from .errors import DomainError, NotAntisymmetric
from .expr import Chart

UP = "up"
DOWN = "down"

DET_TOL = 1e-10

# np.einsum without its dispatcher (see the module docstring); an alias, not
# a def, so that it stays numpy's function and no tracer wraps it
einsum = inspect.unwrap(np.einsum)


def zeros_array(shape) -> np.ndarray:
    """An object array of the constant ZERO."""
    return np.full(shape, ex.ZERO, dtype=object)


def partials(comps, chart: Chart) -> np.ndarray:
    """The first partials of an Expr or an object array of Expr, as an
    object array of shape ``comps.shape + (n,)``: entry [..., m] is
    ``expr.differentiate`` of comps[...] along x^m.  Derivatives are cached
    on the nodes, so a partial taken twice is the same object."""
    arr = np.asarray(comps, dtype=object)
    coords = chart.coords()
    out = np.empty(arr.shape + (len(coords),), dtype=object)
    out.reshape(-1)[:] = [ex.differentiate(e, c) for e in arr.reshape(-1) for c in coords]
    return out


def values_at(comps, points) -> np.ndarray:
    """The values of an Expr or an object array of Expr at ``points``, as a
    float array of shape ``comps.shape + (len(points),)`` (see
    ``expr.evaluate_points``)."""
    arr = np.asarray(comps, dtype=object)
    return ex.evaluate_points(arr.reshape(-1), points).reshape(arr.shape + (len(points),))


class Jet:
    """The values and first partials of an array of fields at the sample
    points: float arrays of shapes ``shape + (P,)`` and ``shape + (n, P)``,
    the partial along x^m in the axis of length n.  It unpacks as
    ``value, partial``.  Indexing, sums, differences and multiples by a
    number act on the field axes of both halves, as does ``map`` with a
    linear map of the leading axes."""

    __slots__ = ("value", "partial")
    __array_ufunc__ = None  # a numpy scalar times a Jet is the Jet's __rmul__

    def __init__(self, value: np.ndarray, partial: np.ndarray):
        self.value = value
        self.partial = partial

    def __iter__(self):
        return iter((self.value, self.partial))

    def __len__(self):
        return len(self.value)

    def map(self, fn) -> "Jet":
        return Jet(fn(self.value), fn(self.partial))

    def __getitem__(self, index) -> "Jet":
        return Jet(self.value[index], self.partial[index])

    def __setitem__(self, index, other: "Jet"):
        self.value[index] = other.value
        self.partial[index] = other.partial

    def __add__(self, other: "Jet") -> "Jet":
        return Jet(self.value + other.value, self.partial + other.partial)

    def __sub__(self, other: "Jet") -> "Jet":
        return Jet(self.value - other.value, self.partial - other.partial)

    def __neg__(self) -> "Jet":
        return Jet(-self.value, -self.partial)

    def __mul__(self, factor: float) -> "Jet":
        return Jet(factor * self.value, factor * self.partial)

    __rmul__ = __mul__


def jets_at(comps, chart: Chart) -> Jet:
    """The values and first partials of an Expr or an object array of Expr
    at the chart's sample points, as a ``Jet``: the field and its
    ``partials``, valued in one ``values_at`` call."""
    arr = np.asarray(comps, dtype=object)
    both = values_at(np.concatenate([arr[..., None], partials(arr, chart)], axis=-1),
                     chart.sample_points())
    return Jet(both[..., 0, :], both[..., 1:, :])


def field_jets(comps, chart: Chart) -> tuple[Jet, Jet]:
    """The 2-jet of an Expr or an object array of Expr at the chart's sample
    points: its jet, and the jet of its partials (entry [..., m] the
    partial along x^m, as ``partials`` orders them), whose own partials
    are the second partials.  One ``jets_at`` call over the field stacked
    with its partials."""
    arr = np.asarray(comps, dtype=object)
    both = jets_at(np.concatenate([arr[..., None], partials(arr, chart)], axis=-1), chart)
    k = arr.ndim
    return both[(slice(None),) * k + (0,)], both[(slice(None),) * k + (slice(1, None),)]


def constant_jet(array, chart: Chart) -> Jet:
    """The jet of a constant float array at the chart's sample points."""
    array = np.asarray(array, dtype=float)
    count = len(chart.sample_points())
    return Jet(array[..., None].repeat(count, axis=-1),
               np.zeros(array.shape + (chart.dim, count)))


def jet_contract(spec: str, *jets):
    """The einsum ``spec`` (numpy's notation) of jets, and its first
    partials by the product rule: one plain ``einsum`` (the undispatched
    ``np.einsum``: no BLAS, no ``optimize``) for the values and one per
    operand's partials, so the same inputs give the same bits.  ``...``
    after every operand and the output broadcasts the trailing axes, (p)
    of values and (m, p) of partials, so the one spec serves every term and
    none is cached.  An einsum of many operands runs as one nested loop
    over all their indices, so callers contract a long product in pairs,
    one index at a time (``gconn.param_tensor_frame``).  Operands that are
    float arrays of values [..., p], not Jets, give the values alone.  A
    spec of one operand only permutes its axes, and einsum then returns a
    view: either half of the result may share memory with an operand, so
    callers never write into it in place."""
    spec = spec.replace(",", "...,").replace("->", "...->") + "..."
    if not isinstance(jets[0], Jet):
        return einsum(spec, *jets)
    values = [jet.value for jet in jets]
    partials = einsum(spec, jets[0].partial, *values[1:])
    for i in range(1, len(jets)):
        partials = partials + einsum(spec, *values[:i], jets[i].partial, *values[i + 1:])
    return Jet(einsum(spec, *values), partials)


def on_points(*jets) -> Jet:
    """Jets of the same fields side by side on the point axis, as one Jet
    over all their points: every formula of jets is pointwise, so one call
    on it does the work of one call per jet, and its result splits back
    into one block of points per jet by a reshape of the point axis to
    (len(jets), P) (``cli._per_triple``)."""
    return Jet(*(np.concatenate(halves, axis=-1) for halves in zip(*jets)))


@functools.lru_cache(maxsize=16)
def _monomial_jets(chart: Chart, degree: int) -> np.ndarray:
    """basis[M, k, p]: at each sample point p, the value (k = 0), the first
    partials (k = 1 + m) and the second partials (k = 1 + n + n m + l) of
    each of the M monomials of ``expr.monomials`` in the chart's unit
    coordinates u = (x - c) / h, with c the centre and h the half-width of
    each interval of the domain (h = 1 for a zero-width interval).  So the
    monomials stay of order one on any domain, and d/dx = (1/h) d/du; on
    [-1, 1], u is x."""
    n = chart.dim
    lo, hi = np.array(chart.domain).T
    half = (hi - lo) / 2
    centre = lo + half  # not (lo + hi) / 2, which can overflow
    half[half == 0] = 1.0
    u = ((np.array(chart.sample_points()) - centre) / half).T[None]  # [1, n, p]
    powers = np.array([np.bincount(np.array(mono, dtype=int), minlength=n)
                       for mono in ex.monomials(n, degree)])  # [M, n]
    eye = np.eye(n, dtype=int)

    def term(*axes):
        # d_{axes} u^powers: the falling factorials of the exponents over
        # the half-widths times the lowered power (an exponent that would
        # turn negative has a zero factor and is clipped)
        factor, e = np.ones(len(powers)), powers
        for k in axes:
            factor, e = factor * e[:, k] / half[k], e - eye[k]
        return factor[:, None] * np.prod(u ** np.maximum(e, 0)[..., None], axis=1)

    rows = [term()] + [term(m) for m in range(n)] + [term(m, l) for m in range(n) for l in range(n)]
    return np.array(rows).swapaxes(0, 1).copy()  # C-ordered, so einsum sums over it in one order


def random_polynomial_jets(chart: Chart, gen: ex.SplitMix64, shape: tuple, degree: int = 2,
                           scale: float = 0.25) -> tuple[Jet, Jet]:
    """The 2-jet at the chart's sample points (as ``field_jets`` gives it) of
    an array of the given shape of random polynomials in the chart's unit
    coordinates (``_monomial_jets``), drawn in C order as that many calls
    of ``expr.random_polynomial`` would draw them: a row of coefficients
    over ``expr.monomials`` per polynomial, all drawn at once
    (``SplitMix64.uniforms``), contracted in one einsum with the 2-jet of
    that monomial basis.  On [-1, 1] they are the jets of those calls'
    polynomials."""
    n, count = chart.dim, len(chart.sample_points())
    size = math.prod(shape) * len(ex.monomials(n, degree))
    coeffs = gen.uniforms(-scale, scale, size).reshape(math.prod(shape), -1)
    jets = einsum("ab,bkp->akp", coeffs, _monomial_jets(chart, degree)).reshape(shape + (-1, count))
    first = jets[..., 1:n + 1, :]
    return (Jet(jets[..., 0, :], first),
            Jet(first, jets[..., n + 1:, :].reshape(shape + (n, n, count))))


def jet_block(blocks) -> Jet:
    """The block matrix of a nested list of blocks along the two leading
    axes, like ``np.block``: each block a Jet, or 0 or 1 for the zero or
    the identity matrix of the shape of the Jet blocks."""
    like = next(b for row in blocks for b in row if isinstance(b, Jet))

    def full(b):
        if isinstance(b, Jet):
            return b
        eye = np.eye(like.value.shape[0]).reshape(like.value.shape[:2] + (1,) * (like.value.ndim - 2))
        return Jet(b * eye + np.zeros(like.value.shape), np.zeros(like.partial.shape))

    rows = [[full(b) for b in row] for row in blocks]
    return Jet(*(np.concatenate([np.concatenate([getattr(b, half) for b in row], axis=1) for row in rows])
                 for half in ("value", "partial")))


def jet_inverse(m: Jet) -> Jet:
    """The inverse of a square matrix field: one ``np.linalg.inv`` per
    point for the values, and d(M^{-1}) = -M^{-1} dM M^{-1}."""
    inv = np.linalg.inv(m.value.transpose(2, 0, 1)).transpose(1, 2, 0)
    return Jet(inv, -einsum("iap,abmp,bjp->ijmp", inv, m.partial, inv))


def finite(stage: str, jet, points):
    """``jet`` (a Jet, or a float array whose last axis runs over
    ``points``), after checking that every entry is finite; otherwise a
    DomainError that names the stage, the first non-finite component and
    its point.  The arithmetic that made it runs under
    ``np.errstate(all="ignore")``, so this check is what reports it."""
    for half, array in zip(("value", "partial"), jet if isinstance(jet, Jet) else (jet,)):
        ok = np.isfinite(array)
        if ok.all():
            continue
        bad = np.argwhere(~ok)[0]
        *index, p = bad.tolist()
        what = "" if half == "value" else f" partial along x^{index.pop() + 1}"
        raise DomainError(f"non-finite {stage}{what} {array[tuple(bad)]} at component "
                          f"{index} and sample point {tuple(points[p])}")
    return jet


def d_of_partials(dw: np.ndarray, degree: int) -> np.ndarray:
    """The exterior derivative of a p-form from its partials, an array
    dw[i1..ip, m, ...] = d_m w_{i1..ip} of numbers with any trailing axes:
    (d w)_{i0..ip} = sum_k (-1)^k d_{i_k} w_{i0..^i_k..ip}.  It is linear,
    so ``Jet.map`` applies it to the jet of the partials."""
    out = 0.0
    for k in range(degree + 1):
        term = dw.transpose([*range(k), degree, *range(k, degree), *range(degree + 1, dw.ndim)])
        out = out + term if k % 2 == 0 else out - term
    return out


# ---------------------------------------------------------------------------
# exterior calculus helpers shared by upper layers
# ---------------------------------------------------------------------------


def check_antisymmetric(comps: np.ndarray, points):
    """All-pairs antisymmetry of a covariant or contravariant form, from the
    float array of its values [..., p] at ``points``."""
    for i in range(comps.ndim - 2):
        diff = comps + comps.swapaxes(i, i + 1)
        worst, _ = ex.max_abs_on_points(diff, points)
        if not worst <= 1e-10:
            raise NotAntisymmetric(f"antisymmetry residual {worst:.3e} in slots ({i},{i + 1})")
