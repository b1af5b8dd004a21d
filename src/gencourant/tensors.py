"""Dense tensor fields over a chart with variance-aware index algebra.

Components are numpy object arrays of Expr, one axis per slot, row-major in
slot order.  Variances are recorded per slot ('up' = contravariant,
'down' = covariant).

Index contractions are written as einsum specs, in the notation of numpy's
``einsum``, and built by ``contract``: ``contract("cd,ca,db->ab", ric, F, F)``
is out[a, b] = sum_c sum_d ric[c, d] F[c, a] F[d, b].  Each output entry is
one n-ary ``esum`` over the assignments of the summed indices, in C order
with the summed indices nested in order of first appearance in the spec (the
first outermost), and each term is one n-ary ``mul`` of the operands'
entries in operand order.  An index repeated within an operand reads its
diagonal, so ``contract("aa->", m)`` is the trace; an empty output gives the
Expr itself.

A coordinate derivative is one more index: ``partials(comps, chart)`` is the
array of first partials with the derivative along x^m as a trailing axis, so
a first-order operator is a ``contract`` spec over it, e.g. the Lie bracket
``contract("as,sca->c", np.stack([X, Y], 1), np.stack([dY, -dX]))``.  A sum
of differently indexed terms is one ``contract("z...->...")`` over the term
arrays stacked along z, so that each entry stays one n-ary sum; a term that
enters with a minus sign is negated entry by entry, or carries a leading
scalar operand -1.0 (``mul(-1.0, a, b)`` is the node ``neg(mul(a, b))``).

The expressions stop at the scene: what is built from a background's
fields is numbers at the chart's sample points.  A ``Jet`` holds the values
and first partials of an array of fields there.  ``jets_at`` takes the jet
of a parsed field and ``field_jets`` its 2-jet (the jet of the field and
the jet of its partials, so second partials are the partials of the
second), each valuing the field with its symbolic ``partials`` in one
``values_at`` call; a background takes them once, when it is made
(``streff.Background``).  Every later quantity is a jet combined by ``jet_contract``, the product rule applied
to one einsum, or by a linear map of both halves (``Jet.map``).
``jet_inverse`` inverts a matrix field (one ``np.linalg.inv`` per point),
and ``finite`` is the check at each numeric stage boundary.  Random fields
are jets from the start: ``random_polynomial_jets`` gives the 2-jets of
seeded random polynomials from the 2-jet of their monomial basis.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import expr as ex
from .errors import ChartMismatch, DomainError, NotAntisymmetric, SlotError
from .expr import Chart, add, esum, evaluate_many, mul, neg

UP = "up"
DOWN = "down"

DET_TOL = 1e-10


def zeros_array(shape) -> np.ndarray:
    """An object array of the constant ZERO."""
    return np.full(shape, ex.ZERO, dtype=object)


def identity(k: int) -> np.ndarray:
    """The k x k identity as an object array of the constants ONE and ZERO."""
    out = zeros_array((k, k))
    np.fill_diagonal(out, ex.ONE)
    return out


class TensorField:
    """Multi-index array of scalar fields with a declared variance per slot."""

    def __init__(self, chart: Chart, variance, comps):
        self.chart = chart
        self.variance = tuple(variance)
        for v in self.variance:
            if v not in (UP, DOWN):
                raise SlotError(f"variance must be '{UP}' or '{DOWN}', got {v!r}")
        arr = np.asarray(comps, dtype=object)
        expected = (chart.dim,) * len(self.variance)
        if arr.shape != expected:
            raise SlotError(f"component shape {arr.shape} != {expected}")
        flat = arr.reshape(-1)
        for i, c in enumerate(flat):
            e = ex._coerce(c)
            if e.chart is not None and e.chart != chart:
                raise ChartMismatch("component expression lives on another chart")
            flat[i] = e
        self.comps = arr

    @property
    def rank(self) -> int:
        return len(self.variance)

    def __getitem__(self, idx):
        return self.comps[idx]

    def evaluate(self, point) -> np.ndarray:
        vals = evaluate_many(list(self.comps.reshape(-1)), point)
        return np.array(vals, dtype=float).reshape(self.comps.shape)

    def evaluate_points(self, points):
        """The component array at each point, in order.  When evaluation
        fails at some point, the arrays of the points before it still come
        first, so a caller that checks each in turn stops at the same first
        point as a loop over ``evaluate``."""
        try:
            vals = ex.evaluate_points(self.comps.reshape(-1), points)
        except DomainError:
            yield from map(self.evaluate, points)
            return
        yield from vals.T.reshape((len(points),) + self.comps.shape)

    def max_abs(self, points=None):
        pts = points if points is not None else self.chart.sample_points()
        return ex.max_abs_on_points(self.comps, pts)

    def map(self, fn) -> "TensorField":
        out = np.empty(self.comps.shape, dtype=object)
        out.reshape(-1)[:] = [fn(c) for c in self.comps.reshape(-1)]
        return TensorField(self.chart, self.variance, out)

    def __add__(self, other):
        _same_chart(self, other)
        if self.variance != other.variance:
            raise SlotError("cannot add tensors of different variance")
        return TensorField(self.chart, self.variance, self.comps + other.comps)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor) -> "TensorField":
        return self.map(lambda c: mul(factor, c))

    def __repr__(self):
        return f"<TensorField {self.variance} on {self.chart.coord_names}>"


def _same_chart(a: TensorField, b: TensorField):
    if a.chart != b.chart:
        raise ChartMismatch("tensor fields live on different charts")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def zeros(chart: Chart, variance) -> TensorField:
    return TensorField(chart, variance, zeros_array((chart.dim,) * len(tuple(variance))))


def scalar_field(chart: Chart, e) -> TensorField:
    a = np.empty((), dtype=object)
    a[()] = ex._coerce(e)
    return TensorField(chart, (), a)


def kronecker(chart: Chart) -> TensorField:
    """Identity (1,1)-tensor."""
    return TensorField(chart, (UP, DOWN), identity(chart.dim))


def euclidean_metric(chart: Chart) -> TensorField:
    return TensorField(chart, (DOWN, DOWN), identity(chart.dim))


# ---------------------------------------------------------------------------
# core index algebra
# ---------------------------------------------------------------------------


_LETTERS = "abcdefghijklmnopqrstuvwxyz"  # index names for specs built in code


def contract(spec: str, *operands):
    """Einsum-style contraction of object arrays of Expr (plain numbers are
    accepted too), e.g. ``contract("ij,j->i", m, v)`` for m v.  See the
    module docstring for the order of terms and factors.  A single
    operand's entries are summed as they are, and with no summed index each
    entry is the bare product of its factors."""
    arrays = [np.asarray(op, dtype=object) for op in operands]
    takes, out_shape, terms = _contraction_plan(spec, tuple(a.shape for a in arrays))
    # one flat list per operand and one of products, so that no list or
    # tuple is made per term or per entry
    cols = [a.reshape(-1)[take].tolist() for a, take in zip(arrays, takes)]
    products = cols[0] if len(cols) == 1 else list(map(mul, *cols))
    if terms:
        entries = [esum(products[i:i + terms]) for i in range(0, len(products), terms)]
    else:
        entries = products
    if not out_shape:
        return entries[0]
    out = np.empty(len(entries), dtype=object)
    out[:] = entries
    return out.reshape(out_shape)


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
    return Jet(np.repeat(array[..., None], count, axis=-1),
               np.zeros(array.shape + (chart.dim, count)))


def jet_contract(spec: str, *jets):
    """The einsum ``spec`` (the notation of ``contract``) of jets, and its
    first partials by the product rule.  One plain ``np.einsum`` (no BLAS,
    no ``optimize``) for the values and one for each operand's partials,
    so the same inputs give the same bits.  Operands that are float arrays
    of values [..., p], not Jets, give the values alone."""
    lhs, _, out = spec.replace(" ", "").partition("->")
    subs = lhs.split(",")
    m, p = [c for c in _LETTERS if c not in spec][:2]
    value_spec = ",".join(s + p for s in subs) + f"->{out}{p}"
    if not isinstance(jets[0], Jet):
        return np.einsum(value_spec, *jets)
    values = [v for v, _ in jets]
    result = np.einsum(value_spec, *values)
    partials = 0.0
    for i, (_, d) in enumerate(jets):
        dspec = ",".join(s + (m + p if j == i else p) for j, s in enumerate(subs))
        partials = partials + np.einsum(f"{dspec}->{out}{m}{p}", *values[:i], d, *values[i + 1:])
    return Jet(result, partials)


@functools.lru_cache(maxsize=16)
def _monomial_jets(chart: Chart, degree: int) -> np.ndarray:
    """basis[M, k, p]: at each sample point p, the value (k = 0), the first
    partials (k = 1 + m) and the second partials (k = 1 + n + n m + l) of
    each of the M monomials of ``expr.monomials``."""
    n = chart.dim
    x = np.array(chart.sample_points()).T[None]  # [1, n, p]
    powers = np.array([np.bincount(np.array(mono, dtype=int), minlength=n)
                       for mono in ex.monomials(n, degree)])  # [M, n]
    eye = np.eye(n, dtype=int)

    def term(*axes):
        # d_{axes} x^powers: the falling factorials of the exponents times
        # the lowered power (an exponent that would turn negative has a zero
        # factor and is clipped)
        factor, e = np.ones(len(powers)), powers
        for k in axes:
            factor, e = factor * e[:, k], e - eye[k]
        return factor[:, None] * np.prod(x ** np.maximum(e, 0)[..., None], axis=1)

    rows = [term()] + [term(m) for m in range(n)] + [term(m, l) for m in range(n) for l in range(n)]
    return np.stack(rows, axis=1)


def random_polynomial_jets(chart: Chart, gen: ex.SplitMix64, shape: tuple, degree: int = 2,
                           scale: float = 0.25) -> tuple[Jet, Jet]:
    """The 2-jet at the chart's sample points (as ``field_jets`` gives it) of
    an array of the given shape of random polynomials, drawn in C order as
    that many calls of ``expr.random_polynomial`` would draw them: a row of
    coefficients over ``expr.monomials`` per polynomial, contracted in one
    einsum with the 2-jet of that monomial basis."""
    n, count = chart.dim, len(chart.sample_points())
    size = math.prod(shape) * len(ex.monomials(n, degree))
    coeffs = np.array([gen.uniform(-scale, scale) for _ in range(size)]).reshape(math.prod(shape), -1)
    jets = np.einsum("ab,bkp->akp", coeffs, _monomial_jets(chart, degree)).reshape(shape + (-1, count))
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
        return Jet(b * eye + np.zeros_like(like.value), np.zeros_like(like.partial))

    rows = [[full(b) for b in row] for row in blocks]
    return Jet(*(np.concatenate([np.concatenate([getattr(b, half) for b in row], axis=1) for row in rows])
                 for half in ("value", "partial")))


def jet_inverse(m: Jet) -> Jet:
    """The inverse of a square matrix field: one ``np.linalg.inv`` per
    point for the values, and d(M^{-1}) = -M^{-1} dM M^{-1}."""
    inv = np.moveaxis(np.linalg.inv(np.moveaxis(m.value, -1, 0)), 0, -1)
    return Jet(inv, -np.einsum("iap,abmp,bjp->ijmp", inv, m.partial, inv))


def finite(stage: str, jet, points):
    """``jet`` (a Jet, or a float array whose last axis runs over
    ``points``), after checking that every entry is finite; otherwise a
    DomainError that names the stage, the first non-finite component and
    its point.  The arithmetic that made it runs under
    ``np.errstate(all="ignore")``, so this check is what reports it."""
    for half, array in zip(("value", "partial"), jet if isinstance(jet, Jet) else (jet,)):
        bad = np.argwhere(~np.isfinite(array))
        if len(bad):
            *index, p = bad[0].tolist()
            what = "" if half == "value" else f" partial along x^{index.pop() + 1}"
            raise DomainError(f"non-finite {stage}{what} {array[tuple(bad[0])]} at component "
                              f"{index} and sample point {tuple(points[p])}")
    return jet


def d_of_partials(dw: np.ndarray, degree: int) -> np.ndarray:
    """The exterior derivative of a p-form from its partials, an array
    dw[i1..ip, m, ...] = d_m w_{i1..ip} with any trailing axes:
    (d w)_{i0..ip} = sum_k (-1)^k d_{i_k} w_{i0..^i_k..ip}."""
    out = 0.0
    for k in range(degree + 1):
        term = np.moveaxis(dw, degree, k)
        out = out + term if k % 2 == 0 else out - term
    return out


@functools.lru_cache(maxsize=256)
def _contraction_plan(spec: str, shapes: tuple):
    """(per-operand flat positions, in the order outputs then terms, output
    shape, terms per output entry or 0 when no index is summed) for
    ``contract``."""
    lhs, arrow, out = spec.replace(" ", "").partition("->")
    subs = lhs.split(",")
    if not arrow or len(subs) != len(shapes):
        raise SlotError(f"spec {spec!r} does not name {len(shapes)} operands and an output")
    sizes: dict = {}
    for sub, shape in zip(subs, shapes):
        if len(sub) != len(shape) or not (sub.isascii() and sub.isalpha() or not sub):
            raise SlotError(f"subscripts {sub!r} do not fit an operand of shape {shape}")
        for letter, size in zip(sub, shape):
            if sizes.setdefault(letter, size) != size:
                raise SlotError(f"index {letter!r} has sizes {sizes[letter]} and {size}")
    if len(set(out)) != len(out) or not all(c in sizes for c in out):
        raise SlotError(f"output {out!r} must name distinct indices of the operands")
    summed = "".join(dict.fromkeys(c for sub in subs for c in sub if c not in out))
    order = out + summed
    full = [sizes[c] for c in order]
    grid = np.indices(full, sparse=True)
    takes = tuple(
        np.broadcast_to(np.ravel_multi_index([grid[order.index(c)] for c in sub], shape), full)
        .reshape(-1)
        for sub, shape in zip(subs, shapes)
    )
    terms = math.prod(sizes[c] for c in summed) if summed else 0
    return takes, tuple(sizes[c] for c in out), terms


def _permutations_with_sign(k):
    for perm in itertools.permutations(range(k)):
        sign = 1
        seen = [False] * k
        for i in range(k):
            if seen[i]:
                continue
            j, length = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        yield perm, sign


# ---------------------------------------------------------------------------
# exterior calculus helpers shared by upper layers
# ---------------------------------------------------------------------------


def check_antisymmetric(comps: np.ndarray, points):
    """All-pairs antisymmetry of a covariant or contravariant form, from the
    float array of its values [..., p] at ``points``."""
    for i in range(comps.ndim - 2):
        diff = comps + np.swapaxes(comps, i, i + 1)
        worst, _ = ex.max_abs_on_points(diff, points)
        if not worst <= 1e-10:
            raise NotAntisymmetric(f"antisymmetry residual {worst:.3e} in slots ({i},{i + 1})")


def exterior_derivative(omega: TensorField) -> TensorField:
    """d of a fully antisymmetric covariant p-form:
    (d w)_{i0..ip} = sum_k (-1)^k d_{i_k} w_{i0..^i_k..ip}."""
    if any(v != DOWN for v in omega.variance):
        raise SlotError("exterior derivative needs a covariant form")
    p = omega.rank
    d = partials(omega.comps, omega.chart)
    terms = [np.moveaxis(d, -1, k) for k in range(p + 1)]  # d_{i_k} w_{..^i_k..}
    terms = [t if k % 2 == 0 else -t for k, t in enumerate(terms)]
    idx = _LETTERS[:p + 1]
    out = contract(f"z{idx}->{idx}", np.stack(terms))
    return TensorField(omega.chart, (DOWN,) * (p + 1), out)


def form_from_wedge_coeffs(chart: Chart, degree: int, coeffs: dict) -> TensorField:
    """Antisymmetric covariant tensor from coefficients of the wedge basis,
    e.g. {(0,1): b} for b dx^0 ^ dx^1 (component T_{01} = b, T_{10} = -b)."""
    out = zeros_array((chart.dim,) * degree)
    for idx, value in coeffs.items():
        if len(set(idx)) != len(idx):
            raise SlotError("wedge index with a repeat")
        e = ex._coerce(value)
        for perm, sign in _permutations_with_sign(degree):
            tgt = tuple(idx[perm[i]] for i in range(degree))
            out[tgt] = add(out[tgt], e if sign > 0 else neg(e))
    return TensorField(chart, (DOWN,) * degree, out)
