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
Expr itself.  Charts stay tiny (n <= 4 in practice), so the remaining
non-contraction formulas are explicit loops over ``itertools.product``.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import expr as ex
from .errors import ChartMismatch, DomainError, NotAntisymmetric, SingularMetric, SlotError
from .expr import Chart, Expr, add, esum, evaluate_many, mul, neg

UP = "up"
DOWN = "down"

DET_TOL = 1e-10


def _object_array(shape) -> np.ndarray:
    a = np.empty(shape, dtype=object)
    a.reshape(-1)[:] = [ex.ZERO] * a.size
    return a


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
        out = _object_array(self.comps.shape)
        flat, a, b = out.reshape(-1), self.comps.reshape(-1), other.comps.reshape(-1)
        for i in range(flat.size):
            flat[i] = add(a[i], b[i])
        return TensorField(self.chart, self.variance, out)

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
    return TensorField(chart, variance, _object_array((chart.dim,) * len(tuple(variance))))


def scalar_field(chart: Chart, e) -> TensorField:
    a = np.empty((), dtype=object)
    a[()] = ex._coerce(e)
    return TensorField(chart, (), a)


def from_function(chart: Chart, variance, fn) -> TensorField:
    variance = tuple(variance)
    out = _object_array((chart.dim,) * len(variance))
    for idx in itertools.product(range(chart.dim), repeat=len(variance)):
        out[idx] = ex._coerce(fn(*idx))
    return TensorField(chart, variance, out)


def kronecker(chart: Chart) -> TensorField:
    """Identity (1,1)-tensor."""
    return from_function(chart, (UP, DOWN), lambda i, j: ex.ONE if i == j else ex.ZERO)


def euclidean_metric(chart: Chart) -> TensorField:
    return from_function(chart, (DOWN, DOWN), lambda i, j: ex.ONE if i == j else ex.ZERO)


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
    takes, out_shape, summed = _contraction_plan(spec, tuple(a.shape for a in arrays))
    cols = [a.reshape(-1)[take].tolist() for a, take in zip(arrays, takes)]
    terms = cols[0] if len(cols) == 1 else [list(map(mul, *rows)) for rows in zip(*cols)]
    entries = [esum(t) for t in terms] if summed else [t[0] for t in terms]
    if not out_shape:
        return entries[0]
    out = np.empty(len(entries), dtype=object)
    out[:] = entries
    return out.reshape(out_shape)


def values_at(comps, points) -> np.ndarray:
    """The values of an Expr or an object array of Expr at ``points``, as a
    float array of shape ``comps.shape + (len(points),)`` (see
    ``expr.evaluate_points``): the form in which the numeric curvature
    stage takes the quantities it combines with."""
    arr = np.asarray(comps, dtype=object)
    return ex.evaluate_points(arr.reshape(-1), points).reshape(arr.shape + (len(points),))


def jets_at(comps, points) -> tuple[np.ndarray, np.ndarray]:
    """The values and first partials of an object array of Expr at
    ``points`` (see ``expr.evaluate_jets``): float arrays of shapes
    ``comps.shape + (P,)`` and ``comps.shape + (n, P)``, the partial along
    x^m in the axis of length n."""
    arr = np.asarray(comps, dtype=object)
    values, partials = ex.evaluate_jets(arr.reshape(-1), points)
    return (values.reshape(arr.shape + values.shape[1:]),
            partials.reshape(arr.shape + partials.shape[1:]))


def jet_contract(spec: str, *jets) -> tuple[np.ndarray, np.ndarray]:
    """The einsum ``spec`` (the notation of ``contract``) of jets, and its
    first partials by the product rule.  Each jet is a pair (values,
    partials) of float arrays of shapes ``shape + (P,)`` and
    ``shape + (n, P)``, as ``jets_at`` gives them; so is the result.  One
    plain ``np.einsum`` (no BLAS, no ``optimize``) for the values and one
    for each operand's partials, so the same inputs give the same bits."""
    lhs, _, out = spec.replace(" ", "").partition("->")
    subs = lhs.split(",")
    m, p = [c for c in _LETTERS if c not in spec][:2]
    values = [v for v, _ in jets]
    result = np.einsum(",".join(s + p for s in subs) + f"->{out}{p}", *values)
    partials = 0.0
    for i, (_, d) in enumerate(jets):
        dspec = ",".join(s + (m + p if j == i else p) for j, s in enumerate(subs))
        partials = partials + np.einsum(f"{dspec}->{out}{m}{p}", *values[:i], d, *values[i + 1:])
    return result, partials


@functools.lru_cache(maxsize=256)
def _contraction_plan(spec: str, shapes: tuple):
    """(per-operand flat positions of shape (outputs, terms), output shape,
    whether any index is summed) for ``contract``."""
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
        .reshape(math.prod(sizes[c] for c in out), math.prod(sizes[c] for c in summed))
        for sub, shape in zip(subs, shapes)
    )
    return takes, tuple(sizes[c] for c in out), bool(summed)


def _check_metric(metric: TensorField):
    if metric.variance != (DOWN, DOWN):
        raise SlotError("metric must be a (0,2) tensor")
    pts = metric.chart.sample_points()
    for p, m in zip(pts, metric.evaluate_points(pts)):
        # written so that a NaN or an infinity fails the test, before m - m.T sees it
        if not (np.isfinite(m).all() and np.max(np.abs(m - m.T)) <= 1e-10):
            raise SlotError(f"metric is not finite and symmetric at sample point {p}")
        if not abs(np.linalg.det(m)) >= DET_TOL:
            raise SingularMetric(f"|det| < {DET_TOL} at sample point {p}")


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


def antisymmetrize(t: TensorField, slot_set) -> TensorField:
    slots = tuple(slot_set)
    if len(set(slots)) != len(slots) or any(not 0 <= s < t.rank for s in slots):
        raise SlotError("bad slot set")
    if len({t.variance[s] for s in slots}) > 1:
        raise SlotError("cannot antisymmetrize slots of mixed variance")
    n = t.chart.dim
    k = len(slots)
    norm = 1.0 / float(np.prod(range(1, k + 1)))
    out = _object_array(t.comps.shape)
    for idx in itertools.product(range(n), repeat=t.rank):
        terms = []
        for perm, sign in _permutations_with_sign(k):
            src = list(idx)
            for pos, s in enumerate(slots):
                src[s] = idx[slots[perm[pos]]]
            term = t.comps[tuple(src)]
            terms.append(term if sign > 0 else neg(term))
        out[idx] = mul(norm, esum(terms))
    return TensorField(t.chart, t.variance, out)


def coordinate_gradient(t: TensorField) -> TensorField:
    """Raw partial derivatives of the components, with one extra leading
    down slot (not a tensor: ``riemann.covariant_derivative`` corrects it)."""
    n = t.chart.dim
    out = _object_array((n,) + t.comps.shape)
    for mu in range(n):
        c = t.chart.coord(mu)
        for idx in itertools.product(range(n), repeat=t.rank):
            out[(mu,) + idx] = ex.differentiate(t.comps[idx], c)
    return TensorField(t.chart, (DOWN,) + t.variance, out)


# ---------------------------------------------------------------------------
# symbolic linear algebra for metric-like matrices
# ---------------------------------------------------------------------------


def _det(m: np.ndarray) -> Expr:
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    if n == 2:
        return add(mul(m[0, 0], m[1, 1]), neg(mul(m[0, 1], m[1, 0])))
    terms = []
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        term = mul(m[0, j], _det(minor))
        terms.append(term if j % 2 == 0 else neg(term))
    return esum(terms)


def matrix_inverse(m: np.ndarray) -> np.ndarray:
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
            if (i + j) % 2 == 1:
                cof = neg(cof)
            out[i, j] = ex.div(cof, d)
    return out


def metric_inverse(g: TensorField) -> TensorField:
    """Symbolic inverse of a (0,2) metric, checked nondegenerate at the
    chart's sample points."""
    _check_metric(g)
    return TensorField(g.chart, (UP, UP), matrix_inverse(g.comps))


# ---------------------------------------------------------------------------
# exterior calculus helpers shared by upper layers
# ---------------------------------------------------------------------------


def check_antisymmetric(t: TensorField):
    """All-pairs antisymmetry of a covariant or contravariant form."""
    if t.rank < 2:
        return
    pts = t.chart.sample_points()
    for i in range(t.rank - 1):
        swapped = np.swapaxes(t.comps, i, i + 1)
        diff = [add(a, b) for a, b in zip(t.comps.reshape(-1), swapped.reshape(-1))]
        worst, _ = ex.max_abs_on_points(diff, pts)
        if not worst <= 1e-10:
            raise NotAntisymmetric(f"antisymmetry residual {worst:.3e} in slots ({i},{i + 1})")


def exterior_derivative(omega: TensorField) -> TensorField:
    """d of a fully antisymmetric covariant p-form:
    (d w)_{i0..ip} = sum_k (-1)^k d_{i_k} w_{i0..^i_k..ip}."""
    if any(v != DOWN for v in omega.variance):
        raise SlotError("exterior derivative needs a covariant form")
    n = omega.chart.dim
    p = omega.rank
    out = _object_array((n,) * (p + 1))
    coords = omega.chart.coords()
    for idx in itertools.product(range(n), repeat=p + 1):
        terms = []
        for k in range(p + 1):
            rest = idx[:k] + idx[k + 1:]
            term = ex.differentiate(omega.comps[rest], coords[idx[k]])
            terms.append(term if k % 2 == 0 else neg(term))
        out[idx] = esum(terms)
    return TensorField(omega.chart, (DOWN,) * (p + 1), out)


def form_from_wedge_coeffs(chart: Chart, degree: int, coeffs: dict) -> TensorField:
    """Antisymmetric covariant tensor from coefficients of the wedge basis,
    e.g. {(0,1): b} for b dx^0 ^ dx^1 (component T_{01} = b, T_{10} = -b)."""
    out = _object_array((chart.dim,) * degree)
    for idx, value in coeffs.items():
        if len(set(idx)) != len(idx):
            raise SlotError("wedge index with a repeat")
        e = ex._coerce(value)
        for perm, sign in _permutations_with_sign(degree):
            tgt = tuple(idx[perm[i]] for i in range(degree))
            out[tgt] = add(out[tgt], e if sign > 0 else neg(e))
    return TensorField(chart, (DOWN,) * degree, out)


def lie_bracket(x: TensorField, y: TensorField) -> TensorField:
    """Commutator of two vector fields."""
    _same_chart(x, y)
    n = x.chart.dim
    coords = x.chart.coords()
    out = _object_array((n,))
    for c in range(n):
        terms = []
        for a in range(n):
            terms.append(mul(x.comps[a], ex.differentiate(y.comps[c], coords[a])))
            terms.append(neg(mul(y.comps[a], ex.differentiate(x.comps[c], coords[a]))))
        out[c] = esum(terms)
    return TensorField(x.chart, (UP,), out)


def lie_derivative_oneform(x: TensorField, eta: TensorField) -> TensorField:
    """(L_X eta)_m = X^a d_a eta_m + eta_a d_m X^a."""
    _same_chart(x, eta)
    n = x.chart.dim
    coords = x.chart.coords()
    out = _object_array((n,))
    for m in range(n):
        terms = []
        for a in range(n):
            terms.append(mul(x.comps[a], ex.differentiate(eta.comps[m], coords[a])))
            terms.append(mul(eta.comps[a], ex.differentiate(x.comps[a], coords[m])))
        out[m] = esum(terms)
    return TensorField(x.chart, (DOWN,), out)


def interior_product(x: TensorField, omega: TensorField) -> TensorField:
    """i_X omega: plug the vector into the first slot of a covariant form."""
    _same_chart(x, omega)
    rest = _LETTERS[1:omega.rank]
    out = contract(f"a,a{rest}->{rest}", x.comps, omega.comps)
    return TensorField(x.chart, (DOWN,) * (omega.rank - 1), out)


def d_scalar(chart: Chart, f) -> TensorField:
    """Differential of a scalar field as a 1-form."""
    f = ex._coerce(f)
    out = _object_array((chart.dim,))
    for mu in range(chart.dim):
        out[mu] = ex.differentiate(f, chart.coord(mu))
    return TensorField(chart, (DOWN,), out)
