"""Dense tensor fields over a chart with variance-aware index algebra.

Components are numpy object arrays of Expr, one axis per slot, row-major in
slot order.  Variances are recorded per slot ('up' = contravariant,
'down' = covariant).  Non-tensorial intermediates (raw coordinate gradients,
connection coefficients) carry ``tensorial=False`` and are rejected by the
variance-sensitive operations.

Charts stay tiny (n <= 4 in practice), so everything is explicit loops over
``itertools.product`` rather than anything clever.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import expr as ex
from .errors import (ChartMismatch, DomainError, NonTensorial, NotAntisymmetric, SingularMetric,
                     SlotError)
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

    def __init__(self, chart: Chart, variance, comps, tensorial: bool = True,
                 antisymmetric_slots=None, symmetric_slots=None):
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
        self.tensorial = tensorial
        if antisymmetric_slots:
            _check_slot_symmetry(self, tuple(antisymmetric_slots), sign=-1)
        if symmetric_slots:
            _check_slot_symmetry(self, tuple(symmetric_slots), sign=+1)

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
        return TensorField(self.chart, self.variance, out, tensorial=self.tensorial)

    def __add__(self, other):
        _same_chart(self, other)
        if self.variance != other.variance:
            raise SlotError("cannot add tensors of different variance")
        out = _object_array(self.comps.shape)
        flat, a, b = out.reshape(-1), self.comps.reshape(-1), other.comps.reshape(-1)
        for i in range(flat.size):
            flat[i] = add(a[i], b[i])
        return TensorField(self.chart, self.variance, out,
                           tensorial=self.tensorial and other.tensorial)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, factor) -> "TensorField":
        return self.map(lambda c: mul(factor, c))

    def __repr__(self):
        kind = "" if self.tensorial else ", non-tensorial"
        return f"<TensorField {self.variance}{kind} on {self.chart.coord_names}>"


def _same_chart(a: TensorField, b: TensorField):
    if a.chart != b.chart:
        raise ChartMismatch("tensor fields live on different charts")


def _check_slot_symmetry(t: TensorField, slots, sign):
    if len(slots) < 2:
        return
    if len({t.variance[s] for s in slots}) != 1:
        raise SlotError("declared symmetry mixes slot variances")
    i, j = slots[0], slots[1]
    swapped = np.swapaxes(t.comps, i, j)
    diff = [add(a, mul(-sign, b)) for a, b in zip(t.comps.reshape(-1), swapped.reshape(-1))]
    worst, _ = ex.max_abs_on_points(diff, t.chart.sample_points())
    if not worst <= 1e-10:
        word = "antisymmetry" if sign < 0 else "symmetry"
        raise NotAntisymmetric(f"declared {word} fails: residual {worst:.3e}")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def zeros(chart: Chart, variance) -> TensorField:
    return TensorField(chart, variance, _object_array((chart.dim,) * len(tuple(variance))))


def scalar_field(chart: Chart, e) -> TensorField:
    a = np.empty((), dtype=object)
    a[()] = ex._coerce(e)
    return TensorField(chart, (), a)


def from_function(chart: Chart, variance, fn, tensorial=True) -> TensorField:
    variance = tuple(variance)
    out = _object_array((chart.dim,) * len(variance))
    for idx in itertools.product(range(chart.dim), repeat=len(variance)):
        out[idx] = ex._coerce(fn(*idx))
    return TensorField(chart, variance, out, tensorial=tensorial)


def kronecker(chart: Chart) -> TensorField:
    """Identity (1,1)-tensor."""
    return from_function(chart, (UP, DOWN), lambda i, j: ex.ONE if i == j else ex.ZERO)


def euclidean_metric(chart: Chart) -> TensorField:
    return from_function(chart, (DOWN, DOWN), lambda i, j: ex.ONE if i == j else ex.ZERO)


# ---------------------------------------------------------------------------
# core index algebra
# ---------------------------------------------------------------------------


def tensor_product(a: TensorField, b: TensorField) -> TensorField:
    _same_chart(a, b)
    n = a.chart.dim
    variance = a.variance + b.variance
    out = _object_array((n,) * len(variance))
    for ia in itertools.product(range(n), repeat=a.rank):
        ca = a.comps[ia]
        for ib in itertools.product(range(n), repeat=b.rank):
            out[ia + ib] = mul(ca, b.comps[ib])
    return TensorField(a.chart, variance, out, tensorial=a.tensorial and b.tensorial)


def contract(t: TensorField, up_slot: int, down_slot: int) -> TensorField:
    if not t.tensorial:
        raise NonTensorial("contract needs a tensorial field")
    r = t.rank
    if not (0 <= up_slot < r and 0 <= down_slot < r) or up_slot == down_slot:
        raise SlotError("contraction slots out of range")
    if t.variance[up_slot] != UP or t.variance[down_slot] != DOWN:
        raise SlotError("contract pairs one up slot with one down slot")
    n = t.chart.dim
    keep = [s for s in range(r) if s not in (up_slot, down_slot)]
    variance = tuple(t.variance[s] for s in keep)
    out = _object_array((n,) * len(keep))
    for idx in itertools.product(range(n), repeat=len(keep)):
        terms = []
        for k in range(n):
            full = [0] * r
            for pos, s in enumerate(keep):
                full[s] = idx[pos]
            full[up_slot] = k
            full[down_slot] = k
            terms.append(t.comps[tuple(full)])
        out[idx] = esum(terms)
    return TensorField(t.chart, variance, out)


def _check_metric(metric: TensorField, expect: str):
    if metric.rank != 2 or metric.variance != (expect, expect):
        raise SlotError("metric must be a rank-2 tensor of uniform variance")
    n = metric.chart.dim
    pts = metric.chart.sample_points()
    for p, m in zip(pts, metric.evaluate_points(pts)):
        # written so that a NaN or an infinity fails the test
        if not np.max(np.abs(m - m.T)) <= 1e-10:
            raise SlotError(f"metric is not finite and symmetric at sample point {p}")
        if not abs(np.linalg.det(m)) >= DET_TOL:
            raise SingularMetric(f"|det| < {DET_TOL} at sample point {p}")


def _transvect(t: TensorField, matrix: np.ndarray, slot: int, new_variance: str) -> TensorField:
    n = t.chart.dim
    out = _object_array(t.comps.shape)
    for idx in itertools.product(range(n), repeat=t.rank):
        a = idx[slot]
        terms = []
        for b in range(n):
            src = idx[:slot] + (b,) + idx[slot + 1:]
            terms.append(mul(matrix[a, b], t.comps[src]))
        out[idx] = esum(terms)
    variance = t.variance[:slot] + (new_variance,) + t.variance[slot + 1:]
    return TensorField(t.chart, variance, out)


def raise_index(t: TensorField, metric_inverse: TensorField, slot: int) -> TensorField:
    if not t.tensorial:
        raise NonTensorial("raise_index needs a tensorial field")
    if not (0 <= slot < t.rank) or t.variance[slot] != DOWN:
        raise SlotError("raise_index needs a down slot")
    _check_metric(metric_inverse, UP)
    return _transvect(t, metric_inverse.comps, slot, UP)


def lower_index(t: TensorField, metric: TensorField, slot: int) -> TensorField:
    if not t.tensorial:
        raise NonTensorial("lower_index needs a tensorial field")
    if not (0 <= slot < t.rank) or t.variance[slot] != UP:
        raise SlotError("lower_index needs an up slot")
    _check_metric(metric, DOWN)
    return _transvect(t, metric.comps, slot, DOWN)


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


def _sym_projector(t: TensorField, slot_set, use_sign: bool) -> TensorField:
    if not t.tensorial:
        raise NonTensorial("(anti)symmetrize needs a tensorial field")
    slots = tuple(slot_set)
    if len(set(slots)) != len(slots) or any(not 0 <= s < t.rank for s in slots):
        raise SlotError("bad slot set")
    if len({t.variance[s] for s in slots}) > 1:
        raise SlotError("cannot (anti)symmetrize slots of mixed variance")
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
            terms.append(term if (sign > 0 or not use_sign) else neg(term))
        out[idx] = mul(norm, esum(terms))
    return TensorField(t.chart, t.variance, out)


def antisymmetrize(t: TensorField, slot_set) -> TensorField:
    return _sym_projector(t, slot_set, use_sign=True)


def symmetrize(t: TensorField, slot_set) -> TensorField:
    return _sym_projector(t, slot_set, use_sign=False)


def coordinate_gradient(t: TensorField) -> TensorField:
    """Raw partial derivatives of the components, as a non-tensorial field
    with one extra leading down slot."""
    n = t.chart.dim
    out = _object_array((n,) + t.comps.shape)
    for mu in range(n):
        c = t.chart.coord(mu)
        for idx in itertools.product(range(n), repeat=t.rank):
            out[(mu,) + idx] = ex.differentiate(t.comps[idx], c)
    return TensorField(t.chart, (DOWN,) + t.variance, out, tensorial=False)


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
    _check_metric(g, DOWN)
    return TensorField(g.chart, (UP, UP), matrix_inverse(g.comps))


# ---------------------------------------------------------------------------
# exterior calculus helpers shared by upper layers
# ---------------------------------------------------------------------------


def check_antisymmetric(t: TensorField, tol: float = 1e-10):
    """All-pairs antisymmetry of a covariant or contravariant form."""
    if t.rank < 2:
        return
    pts = t.chart.sample_points()
    for i in range(t.rank - 1):
        swapped = np.swapaxes(t.comps, i, i + 1)
        diff = [add(a, b) for a, b in zip(t.comps.reshape(-1), swapped.reshape(-1))]
        worst, _ = ex.max_abs_on_points(diff, pts)
        if not worst <= tol:
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
    n = x.chart.dim
    out = _object_array((n,) * (omega.rank - 1))
    for idx in itertools.product(range(n), repeat=omega.rank - 1):
        out[idx] = esum(mul(x.comps[a], omega.comps[(a,) + idx]) for a in range(n))
    return TensorField(x.chart, (DOWN,) * (omega.rank - 1), out)


def d_scalar(chart: Chart, f) -> TensorField:
    """Differential of a scalar field as a 1-form."""
    f = ex._coerce(f)
    out = _object_array((chart.dim,))
    for mu in range(chart.dim):
        out[mu] = ex.differentiate(f, chart.coord(mu))
    return TensorField(chart, (DOWN,), out)
