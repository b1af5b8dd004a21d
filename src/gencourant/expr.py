"""Scalar fields on a coordinate chart: expression trees with exact
differentiation, numeric evaluation, light simplification and a parser.

The node vocabulary is fixed (constants, coordinates, n-ary sums and
products, quotients, integer powers, sin/cos/exp/ln/sqrt) and is closed
under differentiation.  A
product carries its numeric coefficient on the node, as a power carries its
exponent (GiNaC's ``mul`` and its ``overall_coeff``): ``2*x*y`` is one node
with coefficient 2 and factors (x, y), not a product with a constant child,
and the negation of a product is the same factors with the coefficient
negated, so a negation is never a node of its own (``-u`` is u with
coefficient -1).  There is no canonical form and no decision procedure for
expression equality: fields are compared by evaluating them at the chart's
seeded sample points.

Expressions are immutable and freely share subtrees, so large tensor
formulas are DAGs in memory.  Evaluation and differentiation are memoized
per node, which makes their cost proportional to the number of distinct
nodes rather than the size of the unfolded tree.  Nodes are not interned:
structurally equal subtrees built apart stay distinct objects.

The cost per node is what is left, so the kernels that run once per node
(the smart constructors, ``_diff`` and the walk ``_fill``) dispatch on
``type(e)`` and skip the work a node does not need: ``_coerce`` runs only
for operands that are not nodes, charts are compared by identity before
equality, and leaves are differentiated without a cache.  Every walk
(evaluation, simplification) is ``_fill``, a single-visit post-order that
lists each node's children once; its fixed order decides which of several
singular subexpressions a DomainError names.

Evaluation has two walks.  The scalar walk (``evaluate``,
``evaluate_many``) computes one IEEE double per node at one point, sums
with ``math.fsum`` and raises DomainError at the first singular
subexpression; it is the reference.  The point-vector walk
(``evaluate_points``, used by ``max_abs_on_points``) visits each distinct
node once for all points, holding a numpy vector per node (constants stay
floats) and summing in term order.  It is used only with two or more
points; when a domain condition, an overflow or a non-finite root value
turns up at any point, it drops its result and the scalar walk is replayed
point by point, so errors and non-finite values are exactly the scalar
walk's.  Both memos live for one call, unless the call is made inside an
``evaluation_scope``: then the calls on one point set share them until the
scope ends, so checks that read the same nodes evaluate them once.

``evaluate_jets`` gives the first partials of its roots as well as their
values, with no derivative DAG built: after the roots are valued as
``evaluate_points`` values them, a forward-mode pass over their DAGs reads
the node values in the memo and keeps one tangent array (all n partials)
per node next to them, so the cost is one pass for all directions.
``differentiate`` stays the exact symbolic derivative, and is the oracle of
the tangent pass.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import ChartMismatch, DomainError, ExprSyntaxError, UnknownSymbol

_IDENT_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_REST = _IDENT_FIRST | set("0123456789")


def _is_identifier(name: str) -> bool:
    return bool(name) and name[0] in _IDENT_FIRST and all(c in _IDENT_REST for c in name)


# ---------------------------------------------------------------------------
# charts and sampling
# ---------------------------------------------------------------------------


class SplitMix64:
    """SplitMix64 generator (Steele, Lea, Flood 2014), used for every seeded
    draw in the package so that sample points and random test data reproduce
    bit-for-bit from a scene's integer seed, independent of the host.

    next_u64:  state += 0x9E3779B97F4A7C15;  z = state;
               z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
               z = (z ^ z>>27) * 0x94D049BB133111EB
               return z ^ z>>31          (all mod 2^64)
    uniform(a, b) maps next_u64 / 2^64 affinely onto [a, b).
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self._MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * (self.next_u64() / 2.0**64)

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi], by rejection-free modular draw (tiny bias is
        irrelevant for test-data generation)."""
        return lo + self.next_u64() % (hi - lo + 1)


@dataclass(frozen=True)
class Chart:
    """A single coordinate chart: names, per-coordinate domain box and the
    sampling configuration used whenever field equality is decided by
    evaluation."""

    dim: int
    coord_names: tuple[str, ...]
    domain: tuple[tuple[float, float], ...] = ()
    seed: int = 0
    num_points: int = 16

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("chart dimension must be positive")
        if len(self.coord_names) != self.dim:
            raise ValueError("need one name per coordinate")
        if len(set(self.coord_names)) != self.dim:
            raise ValueError("coordinate names must be pairwise distinct")
        for name in self.coord_names:
            if not _is_identifier(name):
                raise ValueError(f"'{name}' is not a valid identifier")
        dom = self.domain or tuple((-1.0, 1.0) for _ in range(self.dim))
        if len(dom) != self.dim:
            raise ValueError("need one interval per coordinate")
        try:
            dom = tuple((float(lo), float(hi)) for lo, hi in dom)
        except OverflowError:  # an integer beyond the float range
            raise ValueError("domain bound beyond the float range") from None
        for lo, hi in dom:
            if not lo <= hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
            # an infinite bound or width would draw sample points at +-inf
            if not math.isfinite(hi - lo):
                raise ValueError(f"interval [{lo}, {hi}] needs finite bounds and a finite width")
        object.__setattr__(self, "domain", dom)

    def coord(self, i: int) -> "Coord":
        return Coord(self, i)

    def coords(self) -> tuple["Coord", ...]:
        return tuple(Coord(self, i) for i in range(self.dim))

    def rng(self, salt: int = 0) -> SplitMix64:
        return SplitMix64(self.seed * 0x100000001 + salt)

    def sample_points(self) -> tuple[tuple[float, ...], ...]:
        """num_points points, coordinates drawn uniformly from the domain box
        in row-major (point, coordinate) order from the chart's generator.
        Drawn on the first call; every call returns that same tuple, so the
        memos of an ``evaluation_scope`` (keyed by ``repr(points)``) match."""
        return self._sample_points

    @functools.cached_property
    def _sample_points(self) -> tuple[tuple[float, ...], ...]:
        gen = self.rng()
        return tuple(
            tuple(gen.uniform(lo, hi) for lo, hi in self.domain)
            for _ in range(self.num_points)
        )


def chart(names: str | tuple[str, ...], domain=None, seed: int = 0, num_points: int = 16) -> Chart:
    """Convenience constructor: ``chart("x y")`` or ``chart(("x", "y"))``."""
    if isinstance(names, str):
        names = tuple(names.replace(",", " ").split())
    dom = tuple(domain) if domain is not None else ()
    if dom and not isinstance(dom[0], (tuple, list)):
        dom = tuple((dom[0], dom[1]) for _ in names)
    else:
        dom = tuple(tuple(iv) for iv in dom)
    return Chart(len(names), tuple(names), dom, seed, num_points)


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


class Expr:
    """Base node.  ``chart`` is the unique chart of the coordinates appearing
    below this node (None for constant expressions); ``_deriv`` caches the
    partial derivatives by coordinate index.  Each node class sets both in
    its own ``__init__``, which is among the hottest code of the package."""

    __slots__ = ("chart", "_deriv")

    # operator sugar; scalars coerce to Const
    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return powi(self, n)

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"<Expr {to_string(self)}>"

    def children(self) -> tuple["Expr", ...]:
        return ()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.chart = None
        self._deriv = None
        self.value = float(value)


class Coord(Expr):
    __slots__ = ("index", "name")

    def __init__(self, chart_: Chart, index: int):
        if not 0 <= index < chart_.dim:
            raise ValueError("coordinate index out of range")
        self.chart = chart_
        self._deriv = None
        self.index = index
        self.name = chart_.coord_names[index]

    def __eq__(self, other):
        return isinstance(other, Coord) and other.chart == self.chart and other.index == self.index

    def __hash__(self):
        return hash((self.chart, self.index))


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...], chart_):
        self.chart = chart_
        self._deriv = None
        self.terms = terms

    def children(self):
        return self.terms


class Mul(Expr):
    """``coeff`` times the product of ``factors``; the coefficient is part of
    the node, not a child.  As ``mul`` builds it, no factor is a constant or
    a product, the coefficient is not zero, and a lone factor has a
    coefficient other than one."""

    __slots__ = ("factors", "coeff")

    def __init__(self, factors: tuple[Expr, ...], chart_, coeff: float = 1.0):
        self.chart = chart_
        self._deriv = None
        self.factors = factors
        self.coeff = coeff

    def children(self):
        return self.factors


class Div(Expr):
    __slots__ = ("num", "den")

    def __init__(self, num: Expr, den: Expr):
        self.chart = _merge_charts(num.chart, den.chart)
        self._deriv = None
        self.num = num
        self.den = den

    def children(self):
        return (self.num, self.den)


class Pow(Expr):
    """Integer power; the exponent is part of the node, not a child."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        self.chart = base.chart
        self._deriv = None
        self.base = base
        self.exponent = int(exponent)

    def children(self):
        return (self.base,)


class Func(Expr):
    __slots__ = ("arg",)
    name = "?"

    def __init__(self, arg: Expr):
        self.chart = arg.chart
        self._deriv = None
        self.arg = arg

    def children(self):
        return (self.arg,)


class Sin(Func):
    __slots__ = ()
    name = "sin"


class Cos(Func):
    __slots__ = ()
    name = "cos"


class Exp(Func):
    __slots__ = ()
    name = "exp"


class Ln(Func):
    __slots__ = ()
    name = "ln"


class Sqrt(Func):
    __slots__ = ()
    name = "sqrt"


ZERO = Const(0.0)
ONE = Const(1.0)

# The node classes.  The hot kernels dispatch on ``type(e)`` against these
# rather than walking an ``isinstance`` chain; an operand of any other type
# goes through ``_coerce``.
_NODE_TYPES = frozenset((Const, Coord, Add, Mul, Div, Pow, Sin, Cos, Exp, Ln, Sqrt))


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return Const(x)
    raise TypeError(f"cannot use {type(x).__name__} as an expression")


def _merge_charts(a, b):
    if a is None or a is b:
        return b
    if b is None or a == b:
        return a
    raise ChartMismatch("expressions live on different charts")


def is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 0.0


def is_one(e: Expr) -> bool:
    return isinstance(e, Const) and e.value == 1.0


# ---------------------------------------------------------------------------
# smart constructors: constant folding, 0/1 identities, flattening
# ---------------------------------------------------------------------------


def _check_fold(node_type, operands):
    """Called when the constants folded by ``add`` (node_type Add) or ``mul``
    (Mul) came to an infinity or a NaN: if they were all finite, raise
    DomainError("overflow") naming a node of them (a product's coefficient
    is one of them unless it is 1)."""
    consts = []
    for t in map(_coerce, operands):
        if type(t) is Const:
            consts.append(t.value)
        elif type(t) is Add and node_type is Add:
            consts.extend(u.value for u in t.terms if type(u) is Const)
        elif type(t) is Mul and node_type is Mul and t.coeff != 1.0:
            consts.append(t.coeff)
    if all(map(math.isfinite, consts)):
        raise DomainError("overflow", node_type(tuple(map(Const, consts)), None))


def add(*terms) -> Expr:
    flat: list[Expr] = []
    const = 0.0
    chart_ = None
    lone = None  # the only non-constant term, while it is a sum
    for t in terms:
        kind = type(t)
        if kind not in _NODE_TYPES:
            t = _coerce(t)
            kind = type(t)
        c = t.chart
        if c is not chart_ and c is not None:
            chart_ = c if chart_ is None else _merge_charts(chart_, c)
        if kind is Const:
            const += t.value
        elif kind is Add:
            lone = None if flat else t
            for u in t.terms:
                if type(u) is Const:
                    const += u.value
                else:
                    flat.append(u)
        else:
            lone = None
            flat.append(t)
    if not math.isfinite(const):
        _check_fold(Add, terms)
    if lone is not None:
        # A sum plus constants that leave its own constant as it was: the
        # flattened result would be a copy of it, so it is the result.
        last = lone.terms[-1]
        if const == (last.value if type(last) is Const else 0.0):
            return lone
    if const != 0.0 or not flat:
        flat.append(Const(const))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat), chart_)


def esum(terms) -> Expr:
    """Sum of an iterable of expressions (flat, single Add node)."""
    return add(*terms)


def neg(e) -> Expr:
    """-e: a constant negated, a product with its coefficient negated (the
    same factor tuple), anything else as a product with coefficient -1."""
    kind = type(e)
    if kind not in _NODE_TYPES:
        e = _coerce(e)
        kind = type(e)
    if kind is Const:
        return Const(-e.value)
    if kind is Mul:
        factors = e.factors
        if e.coeff == -1.0 and len(factors) == 1:
            return factors[0]
        return Mul(factors, e.chart, -e.coeff)
    return Mul((e,), e.chart, -1.0)


def mul(*factors) -> Expr:
    flat: list[Expr] = []
    const = 1.0
    chart_ = None
    for f in factors:
        kind = type(f)
        if kind not in _NODE_TYPES:
            f = _coerce(f)
            kind = type(f)
        c = f.chart
        if c is not chart_ and c is not None:
            chart_ = c if chart_ is None else _merge_charts(chart_, c)
        if kind is Const:
            const *= f.value
        elif kind is Mul:
            const *= f.coeff
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not math.isfinite(const):
        _check_fold(Mul, factors)
    if const == 0.0:
        return ZERO
    if not flat:
        return Const(const)
    if const == 1.0 and len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat), chart_, const)


def div(num, den) -> Expr:
    num, den = _coerce(num), _coerce(den)
    if is_one(den):
        return num
    if is_zero(num):
        return ZERO
    if isinstance(den, Const) and den.value != 0.0:
        inv = 1.0 / den.value
        if not math.isfinite(inv) and math.isfinite(den.value):
            raise DomainError("overflow", Div(ONE, den))
        return mul(Const(inv), num)
    return Div(num, den)


def powi(base, exponent: int) -> Expr:
    base = _coerce(base)
    exponent = int(exponent)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and not (base.value == 0.0 and exponent < 0):
        return Const(_checked(Pow(base, exponent), pow, base.value, exponent))
    return Pow(base, exponent)


def sin(e) -> Expr:
    e = _coerce(e)
    return Const(_checked(Sin(e), math.sin, e.value)) if isinstance(e, Const) else Sin(e)


def cos(e) -> Expr:
    e = _coerce(e)
    return Const(_checked(Cos(e), math.cos, e.value)) if isinstance(e, Const) else Cos(e)


def exp(e) -> Expr:
    e = _coerce(e)
    return Const(_checked(Exp(e), math.exp, e.value)) if isinstance(e, Const) else Exp(e)


def ln(e) -> Expr:
    e = _coerce(e)
    if isinstance(e, Const) and e.value > 0.0:
        return Const(math.log(e.value))
    return Ln(e)


def sqrt(e) -> Expr:
    e = _coerce(e)
    if isinstance(e, Const) and e.value >= 0.0:
        return Const(math.sqrt(e.value))
    return Sqrt(e)


_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "ln": ln, "sqrt": sqrt}


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def differentiate(e: Expr, coord: Coord) -> Expr:
    """Exact partial derivative of ``e`` with respect to ``coord``.

    Derivatives are cached on each node, so repeated differentiation of a
    shared subtree costs nothing extra.
    """
    e = _coerce(e)
    if not isinstance(coord, Coord):
        raise TypeError("coord must be a chart coordinate")
    if e.chart is not None and e.chart is not coord.chart and e.chart != coord.chart:
        raise UnknownSymbol(coord.name)
    return _diff(e, coord)


def _diff(e: Expr, coord: Coord) -> Expr:
    """The derivative of ``e``, from its cache or from ``_diff_rules``.
    Leaves are answered at once: they would only cache a shared constant."""
    kind = type(e)
    if kind is Const:
        return ZERO
    if kind is Coord:
        return ONE if e.index == coord.index else ZERO
    cache = e._deriv
    if cache is None:
        cache = e._deriv = {}
    hit = cache.get(coord.index)
    if hit is not None:
        return hit
    d = _diff_rules(e, coord)
    cache[coord.index] = d
    return d


def _diff_rules(e: Expr, coord: Coord) -> Expr:
    """One rule application; ``_diff`` has answered the leaves."""
    kind = type(e)
    if kind is Mul:
        factors = e.factors
        scale = () if e.coeff == 1.0 else (Const(e.coeff),)
        terms = []
        for i, f in enumerate(factors):
            df = _diff(f, coord)
            if type(df) is not Const or df.value != 0.0:
                terms.append(mul(*scale, df, *factors[:i], *factors[i + 1:]))
        return add(*terms) if terms else ZERO
    if kind is Add:
        return add(*[_diff(t, coord) for t in e.terms])
    if kind is Div:
        du, dv = _diff(e.num, coord), _diff(e.den, coord)
        return div(add(mul(du, e.den), neg(mul(e.num, dv))), mul(e.den, e.den))
    if kind is Pow:
        return mul(e.exponent, powi(e.base, e.exponent - 1), _diff(e.base, coord))
    if kind is Sin:
        return mul(cos(e.arg), _diff(e.arg, coord))
    if kind is Cos:
        return neg(mul(sin(e.arg), _diff(e.arg, coord)))
    if kind is Exp:
        return mul(e, _diff(e.arg, coord))
    if kind is Ln:
        return div(_diff(e.arg, coord), e.arg)
    if kind is Sqrt:
        return div(_diff(e.arg, coord), mul(2.0, e))
    raise TypeError(f"cannot differentiate {kind.__name__}")


def gradient(e: Expr, chart_: Chart) -> list[Expr]:
    return [differentiate(e, Coord(chart_, i)) for i in range(chart_.dim)]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(e: Expr, point) -> float:
    """IEEE-double value of ``e`` at ``point`` (length = chart dimension)."""
    memo: dict[int, float] = {}
    return _eval_into(e, tuple(point), memo)


def evaluate_many(exprs, point, memo: dict | None = None) -> list[float]:
    """Evaluate several expressions at one point with a shared memo, so
    common subtrees are computed once.  A ``memo`` passed in must only ever
    have been filled at this point, by nodes that are still alive."""
    if memo is None:
        memo = {}
    pt = tuple(point)
    return [_eval_into(e, pt, memo) for e in exprs]


class _Scope:
    """The memos of an ``evaluation_scope``, by point set, and the roots
    whose nodes they are keyed by (kept alive so that no ``id`` is reused)."""

    def __init__(self):
        self.roots: list = []
        self.memos: dict = {}

    def memos_for(self, roots: list, points):
        """(vector-pass memo, one per-point memo per point) for ``points``."""
        self.roots.append(roots)
        key = repr(points)  # exact: tells 0.0 from -0.0, unlike ==
        hit = self.memos.get(key)
        if hit is None:
            hit = self.memos[key] = ({}, [{} for _ in points])
        return hit


_scope: ContextVar[_Scope | None] = ContextVar("evaluation_scope", default=None)


@contextmanager
def evaluation_scope():
    """Within the block, ``evaluate_points`` and ``evaluate_jets`` calls on
    one point set share their memos (values and tangents), so a node reached
    from several calls is evaluated once.
    The values are those of separate calls, bit for bit, and so are the
    errors: a node that raised is never stored.  Everything is released
    when the outermost block ends; a nested block joins the outer one."""
    if _scope.get() is not None:
        yield
        return
    token = _scope.set(_Scope())
    try:
        yield
    finally:
        _scope.reset(token)


def _fill(roots, memo: dict, value) -> None:
    """Store ``value(node)`` in ``memo`` under ``id(node)`` for every node
    under ``roots`` not yet in it, children first.  An explicit stack:
    tensor formulas can nest deeper than Python's default recursion limit.

    The walk is a single-visit post-order on ``(node, expanded)`` pairs.  A
    node not in the memo is expanded once: it goes back on the stack as
    ``(node, True)``, under those of its children not in the memo, and is
    valued when it comes off again, by which time they all are.  The last
    root and the last child are walked first; this order fixes which
    singular subexpression a DomainError names."""
    stack = [(e, False) for e in roots]
    pop, push = stack.pop, stack.append
    while stack:
        e, expanded = pop()
        if expanded:
            memo[id(e)] = value(e)
        elif id(e) not in memo:
            push((e, True))
            for k in e.children():
                if id(k) not in memo:
                    push((k, False))


def _eval_into(root: Expr, point: tuple, memo: dict[int, float]) -> float:
    _fill((root,), memo, lambda e: _eval_node(e, point, memo))
    return memo[id(root)]


def _checked(node: Expr, fn, *args) -> float:
    """fn(*args) as the value of ``node``; an overflow, or the ValueError
    that ``math`` raises on an infinite argument (sin, cos, fsum of
    opposite infinities), becomes a DomainError naming the node."""
    try:
        return fn(*args)
    except OverflowError:
        raise DomainError("overflow", node) from None
    except ValueError:
        raise DomainError("infinite value", node) from None


def _eval_node(e: Expr, point: tuple, memo) -> float:
    kind = type(e)
    if kind is Mul:
        out = e.coeff
        for f in e.factors:
            out *= memo[id(f)]
        return out
    if kind is Add:
        return _checked(e, math.fsum, [memo[id(t)] for t in e.terms])
    if kind is Const:
        return e.value
    if kind is Coord:
        if e.index >= len(point):
            raise DomainError("point has wrong dimension", e)
        return float(point[e.index])
    if kind is Div:
        d = memo[id(e.den)]
        if d == 0.0:
            raise DomainError("division by zero", e)
        return memo[id(e.num)] / d
    if kind is Pow:
        b = memo[id(e.base)]
        if b == 0.0 and e.exponent < 0:
            raise DomainError("zero raised to a negative power", e)
        return _checked(e, pow, b, e.exponent)
    if kind is Sin:
        return _checked(e, math.sin, memo[id(e.arg)])
    if kind is Cos:
        return _checked(e, math.cos, memo[id(e.arg)])
    if kind is Exp:
        return _checked(e, math.exp, memo[id(e.arg)])
    if kind is Ln:
        a = memo[id(e.arg)]
        if a <= 0.0:
            raise DomainError("ln of a non-positive value", e)
        return math.log(a)
    if kind is Sqrt:
        a = memo[id(e.arg)]
        if a < 0.0:
            raise DomainError("sqrt of a negative value", e)
        return math.sqrt(a)
    raise TypeError(f"cannot evaluate {kind.__name__}")


def evaluate_points(exprs, points) -> np.ndarray:
    """Values of ``exprs`` at each of ``points``, as a float64 array of shape
    (len(exprs), len(points)).

    With two or more points of one length, a single walk over the distinct
    nodes evaluates each node as a vector over all points.  That pass gives
    up if a domain condition or an overflow holds at any point, which shows
    as a non-finite value (see ``_vec_node``), or if any root value is not
    finite.  The per-point walk is then replayed point by point, so a
    DomainError names the same subexpression at the same first point, and
    non-finite values come out as that walk gives them.  Fewer than two
    points go straight to the per-point walk.
    """
    exprs = list(exprs)
    vector_memo, point_memos = _memos(exprs, points)
    cols = _columns(points)
    if cols is not None:
        out = _vector_pass(exprs, cols, vector_memo)
        if out is not None:
            return out
    rows = [evaluate_many(exprs, pt, memo) for pt, memo in zip(points, point_memos)]
    return np.array(rows, dtype=float).reshape(len(points), len(exprs)).T


def evaluate_jets(roots, points) -> tuple[np.ndarray, np.ndarray]:
    """Values and first partials of ``roots`` at each of ``points``: float64
    arrays of shape (len(roots), P) and (len(roots), n, P), with
    partials[i, m, p] = d root_i / d x^m at points[p] and n the length of a
    point.

    The values come from the walks of ``evaluate_points``, with its memos
    and its replay rule.  The tangent pass then runs over the memo that
    holds them: over all points at once after the vector pass, and otherwise
    at each point right after the values there.  A partial that is not
    finite in the vector pass sends the whole call to the per-point walk,
    where it raises the DomainError that names the node of its root whose
    derivative is singular or overflows."""
    roots = list(roots)
    count = len(points)
    vector_memo, point_memos = _memos(roots, points)
    cols = _columns(points)
    if cols is not None:
        values = _vector_pass(roots, cols, vector_memo)
        if values is not None:
            n = len(cols)
            unit = np.broadcast_to(np.eye(n)[:, :, None], (n, n, count))
            partials = np.array([_partials(f, vector_memo, unit, (n, count))
                                 for f in roots]).reshape(len(roots), n, count)
            if np.isfinite(partials).all():
                return values, partials
    n = len(points[0]) if count else 0
    unit = np.eye(n)
    values = np.empty((len(roots), count))
    partials = np.empty((len(roots), n, count))
    for p, (pt, memo) in enumerate(zip(points, point_memos)):
        values[:, p] = evaluate_many(roots, pt, memo)
        for i, f in enumerate(roots):
            t = _partials(f, memo, unit, (n,))
            if not np.isfinite(t).all():
                _raise_singular_tangent(f, memo)
            partials[i, :, p] = t
    return values, partials


def _memos(roots: list, points):
    """(vector-pass memo, one per-point memo per point) for one call: those
    of the enclosing ``evaluation_scope``, or fresh ones."""
    scope = _scope.get()
    if scope is None:
        return {}, [{} for _ in points]
    return scope.memos_for(roots, points)


def _columns(points):
    """The points as one row per coordinate, for the vector pass, or None
    when there are fewer than two points or they differ in length."""
    if len(points) < 2:
        return None
    try:
        cols = np.array(points, dtype=float).T.copy()
    except (TypeError, ValueError):  # points of unequal length
        return None
    return cols if cols.ndim == 2 else None


class _Replay(Exception):
    """The vector pass cannot decide; the per-point walk must."""


def _vector_pass(roots: list, cols: np.ndarray, memo: dict):
    """Root values as rows over the points (``cols`` holds one row per
    coordinate), or None when the per-point walk has to be replayed.  Node
    values are kept in ``memo``; one that gives up is not stored."""
    with np.errstate(all="ignore"):
        try:
            _fill(roots, memo, lambda e: _vec_node(e, cols, memo))
        except _Replay:
            return None
    out = np.empty((len(roots), cols.shape[1]))
    for i, root in enumerate(roots):
        out[i] = memo[id(root)]
    return out if np.isfinite(out).all() else None


def _vec_node(e: Expr, cols: np.ndarray, memo):
    """One node over all points: a float for constant subtrees, else a
    vector.  A domain violation makes a NaN or an infinity, which either
    reaches a root or is hidden by one of the three operations that can map
    it to a finite value (x/inf, inf^-k or inf^0, exp(-inf)); those give up
    here, since the scalar walk may have raised on the way."""
    kind = type(e)
    if kind is Mul:
        factors = iter(e.factors)
        out = memo[id(next(factors))]
        if e.coeff != 1.0:
            out = e.coeff * out
        for f in factors:
            out = out * memo[id(f)]
        return out
    if kind is Add:
        terms = iter(e.terms)
        out = memo[id(next(terms))]
        for t in terms:
            out = out + memo[id(t)]
        return out
    if kind is Const:
        return e.value
    if kind is Coord:
        if e.index >= len(cols):
            raise _Replay
        return cols[e.index]
    if kind is Div:
        d = memo[id(e.den)]
        if not np.isfinite(d).all():
            raise _Replay
        return np.divide(memo[id(e.num)], d)
    if kind is Pow:
        b = memo[id(e.base)]
        if e.exponent <= 0 and not np.isfinite(b).all():
            raise _Replay
        return np.float64(b) ** e.exponent if isinstance(b, float) else b**e.exponent
    if kind is Sin:
        return np.sin(memo[id(e.arg)])
    if kind is Cos:
        return np.cos(memo[id(e.arg)])
    if kind is Exp:
        a = memo[id(e.arg)]
        if not np.isfinite(a).all():
            raise _Replay
        return np.exp(a)
    if kind is Ln:
        return np.log(memo[id(e.arg)])
    if kind is Sqrt:
        return np.sqrt(memo[id(e.arg)])
    raise TypeError(f"cannot evaluate {kind.__name__}")


# ---------------------------------------------------------------------------
# the tangent pass: forward-mode partial derivatives for ``evaluate_jets``
# ---------------------------------------------------------------------------
#
# A tangent is the array of all n partials of one node, coordinate index
# first: shape (n,) in the per-point walk, (n, P) in the vector pass.  None
# stands for the zero tangent of a subtree with no coordinate below it.  The
# rules mirror ``_diff_rules`` and read the node values that the walk has
# already stored; a tangent that is singular or overflows comes out
# non-finite, which ``evaluate_jets`` turns into a replay or a DomainError.

# The key under which a value memo holds its tangent memo (node keys are ids).
_TANGENTS = "tangents"


def _tangent(f: Expr, memo: dict, unit):
    """The tangent of ``f``, from the tangent memo kept in the value memo
    ``memo``, which holds the value of every node under ``f``.  A pass fills
    in the nodes of f not yet in the tangent memo; ``unit[m]`` is the
    tangent of coordinate m."""
    tangents = memo.get(_TANGENTS)
    if tangents is None:
        tangents = memo[_TANGENTS] = {}
    if id(f) not in tangents:
        with np.errstate(all="ignore"):
            _fill((f,), tangents, lambda e: _tangent_node(e, memo, tangents, unit))
    return tangents[id(f)]


def _partials(f: Expr, memo: dict, unit, shape) -> np.ndarray:
    """The tangent of ``f`` as an array of ``shape``, zero for a constant."""
    t = _tangent(f, memo, unit)
    return np.zeros(shape) if t is None else t


def _tangent_node(e: Expr, vals: dict, tans: dict, unit):
    kind = type(e)
    if kind is Mul:
        factors, coeff = e.factors, e.coeff
        out = None
        for i, f in enumerate(factors):
            t = tans[id(f)]
            if t is None:
                continue
            c = None if coeff == 1.0 else coeff
            for j, g in enumerate(factors):
                if j != i:
                    c = vals[id(g)] if c is None else c * vals[id(g)]
            term = t if c is None else c * t
            out = term if out is None else out + term
        return out
    if kind is Add:
        out = None
        for u in e.terms:
            t = tans[id(u)]
            if t is not None:
                out = t if out is None else out + t
        return out
    if kind is Const:
        return None
    if kind is Coord:
        return unit[e.index]
    if kind is Div:
        tu, tv = tans[id(e.num)], tans[id(e.den)]
        if tu is None and tv is None:
            return None
        u, v = vals[id(e.num)], vals[id(e.den)]
        if tv is None:
            top = tu * v
        elif tu is None:
            top = -(u * tv)
        else:
            top = tu * v - u * tv
        return top / (v * v)
    if kind is Pow:
        t, k = tans[id(e.base)], e.exponent
        return None if t is None or k == 0 else k * np.power(vals[id(e.base)], k - 1) * t
    t = tans[id(e.arg)]  # one of the functions sin ... sqrt
    if t is None:
        return None
    if kind is Sin:
        return np.cos(vals[id(e.arg)]) * t
    if kind is Cos:
        return -np.sin(vals[id(e.arg)]) * t
    if kind is Exp:
        return vals[id(e)] * t
    if kind is Ln:
        return t / vals[id(e.arg)]
    if kind is Sqrt:
        return t / (2.0 * vals[id(e)])
    raise TypeError(f"no tangent rule for {kind.__name__}")


def _raise_singular_tangent(f: Expr, memo: dict):
    """Raise the DomainError of a non-finite tangent of ``f``: it names the
    first node of f, in walk order, whose tangent is not finite, which is
    where the derivative was singular or overflowed (its children's are
    finite)."""
    tangents = memo[_TANGENTS]

    def check(e):
        t = tangents[id(e)]
        if t is not None and not np.isfinite(t).all():
            kind = type(e)
            if kind is Sqrt and memo[id(e)] == 0.0:
                raise DomainError("sqrt at zero has no derivative", e)
            if kind is Div and memo[id(e.den)] * memo[id(e.den)] == 0.0:
                raise DomainError("the derivative of a quotient divides by zero", e)
            raise DomainError("overflow in a derivative", e)

    _fill((f,), {}, check)


# ---------------------------------------------------------------------------
# simplification: rebuild through the smart constructors
# ---------------------------------------------------------------------------


def simplify(e: Expr) -> Expr:
    """Constant folding, 0/1 identities and sum/product flattening.  The
    result evaluates identically to the input at every in-domain point."""
    memo: dict[int, Expr] = {}
    root = _coerce(e)
    _fill((root,), memo, lambda node: _rebuild(node, memo))
    return memo[id(root)]


def _rebuild(e: Expr, memo) -> Expr:
    if isinstance(e, (Const, Coord)):
        return e
    if isinstance(e, Add):
        return add(*(memo[id(t)] for t in e.terms))
    if isinstance(e, Mul):
        return mul(e.coeff, *(memo[id(f)] for f in e.factors))
    if isinstance(e, Div):
        return div(memo[id(e.num)], memo[id(e.den)])
    if isinstance(e, Pow):
        return powi(memo[id(e.base)], e.exponent)
    if isinstance(e, Func):
        return _FUNCTIONS[e.name](memo[id(e.arg)])
    raise TypeError(type(e).__name__)


# ---------------------------------------------------------------------------
# printing (parseable; grammar below)
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_NEG, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _const_str(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):
        return str(int(v))
    return repr(v)


def to_string(e: Expr) -> str:
    return _print(e)[0]


def _print(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{_const_str(-e.value)}", _PREC_NEG
        return _const_str(e.value), _PREC_ATOM
    if isinstance(e, Coord):
        return e.name, _PREC_ATOM
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            s, p = _print(t)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(f" - {s[1:]}")
            else:
                parts.append(f" + {s}")
        return "".join(parts), _PREC_ADD
    if isinstance(e, Mul):
        if e.coeff < 0.0:  # as the negation of the product with coefficient -coeff
            return f"-{_print(Mul(e.factors, e.chart, -e.coeff))[0]}", _PREC_NEG
        parts = [] if e.coeff == 1.0 else [_const_str(e.coeff)]
        for f in e.factors:
            s, p = _print(f)
            if p < _PREC_MUL:
                s = f"({s})"
            parts.append(s)
        return "*".join(parts), _PREC_MUL
    if isinstance(e, Div):
        ns, np_ = _print(e.num)
        ds, dp = _print(e.den)
        if np_ < _PREC_MUL:
            ns = f"({ns})"
        if dp <= _PREC_MUL:
            ds = f"({ds})"
        return f"{ns}/{ds}", _PREC_MUL
    if isinstance(e, Pow):
        bs, bp = _print(e.base)
        if bp < _PREC_ATOM:
            bs = f"({bs})"
        es = str(e.exponent) if e.exponent >= 0 else f"({e.exponent})"
        return f"{bs}^{es}", _PREC_POW
    if isinstance(e, Func):
        return f"{e.name}({_print(e.arg)[0]})", _PREC_ATOM
    raise TypeError(type(e).__name__)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------
#
# expr    := term (('+'|'-') term)*
# term    := factor (('*'|'/') factor)*
# factor  := ('-'|'+')* power
# power   := atom ('^' exponent)?      exponent := ['-'] integer | '(' ['-'] integer ')'
# atom    := number | name '(' expr ')' | name | '(' expr ')'
#
# Numbers are nonnegative decimal literals with optional fraction and
# exponent part; leading '-' is parsed as negation.

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


def parse_expr(text: str, chart_: Chart) -> Expr:
    """Parse ``text`` against ``chart_``.  Usual infix precedence, ``^`` for
    integer powers, function-call syntax for sin/cos/exp/ln/sqrt."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text, chart_).parse()


# ---------------------------------------------------------------------------
# seeded random polynomial fields (shared by property suites and the CLI)
# ---------------------------------------------------------------------------


def random_polynomial(chart_: Chart, gen: SplitMix64, degree: int = 2, scale: float = 0.25) -> Expr:
    """Random polynomial of total degree <= degree with coefficients drawn
    uniformly from [-scale, scale].  Degree-2 fields keep derived tensor
    DAGs small while exercising all second-derivative paths."""
    xs = chart_.coords()

    def monomials(deg, start):
        if deg == 0:
            yield ()
            return
        yield ()
        for i in range(start, chart_.dim):
            for rest in monomials(deg - 1, i):
                yield (i,) + rest

    seen = set()
    terms = []
    for mono in monomials(degree, 0):
        if mono in seen:
            continue
        seen.add(mono)
        coeff = gen.uniform(-scale, scale)
        terms.append(mul(coeff, *(xs[i] for i in mono)))
    return add(*terms)


def worst_of(pairs):
    """The (value, point) pair with the largest value, the last one on a
    tie.  The first pair whose value is not finite is returned at once, so
    a NaN residual never reads as a small one.  (0.0, None) when empty."""
    worst, at = 0.0, None
    for value, pt in pairs:
        if not math.isfinite(value):
            return value, pt
        if value >= worst:
            worst, at = value, pt
    return worst, at


def max_abs_on_points(exprs, points):
    """Max absolute value over expressions x points; returns (value, point)
    as ``worst_of`` picks it over the per-point maxima.  Accepts a single
    Expr, an iterable, a numpy object array, or a float array of values
    whose last axis runs over ``points``."""
    if not points:
        return 0.0, ()
    if isinstance(exprs, np.ndarray) and exprs.dtype != object:
        if exprs.shape[-1:] != (len(points),):
            raise ValueError(f"values of shape {exprs.shape} do not end in {len(points)} points")
        values = exprs.reshape(-1, len(points))
    else:
        if isinstance(exprs, Expr):
            flat = [exprs]
        elif isinstance(exprs, np.ndarray):
            flat = list(exprs.reshape(-1))
        else:
            flat = list(exprs)
        values = evaluate_points(flat, points)
    per_point = np.abs(values).max(axis=0, initial=0.0)
    return worst_of(zip(per_point.tolist(), map(tuple, points)))
