"""In-memory span tracer for the gencourant layers.

``Tracer.install`` wraps every public module-level function of the eight
layer modules, and the ``max_abs`` methods of their classes, at every place
the function object is bound: module globals of the whole package
(``tensors`` does ``from .expr import evaluate_many``) and module-level
dicts such as ``cli.SUITES``.  The smart constructors of
``expr`` (``add``, ``mul``, ...) are left alone: they run millions of times
and would drown the profile in wrapper cost.

Each wrapped call appends one span (kind, parent, start, end) to a list held
in memory.  Calls into ``evaluate`` and ``evaluate_many`` also record their
roots and point, so that node-point counts can be taken after the run by
walking ``Expr.children()`` while the node objects are still held (so no
``id`` is reused during the count).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("scene", "expr", "tensors", "riemann", "gtb", "gconn", "streff", "cli")

SMART_CONSTRUCTORS = frozenset(
    ("add", "esum", "neg", "mul", "div", "powi", "sin", "cos", "exp", "ln", "sqrt",
     "is_zero", "is_one")
)

# The evaluator entry points: their outermost spans make ``expr.eval.s``.
EVAL_KINDS = frozenset(
    ("expr.evaluate", "expr.evaluate_many", "expr.max_abs_on_points",
     "tensors.TensorField.max_abs", "gtb.GenSection.max_abs",
     "streff.BetaResiduals.max_abs", "streff.CentralResiduals.max_abs")
)

# Functions that walk one DAG at one point; their roots are recorded.
WALK_KINDS = frozenset(("expr.evaluate", "expr.evaluate_many"))

SUITES = ("axioms", "torsion", "curvature", "beta", "central", "symplectic", "equivalence")

BUILDER_COUNTS = (
    "riemann.christoffel",
    "tensors.metric_inverse",
    "tensors.check_antisymmetric",
    "gconn.gen_riemann",
    "gconn.dilaton_connection",
    "streff.beta_all",
    "streff.build_symplectic",
    "streff.transport_identity_residual",
)

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    [
        ("expr.eval.s", "s", "lower"),
        ("expr.eval.calls", "count", "lower"),
        ("expr.eval.node_points", "count", "lower"),
        ("expr.eval.distinct_node_points", "count", "lower"),
        ("expr.eval.reuse_ratio", "ratio", "lower"),
        ("expr.differentiate.s", "s", "lower"),
        ("expr.differentiate.calls", "count", "lower"),
        ("expr.dag.nodes", "count", "lower"),
        ("expr.dag.distinct_structures", "count", "lower"),
        ("expr.dag.share_ratio", "ratio", "lower"),
        ("expr.parse.s", "s", "lower"),
        ("gconn.gen_riemann.s", "s", "lower"),
    ]
    + [(f"{kind}.calls", "count", "lower") for kind in BUILDER_COUNTS]
    + [(f"cli.suite.{suite}.s", "s", "lower") for suite in SUITES]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [("trace.overhead_s", "s", "lower")]
)

# Metrics that are exact counts and must repeat across traced runs.
EXACT = tuple(name for name, unit, _ in METRICS if unit in ("count", "ratio"))


class Tracer:
    """Wraps the layer functions of an imported ``gencourant`` package and
    records spans and evaluation roots until ``uninstall``."""

    def __init__(self):
        self.kinds: list[str] = []
        self.spans: list = []
        self.walks: list = []
        self._stack: list[int] = []
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def install(self):
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "gencourant" or name.startswith("gencourant.")}
        wrappers = {}  # id of a live original function -> its wrapper
        for layer in LAYERS:
            mod = package[f"gencourant.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and name not in SMART_CONSTRUCTORS):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and "max_abs" in vars(obj):
                    method = vars(obj)["max_abs"]
                    self._set(obj, "max_abs", method,
                              self._wrap(method, f"{layer}.{obj.__name__}.max_abs"))
        for mod in package.values():
            for key, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._set(mod, key, value, wrapper)
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        wrapper = wrappers.get(id(dvalue))
                        if wrapper is not None:
                            self._restore.append((value, dkey, dvalue, True))
                            value[dkey] = wrapper

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._restore):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def _set(self, owner, key, original, wrapper):
        self._restore.append((owner, key, original, False))
        setattr(owner, key, wrapper)

    def _wrap(self, fn, kind_name):
        kind = len(self.kinds)
        self.kinds.append(kind_name)
        spans, stack, walks = self.spans, self._stack, self.walks
        clock = time.perf_counter
        record_roots = kind_name in WALK_KINDS

        def wrapper(*args, **kwargs):
            if record_roots:
                walks.append(args)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (kind, parent, start, end)

        return functools.update_wrapper(wrapper, fn)

    # -- analysis ---------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything recorded since ``install``
        (``trace.overhead_s`` is left to the caller, who has the untraced
        time)."""
        kinds = self.kinds
        spans = self.spans
        child_time = [0.0] * len(spans)
        for kind, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: 0 for name, unit, _ in METRICS if unit == "count"}
        out.update({name: 0.0 for name, unit, _ in METRICS if unit != "count"})
        for i, (kind, _, start, end) in enumerate(spans):
            layer = kinds[kind].split(".", 1)[0]
            out[f"{layer}.self_s"] += end - start - child_time[i]
            key = f"{kinds[kind]}.calls"
            if key in out:
                out[key] += 1
        out["expr.eval.s"] = self.outermost_time(EVAL_KINDS)
        out["expr.eval.calls"] = sum(1 for span in spans if kinds[span[0]] in WALK_KINDS)
        out["expr.differentiate.s"] = self.outermost_time({"expr.differentiate"})
        out["expr.parse.s"] = self.outermost_time({"expr.parse_expr"})
        out["gconn.gen_riemann.s"] = self.outermost_time({"gconn.gen_riemann"})
        for suite in SUITES:
            out[f"cli.suite.{suite}.s"] = self.outermost_time({f"cli.checks_{suite}"})
        out.update(self.node_counts())
        return {name: out[name] for name, _, _ in METRICS}

    def outermost_time(self, names) -> float:
        """Summed duration of spans of the given kinds that have no
        ancestor of those kinds, so nested calls are not counted twice."""
        wanted = {i for i, name in enumerate(self.kinds) if name in names}
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (kind, parent, start, end) in enumerate(self.spans):
            covered = parent >= 0 and inside[parent]
            if kind in wanted and not covered:
                total += end - start
            inside[i] = covered or kind in wanted
        return total

    def node_counts(self) -> dict:
        """Node-point evaluations (each walk evaluates every distinct node
        below its roots once), distinct (node, point) pairs, and the size
        and structural redundancy of the evaluated DAG."""
        groups = {}
        point_ids = {}
        for args in self.walks:
            roots, point = args[0], tuple(args[1])
            group = groups.setdefault(id(roots), [roots, set(), 0])
            group[1].add(point_ids.setdefault(point, len(point_ids)))
            group[2] += 1
        nodes = {}
        points_of = {}
        node_points = 0
        for roots, points, calls in groups.values():
            reach = _reach(roots)
            node_points += len(reach) * calls
            for node in reach:
                key = id(node)
                if key not in nodes:
                    nodes[key] = node
                    points_of[key] = set(points)
                else:
                    points_of[key].update(points)
        distinct_points = sum(len(p) for p in points_of.values())
        structures = _distinct_structures(nodes)
        return {
            "expr.eval.node_points": node_points,
            "expr.eval.distinct_node_points": distinct_points,
            "expr.eval.reuse_ratio": node_points / distinct_points if distinct_points else 0.0,
            "expr.dag.nodes": len(nodes),
            "expr.dag.distinct_structures": structures,
            "expr.dag.share_ratio": len(nodes) / structures if structures else 0.0,
        }


def _reach(roots) -> list:
    """Distinct node objects reachable from an Expr or a sequence of them."""
    stack = [roots] if hasattr(roots, "children") else list(roots)
    seen = set()
    out = []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        stack.extend(node.children())
    return out


def _payload(node):
    for attr in ("value", "index", "exponent"):
        if hasattr(node, attr):
            return getattr(node, attr)
    return None


def _distinct_structures(nodes: dict) -> int:
    """Number of structurally different nodes: equal type, payload and
    (structurally equal) children in the same order.  This is the node
    count that interning by (type, child identities, payload) would leave."""
    sid = {}
    keys = {}
    for root in nodes.values():
        if id(root) in sid:
            continue
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in sid:
                continue
            kids = node.children()
            if not expanded:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if id(k) not in sid)
                continue
            key = (type(node).__name__, _payload(node), tuple(sid[id(k)] for k in kids))
            sid[id(node)] = keys.setdefault(key, len(keys))
    return len(keys)
