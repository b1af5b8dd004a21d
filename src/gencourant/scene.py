"""Scene files and residual reports.

A scene is a JSON document describing a chart and a background:

    {
      "schema_version": 1,
      "chart": {"dim": 2, "coords": ["x", "y"], "domain": [[-1, 1], [-1, 1]],
                "seed": 0, "points": 16},
      "background": {
        "g":   {"11": "1 + x^2/4", "12": "x*y/8", "22": "1"},
        "B":   {"12": "1 + x/4"},
        "phi": "x*y/2",
        "B0":  {"12": "x^2/8"}          # or "H": {"123": "..."} on dim >= 3
      },
      "options": {"tolerances": {"sym": 1e-9, "fd": 1e-6}}
    }

Metric entries are given on the upper triangle (i <= j), 2-forms on the
strict upper triangle (i < j), 3-forms on strictly increasing triples; the
symmetry completions are never read from the lower parts.  The loader
parses every field against the one chart it builds and fills an object
array of Expr for each of g, B and H or B0 (``from_upper``); a twist given
by its potential B0 is passed on as B0, and ``streff.Background`` takes
H = dB0 from B0's 2-jet at the sample points, as numbers.  "domain" is
either two numbers, one interval for all coordinates, or one two-number
interval per coordinate (default, if missing: [-1, 1]).  Missing entries
default to zero.  Expressions use the grammar of the expression engine,
over the declared coordinate names.  "dim", "points" and "seed" (and the
overrides of the last two) must be integers, "points" at least 1,
"coords" a list of strings, each "domain" bound and each numeric entry of
"background" a number (not a boolean; finite in "background"), and each
tolerance a finite positive number.
An unknown key in "background", "options" or "options.tolerances" is an
error; the "policy" option of older scene files is accepted and ignored.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from . import BuildPhase
from . import expr as ex
from . import tensors as tn
from .errors import GencourantError, SceneError
from .expr import Chart, Expr, parse_expr
from .streff import Background

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {"sym": 1e-9, "fd": 1e-6, "strict": 1e-10}
BACKGROUND_KEYS = ("g", "B", "phi", "H", "B0")
# "policy" is carried by older scene files; it is accepted and ignored
OPTION_KEYS = ("tolerances", "policy")


class SceneValidationError(SceneError):
    """Scene parsed but violates a semantic requirement."""


# Records are plain classes: a NamedTuple or a dataclass builds methods from generated code at import.
class Scene:
    def __init__(self, chart: Chart, background: Background, tolerances: dict, name: str):
        self.chart = chart
        self.background = background
        self.tolerances = tolerances  # the CLI's --tol-* options overwrite entries
        self.name = name

    def tol(self, kind: str) -> float:
        return float(self.tolerances.get(kind, DEFAULT_TOLERANCES[kind]))


def _parse_entry(text, chart: Chart, location: str) -> Expr:
    """An expression string or a finite number; json reads true as a number
    and NaN or Infinity as floats, which would load as 1 or poison every
    residual."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        try:
            value = float(text)
        except OverflowError:  # an integer literal beyond the float range
            value = math.inf
        if math.isfinite(value):
            return ex.Const(value)
    if not isinstance(text, str):
        raise SceneValidationError(
            f"expected an expression or a finite number, got {text!r}", location
        )
    try:
        return parse_expr(text, chart)
    except GencourantError as err:
        raise SceneError(str(err), location) from err


# the index keys each field takes: (degree, skew) -> what a key must be
_KEY_KINDS = {(2, False): "an upper-triangle index pair",
              (2, True): "a strict upper-triangle index pair",
              (3, True): "a strictly increasing index triple"}


def from_upper(dim: int, degree: int, entries: dict, skew: bool = True) -> np.ndarray:
    """The object array of a form (``skew``) or of a symmetric tensor from
    its entries on increasing index tuples, {(i, j, ...): e}: every
    permutation of a tuple gets e, negated by ``expr.neg`` for an odd one of
    a form.  Missing entries are zero."""
    out = tn.zeros_array((dim,) * degree)
    for idx, e in entries.items():
        e = ex._coerce(e)
        for perm in itertools.permutations(range(degree)):
            odd = skew and sum(a > b for a, b in itertools.combinations(perm, 2)) % 2
            out[tuple(idx[k] for k in perm)] = ex.neg(e) if odd else e
    return out


def _field(entries: dict, chart: Chart, location: str, degree: int, skew: bool) -> np.ndarray:
    """The array of a field from the entries of its scene file: keys of
    1-based indices, upper triangle (i <= j) for the metric, strictly
    increasing for forms."""
    parsed = {}
    for key, text in entries.items():
        try:
            idx = tuple(int(c) - 1 for c in key)
        except (ValueError, TypeError):
            raise SceneValidationError(f"bad index key '{key}'", location)
        if (len(idx) != degree or not all(0 <= i < chart.dim for i in idx)
                or not all(a < b if skew else a <= b for a, b in zip(idx, idx[1:]))):
            raise SceneValidationError(f"key '{key}' is not {_KEY_KINDS[degree, skew]}", location)
        parsed[idx] = _parse_entry(text, chart, f"{location}.{key}")
    return from_upper(chart.dim, degree, parsed, skew)


def scene_from_dict(doc: dict, name: str = "scene", seed=None, points=None) -> Scene:
    if not isinstance(doc, dict):
        raise SceneError("scene document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SceneValidationError(f"unsupported schema_version {version!r}")
    try:
        chart_spec = doc["chart"]
        dim = chart_spec["dim"]
        coords = chart_spec["coords"]
    except (KeyError, TypeError) as err:
        raise SceneError(f"bad chart spec: {err}", "chart") from err
    # tuple() would read the string "xy" as the names x, y without a message
    if not (isinstance(coords, list) and all(isinstance(c, str) for c in coords)):
        raise SceneValidationError(
            f"expected a list of coordinate names, got {coords!r}", "chart.coords"
        )
    coords = tuple(coords)
    dim = _integer(dim, "chart.dim")
    if len(coords) != dim:
        raise SceneValidationError(
            f"dim = {dim} but {len(coords)} coordinate names given", "chart"
        )
    where = "chart.points" if points is None else "points override"
    num_points = _integer(chart_spec.get("points", 16) if points is None else points, where)
    if num_points < 1:
        # with no points every residual would read 0.0 and pass
        raise SceneValidationError(f"need at least one sample point, got {num_points}", where)
    where = "chart.seed" if seed is None else "seed override"
    seed = _integer(chart_spec.get("seed", 0) if seed is None else seed, where)
    domain = _domain(chart_spec.get("domain", [-1.0, 1.0]), dim)
    try:
        chart = ex.chart(coords, domain=domain, seed=seed, num_points=num_points)
    except (TypeError, ValueError) as err:
        raise SceneValidationError(str(err), "chart") from err

    bg_spec = doc.get("background", {})
    _reject_unknown_keys(bg_spec, BACKGROUND_KEYS, "background")
    g = _field(bg_spec.get("g", {}), chart, "background.g", 2, skew=False)
    B = _field(bg_spec.get("B", {}), chart, "background.B", 2, skew=True)
    phi = _parse_entry(bg_spec.get("phi", "0"), chart, "background.phi")
    if "H" in bg_spec and "B0" in bg_spec:
        raise SceneValidationError("give either H or the potential B0, not both", "background")
    H = B0 = None
    if "B0" in bg_spec:
        B0 = _field(bg_spec["B0"], chart, "background.B0", 2, skew=True)
    else:
        H = _field(bg_spec.get("H", {}), chart, "background.H", 3, skew=True)
    try:
        background = Background(chart, g, B, phi, H, B0)
    except GencourantError as err:
        raise SceneValidationError(str(err), "background") from err
    except RecursionError:  # a field's partials recurse as deep as it is nested
        raise SceneValidationError("a field is nested too deeply to differentiate",
                                   "background") from None

    options = doc.get("options", {})
    _reject_unknown_keys(options, OPTION_KEYS, "options")
    given = options.get("tolerances", {})
    _reject_unknown_keys(given, DEFAULT_TOLERANCES, "options.tolerances")
    tolerances = dict(DEFAULT_TOLERANCES)
    for key, value in given.items():
        tolerances[key] = checked_tolerance(value, f"options.tolerances.{key}")
    return Scene(chart, background, tolerances, name)


def checked_tolerance(value, location: str):
    """``value``, if it is a finite positive number; a tolerance of inf, NaN
    or <= 0 would pass or fail every check whatever its residual."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0):
        raise SceneValidationError(
            f"tolerance must be a finite positive number, got {value!r}", location
        )
    return value


def _integer(value, location: str) -> int:
    """``value``, if it is an integer: ``int()`` would truncate 2.7 to 2 and
    read true as 1 without a message."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SceneValidationError(f"expected an integer, got {value!r}", location)
    return value


def _domain(domain, dim: int) -> list:
    """One [lo, hi] list per coordinate, from ``domain``: two numbers (one
    interval for every coordinate) or ``dim`` lists of two numbers.  An
    empty list would leave the default box without a message, one bound
    too few or too many would crash or be dropped, and ``float()`` would
    read "1" and true as 1."""

    def interval(iv):
        return (isinstance(iv, list) and len(iv) == 2
                and all(isinstance(b, (int, float)) and not isinstance(b, bool) for b in iv))

    if interval(domain):
        return [domain] * dim
    if not (isinstance(domain, list) and len(domain) == dim and all(map(interval, domain))):
        raise SceneValidationError(
            f"expected two numbers or one [lo, hi] pair of numbers per coordinate, got {domain!r}",
            "chart.domain")
    return domain


def _reject_unknown_keys(spec, known, location: str):
    """A misspelt key would otherwise leave its default silently in place."""
    if not isinstance(spec, dict):
        raise SceneValidationError("expected a JSON object", location)
    for key in spec:
        if key not in known:
            raise SceneValidationError(
                f"unknown key '{key}' (expected one of {', '.join(sorted(known))})", location
            )


def load_scene(path, seed=None, points=None) -> Scene:
    """The scene of a scene file.  The load builds what the run keeps (the
    expression DAGs and the jets), so it runs with the cyclic collector off
    (``BuildPhase``): no collection scans what it builds.  A load that
    returns ends the set-up and freezes the objects alive then
    (``gc.freeze``), so the run starts with an empty youngest generation
    and no collection it makes is due to set-up.  A load that raises
    freezes nothing.  Either way the collector is left enabled or disabled
    as it was."""
    with BuildPhase():
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as err:
            raise SceneError(f"cannot read scene file: {err}")
        except UnicodeDecodeError as err:
            raise SceneError(f"scene file is not UTF-8 text: {err}")
        except json.JSONDecodeError as err:
            raise SceneError(f"scene file is not valid JSON: {err}", f"line {err.lineno}")
        return scene_from_dict(doc, name=str(path), seed=seed, points=points)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


class Check:
    """One residual check: the max-abs residual over the sample points, the
    tolerance it was held to, and the worst sample point."""

    __slots__ = ("name", "identity", "max_abs_residual", "tolerance", "worst_point")

    def __init__(self, name: str, identity: str, max_abs_residual: float, tolerance: float,
                 worst_point: tuple):
        self.name = name
        self.identity = identity
        self.max_abs_residual = max_abs_residual
        self.tolerance = tolerance
        self.worst_point = worst_point

    @property
    def passed(self) -> bool:
        return self.max_abs_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "identity": self.identity,
            "max_abs_residual": self.max_abs_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "worst_point": list(self.worst_point),
        }


class Report:
    def __init__(self, command: str, scene: str, seed: int, num_points: int, checks: list,
                 summary: dict, timing_seconds: float):
        self.command = command
        self.scene = scene
        self.seed = seed
        self.num_points = num_points
        self.checks = checks
        self.summary = summary
        self.timing_seconds = timing_seconds

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "scene": self.scene,
            "seed": self.seed,
            "num_points": self.num_points,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
            "summary": self.summary,
            "verdict": "pass" if self.passed else "fail",
            "timing_seconds": self.timing_seconds,
        }

    def to_json(self) -> str:
        """The report as strict JSON: a non-finite float, such as an
        overflowed residual, is written as the string "NaN", "Infinity" or
        "-Infinity", which every JSON parser reads, not as a bare token."""
        return json.dumps(_strict_json(self.to_dict()), indent=2, sort_keys=True, allow_nan=False)


def _strict_json(value):
    """``value`` with each non-finite float in its dicts and lists replaced
    by the string that names it."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(item) for item in value]
    return value
