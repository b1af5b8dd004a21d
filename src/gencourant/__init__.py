"""gencourant: symbolic-numeric calculus on the generalized tangent bundle
TM (+) T*M of a coordinate chart.

Layers, bottom to top:

- ``expr``     scalar fields on one chart as expression trees (parse,
               differentiate, evaluate) plus chart sampling
- ``tensors``  partials and the exterior derivative of object arrays of
               fields, and jets (values and first partials at the sample
               points) combined by einsum specs
- ``riemann``  classical operators of the chart metric on jets (Levi-Civita
               connection, curvature, codifferential, Laplacian)
- ``gtb``      pairing, twisted Dorfman bracket, generalized metrics,
               bivector twists, Koszul bracket and Lie-algebroid calculus
- ``gconn``    metric-compatible torsion-free connections on the double
               bundle and their curvature tensors
- ``streff``   string-background residuals (beta functions, flatness and
               block-diagonality identities, symplectic-gravity side)
- ``scene``/``cli``  scene files (the loader fills the Expr arrays of g, B
               and H or its potential B0), residual reports and the
               command line

Import and scene load build objects that live for the whole run: numpy
and the package's modules, and a scene's expression DAGs and jets.  Each
runs inside ``BuildPhase``, with the cyclic collector off, and on success
freezes what it built (``gc.freeze``), so no collection scans it then or
later.  Either way the collector is left enabled or disabled as it was.
"""

import gc


class BuildPhase:
    """A block that builds what the run keeps: the cyclic collector is off
    inside it, a block that returns freezes the objects alive at its end,
    and every exit, a raise included, leaves the collector as it found it."""

    __slots__ = ("_was_enabled",)

    def __enter__(self):
        self._was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            gc.freeze()
        if self._was_enabled:
            gc.enable()


with BuildPhase():
    from .errors import (
        CommandError,
        DegreeMismatch,
        DomainError,
        ExprSyntaxError,
        GencourantError,
        NotAntisymmetric,
        NotClosed,
        NotPositiveDefinite,
        SceneError,
        SingularB,
        SingularMetric,
        UnknownSymbol,
    )
    from .expr import Chart, Expr, chart, differentiate, evaluate, parse_expr

__all__ = [
    "Chart",
    "Expr",
    "chart",
    "differentiate",
    "evaluate",
    "parse_expr",
    "GencourantError",
    "ExprSyntaxError",
    "UnknownSymbol",
    "DomainError",
    "SingularMetric",
    "DegreeMismatch",
    "NotClosed",
    "NotPositiveDefinite",
    "NotAntisymmetric",
    "SingularB",
    "SceneError",
    "CommandError",
]

__version__ = "0.1.0"
