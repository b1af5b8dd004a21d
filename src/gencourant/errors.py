"""Exception hierarchy shared by all gencourant modules."""


class GencourantError(Exception):
    """Base class for every error raised by this package."""


class ExprSyntaxError(GencourantError):
    """Malformed expression text; carries the 0-based offset of the problem."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class UnknownSymbol(GencourantError):
    """Identifier that is neither a chart coordinate nor a known function."""

    def __init__(self, name, position=None):
        at = f" (at offset {position})" if position is not None else ""
        super().__init__(f"unknown symbol '{name}'{at}")
        self.name = name
        self.position = position


class DomainError(GencourantError):
    """Numeric evaluation hit a singular point (1/0, ln(x<=0), sqrt(x<0))."""

    def __init__(self, message, subexpr):
        super().__init__(f"{message} in subexpression '{subexpr}'")
        self.subexpr = subexpr


class ChartMismatch(GencourantError):
    """Operands live on different charts."""


class SlotError(GencourantError):
    """Bad tensor slot index or variance for the requested operation."""


class SingularMetric(GencourantError):
    """Metric determinant below tolerance at some sample point."""


class DegreeMismatch(GencourantError):
    """Form inner product of forms with different degrees."""


class NotClosed(GencourantError):
    """A 3-form required to be closed has nonzero exterior derivative."""

    def __init__(self, max_component):
        super().__init__(f"3-form is not closed: max |d(component)| = {max_component:.3e}")
        self.max_component = max_component


class NotPositiveDefinite(GencourantError):
    """Metric fails the positive-definiteness check at a sample point."""


class NotAntisymmetric(GencourantError):
    """A 2-form (or slot pair) fails its antisymmetry check."""


class SingularB(GencourantError):
    """2-form is not invertible (always the case on odd-dimensional charts)."""


class NotTwistedPoisson(GencourantError):
    """Bivector fails the twisted Jacobi identity for the supplied twist."""

    def __init__(self, max_residual):
        super().__init__(f"twisted Jacobi residual {max_residual:.3e} above tolerance")
        self.max_residual = max_residual


class InvalidLieAlgebra(GencourantError):
    """Quadratic Lie algebra input violates one of its axioms."""


class SceneError(GencourantError):
    """Scene file could not be parsed or validated; carries a location hint."""

    def __init__(self, message, location=None):
        at = f" [{location}]" if location else ""
        super().__init__(f"{message}{at}")
        self.location = location


class CommandError(GencourantError):
    """CLI command cannot run on the supplied scene."""
