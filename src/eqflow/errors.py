"""Exception types shared across the package."""


class EqflowError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(EqflowError, ValueError):
    """Array shapes or sizes are incompatible with the requested operation."""


class RankZero(EqflowError):
    """The constraint matrix has numerical rank zero; there is nothing to project onto."""


class InconsistentConstraints(EqflowError):
    """The system Ax = b has no solution (b is not in the range of A)."""


class NonFiniteGradient(EqflowError, FloatingPointError):
    """A gradient evaluation returned NaN or infinity."""


class NonFiniteObjective(EqflowError, FloatingPointError):
    """An objective evaluation returned NaN or infinity where a finite value is required."""


class SingularFactor(EqflowError):
    """The regularized curvature matrix is numerically singular and cannot be factored.

    Raised by the shifted factorization; ``solve`` does not let it escape,
    but halves ``dt`` and factors again."""


class SingularKkt(EqflowError):
    """The dense stationarity system is singular or its solution fails the residual check."""


class UnknownProblem(EqflowError, KeyError):
    """Requested benchmark problem name is not in the catalog."""

    def __str__(self) -> str:
        # KeyError.__str__ repr-wraps the message; show it verbatim instead.
        return Exception.__str__(self)
