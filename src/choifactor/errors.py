"""Exception types shared across the package."""
from __future__ import annotations


class ChoiFactorError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(ChoiFactorError):
    """Operands have incompatible shapes."""


class NotHermitian(ChoiFactorError):
    """A matrix required to be Hermitian fails the symmetry check."""


class NotInSpan(ChoiFactorError):
    """A vector lies outside the requested subspace.

    Carries the least-squares residual of the best approximation.
    """

    def __init__(self, residual: float, message: str | None = None):
        self.residual = float(residual)
        super().__init__(message or f"vector outside span, residual {self.residual:.3e}")


class BadWeights(ChoiFactorError):
    """Weight vector is empty, has the wrong length, or contains nonpositive entries."""


class RepMismatch(ChoiFactorError):
    """Two operands were built over different factor representations."""


class NotAProjection(ChoiFactorError):
    """Element fails the idempotent self-adjoint check."""


class ZeroProjection(ChoiFactorError):
    """Projection is numerically zero, no subprojection can be extracted."""


class NotRankOneProjection(ChoiFactorError):
    """Element is not a rank-one projection."""


class NotSelfAdjoint(ChoiFactorError):
    """Element fails the self-adjointness check."""


class NotPositive(ChoiFactorError):
    """Operator fails positive semidefiniteness.

    min_eigenvalue is the smallest eigenvalue of the Hermitian part;
    hermiticity_defect is max |M - M*| (zero for Hermitian input).
    """

    def __init__(self, min_eigenvalue: float, hermiticity_defect: float = 0.0,
                 message: str | None = None):
        self.min_eigenvalue = float(min_eigenvalue)
        self.hermiticity_defect = float(hermiticity_defect)
        super().__init__(
            message
            or f"not positive semidefinite: min eigenvalue {self.min_eigenvalue:.6e}"
        )


class InternalDisagreement(ChoiFactorError):
    """The five complete-positivity checks returned conflicting verdicts."""

    def __init__(self, report, message: str | None = None):
        self.report = report
        super().__init__(message or f"cp checks disagree: {report}")


class UnsupportedDimension(ChoiFactorError):
    """Operation implemented only for a specific dimension."""


class FileFormatError(ChoiFactorError):
    """Input document violates the published file schema."""


class NumericalFailure(ChoiFactorError, ValueError):
    """Finite input drove a computation out of floating point range.

    Raised for results that are not finite numbers and for iterations
    that lost their invariant, e.g. entries near 1e200 whose products
    overflow. It is also a ValueError, so that callers of formats.dumps
    that catch ValueError for non-finite numbers keep working.
    """
