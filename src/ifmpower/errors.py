"""Exception types shared across the package."""


class IfmError(Exception):
    """Base class for all package errors."""


class OutOfRangeError(IfmError, ValueError):
    """A membership or non-membership component is outside [0, 1]."""


class SumViolationError(IfmError, ValueError):
    """mu + nu exceeds 1 beyond the construction tolerance."""


class DomainError(IfmError, ValueError):
    """An operator parameter lies outside the domain where the operator
    is defined."""


class ZeroPError(DomainError):
    """The power-mean exponent p must be nonzero."""


class NotDominatedError(IfmError, ValueError):
    """Difference requested between values not ordered by dominance."""


class DimensionMismatchError(IfmError, ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class BadPathError(IfmError, ValueError):
    """A path specification is invalid for the given matrix."""


class BudgetExceededError(IfmError, ValueError):
    """Brute-force enumeration would exceed the configured budget."""


class MismatchFoundError(IfmError, AssertionError):
    """Differential check found disagreement between engine and oracle."""

    def __init__(self, message, matrix=None, operator=None, exponent=None):
        super().__init__(message)
        self.matrix = matrix
        self.operator = operator
        self.exponent = exponent


class ParseError(IfmError, ValueError):
    """A matrix document is structurally malformed."""


class ValidationError(IfmError, ValueError):
    """A matrix document entry violates the value constraints."""
