"""Exception hierarchy for critcenter.

Everything raised on purpose derives from CritCenterError, so callers (and the
CLI) can distinguish validation problems from genuine bugs.
"""


class CritCenterError(Exception):
    """Base class for all errors raised by this package."""


class UndeterminedCoefficientError(CritCenterError):
    """A requested series coefficient lies at or beyond the precision bound."""


class UndeterminedValuationError(CritCenterError):
    """The element is zero up to its precision bound, so its valuation is unknown."""


class ZeroDivisorError(CritCenterError):
    """Attempted to invert the zero series."""


class PrecisionExhaustedError(CritCenterError):
    """The working precision is too small to determine the requested data."""


class DimensionMismatchError(CritCenterError):
    """Vector or matrix dimensions do not match."""


class NotCyclicError(CritCenterError):
    """The supplied vector is not cyclic: its certificate determinant vanishes."""


class CyclicVectorNotFoundError(CritCenterError):
    """No cyclic vector was found within the requested degree bound."""


class DomainError(CritCenterError):
    """Input lies outside the mathematical domain of the operation."""


class ValidationError(CritCenterError):
    """Structured input failed validation."""
