"""Exception and warning types shared across the package."""


class RateLabError(Exception):
    """Base class for all ratelab errors."""


class InvalidKFactor(RateLabError):
    """Rician K factor outside [0, inf)."""


class InvalidPower(RateLabError):
    """Mean channel power must be strictly positive."""


class DomainError(RateLabError):
    """Argument outside the mathematical domain of an operation."""


class InvalidSplit(RateLabError):
    """Power-allocation split violates a1 + a2 = 1 with a1 > a2 > 0."""


class ConvergenceError(RateLabError):
    """Adaptive quadrature exceeded its subdivision budget."""


class ParseError(RateLabError):
    """Malformed configuration document."""


class ValidationError(RateLabError):
    """Config parsed but one or more fields are out of range."""


class TruncationWarning(UserWarning):
    """A truncated series stopped while its tail still exceeded the
    requested tolerance; the returned value may be less accurate.
    ``tail`` is the series weight left beyond the truncation."""

    def __init__(self, message: str, tail: float = float("nan")):
        super().__init__(message)
        self.tail = tail


class ModelAssumptionWarning(UserWarning):
    """Geometry violates the relay placement assumption (S-R link is
    expected to carry more mean power than S-D)."""
