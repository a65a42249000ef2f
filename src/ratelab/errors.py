"""Exception and warning types shared across the package, and the one
int-to-float conversion that raises them."""


class RateLabError(Exception):
    """Base class for all ratelab errors.  The CLI exits 2 on those not
    named below as configuration errors."""


class DomainError(RateLabError):
    """Argument outside the mathematical domain of an operation.

    The CLI exits 1 on it, and on its three subclasses below, like on a
    configuration error."""


class InvalidKFactor(DomainError):
    """Rician K factor outside [0, inf)."""


class InvalidPower(DomainError):
    """Mean channel power must be finite, > 0 and leave (1 + K)/Omega finite."""


class InvalidSplit(DomainError):
    """Power-allocation split violates a1 + a2 = 1 with a1 > a2 > 0."""


class ConvergenceError(RateLabError):
    """A quadrature rule, or the series' continued fraction, used all of
    its steps without converging to the requested tolerance."""


class ParseError(RateLabError):
    """A configuration document that cannot be read at all: a line that
    is not ``key = value`` or a section header, or one with an empty key."""


class ValidationError(RateLabError):
    """A configuration that was read but holds bad fields.  The message
    is one line: each bad field, named after its line in the text form,
    with what is wrong with it, joined by "; "."""


class TruncationWarning(UserWarning):
    """A truncated series stopped while its tail still exceeded the
    requested tolerance.  The package no longer emits it: a series now
    runs until its tail is below ``ratelab.channel.KERNEL_TOL``.  Kept
    only because the benchmark worker imports it to count it and
    ``pyproject.toml`` makes it an error in the tests."""


class ModelAssumptionWarning(UserWarning):
    """Geometry violates the relay placement assumption (S-R link is
    expected to carry more mean power than S-D)."""


def _to_float(x, error, rule: str, convert=float):
    """``convert(x)``, by default ``float(x)``.  Where ``x`` holds an
    integer above the float range, raises ``error`` naming ``rule`` in
    place of OverflowError, without repeating the integer's digits."""
    try:
        return convert(x)
    except OverflowError:
        raise error(f"{rule}, got an integer above the float range") from None
