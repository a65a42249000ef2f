"""Exception and warning types shared across the package, one error
class per kind of failure, and the one int-to-float conversion that
raises them."""


class RateLabError(Exception):
    """Base class for all ratelab errors.  The CLI exits 2 on those not
    named below as configuration errors."""


class DomainError(RateLabError):
    """Argument outside the mathematical domain of an operation; the
    message names the bad input.  The CLI exits 1 on it, like on a
    configuration error."""


class ConvergenceError(RateLabError):
    """A quadrature rule, or the series' continued fraction, used all of
    its steps without converging to the requested tolerance."""


class ValidationError(RateLabError):
    """A configuration that cannot be used.  The message is one line:
    either the first line that cannot be read at all (not ``key = value``
    or a section header, or one with an empty key), or each bad field,
    named after its line in the text form, with what is wrong with it,
    joined by "; "."""


class TruncationWarning(UserWarning):
    """A truncated series stopped while its tail still exceeded the
    requested tolerance.  The package no longer emits it: a series now
    runs until its tail is below ``ratelab.channel.KERNEL_TOL``.  Kept
    only because the benchmark worker imports it to count it and
    ``pyproject.toml`` makes it an error in the tests."""


class ModelAssumptionWarning(UserWarning):
    """Geometry violates the relay placement assumption (S-R link is
    expected to carry more mean power than S-D)."""


def _to_float(x, rule: str, convert=float):
    """``convert(x)``, by default ``float(x)``.  Where ``x`` holds an
    integer above the float range, raises :class:`DomainError` naming
    ``rule`` in place of OverflowError, without repeating the integer's
    digits."""
    try:
        return convert(x)
    except OverflowError:
        raise DomainError(f"{rule}, got an integer above the float range") from None
