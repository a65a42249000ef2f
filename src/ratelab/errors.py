"""Exception and warning types shared across the package, one error
class per kind of failure, and the one conversion to float that
raises them."""

import reprlib


class RateLabError(Exception):
    """Base class for all ratelab errors."""


class DomainError(RateLabError):
    """An input that is refused: a config line, field or flag that cannot
    be read or breaks its setting's rule, a usage error, or an argument
    outside the mathematical domain of an operation.  The message is one
    line naming the bad input: a config gives either the first line that
    cannot be read at all (not ``key = value`` or a section header, or
    one with an empty key), or each bad field, named after its line, with
    what is wrong with it, joined by "; ".  The CLI exits 1 on it."""


class ConvergenceError(RateLabError):
    """A quadrature rule, or the series' continued fraction, used all of
    its steps without converging to the requested tolerance.  The CLI
    exits 2 on it."""


class TruncationWarning(UserWarning):
    """A truncated series stopped while its tail still exceeded the
    requested tolerance.  The package no longer emits it: a series now
    runs until its tail is below ``ratelab.channel.KERNEL_TOL``.  Kept
    only because the benchmark worker imports it to count it."""


class ModelAssumptionWarning(UserWarning):
    """Geometry violates the relay placement assumption (S-R link is
    expected to carry more mean power than S-D)."""


def _to_float(x, rule: str, convert=float):
    """``convert(x)``, by default ``float(x)``; ``tuple`` reads a sequence.
    Where the conversion refuses ``x``, raises :class:`DomainError` naming
    ``rule`` in its place: for an integer above the float range without
    repeating its digits, for anything else with ``x`` cut short."""
    try:
        return convert(x)
    except OverflowError:
        raise DomainError(f"{rule}, got an integer above the float range") from None
    except (TypeError, ValueError):
        raise DomainError(f"{rule}, got {reprlib.repr(x)}") from None
