"""Exception and warning types shared across the package, one error
class per kind of failure, and the readers of input that raise them:
one per kind of input, each with its one message, and the one echo
of a refused value."""

import math
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
    what is wrong with it, joined by "; ".  A value it shows goes through
    :func:`_echo`.  The CLI exits 1 on it."""


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


def _echo(value) -> str:
    """``value`` as every refusal shows it: its repr cut short by
    :mod:`reprlib`, on one line, so that a long text or a NumPy array
    of several rows still gives a short line."""
    return " ".join(part.strip() for part in reprlib.repr(value).splitlines())


def _to_float(x, rule: str, convert=float):
    """``convert(x)``, by default ``float(x)``; ``tuple`` reads a sequence.
    Where the conversion refuses ``x``, raises :class:`DomainError` naming
    ``rule`` in its place: for an integer above the float range without
    repeating its digits, for anything else with ``x`` echoed."""
    try:
        return convert(x)
    except OverflowError:
        raise DomainError(f"{rule}, got an integer above the float range") from None
    except (TypeError, ValueError):
        raise DomainError(f"{rule}, got {_echo(x)}") from None


def _finite_nonneg(x, name: str, convert=float):
    """``convert(x)``, a float or a float array, each of whose numbers is
    finite and >= 0: the rule of a link's K, of rho and of the gains.  A
    refused float is echoed, an array is not."""
    rule = f"{name} must be finite and >= 0"
    x = _to_float(x, rule, convert)
    if isinstance(x, float):
        if not 0.0 <= x < math.inf:
            raise DomainError(f"{rule}, got {x}")
    elif not ((0.0 <= x) & (x < math.inf)).all():  # NaN fails both
        raise DomainError(rule)
    return x


def _one_of(name, names):
    """``name`` where it is a str among ``names``; any other name,
    hashable or not, is refused."""
    if not (isinstance(name, str) and name in names):
        raise DomainError(f"unknown value {_echo(name)} (allowed: {', '.join(names)})")
    return name


def _nonempty(items, rule: str, what: str) -> tuple:
    """``items`` as a tuple, holding at least one ``what``; where tuple()
    refuses them, or they are one str, raises naming ``rule``."""
    if isinstance(items, str):  # which tuple() would read as its characters
        raise DomainError(f"{rule}, got {_echo(items)}")
    items = _to_float(items, rule, tuple)
    if not items:
        raise DomainError(f"at least one {what} required")
    return items
