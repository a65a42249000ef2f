"""Achievable rates for one channel realization.

The CRS-NOMA scheme comes in two evaluation modes which differ only in
the relay-to-destination SNR of the first symbol:

``exact``
    gamma_RD = rho*lambda_RD / (rho*lambda_SD + 1); the second-slot
    direct transmission is treated as interference at the destination
    while it decodes the relayed symbol.
``paper``
    gamma_RD = rho*lambda_RD; the interference term is dropped, which
    is the simplification the published closed-form analysis rests on.
    Paper-mode totals are never below exact-mode totals.

All functions take the three gains of a realization as scalars or
numpy arrays that broadcast together, so a Monte-Carlo driver can
evaluate whole blocks of trials in one call.

Baseline schemes (conventional two-slot NOMA relaying with power split
a1/a2, and CRS-OMA as classical decode-and-forward with receive
combining) follow the standard textbook rate expressions; the exact
formulas are documented in the README since the comparison literature
states the schemes only by description.
"""

import math
import reprlib
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DomainError, _to_float

__all__ = [
    "RateBreakdown",
    "PowerSplit",
    "RateTerms",
    "crs_noma_rate",
    "conventional_noma_rate",
    "crs_oma_rate",
    "QUANTITIES",
    "RATES",
    "rate_token",
]

# Every rate the package evaluates, by token, with the (scheme, mode)
# label its sweep rows carry; the baselines have one mode, labelled "-".
RATES = {
    "crs_noma_paper": ("crs_noma", "paper"),
    "crs_noma_exact": ("crs_noma", "exact"),
    "conventional": ("conventional", "-"),
    "crs_oma": ("crs_oma", "-"),
}
QUANTITIES = ("c_s1", "c_s2", "c_total", "c_relay_s1", "c_direct_s1")


def rate_token(scheme: str, mode: str) -> str:
    """The :data:`RATES` token of ``scheme``; a plain ``crs_noma`` takes
    ``mode``, every other scheme ignores it."""
    token = f"crs_noma_{mode}" if scheme == "crs_noma" else scheme
    if token not in RATES:
        raise DomainError(f"unknown scheme {scheme!r} (mode {mode!r}); expected one of {tuple(RATES)}")
    return token


def _plus(a, b, work):
    """a + b, written to a row of ``work`` when given, or ``a`` itself
    when ``b`` is the float 0.0."""
    if isinstance(b, float) and b == 0.0:
        return a
    return a + b if work is None else np.add(a, b, out=work.take())


@dataclass(frozen=True)
class RateBreakdown:
    """The five rate quantities of one scheme in bit/s/Hz.

    The rate functions fill it with per-trial arrays (or scalars), the
    quadrature oracle and the series with ergodic floats; ``result[q]``
    reads quantity ``q`` of :data:`QUANTITIES` by name.

    It stores three rates and derives the other two, so that
    c_s1 = c_relay_s1 + c_direct_s1 and c_total = c_s1 + c_s2 hold
    exactly for every scheme.  For CRS-NOMA c_s2 equals c_direct_s1.
    The baselines have no relay/direct decomposition of s1; they store
    c_s1 as c_relay_s1 and 0.0 as c_direct_s1, so that the same five
    quantities exist for every scheme.  A sum whose second term is that
    0.0 is its first term itself, not a copy: no rate is -0.0, so the
    copy would hold the same floats.  Both sums are taken when the
    breakdown is built, each written to a row of ``work`` when it is
    given; c_total adds c_s2 to the c_s1 held.
    """

    c_relay_s1: float
    c_direct_s1: float
    c_s2: float
    work: InitVar[object] = None
    c_s1: float = field(init=False, repr=False, compare=False)
    c_total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self, work):
        c_s1 = _plus(self.c_relay_s1, self.c_direct_s1, work)
        object.__setattr__(self, "c_s1", c_s1)  # frozen
        object.__setattr__(self, "c_total", _plus(c_s1, self.c_s2, work))

    def __getitem__(self, quantity: str):
        if quantity not in QUANTITIES:
            raise KeyError(quantity)
        return getattr(self, quantity)


@dataclass(frozen=True)
class PowerSplit:
    """Power-allocation pair (a1, a2) of the conventional-NOMA baseline."""

    a1: float
    a2: float

    def __post_init__(self):
        if abs(self.a1 + self.a2 - 1.0) > 1e-12:
            raise DomainError(f"a1 + a2 must equal 1, got {self.a1 + self.a2}")
        if not (self.a1 > self.a2 > 0.0):
            raise DomainError(f"need a1 > a2 > 0, got ({self.a1}, {self.a2})")


def _check_split(split):
    """Refuse a split that is not a :class:`PowerSplit`, which checks its values."""
    if not isinstance(split, PowerSplit):
        raise DomainError(f"the conventional scheme needs a PowerSplit, got {split!r}")


def _check_rho(rho: float) -> float:
    """``rho`` as a float; a sequence or array, a negative, infinite or NaN
    SNR is refused, and so is an integer above the float range."""
    # a float needs no np.ndim, which costs a microsecond on each engine cell
    if not isinstance(rho, float) and np.ndim(rho) != 0:
        raise DomainError(f"rho must be one number, got {reprlib.repr(rho)}")
    if not 0.0 <= rho < math.inf:
        raise DomainError(f"rho must be finite and >= 0, got {rho}")
    return _to_float(rho, "rho must be finite and >= 0")


def _check_gains(gains) -> list:
    """The three gains as float arrays, each finite and >= 0, with shapes that broadcast together."""
    gains = tuple(gains)
    if len(gains) != 3:
        raise DomainError(f"gains must be three, lambda_sr, lambda_rd and lambda_sd, got {len(gains)}")
    arrays = []
    for name, g in zip(("lambda_sr", "lambda_rd", "lambda_sd"), gains):
        rule = f"{name} must be finite and >= 0"
        g = _to_float(g, rule, lambda v: np.asarray(v, dtype=float))
        if not ((0.0 <= g) & (g < math.inf)).all():  # NaN fails both
            raise DomainError(rule)
        arrays.append(g)
    try:
        np.broadcast_shapes(*(g.shape for g in arrays))
    except ValueError:
        raise DomainError(f"the gains' shapes must broadcast together, got {[g.shape for g in arrays]}") from None
    return arrays


class RateTerms:
    """The terms the rate functions share at one realization and rho.

    Its three logarithms, ``log_sr`` = log2(1 + rho*lambda_SR),
    ``log_rd`` = log2(1 + rho*lambda_RD) and CRS-NOMA's direct-link rate
    ``half_log_sd`` = 0.5*log2(1 + rho*lambda_SD), are computed when the
    terms are built, so several rates evaluated on one object take each
    logarithm once, with the floats a standalone call gives.  The SNRs
    rho*lambda cost one product and are recomputed on each read rather
    than held.  ``gains`` are checked, before rho, by :func:`_check_gains`.
    The rate functions accept a RateTerms in place of the gains, at its rho.

    With ``work``, a block workspace (see :mod:`ratelab.montecarlo`),
    the gains, its own rows, are taken unchecked, and the logarithms and
    the rate functions write every array to its rows, with the same floats.
    """

    def __init__(self, gains, rho: float, *, work=None):
        self.lambda_sr, self.lambda_rd, self.lambda_sd = gains if work is not None else _check_gains(gains)
        self.rho = _check_rho(rho)
        self.work = work
        self.log_sr = self._log2_1p_snr(self.lambda_sr, self.new())
        self.log_rd = self._log2_1p_snr(self.lambda_rd, self.new())
        out = self.new()
        self.half_log_sd = np.multiply(0.5, self._log2_1p_snr(self.lambda_sd, out), out=out)

    def new(self):
        """A row for a rate, or None: numpy allocates."""
        return None if self.work is None else self.work.take()

    def scratch(self):
        """A row for an intermediate no call keeps, or None."""
        return None if self.work is None else self.work.scratch

    def snr(self, gain, out=None):
        """rho*gain, the received SNR of a link of power gain ``gain``."""
        return np.multiply(self.rho, gain, out=out)

    def _log2_1p_snr(self, gain, out):
        return np.log2(np.add(1.0, self.snr(gain, out), out=out), out=out)


def _terms(r, rho: float) -> RateTerms:
    """``r`` itself when it is the RateTerms of ``rho``, else the terms of the gains ``r``."""
    if not isinstance(r, RateTerms):
        return RateTerms(r, rho)
    if _check_rho(rho) != r.rho:
        raise DomainError(f"rate terms of rho {r.rho} used at rho {rho}")
    return r


def crs_noma_rate(r: RateTerms | tuple, rho: float, mode: str) -> RateBreakdown:
    """CRS-NOMA rates: relayed s1 (decode-and-forward min), direct s1, s2.

    ``mode``, ``"paper"`` or ``"exact"``, has no default.  In paper mode
    the total reduces to
    0.5*log2(1 + rho*min(lambda_RD, lambda_SR)) + log2(1 + rho*lambda_SD).
    """
    t = _terms(r, rho)
    rate_token("crs_noma", mode)
    out = t.new()
    # paper mode's gamma_RD is rho*lambda_RD, whose log the terms hold
    if mode == "exact":
        s = t.scratch()
        gamma_rd = np.divide(t.snr(t.lambda_rd, out), np.add(t.snr(t.lambda_sd, s), 1.0, out=s), out=out)
        log_rd = np.log2(np.add(1.0, gamma_rd, out=out), out=out)
    else:
        log_rd = t.log_rd
    c_relay = np.multiply(0.5, np.minimum(log_rd, t.log_sr, out=out), out=out)
    return RateBreakdown(c_relay, t.half_log_sd, t.half_log_sd, t.work)


def conventional_noma_rate(r: RateTerms | tuple, rho: float, split: PowerSplit) -> RateBreakdown:
    """Two-slot conventional-NOMA relaying baseline.

    Slot one carries the a1/a2 superposition from the source; only the
    relay transmits in slot two.  s1 is limited by the weaker of the
    destination's and the relay's SIC-first decode, s2 by the relay's
    second decode and the relay-destination hop.
    """
    t = _terms(r, rho)
    _check_split(split)
    rho, lsr, lsd = t.rho, t.lambda_sr, t.lambda_sd
    a1, a2 = split.a1, split.a2
    s, out_s1, out_s2 = t.scratch(), t.new(), t.new()

    def decode_s1(gain, out):
        """log2(1 + a1*rho*gain / (a2*rho*gain + 1)), s2 interfering, and
        its denominator, s2 plus noise"""
        s2_plus_noise = np.add(np.multiply(a2 * rho, gain, out=s), 1.0, out=s)
        sinr = np.divide(np.multiply(a1 * rho, gain, out=out), s2_plus_noise, out=out)
        return np.log2(np.add(1.0, sinr, out=out), out=out), s2_plus_noise

    s1_sd, _ = decode_s1(lsd, out_s1)
    s1_sr, s2_plus_noise = decode_s1(lsr, out_s2)
    c_s1 = np.multiply(0.5, np.minimum(s1_sd, s1_sr, out=out_s1), out=out_s1)
    # the relay's s2 decode, log2(1 + a2*rho*lambda_SR), is the log of that denominator
    decode_s2 = np.log2(s2_plus_noise, out=out_s2)
    c_s2 = np.multiply(0.5, np.minimum(decode_s2, t.log_rd, out=out_s2), out=out_s2)
    return RateBreakdown(c_s1, 0.0, c_s2, t.work)


def crs_oma_rate(r: RateTerms | tuple, rho: float) -> RateBreakdown:
    """Classical decode-and-forward with receive combining at D.

    Both slots carry the same symbol, so the total is half the min of
    the S-R decode rate and the combined S-D + R-D rate.
    """
    t = _terms(r, rho)
    out, s = t.new(), t.scratch()
    combined = np.add(np.add(1.0, t.snr(t.lambda_sd, out), out=out), t.snr(t.lambda_rd, s), out=out)
    c_total = np.multiply(0.5, np.minimum(t.log_sr, np.log2(combined, out=out), out=out), out=out)
    return RateBreakdown(c_total, 0.0, 0.0, t.work)
