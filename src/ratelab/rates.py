"""Instantaneous SNRs and achievable rates for one channel realization.

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

All functions accept scalars or equal-shaped numpy arrays in the
realization fields, so a Monte-Carlo driver can evaluate whole blocks
of trials in one call.

Baseline schemes (conventional two-slot NOMA relaying with power split
a1/a2, and CRS-OMA as classical decode-and-forward with receive
combining) follow the standard textbook rate expressions; the exact
formulas are documented in the README since the comparison literature
states the schemes only by description.
"""

import numpy as np
from dataclasses import dataclass

from .errors import DomainError, InvalidSplit

__all__ = [
    "ChannelRealization",
    "SnrSet",
    "RateBreakdown",
    "PowerSplit",
    "RateTerms",
    "instantaneous_snrs",
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


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the three instantaneous power gains."""

    lambda_sr: float
    lambda_rd: float
    lambda_sd: float

    def __post_init__(self):
        for name in ("lambda_sr", "lambda_rd", "lambda_sd"):
            v = np.asarray(getattr(self, name))
            if not np.all(np.isfinite(v)) or np.any(v < 0.0):
                raise DomainError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class SnrSet:
    """Received SNRs of both symbols under P_S = P_R = P, sigma^2 = 1."""

    gamma_sr_s1: float
    gamma_sd_s1: float
    gamma_rd_s1: float
    gamma_sd_s2: float


def _plus(a, b):
    """a + b, or ``a`` itself when ``b`` is the float 0.0."""
    return a if isinstance(b, float) and b == 0.0 else a + b


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
    copy would hold the same floats.
    """

    c_relay_s1: float
    c_direct_s1: float
    c_s2: float

    @property
    def c_s1(self):
        return _plus(self.c_relay_s1, self.c_direct_s1)

    @property
    def c_total(self):
        return _plus(self.c_s1, self.c_s2)

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
            raise InvalidSplit(f"a1 + a2 must equal 1, got {self.a1 + self.a2}")
        if not (self.a1 > self.a2 > 0.0):
            raise InvalidSplit(f"need a1 > a2 > 0, got ({self.a1}, {self.a2})")


def _check_rho(rho: float) -> float:
    if not rho >= 0.0:
        raise DomainError(f"rho must be >= 0, got {rho}")
    return float(rho)


class _held:
    """A property computed on first read and then kept in the instance.

    functools.cached_property does the same, but on Python 3.11 it holds
    one lock, shared by every instance, while it computes: two threads
    evaluating their own RateTerms would take their logarithms in turn.
    """

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


class RateTerms:
    """The terms the rate functions share at one realization and rho.

    Each logarithm is computed the first time a rate function reads it,
    then kept for as long as the object lives, so several rates
    evaluated on one object take each logarithm once, with the floats a
    standalone call gives.  The SNRs rho*lambda cost one product and are
    recomputed on each read rather than held.  The rate functions accept
    a RateTerms in place of a :class:`ChannelRealization`, at its rho.
    """

    def __init__(self, r: ChannelRealization, rho: float):
        self.rho = _check_rho(rho)
        self.lambda_sr = np.asarray(r.lambda_sr, dtype=float)
        self.lambda_rd = np.asarray(r.lambda_rd, dtype=float)
        self.lambda_sd = np.asarray(r.lambda_sd, dtype=float)

    @property
    def gamma_sr(self):
        return self.rho * self.lambda_sr

    @property
    def gamma_rd(self):
        return self.rho * self.lambda_rd

    @property
    def gamma_sd(self):
        return self.rho * self.lambda_sd

    @_held
    def log_sr(self):
        """log2(1 + rho*lambda_SR)"""
        return np.log2(1.0 + self.gamma_sr)

    @_held
    def log_rd(self):
        """log2(1 + rho*lambda_RD)"""
        return np.log2(1.0 + self.gamma_rd)

    @_held
    def half_log_sd(self):
        """0.5*log2(1 + rho*lambda_SD), CRS-NOMA's direct-link rate"""
        return 0.5 * np.log2(1.0 + self.gamma_sd)


def _terms(r, rho: float) -> RateTerms:
    """``r`` itself when it is the RateTerms of ``rho``, else fresh terms."""
    if not isinstance(r, RateTerms):
        return RateTerms(r, rho)
    if _check_rho(rho) != r.rho:
        raise DomainError(f"rate terms of rho {r.rho} used at rho {rho}")
    return r


def _gamma_rd_s1(t: RateTerms, mode: str):
    """The relay-to-destination SNR of s1 under ``mode``."""
    return t.gamma_rd / (t.gamma_sd + 1.0) if mode == "exact" else t.gamma_rd


def instantaneous_snrs(r: ChannelRealization, rho: float, mode: str = "exact") -> SnrSet:
    """Received SNRs for one realization at transmit SNR rho."""
    t = _terms(r, rho)
    rate_token("crs_noma", mode)
    gamma_sd = t.gamma_sd
    return SnrSet(gamma_sr_s1=t.gamma_sr, gamma_sd_s1=gamma_sd, gamma_rd_s1=_gamma_rd_s1(t, mode),
                  gamma_sd_s2=gamma_sd)


def crs_noma_rate(r: ChannelRealization, rho: float, mode: str = "exact") -> RateBreakdown:
    """CRS-NOMA rates: relayed s1 (decode-and-forward min), direct s1, s2.

    In paper mode the total reduces to
    0.5*log2(1 + rho*min(lambda_RD, lambda_SR)) + log2(1 + rho*lambda_SD).
    """
    t = _terms(r, rho)
    rate_token("crs_noma", mode)
    # paper mode's gamma_RD is rho*lambda_RD, whose log the terms hold
    log_rd = np.log2(1.0 + _gamma_rd_s1(t, mode)) if mode == "exact" else t.log_rd
    c_relay = 0.5 * np.minimum(log_rd, t.log_sr)
    return RateBreakdown(c_relay, t.half_log_sd, t.half_log_sd)


def conventional_noma_rate(r: ChannelRealization, rho: float, split: PowerSplit) -> RateBreakdown:
    """Two-slot conventional-NOMA relaying baseline.

    Slot one carries the a1/a2 superposition from the source; only the
    relay transmits in slot two.  s1 is limited by the weaker of the
    destination's and the relay's SIC-first decode, s2 by the relay's
    second decode and the relay-destination hop.
    """
    t = _terms(r, rho)
    if not isinstance(split, PowerSplit):
        raise InvalidSplit("split must be a PowerSplit")
    rho, lsr, lsd = t.rho, t.lambda_sr, t.lambda_sd
    a1, a2 = split.a1, split.a2
    c_s1 = 0.5 * np.minimum(
        np.log2(1.0 + a1 * rho * lsd / (a2 * rho * lsd + 1.0)),
        np.log2(1.0 + a1 * rho * lsr / (a2 * rho * lsr + 1.0)),
    )
    c_s2 = 0.5 * np.minimum(np.log2(1.0 + a2 * rho * lsr), t.log_rd)
    return RateBreakdown(c_s1, 0.0, c_s2)


def crs_oma_rate(r: ChannelRealization, rho: float) -> RateBreakdown:
    """Classical decode-and-forward with receive combining at D.

    Both slots carry the same symbol, so the total is half the min of
    the S-R decode rate and the combined S-D + R-D rate.
    """
    t = _terms(r, rho)
    c_total = 0.5 * np.minimum(t.log_sr, np.log2(1.0 + t.gamma_sd + t.gamma_rd))
    return RateBreakdown(c_total, 0.0, 0.0)
