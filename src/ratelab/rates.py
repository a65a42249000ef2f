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
    quantities exist for every scheme.
    """

    c_relay_s1: float
    c_direct_s1: float
    c_s2: float

    @property
    def c_s1(self):
        return self.c_relay_s1 + self.c_direct_s1

    @property
    def c_total(self):
        return self.c_s1 + self.c_s2

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


def instantaneous_snrs(r: ChannelRealization, rho: float, mode: str = "exact") -> SnrSet:
    """Received SNRs for one realization at transmit SNR rho."""
    rho = _check_rho(rho)
    rate_token("crs_noma", mode)
    gamma_sd = rho * np.asarray(r.lambda_sd, dtype=float)
    if mode == "exact":
        gamma_rd = rho * np.asarray(r.lambda_rd, dtype=float) / (gamma_sd + 1.0)
    else:
        gamma_rd = rho * np.asarray(r.lambda_rd, dtype=float)
    return SnrSet(
        gamma_sr_s1=rho * np.asarray(r.lambda_sr, dtype=float),
        gamma_sd_s1=gamma_sd,
        gamma_rd_s1=gamma_rd,
        gamma_sd_s2=gamma_sd,
    )


def crs_noma_rate(r: ChannelRealization, rho: float, mode: str = "exact") -> RateBreakdown:
    """CRS-NOMA rates: relayed s1 (decode-and-forward min), direct s1, s2.

    In paper mode the total reduces to
    0.5*log2(1 + rho*min(lambda_RD, lambda_SR)) + log2(1 + rho*lambda_SD).
    """
    s = instantaneous_snrs(r, rho, mode)
    c_relay = 0.5 * np.minimum(np.log2(1.0 + s.gamma_rd_s1), np.log2(1.0 + s.gamma_sr_s1))
    c_direct = 0.5 * np.log2(1.0 + s.gamma_sd_s1)
    return RateBreakdown(c_relay, c_direct, c_direct)


def conventional_noma_rate(r: ChannelRealization, rho: float, split: PowerSplit) -> RateBreakdown:
    """Two-slot conventional-NOMA relaying baseline.

    Slot one carries the a1/a2 superposition from the source; only the
    relay transmits in slot two.  s1 is limited by the weaker of the
    destination's and the relay's SIC-first decode, s2 by the relay's
    second decode and the relay-destination hop.
    """
    rho = _check_rho(rho)
    if not isinstance(split, PowerSplit):
        raise InvalidSplit("split must be a PowerSplit")
    lsr = np.asarray(r.lambda_sr, dtype=float)
    lrd = np.asarray(r.lambda_rd, dtype=float)
    lsd = np.asarray(r.lambda_sd, dtype=float)
    a1, a2 = split.a1, split.a2
    c_s1 = 0.5 * np.minimum(
        np.log2(1.0 + a1 * rho * lsd / (a2 * rho * lsd + 1.0)),
        np.log2(1.0 + a1 * rho * lsr / (a2 * rho * lsr + 1.0)),
    )
    c_s2 = 0.5 * np.minimum(np.log2(1.0 + a2 * rho * lsr), np.log2(1.0 + rho * lrd))
    return RateBreakdown(c_s1, 0.0, c_s2)


def crs_oma_rate(r: ChannelRealization, rho: float) -> RateBreakdown:
    """Classical decode-and-forward with receive combining at D.

    Both slots carry the same symbol, so the total is half the min of
    the S-R decode rate and the combined S-D + R-D rate.
    """
    rho = _check_rho(rho)
    lsr = np.asarray(r.lambda_sr, dtype=float)
    lrd = np.asarray(r.lambda_rd, dtype=float)
    lsd = np.asarray(r.lambda_sd, dtype=float)
    c_total = 0.5 * np.minimum(
        np.log2(1.0 + rho * lsr),
        np.log2(1.0 + rho * lsd + rho * lrd),
    )
    return RateBreakdown(c_total, 0.0, 0.0)
