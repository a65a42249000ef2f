"""Seeded Monte-Carlo estimation of ergodic rates with standard errors.

Trials are partitioned into fixed-size blocks.  Block b draws its three
gain arrays once, from the sub-stream ``split_stream(seed, b)``, and
evaluates every requested cell on them: a (rho, scheme) pair, or for
:func:`paired_gap` the per-trial difference of two schemes (common
random numbers throughout).  Each cell's block sums come from numpy's
pairwise summation and are merged in block order through compensated
(Kahan) summation.  A cell's result is therefore a pure function of
(inputs, seed): it depends neither on how many workers executed the
blocks nor on which other cells shared the call.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import math

import numpy as np

from .channel import NetworkGeometry, sample_power_gains, split_stream
from .errors import DomainError
from .rates import (
    QUANTITIES,
    RATES,
    ChannelRealization,
    PowerSplit,
    RateBreakdown,
    conventional_noma_rate,
    crs_noma_rate,
    crs_oma_rate,
    rate_token,
)

__all__ = ["EstimatorResult", "estimate_rates", "paired_gap", "QUANTITIES", "BLOCK_SIZE"]

BLOCK_SIZE = 1 << 17


@dataclass(frozen=True)
class EstimatorResult:
    """Sample mean and standard error of one rate quantity at one rho."""

    scheme: str
    quantity: str
    mean: float
    std_err: float
    trials: int
    seed: int
    rho: float


class _Kahan:
    """Compensated accumulator; adding the same values in the same
    order always reproduces the same float."""

    __slots__ = ("total", "carry")

    def __init__(self):
        self.total = 0.0
        self.carry = 0.0

    def add(self, value: float):
        y = value - self.carry
        t = self.total + y
        self.carry = (t - self.total) - y
        self.total = t


def _draw_block(geometry: NetworkGeometry, seed: int, block: int, n: int) -> ChannelRealization:
    rng = split_stream(seed, block)
    # fixed draw order: S-R, R-D, S-D
    lsr = sample_power_gains(geometry.sr, rng, n)
    lrd = sample_power_gains(geometry.rd, rng, n)
    lsd = sample_power_gains(geometry.sd, rng, n)
    return ChannelRealization(lsr, lrd, lsd)


def _token_rates(r: ChannelRealization, rho: float, token: str, split: PowerSplit | None) -> RateBreakdown:
    if token == "conventional":
        return conventional_noma_rate(r, rho, split)
    if token == "crs_oma":
        return crs_oma_rate(r, rho)
    return crs_noma_rate(r, rho, RATES[token][1])


def _resolve(schemes, mode: str, split: PowerSplit | None, rhos, trials: int, seed: int) -> list[str]:
    """Check the arguments both estimators share; return the RATES token
    of each requested scheme under ``mode``."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    for rho in rhos:
        if not rho >= 0.0:
            raise DomainError(f"rho must be >= 0, got {rho}")
    tokens = [rate_token(s, mode) for s in schemes]
    if "conventional" in tokens and split is None:
        raise DomainError("conventional scheme requires a PowerSplit")
    return tokens


def _cell_sums(r: ChannelRealization, cell, split: PowerSplit | None, quantities) -> list:
    """(sum, sum of squares) of each quantity of one cell on one block.

    A cell is (rho, token, minus): the rates of ``token``, less those of
    ``minus`` trial by trial unless it is None.  The rate arrays are
    freed on return, before the next cell is evaluated.
    """
    rho, token, minus = cell
    rates = _token_rates(r, rho, token, split)
    values = [rates[q] for q in quantities]
    del rates
    if minus is not None:
        other = _token_rates(r, rho, minus, split)
        values = [v - other[q] for v, q in zip(values, quantities)]
    return [(float(np.sum(v)), float(np.sum(v * v))) for v in values]


def _run_blocks(block_fn, trials: int, workers: int) -> list:
    """Evaluate block_fn(block_index, block_length) over the partition of
    the trial count, returning the partials in block order."""
    full, rest = divmod(trials, BLOCK_SIZE)
    plan = [(b, BLOCK_SIZE) for b in range(full)] + ([(full, rest)] if rest else [])
    if workers > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda p: block_fn(*p), plan))
    return [block_fn(b, n) for b, n in plan]


def _reduce_moments(partials) -> list:
    """Position-wise Kahan totals of the block partials, in block order."""
    sums = [(_Kahan(), _Kahan()) for _ in partials[0]]
    for part in partials:
        for (s, sq), (ks, ksq) in zip(part, sums):
            ks.add(s)
            ksq.add(sq)
    return [(ks.total, ksq.total) for ks, ksq in sums]


def _mean_stderr(s: float, sq: float, n: int):
    mean = s / n
    if n < 2:
        return mean, 0.0
    var = max(sq - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def _estimate(geometry: NetworkGeometry, cells, split, trials: int, seed: int, workers: int,
              quantities) -> list:
    """The engine: (mean, std_err) of every quantity of every cell,
    cell-major, with each block's gains drawn once for all cells."""

    def block_fn(b, n):
        r = _draw_block(geometry, seed, b, n)
        return [m for cell in cells for m in _cell_sums(r, cell, split, quantities)]

    return [_mean_stderr(s, sq, trials) for s, sq in _reduce_moments(_run_blocks(block_fn, trials, workers))]


def estimate_rates(
    geometry: NetworkGeometry,
    rho,
    schemes=("crs_noma", "conventional", "crs_oma"),
    mode: str = "paper",
    split: PowerSplit | None = None,
    trials: int = 10**6,
    seed: int = 42,
    workers: int = 1,
) -> list[EstimatorResult]:
    """Estimate every rate quantity of the requested schemes.

    One realization of (lambda_SR, lambda_RD, lambda_SD) is drawn per
    trial and shared across schemes and rho values, so cross-scheme
    comparisons are variance-coupled.  A scheme is a
    :data:`~ratelab.rates.RATES` token or a plain ``crs_noma``, which
    ``mode`` resolves; the baselines ignore ``mode``.

    ``rho`` is one transmit SNR or a sequence of them.  Every scheme is
    evaluated at every rho, unless ``rho`` is a sequence and
    ``schemes`` holds one sequence of schemes per rho.  Results come
    rho by rho, then scheme by scheme in :data:`QUANTITIES` order, each
    carrying its ``rho``.  Deterministic in all inputs; a (rho, scheme)
    result is the same float whatever else the call evaluates.
    """
    rhos = [rho] if np.ndim(rho) == 0 else list(rho)
    schemes = tuple(schemes)
    grouped = np.ndim(rho) and schemes and not isinstance(schemes[0], str)
    groups = schemes if grouped else [schemes] * len(rhos)
    names = [(x, s) for x, group in zip(rhos, groups, strict=True) for s in group]
    tokens = _resolve([s for _, s in names], mode, split, rhos, trials, seed)
    cells = [(x, token, None) for (x, _), token in zip(names, tokens)]
    moments = iter(_estimate(geometry, cells, split, trials, seed, workers, QUANTITIES))
    return [
        EstimatorResult(s, q, *next(moments), trials=trials, seed=seed, rho=x)
        for x, s in names
        for q in QUANTITIES
    ]


def paired_gap(
    geometry: NetworkGeometry,
    rho: float,
    scheme_a: str,
    scheme_b: str,
    mode: str = "paper",
    split: PowerSplit | None = None,
    trials: int = 10**6,
    seed: int = 42,
    quantity: str = "c_total",
    workers: int = 1,
) -> EstimatorResult:
    """E[rate_A - rate_B] with common random numbers.

    Differencing inside each trial cancels the shared channel noise, so
    the standard error is far below that of two independent runs.
    """
    token_a, token_b = _resolve((scheme_a, scheme_b), mode, split, [rho], trials, seed)
    if quantity not in QUANTITIES:
        raise DomainError(f"unknown quantity {quantity!r}")
    [(mean, se)] = _estimate(geometry, [(rho, token_a, token_b)], split, trials, seed, workers, (quantity,))
    return EstimatorResult(f"{scheme_a}-{scheme_b}", quantity, mean, se, trials, seed, rho)
