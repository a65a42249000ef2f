"""Seeded Monte-Carlo estimation of ergodic rates with standard errors.

Trials are partitioned into fixed-size blocks.  Block b draws its gains
from the sub-stream ``split_stream(seed, b)``, computes every requested
scheme on the *same* three gain arrays (common random numbers), and
reduces its sums with numpy's pairwise summation.  Block partials are
then merged in block order through compensated (Kahan) summation, so
the result is a pure function of (inputs, seed) and independent of how
many workers executed the blocks.
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
    """Sample mean and standard error of one rate quantity."""

    scheme: str
    quantity: str
    mean: float
    std_err: float
    trials: int
    seed: int


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


def _resolve(schemes, mode: str, split: PowerSplit | None, rho: float, trials: int) -> list[str]:
    """Check the arguments both estimators share; return the RATES token
    of each requested scheme under ``mode``."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if not rho >= 0.0:
        raise DomainError(f"rho must be >= 0, got {rho}")
    tokens = [rate_token(s, mode) for s in schemes]
    if "conventional" in tokens and split is None:
        raise DomainError("conventional scheme requires a PowerSplit")
    return tokens


def _blocks(trials: int):
    """(block_index, block_length) partition of the trial count."""
    full, rest = divmod(trials, BLOCK_SIZE)
    out = [(b, BLOCK_SIZE) for b in range(full)]
    if rest:
        out.append((full, rest))
    return out


def _run_blocks(block_fn, trials: int, workers: int):
    """Evaluate block_fn over the partition, reduce in index order."""
    plan = _blocks(trials)
    if workers > 1 and len(plan) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(lambda p: block_fn(*p), plan))
    else:
        partials = [block_fn(b, n) for b, n in plan]
    return partials


def _reduce_moments(partials, keys):
    sums = {k: _Kahan() for k in keys}
    sqs = {k: _Kahan() for k in keys}
    for part in partials:
        for k in keys:
            s, sq = part[k]
            sums[k].add(s)
            sqs[k].add(sq)
    return {k: (sums[k].total, sqs[k].total) for k in keys}


def _mean_stderr(s: float, sq: float, n: int):
    mean = s / n
    if n < 2:
        return mean, 0.0
    var = max(sq - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def estimate_rates(
    geometry: NetworkGeometry,
    rho: float,
    schemes=("crs_noma", "conventional", "crs_oma"),
    mode: str = "paper",
    split: PowerSplit | None = None,
    trials: int = 10**6,
    seed: int = 42,
    workers: int = 1,
) -> list[EstimatorResult]:
    """Estimate every rate quantity of the requested schemes.

    One realization of (lambda_SR, lambda_RD, lambda_SD) is drawn per
    trial and shared across schemes, so cross-scheme comparisons are
    variance-coupled.  A scheme is a :data:`~ratelab.rates.RATES`
    token or a plain ``crs_noma``, which ``mode`` resolves; the
    baselines ignore ``mode``.  Deterministic in all inputs.
    """
    schemes = tuple(schemes)
    tokens = _resolve(schemes, mode, split, rho, trials)
    keys = [(s, q) for s in schemes for q in QUANTITIES]

    def block_fn(b, n):
        r = _draw_block(geometry, seed, b, n)
        out = {}
        for s, token in zip(schemes, tokens):
            br = _token_rates(r, rho, token, split)
            for q in QUANTITIES:
                v = np.asarray(br[q], dtype=float)
                out[(s, q)] = (float(np.sum(v)), float(np.sum(v * v)))
        return out

    moments = _reduce_moments(_run_blocks(block_fn, trials, workers), keys)
    results = []
    for s in schemes:
        for q in QUANTITIES:
            mean, se = _mean_stderr(*moments[(s, q)], trials)
            results.append(
                EstimatorResult(scheme=s, quantity=q, mean=mean, std_err=se, trials=trials, seed=seed)
            )
    return results


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
    token_a, token_b = _resolve((scheme_a, scheme_b), mode, split, rho, trials)
    if quantity not in QUANTITIES:
        raise DomainError(f"unknown quantity {quantity!r}")

    def block_fn(b, n):
        r = _draw_block(geometry, seed, b, n)
        va = np.asarray(_token_rates(r, rho, token_a, split)[quantity], dtype=float)
        vb = np.asarray(_token_rates(r, rho, token_b, split)[quantity], dtype=float)
        d = va - vb
        return {"gap": (float(np.sum(d)), float(np.sum(d * d)))}

    (s, sq) = _reduce_moments(_run_blocks(block_fn, trials, workers), ["gap"])["gap"]
    mean, se = _mean_stderr(s, sq, trials)
    return EstimatorResult(
        scheme=f"{scheme_a}-{scheme_b}",
        quantity=quantity,
        mean=mean,
        std_err=se,
        trials=trials,
        seed=seed,
    )
