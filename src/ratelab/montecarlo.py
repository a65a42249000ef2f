"""Seeded Monte-Carlo estimation of ergodic rates with standard errors.

Trials are partitioned into fixed-size blocks.  Block b draws its
standard normals once, from the sub-stream ``split_stream(seed, b)`` in
the fixed S-R, R-D, S-D order, and every geometry of the call builds
its gains from those same normals, so one pass serves a whole grid of
geometries (a K calibration, say).  Each geometry evaluates every
requested cell on the block: a (rho, scheme) pair, or for
:func:`paired_gap` the per-trial difference of two schemes (common
random numbers throughout).

Cells are evaluated on sub-blocks of at most ``SUB_BLOCK`` trials,
which bounds the rate temporaries.  On a sub-block, the cells of one rho
are evaluated together on one :class:`~ratelab.rates.RateTerms`, so the
logarithms several rates share are taken once per (sub-block, rho), and
the terms are dropped before the next rho's.  One sum and one sum of
squares is taken per distinct array: CRS-NOMA's c_s2 is its
c_direct_s1, in both modes.  Sharing changes no float: each shared
term is the expression every rate that reads it would compute.  The
sub-block sums are combined along numpy's own pairwise split, so each
block sum is the float ``np.sum`` over the whole block gives.  Block sums are merged in block
order through compensated (Kahan) summation.  A cell's result is
therefore a pure function of (geometry, inputs, seed): it depends
neither on how many workers executed the blocks nor on which other
cells or geometries shared the call.
"""

from dataclasses import dataclass
import math
import weakref

import numpy as np

from .channel import NetworkGeometry, sample_power_gains, split_stream
from .errors import DomainError
from .rates import (
    QUANTITIES,
    RATES,
    ChannelRealization,
    PowerSplit,
    RateBreakdown,
    RateTerms,
    conventional_noma_rate,
    crs_noma_rate,
    crs_oma_rate,
    rate_token,
)

__all__ = ["EstimatorResult", "estimate_rates", "paired_gap", "QUANTITIES", "BLOCK_SIZE", "MAX_TRIALS",
           "MAX_WORKERS"]

BLOCK_SIZE = 1 << 17
SUB_BLOCK = 1 << 15
# The block plan has one entry per BLOCK_SIZE trials, 76,294 at MAX_TRIALS.
MAX_TRIALS = 10**10
# A constant, unlike os.cpu_count(), so a config that runs on one machine
# runs on every other.
MAX_WORKERS = 64


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


class _Replay:
    """A block's normals standing in for its generator: each
    ``standard_normal`` draw returns the next link's rows, so
    :func:`sample_power_gains` builds the gains the generator itself
    would have given."""

    __slots__ = ("_links",)

    def __init__(self, normals):
        self._links = iter(normals)

    def standard_normal(self, shape):
        return next(self._links)


def _token_rates(r: RateTerms, rho: float, token: str, split: PowerSplit | None) -> RateBreakdown:
    if token == "conventional":
        return conventional_noma_rate(r, rho, split)
    if token == "crs_oma":
        return crs_oma_rate(r, rho)
    return crs_noma_rate(r, rho, RATES[token][1])


def _resolve(schemes, mode: str, split: PowerSplit | None, rhos, trials: int, seed: int,
             workers: int) -> list[str]:
    """Check the arguments both estimators share; return the RATES token
    of each requested scheme under ``mode``."""
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if trials > MAX_TRIALS:
        raise DomainError(f"trials must be <= {MAX_TRIALS}, got {trials}")
    if not 1 <= workers <= MAX_WORKERS:
        raise DomainError(f"workers must be between 1 and {MAX_WORKERS}, got {workers}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    for rho in rhos:
        if not rho >= 0.0:
            raise DomainError(f"rho must be >= 0, got {rho}")
    tokens = [rate_token(s, mode) for s in schemes]
    if "conventional" in tokens and split is None:
        raise DomainError("conventional scheme requires a PowerSplit")
    return tokens


class _Moments:
    """np.sum(v) and np.sum(v*v) of the arrays of one block, once per
    distinct array.

    An array read by several quantities or cells (CRS-NOMA's c_s2 is its
    c_direct_s1, in both modes) is summed once: its sums are kept under
    id(v) beside a weak reference, so an array freed since cannot pass
    its sums to a new one at the same address.  Squares go to one
    scratch array of sub-block length, reused for every array.
    """

    def __init__(self, n: int):
        self._square = np.empty(n)
        self._seen: dict = {}

    def __call__(self, v) -> tuple:
        hit = self._seen.get(id(v))
        if hit is not None and hit[0]() is v:
            return hit[1]
        if not isinstance(v, np.ndarray):
            return np.sum(v), np.sum(v * v)
        sums = np.sum(v), np.sum(np.multiply(v, v, out=self._square[:v.size]))
        self._seen[id(v)] = weakref.ref(v), sums
        return sums


def _cell_sums(terms: RateTerms, cell, split: PowerSplit | None, quantities, moments: _Moments) -> list:
    """Sum and sum of squares of each quantity of one cell on one
    sub-block, flat.

    A cell is (rho, token, minus): the rates of ``token``, less those of
    ``minus`` trial by trial unless it is None, both read from the
    shared ``terms`` at rho.  The cell's own arrays are freed on return,
    before the next cell is evaluated; the shared ones live with
    ``terms``.
    """
    rho, token, minus = cell
    rates = _token_rates(terms, rho, token, split)
    values = [rates[q] for q in quantities]
    del rates
    if minus is not None:
        other = _token_rates(terms, rho, minus, split)
        values = [v - other[q] for v, q in zip(values, quantities)]
    return [s for v in values for s in moments(v)]


def _geometry_sums(r: ChannelRealization, cells, split: PowerSplit | None, quantities,
                   moments: _Moments) -> list:
    """Every cell's sums on one sub-block of one geometry, flat, in cell
    order.  Cells at one rho are evaluated together, on one
    :class:`RateTerms` that is dropped before the next rho's."""
    by_rho: dict = {}
    for i, cell in enumerate(cells):
        by_rho.setdefault(cell[0], []).append(i)
    sums = [None] * len(cells)
    for rho, group in by_rho.items():
        terms = RateTerms(r, rho)
        for i in group:
            sums[i] = _cell_sums(terms, cells[i], split, quantities, moments)
    return [s for cell_sums in sums for s in cell_sums]


def _pairwise_sum(leaf, lo: int, hi: int):
    """The sum of leaf(lo, hi) over [lo, hi), split as numpy's pairwise
    summation splits a float64 array: in halves cut at a multiple of 8,
    until a part fits in SUB_BLOCK and leaf sums it.  When leaf returns
    ``np.sum`` of the slice, this is ``np.sum`` over the whole range,
    float for float."""
    n = hi - lo
    if n <= SUB_BLOCK:
        return leaf(lo, hi)
    half = n // 2
    half -= half % 8
    return _pairwise_sum(leaf, lo, lo + half) + _pairwise_sum(leaf, lo + half, hi)


def _block_sums(geometries, cells, split, quantities, seed: int, b: int, n: int) -> np.ndarray:
    """Every geometry's cell sums on block b of n trials, geometry-major."""
    # one draw for every geometry, in the fixed order S-R, R-D, S-D
    normals = split_stream(seed, b).standard_normal((3, 2, n))
    moments = _Moments(min(n, SUB_BLOCK))

    def leaf(lo, hi):
        sums = []
        for geometry in geometries:
            source = _Replay(normals[..., lo:hi])
            r = ChannelRealization(*(sample_power_gains(link, source, hi - lo)
                                     for link in (geometry.sr, geometry.rd, geometry.sd)))
            sums += _geometry_sums(r, cells, split, quantities, moments)
        return np.array(sums)

    return _pairwise_sum(leaf, 0, n)


def _run_blocks(block_fn, trials: int, workers: int) -> list:
    """Evaluate block_fn(block_index, block_length) over the partition of
    the trial count, returning the partials in block order."""
    full, rest = divmod(trials, BLOCK_SIZE)
    plan = [(b, BLOCK_SIZE) for b in range(full)] + ([(full, rest)] if rest else [])
    if workers > 1 and len(plan) > 1:
        # imported here, so that importing ratelab does not pay for it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda p: block_fn(*p), plan))
    return [block_fn(b, n) for b, n in plan]


def _kahan(partials) -> np.ndarray:
    """Position-wise compensated totals of the block partials, in block
    order: at each position, the float a scalar Kahan loop gives."""
    total = carry = np.zeros_like(partials[0])
    for part in partials:
        y = part - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def _mean_stderr(s: float, sq: float, n: int):
    mean = s / n
    if n < 2:
        return mean, 0.0
    var = max(sq - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def _estimate(geometries, cells, split, trials: int, seed: int, workers: int, quantities) -> list:
    """The engine: per geometry, (mean, std_err) of every quantity of
    every cell, cell-major.  Each block's normals are drawn once for all
    geometries, and its gains once per geometry and sub-block for all
    cells."""
    partials = _run_blocks(
        lambda b, n: _block_sums(geometries, cells, split, quantities, seed, b, n), trials, workers
    )
    totals = _kahan(partials).reshape(len(geometries), -1, 2).tolist()
    return [[_mean_stderr(s, sq, trials) for s, sq in moments] for moments in totals]


def _estimate_geometries(geometries, rho, schemes, mode: str, split: PowerSplit | None, trials: int,
                         seed: int, workers: int, quantities=QUANTITIES) -> list:
    """:func:`estimate_rates` of each geometry, restricted to
    ``quantities``, in one pass over the blocks.  Returns one result
    list per geometry, each holding the floats estimate_rates gives for
    that geometry alone."""
    rhos = [rho] if np.ndim(rho) == 0 else list(rho)
    schemes = tuple(schemes)
    grouped = np.ndim(rho) and schemes and not isinstance(schemes[0], str)
    groups = schemes if grouped else [schemes] * len(rhos)
    names = [(x, s) for x, group in zip(rhos, groups, strict=True) for s in group]
    tokens = _resolve([s for _, s in names], mode, split, rhos, trials, seed, workers)
    cells = [(x, token, None) for (x, _), token in zip(names, tokens)]
    labels = [(x, s, q) for x, s in names for q in quantities]
    return [
        [EstimatorResult(s, q, mean, se, trials, seed, x) for (x, s, q), (mean, se) in zip(labels, moments)]
        for moments in _estimate(geometries, cells, split, trials, seed, workers, quantities)
    ]


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
    return _estimate_geometries([geometry], rho, schemes, mode, split, trials, seed, workers)[0]


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
    token_a, token_b = _resolve((scheme_a, scheme_b), mode, split, [rho], trials, seed, workers)
    if quantity not in QUANTITIES:
        raise DomainError(f"unknown quantity {quantity!r}")
    [[(mean, se)]] = _estimate([geometry], [(rho, token_a, token_b)], split, trials, seed, workers, (quantity,))
    return EstimatorResult(f"{scheme_a}-{scheme_b}", quantity, mean, se, trials, seed, rho)
