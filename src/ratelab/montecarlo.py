"""Seeded Monte-Carlo estimation of ergodic rates with standard errors.

The engine evaluates one flat list of cells.  A cell is (geometry, rho,
token, minus): the rates of one :data:`~ratelab.rates.RATES` token of
one geometry at one rho, less those of ``minus`` trial by trial (common
random numbers) unless it is None.  :func:`estimate_rates`,
:func:`paired_gap` and :func:`ratelab.sweep.calibrate_k` each build
their own cells.

Trials are partitioned into fixed-size blocks.  Block b draws its
standard normals once, from the sub-stream ``split_stream(seed, b)`` in
the fixed S-R, R-D, S-D order, and every geometry of the call builds
its gains from those same normals.  Cells are evaluated on sub-blocks
of at most ``SUB_BLOCK`` trials, the length of a workspace row.  On a
sub-block the cells are taken geometry by geometry, then rho by rho:
each geometry's gains are built once, the cells of one (geometry, rho)
share one :class:`~ratelab.rates.RateTerms`, so the logarithms several
rates share are taken once, and the next geometry's gains reuse the
rows of the one before.  Within a cell an array read by several
quantities is summed once: CRS-NOMA's c_s2 is its c_direct_s1, a
baseline's c_s1 its c_relay_s1.  Sharing changes no float: each shared
term is the expression every rate that reads it would compute.  The
sub-block sums are combined along numpy's own pairwise split, so each
block sum is the float ``np.sum`` over the whole block gives, and block
sums are merged in block order through compensated (Kahan) summation.
A cell's result is therefore a pure function of (cell, split, seed,
trials): it depends neither on how many workers executed the blocks nor
on which other cells shared the call.

Every per-trial array of a block is written with ufunc ``out=`` to the
rows of one :class:`_Workspace`, allocated once per block call: in a
fresh process, which every CLI run is, a temporary per ufunc call costs
page faults as the allocator maps, frees and faults it in again.
"""

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
    RateTerms,
    _check_rho,
    _check_split,
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


# The rule of each run setting, applied wherever it enters; each returns the value.
def _check_trials(trials: int) -> int:
    if not 1 <= trials <= MAX_TRIALS:
        raise DomainError(f"trials must be between 1 and {MAX_TRIALS}")
    return trials


def _check_workers(workers: int) -> int:
    if not 1 <= workers <= MAX_WORKERS:
        raise DomainError(f"workers must be between 1 and {MAX_WORKERS}")
    return workers


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise DomainError("seed must be >= 0")
    return seed


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


class _Workspace:
    """Every per-trial array of one block call, in rows allocated once.

    ``take`` hands out the next free row, cut to the current sub-block
    length; a row is allocated the first time it is needed and reused
    for every later sub-block, geometry, rho and cell of the block.
    ``taken`` counts the rows taken, and setting it lower gives back
    the rows taken since.  ``scratch`` is one more row, for
    intermediates that no call keeps: whoever writes it next overwrites
    it.  The workspace belongs to one block call, so threads share
    nothing.
    """

    def __init__(self, width: int):
        self._rows: list = []
        self._scratch = np.empty(width)
        self.start(width)

    def start(self, n: int):
        """Begin a sub-block of n trials, with every row free."""
        self._n, self.taken = n, 0
        self.scratch = self._scratch[:n]

    def take(self) -> np.ndarray:
        if self.taken == len(self._rows):
            self._rows.append(np.empty_like(self._scratch))
        self.taken += 1
        return self._rows[self.taken - 1][:self._n]


def _token_rates(r: RateTerms, rho: float, token: str, split: PowerSplit | None) -> RateBreakdown:
    if token == "conventional":
        return conventional_noma_rate(r, rho, split)
    if token == "crs_oma":
        return crs_oma_rate(r, rho)
    return crs_noma_rate(r, rho, RATES[token][1])


def _resolve(schemes, mode: str, split: PowerSplit | None, rhos, trials: int, seed: int,
             workers: int) -> list[str]:
    """Check the arguments every caller of the engine shares; return the
    RATES token of each requested scheme under ``mode``."""
    _check_trials(trials)
    _check_workers(workers)
    _check_seed(seed)
    for rho in rhos:
        _check_rho(rho)
    tokens = [rate_token(s, mode) for s in schemes]
    if "conventional" in tokens:
        _check_split(split)
    return tokens


def _cell_sums(terms: RateTerms, cell, split: PowerSplit | None, quantities, work: _Workspace) -> list:
    """Sum and sum of squares of each quantity of one cell on one
    sub-block, flat.

    Both rates of the cell are read from ``terms``, the shared terms of
    its geometry and rho.  An array several quantities read is summed
    once, matched by identity: every array lives in its own row of
    ``work`` until the caller releases the cell's rows.  Squares go to
    the workspace's scratch row.
    """
    _, rho, token, minus = cell
    rates = _token_rates(terms, rho, token, split)
    values = [rates[q] for q in quantities]
    if minus is not None:
        other = _token_rates(terms, rho, minus, split)
        values = [np.subtract(v, other[q], out=work.take()) for v, q in zip(values, quantities)]
    sums: dict = {}
    for v in values:
        if id(v) not in sums:
            sums[id(v)] = np.sum(v), np.sum(np.multiply(v, v, out=work.scratch[:np.size(v)]))
    return [s for v in values for s in sums[id(v)]]


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


def _block_sums(cells, split, quantities, seed: int, b: int, n: int) -> np.ndarray:
    """Every cell's sums on block b of n trials, flat, in cell order."""
    # one draw for every geometry, in the fixed order S-R, R-D, S-D
    normals = split_stream(seed, b).standard_normal((3, 2, n))
    work = _Workspace(min(n, SUB_BLOCK))
    groups: dict = {}  # geometry -> rho -> indices of its cells
    for i, (geometry, rho, _, _) in enumerate(cells):
        groups.setdefault(geometry, {}).setdefault(rho, []).append(i)

    def leaf(lo, hi):
        sums = [None] * len(cells)
        for geometry, by_rho in groups.items():
            work.start(hi - lo)
            source = _Replay(normals[..., lo:hi])
            r = ChannelRealization(*(sample_power_gains(link, source, hi - lo, work=work)
                                     for link in (geometry.sr, geometry.rd, geometry.sd)))
            gains = work.taken
            for rho, indices in by_rho.items():
                work.taken = gains  # the rows of the rho before are free again
                terms = RateTerms(r, rho, work=work)
                shared = work.taken
                for i in indices:
                    work.taken = shared  # and those of the cell before
                    sums[i] = _cell_sums(terms, cells[i], split, quantities, work)
        return np.array([s for cell_sums in sums for s in cell_sums])

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


def _estimate(cells, split, trials: int, seed: int, workers: int, quantities) -> list:
    """The engine: (mean, std_err) of every quantity of every cell, flat,
    cell by cell."""
    partials = _run_blocks(lambda b, n: _block_sums(cells, split, quantities, seed, b, n), trials, workers)
    return [_mean_stderr(s, sq, trials) for s, sq in _kahan(partials).reshape(-1, 2).tolist()]


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

    ``rho`` is one transmit SNR or a sequence of them, and every scheme
    is evaluated at every rho.  Results come rho by rho, then scheme by
    scheme in :data:`QUANTITIES` order, each carrying its ``rho``.
    Deterministic in all inputs; a (rho, scheme) result is the same
    float whatever else the call evaluates.
    """
    rhos = [rho] if np.ndim(rho) == 0 else list(rho)
    schemes = tuple(schemes)
    tokens = _resolve(schemes, mode, split, rhos, trials, seed, workers)
    cells = [(geometry, x, token, None) for x in rhos for token in tokens]
    labels = [(x, s, q) for x in rhos for s in schemes for q in QUANTITIES]
    moments = _estimate(cells, split, trials, seed, workers, QUANTITIES)
    return [EstimatorResult(s, q, mean, se, trials, seed, x)
            for (x, s, q), (mean, se) in zip(labels, moments)]


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
    [(mean, se)] = _estimate([(geometry, rho, token_a, token_b)], split, trials, seed, workers, (quantity,))
    return EstimatorResult(f"{scheme_a}-{scheme_b}", quantity, mean, se, trials, seed, rho)
