"""Seeded Monte-Carlo estimation of ergodic rates with standard errors.

The engine evaluates one flat list of cells.  A cell is (geometry, rho,
token, minus): the rates of one :data:`~ratelab.rates.RATES` token of
one geometry at one rho, less those of ``minus`` trial by trial (common
random numbers) unless it is None.  :func:`estimate_rates`,
:func:`paired_gap` and :func:`ratelab.sweep.calibrate_k` each map their
schemes to tokens and build their own cells; the engine checks the
settings and cells it is given.

Trials are partitioned into blocks of ``BLOCK_SIZE`` trials, the last
one short.  Block b draws its standard normals once, from the
sub-stream ``split_stream(seed, b)`` in the fixed S-R, R-D, S-D order,
and every geometry of the call builds its gains from those same
normals, the floats ``sample_power_gains`` gives on that stream.  A
gain, a sum of squares of finite floats, fails only by overflow, which
one maximum a gain row refuses; no overflow in the engine warns, as
callers refuse a non-finite mean.  On a block the cells are taken
geometry by geometry, then rho by rho: each geometry's gains are built
once, the cells of one (geometry, rho) share one
:class:`~ratelab.rates.RateTerms`, so the logarithms several rates
share are taken once, and the next geometry's gains reuse the rows of
the one before.  Within a cell an array read by several quantities is
summed once: CRS-NOMA's c_s2 is its c_direct_s1, a baseline's c_s1 its
c_relay_s1.  Sharing changes no float: each shared term is the
expression every rate that reads it would compute.  A block sum is
``np.sum`` of one row, and block sums are merged in block order
through compensated (Kahan) summation as the blocks complete.  A
cell's result is therefore a pure function of (cell, split, seed,
trials): it depends neither on how many workers executed the blocks nor
on which other cells shared the call.

At most ``workers`` blocks run at once, one on each worker slot, and
at most twice as many are in flight, so memory does not grow with the
trial count.  A slot writes a block's
normals and, with ufunc ``out=``, every per-trial array to the rows of
one :class:`_Workspace`, allocated on its first block and reused for
every later one: in a fresh process, which every CLI run is, a
temporary per ufunc call or per block costs page faults as the
allocator maps, frees and faults it in again.
"""

from dataclasses import dataclass
import math
import threading

import numpy as np

# sample_power_gains is not called here; bench/tracer.py wraps this binding
from .channel import NetworkGeometry, _power_gains, sample_power_gains, split_stream
from .errors import DomainError
from .rates import (
    QUANTITIES,
    RATES,
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

BLOCK_SIZE = 1 << 15
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


class _Workspace:
    """The normals and every per-trial array of the blocks one worker
    slot runs, in rows allocated once.

    ``normals`` holds a block's draw.  ``take`` hands out the next free
    row, cut to the current block length; a row is allocated the first
    time it is needed and reused for every later geometry, rho, cell and
    block.  ``taken`` counts the rows taken, and setting it lower gives
    back the rows taken since.  ``scratch`` is one more row, for
    intermediates that no call keeps: whoever writes it next overwrites
    it.  The workspace belongs to one slot, so threads share nothing.
    """

    def __init__(self, width: int):
        self._rows: list = []
        self.normals = np.empty(6 * width)
        self._scratch = np.empty(width)
        self.start(width)

    def start(self, n: int):
        """Begin a geometry of a block of n trials, with every row free."""
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


def _cell_sums(terms: RateTerms, cell, split: PowerSplit | None, quantities, work: _Workspace) -> list:
    """Sum and sum of squares of each quantity of one cell on a block, flat.

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


def _block_sums(cells, split, quantities, seed: int, work: _Workspace, b: int, n: int) -> np.ndarray:
    """Every cell's sums on block b of n trials, flat, in cell order."""
    # one draw for every geometry, in the fixed order S-R, R-D, S-D: the
    # floats of standard_normal((3, 2, n)), written to the slot's buffer
    normals = split_stream(seed, b).standard_normal(out=work.normals[:6 * n].reshape(3, 2, n))
    groups: dict = {}  # geometry -> rho -> indices of its cells
    for i, (geometry, rho, _, _) in enumerate(cells):
        groups.setdefault(geometry, {}).setdefault(rho, []).append(i)
    sums = [None] * len(cells)
    with np.errstate(over="ignore", invalid="ignore"):  # per thread, so set here
        for geometry, by_rho in groups.items():
            work.start(n)
            gains = [_power_gains(getattr(geometry, link), z, work.take(), work.scratch)
                     for link, z in zip(("sr", "rd", "sd"), normals)]
            for link, g in zip(("sr", "rd", "sd"), gains):
                if not g.max() < math.inf:
                    raise DomainError(f"lambda_{link} must be finite and >= 0")
            taken = work.taken
            for rho, indices in by_rho.items():
                work.taken = taken  # the rows of the rho before are free again
                terms = RateTerms(gains, rho, work=work)
                shared = work.taken
                for i in indices:
                    work.taken = shared  # and those of the cell before
                    sums[i] = _cell_sums(terms, cells[i], split, quantities, work)
    return np.array([s for cell_sums in sums for s in cell_sums])


def _run_blocks(block_fn, trials: int, workers: int):
    """Yield block_fn(work, b, n) for each block b of n trials, in block
    order.  At most ``workers`` blocks run at once, each on a slot, a
    thread, whose workspace ``work`` is allocated on its first block.
    At most ``2 * workers`` are in flight, running, queued or done and
    not yet yielded, so that no slot waits for the oldest block."""
    slots = threading.local()

    def run(b):
        if not hasattr(slots, "work"):
            slots.work = _Workspace(min(trials, BLOCK_SIZE))
        return block_fn(slots.work, b, min(BLOCK_SIZE, trials - b * BLOCK_SIZE))

    blocks = range(-(-trials // BLOCK_SIZE))
    if workers == 1 or len(blocks) == 1:
        yield from map(run, blocks)
        return
    # imported here, so that importing ratelab does not pay for it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        in_flight = [pool.submit(run, b) for b in blocks[:2 * workers]]
        for b in blocks[2 * workers:]:
            yield in_flight.pop(0).result()
            in_flight.append(pool.submit(run, b))
        while in_flight:
            yield in_flight.pop(0).result()


def _kahan(partials) -> np.ndarray:
    """Position-wise compensated totals of the block partials, in block
    order: at each position, the float a scalar Kahan loop gives."""
    total = carry = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an inf sum is refused as a non-finite mean
        for part in partials:
            y = part - carry
            del part  # released before the next block is awaited, so at most 2 * workers are alive
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
    cell by cell.  The run settings, each distinct cell rho in order and,
    where a cell reads the conventional scheme, the split are checked
    before any block is drawn."""
    _check_trials(trials)
    _check_workers(workers)
    _check_seed(seed)
    # by identity, as a refused rho may be unhashable
    for rho in {id(rho): rho for _, rho, _, _ in cells}.values():
        _check_rho(rho)
    if any("conventional" in (token, minus) for _, _, token, minus in cells):
        _check_split(split)
    partials = _run_blocks(lambda work, b, n: _block_sums(cells, split, quantities, seed, work, b, n),
                           trials, workers)
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
    float whatever else the call evaluates.  An empty ``rho`` sequence or
    ``schemes`` raises :class:`DomainError` before any block is drawn.
    """
    rhos = [rho] if np.ndim(rho) == 0 else list(rho)
    schemes = tuple(schemes)
    if not (rhos and schemes):
        raise DomainError(f"rho and schemes must be nonempty, got {len(rhos)} rho(s), {len(schemes)} scheme(s)")
    tokens = [rate_token(s, mode) for s in schemes]
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
    token_a, token_b = rate_token(scheme_a, mode), rate_token(scheme_b, mode)
    if quantity not in QUANTITIES:
        raise DomainError(f"unknown quantity {quantity!r}")
    [(mean, se)] = _estimate([(geometry, rho, token_a, token_b)], split, trials, seed, workers, (quantity,))
    return EstimatorResult(f"{scheme_a}-{scheme_b}", quantity, mean, se, trials, seed, rho)
