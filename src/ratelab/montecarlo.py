"""Seeded Monte-Carlo estimation of ergodic rates with standard errors.

The engine evaluates every cell of a call for every geometry of it.
A cell is (rho, token, minus): the rates of one
:data:`~ratelab.rates.RATES` token at one rho, less those of ``minus``
trial by trial (common random numbers) unless it is None.
:func:`estimate_rates` and :func:`paired_gap` pass one geometry and
:func:`ratelab.sweep.calibrate_k` one per K, each with cells of checked
rhos and tokens.  The engine checks the run settings and the split and
groups the cells by rho, once per call, before the first block: a block
reads no rho again, the mode and split tests the rate functions keep for
their public callers cost one comparison each, and a gain row is read by
its maximum alone.

Trials are partitioned into blocks of ``BLOCK_SIZE`` trials, the last
one short.  Block b draws its standard normals once, from the
sub-stream ``split_stream(seed, b)`` in the fixed S-R, R-D, S-D order,
and every geometry of the call builds its gains from those same
normals, the floats ``sample_power_gains`` gives on that stream.  A
gain, a sum of squares of finite floats, fails only by overflow, which
one maximum a gain row refuses; no overflow in the engine warns, as
callers refuse a non-finite mean.  On a block the cells are taken
geometry by geometry, then rho by rho: each geometry's gains are built
once, the cells of one rho share one :class:`~ratelab.rates.RateTerms`
per geometry, so the logarithms several rates
share are taken once, and the next geometry's gains reuse the rows of
the one before.  Within a cell an array read by several quantities is
summed once: CRS-NOMA's c_s2 is its c_direct_s1, a baseline's c_s1 its
c_relay_s1.  Sharing changes no float: each shared term is the
expression every rate that reads it would compute.  A block sum is
``np.add.reduce`` of one row, the floats ``np.sum`` gives, and a sum
of squares is taken only where the caller reads a standard error;
:func:`ratelab.sweep.calibrate_k` reads means only.  Block sums are
merged in block order through compensated (Kahan) summation as the
blocks complete.  A cell's result is therefore a pure function of
(geometry, cell, split, seed, trials): it depends neither on how many
workers executed the blocks, nor on which other cells or geometries
shared the call, nor on whether squares were summed beside it.

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
from .errors import DomainError, _echo, _finite_nonneg, _nonempty, _one_of
from .rates import (
    PAPER_SPLIT,
    QUANTITIES,
    RATES,
    PowerSplit,
    RateBreakdown,
    RateTerms,
    _check_rho,
    _check_split,
    _rhos,
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


# The bounds of each run setting; a seed has no upper one.
_SETTINGS = {"trials": (1, MAX_TRIALS), "workers": (1, MAX_WORKERS), "seed": (0, None)}
# The default of each, which every signature and the sweep config read
DEFAULT_TRIALS, DEFAULT_SEED, DEFAULT_WORKERS = 10**6, 42, 1


def _check_setting(value, name: str) -> int:
    """``value``, by the rule of the run setting ``name``, wherever it
    enters: a Python or NumPy integer within its bounds.  A float, a bool
    or a str is refused, as a config refuses 1e6, 1.9 or true."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be a whole number, got {_echo(value)}")
    low, high = _SETTINGS[name]
    if not low <= value <= (value if high is None else high):
        raise DomainError(f"{name} must be >= {low}" if high is None else f"{name} must be between {low} and {high}")
    return value


@dataclass(frozen=True)
class EstimatorResult:
    """Sample mean and standard error of one rate quantity of the token
    ``scheme`` (a paired gap's ``"token_a-token_b"``) at the float ``rho`` it ran."""

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


def _token_rates(r: RateTerms, rho: float, token: str, split: PowerSplit) -> RateBreakdown:
    if token == "conventional":
        return conventional_noma_rate(r, rho, split)
    if token == "crs_oma":
        return crs_oma_rate(r, rho)
    return crs_noma_rate(r, rho, RATES[token][1])


def _cell_sums(terms: RateTerms, cell, split: PowerSplit, quantities, work: _Workspace, squares: bool) -> list:
    """Sum of each quantity of one cell on a block, each followed by its
    sum of squares where ``squares`` is true, flat.

    Both rates of the cell are read from ``terms``, the shared terms of
    its geometry and rho, which the caller checked, at the float the
    terms hold: the cell's rho may be an equal float of its own, which
    a rate function would read again.  An array several quantities read
    is summed once, matched by identity: every array lives in its own
    row of ``work`` until the caller releases the cell's rows.  Squares
    go to the workspace's scratch row.
    """
    _, token, minus = cell
    rates = _token_rates(terms, terms.rho, token, split)
    values = [rates[q] for q in quantities]
    if minus is not None:
        other = _token_rates(terms, terms.rho, minus, split)
        values = [np.subtract(v, other[q], out=work.take()) for v, q in zip(values, quantities)]
    sums: dict = {}
    for v in values:
        if id(v) not in sums:
            s = np.add.reduce(v)
            sums[id(v)] = (s, np.add.reduce(np.multiply(v, v, out=work.scratch[:np.size(v)]))) if squares else (s,)
    return [s for v in values for s in sums[id(v)]]


def _block_sums(geometries, cells, by_rho, split, quantities, seed: int, work: _Workspace, b: int, n: int,
                squares: bool = True) -> np.ndarray:
    """Every cell's sums on block b of n trials for each geometry, flat,
    geometry by geometry, then in cell order, with sums of squares where
    ``squares`` is true; ``by_rho`` gives the indices of each rho's cells."""
    # one draw for every geometry, in the fixed order S-R, R-D, S-D: the
    # floats of standard_normal((3, 2, n)), written to the slot's buffer
    normals = split_stream(seed, b).standard_normal(out=work.normals[:6 * n].reshape(3, 2, n))
    sums = []
    with np.errstate(over="ignore", invalid="ignore"):  # per thread, so set here
        for geometry in geometries:
            work.start(n)
            gains = [_power_gains(getattr(geometry, link), z, work.take(), work.scratch)
                     for link, z in zip(("sr", "rd", "sd"), normals)]
            for link, g in zip(("sr", "rd", "sd"), gains):
                # the row passes where its largest gain does, which is not NaN;
                # the rule refuses it as an array, as the gains a rate function takes
                top = g.max()
                if not top < math.inf:
                    _finite_nonneg(top, f"lambda_{link}", np.asarray)
            taken, by_cell = work.taken, [None] * len(cells)
            for rho, indices in by_rho.items():
                work.taken = taken  # the rows of the rho before are free again
                terms = RateTerms(gains, rho, work=work)
                shared = work.taken
                for i in indices:
                    work.taken = shared  # and those of the cell before
                    by_cell[i] = _cell_sums(terms, cells[i], split, quantities, work, squares)
            sums += [s for cell_sums in by_cell for s in cell_sums]
    return np.array(sums)


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


def _mean_stderr(n: int, s: float, sq: float | None = None):
    """Mean and standard error of n values of sum s and sum of squares
    sq; without sq, the mean and None."""
    mean = s / n
    if sq is None:
        return mean, None
    if n < 2:
        return mean, 0.0
    var = max(sq - n * mean * mean, 0.0) / (n - 1)
    return mean, math.sqrt(var / n)


def _estimate(geometries, cells, split, trials: int, seed: int, workers: int, quantities, *, std_err=True) -> list:
    """The engine: (mean, std_err) of every quantity of every cell for each
    geometry, flat, geometry by geometry, then cell by cell.  The run
    settings and the split, whatever the schemes, are checked and the
    cells grouped by rho once, before any block is drawn; callers check
    rho and the tokens, so no block checks them again.  Without
    ``std_err`` no block takes a square, and each std_err is None; the
    means are the same floats."""
    for name, value in (("trials", trials), ("workers", workers), ("seed", seed)):
        _check_setting(value, name)
    _check_split(split)
    by_rho: dict = {}  # equal floats as one rho, in order of first appearance
    for i, (rho, _, _) in enumerate(cells):
        by_rho.setdefault(rho, []).append(i)
    partials = _run_blocks(lambda work, b, n: _block_sums(geometries, cells, by_rho, split, quantities, seed, work,
                                                          b, n, std_err), trials, workers)
    return [_mean_stderr(trials, *sums) for sums in _kahan(partials).reshape(-1, 1 + std_err).tolist()]


def estimate_rates(
    geometry: NetworkGeometry,
    rho,
    schemes=("crs_noma", "conventional", "crs_oma"),
    mode: str = "paper",
    split: PowerSplit = PAPER_SPLIT,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    workers: int = DEFAULT_WORKERS,
) -> list[EstimatorResult]:
    """Estimate every rate quantity of the requested schemes.

    One realization of (lambda_SR, lambda_RD, lambda_SD) is drawn per
    trial and shared across schemes and rho values, so cross-scheme
    comparisons are variance-coupled.  A scheme is a
    :data:`~ratelab.rates.RATES` token or a plain ``crs_noma``, which
    ``mode`` resolves; the baselines ignore ``mode``.  Each result
    carries the token it ran as its ``scheme``, one group per scheme given.

    ``rho``, one SNR or a sequence read by :func:`ratelab.rates._rhos`,
    gives every scheme at every rho.  Results come rho by rho, then scheme
    by scheme in :data:`QUANTITIES` order, each carrying the float rho it
    ran.  Deterministic in all inputs; a (rho, scheme) result is the same
    float whatever else the call evaluates.  An empty ``rho`` sequence or
    ``schemes`` raises :class:`DomainError` before any block is drawn,
    and so does a ``split`` that is not a :class:`PowerSplit`, whatever
    the schemes; only the conventional baseline reads it.
    """
    rhos = _rhos(rho)
    schemes = _nonempty(schemes, "schemes must be a sequence of names", "scheme")
    tokens = [rate_token(s, mode) for s in schemes]
    cells = [(x, token, None) for x in rhos for token in tokens]
    moments = iter(_estimate([geometry], cells, split, trials, seed, workers, QUANTITIES))
    return [EstimatorResult(token, q, *next(moments), trials, seed, x) for x, token, _ in cells for q in QUANTITIES]


def paired_gap(
    geometry: NetworkGeometry,
    rho: float,
    scheme_a: str,
    scheme_b: str,
    mode: str = "paper",
    split: PowerSplit = PAPER_SPLIT,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    quantity: str = "c_total",
    workers: int = DEFAULT_WORKERS,
) -> EstimatorResult:
    """E[rate_A - rate_B] with common random numbers.

    Differencing inside each trial cancels the shared channel noise, so
    the standard error is far below that of two independent runs.  The
    result carries the float :func:`ratelab.rates._check_rho` reads and
    the tokens that ran, ``"token_a-token_b"``.
    """
    rho = _check_rho(rho)
    token_a, token_b = rate_token(scheme_a, mode), rate_token(scheme_b, mode)
    _one_of(quantity, QUANTITIES)
    [(mean, se)] = _estimate([geometry], [(rho, token_a, token_b)], split, trials, seed, workers, (quantity,))
    return EstimatorResult(f"{token_a}-{token_b}", quantity, mean, se, trials, seed, rho)
