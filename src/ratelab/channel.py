"""Rician fading power-gain model.

One link is parameterized by the Rician factor K (line-of-sight to
diffuse power ratio) and the mean power gain Omega = E[|h|^2].  The
squared magnitude of the channel coefficient is then a scaled
noncentral chi-square variate with two degrees of freedom, and every
distribution function here is expressed through the convergent series

    f(x) = A * sum_n B(n) x^n e^(-a x),   a = (1+K)/Omega,  A = a e^(-K),
    B(n) = K^n (1+K)^n / (Omega^n (n!)^2),

that is, a Poisson(K) mixture of gamma(n+1) densities at a*x.  The
mixture is truncated in one place, :func:`poisson_weights`, at one
tolerance, :data:`KERNEL_TOL`, and summed in one Horner pass over its
terms for the survival, the distribution function and the density.
The pass runs from whichever end keeps it in floating-point range:
from the last term down while e^-(a*x) is still a normal float, from
the first term up beyond that, where e^-(a*x) alone would underflow.  The series of :mod:`ratelab.analytic` take
these survivals, and their coefficients from the same upper tails.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelAssumptionWarning, _finite_nonneg, _to_float

__all__ = [
    "MAX_NONCENTRALITY",
    "KERNEL_TOL",
    "RicianLink",
    "NetworkGeometry",
    "sample_power_gains",
    "power_gain_pdf",
    "power_gain_cdf",
    "power_gain_sf",
    "poisson_weights",
    "split_stream",
]

# Largest Poisson mean K (half the chi-square noncentrality) the kernel
# accepts.  Up to it there are at most 674 weights, so their last index
# stays under _HORNER_SPLIT, as the upward Horner pass needs, and e^-K is
# far from underflow.  Against the noncentral chi-square on y = a*x in
# [0, 3(1 + K)], the survival is 5.9e-15 off at K = 500, 7.0e-15 at
# K = 520, 7.2e-13 at K = 700 (904 weights, past the split) and 0.21 at
# K = 745, where e^-K underflows.
MAX_NONCENTRALITY = 500.0

# Poisson weight every truncated series may leave out: it bounds the
# truncation error of the survival, distribution function and density,
# and sets the depth of the series of ratelab.analytic.
KERNEL_TOL = 1e-13
_FLOAT_MAX = float(np.finfo(float).max)
# Where the mixture sum changes ends.  Summed from the last term down,
# every partial sum stays below e^y and e^-y stays a normal float for
# y <= 708; summed from the first term up, every ratio j/y stays below 1
# while y exceeds the last index, at most 673 (see poisson_weights).
_HORNER_SPLIT = 700.0


@dataclass(frozen=True)
class RicianLink:
    """One fading link: Rician factor K and mean power gain Omega.

    ``k_factor`` is dimensionless, >= 0 (0 is Rayleigh fading); the
    sampled power gain has mean ``mean_power``, refused where the
    inverse scale (1 + K)/Omega overflows.  Both are stored as floats.
    Its Poisson(K) weights and tails are built once, on first kernel use,
    so a K above :data:`MAX_NONCENTRALITY` samples and raises there.
    """

    k_factor: float
    mean_power: float

    def __post_init__(self):
        object.__setattr__(self, "k_factor", _finite_nonneg(self.k_factor, "k_factor"))  # frozen
        object.__setattr__(self, "mean_power", _to_float(self.mean_power, "mean_power must be finite and > 0"))
        if not (0.0 < self.mean_power < math.inf and self.inv_scale < math.inf):
            raise DomainError(f"mean_power and (1 + K)/mean_power must be finite and > 0, got {self.mean_power}")

    @property
    def inv_scale(self) -> float:
        """Inverse power gain a = (1+K)/Omega."""
        return (1.0 + self.k_factor) / self.mean_power

    @property
    def los_power(self) -> float:
        """Power of the deterministic line-of-sight component,
        K*Omega/(K + 1); as Omega/(1 + 1/K) where K*Omega overflows."""
        los = self.k_factor * self.mean_power
        return los / (self.k_factor + 1.0) if los < math.inf else self.mean_power / (1.0 + 1.0 / self.k_factor)

    @property
    def diffuse_var(self) -> float:
        """Per-component variance of the diffuse Gaussian part."""
        return self.mean_power / (2.0 * (self.k_factor + 1.0))

    # cached_property writes __dict__, past the frozen __setattr__
    @functools.cached_property
    def _weights(self) -> np.ndarray:
        """:func:`poisson_weights` at K, read-only."""
        return _read_only(poisson_weights(self.k_factor))

    @functools.cached_property
    def _tails(self) -> np.ndarray:
        """Upper tails P[N >= j] of :attr:`_weights`, read-only, each with
        the weight the truncation leaves out added, so that T[0] = 1
        exactly.  That puts the left-out weight on the last term of every
        series that sums them, the survival's and the rate series'."""
        tails = np.cumsum(self._weights[::-1])[::-1]
        return _read_only(tails + (1.0 - tails[0]))


@dataclass(frozen=True)
class NetworkGeometry:
    """The three links of the relay network: S-R, R-D and S-D."""

    sr: RicianLink
    rd: RicianLink
    sd: RicianLink

    def __post_init__(self):
        if self.sr.mean_power <= self.sd.mean_power:
            warnings.warn(
                "S-R mean power does not exceed S-D mean power; the relay "
                "placement assumption of the scheme is violated",
                ModelAssumptionWarning,
                stacklevel=3,  # past the dataclass-generated __init__, to its caller
            )


def make_link(k_factor: float, mean_power: float) -> RicianLink:
    """``RicianLink(k_factor, mean_power)``.  Not public: only
    ``bench/workloads.py`` imports it, and it goes when that calls ``RicianLink``."""
    return RicianLink(k_factor, mean_power)


def split_stream(seed: int, stream_index: int) -> np.random.Generator:
    """Derive an independent random stream from a master seed.

    Stream b is ``default_rng(SeedSequence([seed, b]))``.  Distinct
    indices give statistically independent streams, so blocks of a
    simulation can run in any order (or in parallel) and still be a
    pure function of (seed, index).
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream_index)]))


def _power_gains(link: RicianLink, z: np.ndarray, out=None, s=None) -> np.ndarray:
    """:func:`sample_power_gains` on its (2, n) normals z; with rows ``out``
    and ``s``, the same floats, written to ``out`` with ``s`` as scratch."""
    mu = math.sqrt(link.los_power)
    sd = math.sqrt(link.diffuse_var)
    re = np.add(mu, np.multiply(sd, z[0], out=out), out=out)
    im = np.multiply(sd, z[1], out=s)
    return np.add(np.multiply(re, re, out=out), np.multiply(im, im, out=s), out=out)


def sample_power_gains(link: RicianLink, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n instantaneous power gains |h|^2.

    h = mu + g with mu = sqrt(K*Omega/(K+1)) and g circularly-symmetric
    complex Gaussian whose real/imaginary parts each have variance
    Omega/(2(K+1)).  Exact construction, no inverse-CDF approximation.
    """
    return _power_gains(link, rng.standard_normal((2, n)))


def _check_nonneg(x, name: str = "power gain argument") -> np.ndarray:
    """``x`` as a float array; one pass refuses a negative or NaN element,
    +inf passes; an integer above the float range is refused."""
    x = _to_float(x, f"{name} must fit in a float", lambda v: np.asarray(v, dtype=float))
    if not (x >= 0.0).all():
        raise DomainError(f"{name} must be >= 0 and not NaN")
    return x


def poisson_weights(mean: float) -> np.ndarray:
    """Poisson(mean) weights w_0..w_n, the weights every series of the
    package sums; the weight they cover is their sum.

    At mean = K these are the series coefficients A * B~(n) * n! of one
    link, by the pmf recurrence w_j = w_(j-1) * mean / j.  The weights
    stop at the first n whose covered weight reaches 1 -
    :data:`KERNEL_TOL`, or where a weight no longer changes the covered
    sum in floating point.  At the largest mean,
    :data:`MAX_NONCENTRALITY`, that is 674 weights.  Raises
    :class:`DomainError` for a mean above :data:`MAX_NONCENTRALITY`.
    """
    if not mean <= MAX_NONCENTRALITY:
        raise DomainError(f"noncentrality K = {mean:.6g} is above {MAX_NONCENTRALITY:g}, "
                          "where the Poisson-mixture series underflows")
    w = math.exp(-mean)
    weights = [w]
    covered = w
    j = 0
    while covered < 1.0 - KERNEL_TOL:
        j += 1
        w *= mean / j
        if covered + w == covered:
            break
        covered += w
        weights.append(w)
    return np.asarray(weights)


def _mixture(coeffs: np.ndarray, scale: float, x: np.ndarray) -> np.ndarray:
    """sum_j c_j t_j at y = scale*x, with t_j = e^-y y^j / j! the gamma(j+1) terms.

    All terms are nonnegative, so there is no cancellation.  With c the
    Poisson weights this is the density over a of the power gain at
    y = a*x; with c the Poisson upper tails P[N >= j], the survival,
    since by parts sum_j w_j Q(j+1, y) = sum_i P[N >= i] t_i, Q the
    regularized upper incomplete gamma.

    The sum is taken by Horner's rule, three in-place passes a term,
    from whichever end keeps it in range.  Up to :data:`_HORNER_SPLIT`
    it runs from the last term down: the partial sums stay below
    sum_j y^j/j! = e^y, and the factor e^-y is applied once at the end.
    Above it, where e^-y heads for underflow, it runs from the first
    term up, with every ratio j/y below 1, and ends with the Poisson(y)
    probability of the last index.  A product scale*x past the float
    range is +inf, where every term has the limit 0.
    """
    with np.errstate(over="ignore"):
        y = scale * x
    if y.max(initial=0.0) <= _HORNER_SPLIT:
        return _horner_down(coeffs, y)
    low = y <= _HORNER_SPLIT
    high = ~low
    s = np.empty_like(y)
    s[low] = _horner_down(coeffs, y[low])
    # at +inf a term would be inf * 0; at the largest float every term is 0, its limit
    s[high] = _horner_up(coeffs, np.minimum(y[high], _FLOAT_MAX))
    return s


def _horner_down(coeffs: np.ndarray, y) -> np.ndarray:
    """:func:`_mixture` for y <= :data:`_HORNER_SPLIT`, from the last term down."""
    c = coeffs.tolist()
    s = c[-1]
    for j in range(len(c) - 1, 0, -1):
        s *= y  # the first pass makes s an array shaped like y
        s *= 1.0 / j
        s += c[j - 1]
    s *= np.exp(-y)
    return s


def _horner_up(coeffs: np.ndarray, y) -> np.ndarray:
    """:func:`_mixture` for y > :data:`_HORNER_SPLIT`, from the first term up."""
    c = coeffs.tolist()
    n = len(c) - 1
    inv_y = 1.0 / y
    s = c[0]
    for j in range(1, n + 1):
        s *= inv_y  # the first pass makes s an array shaped like y
        s *= j
        s += c[j]
    s *= np.exp(n * np.log(y) - y - math.lgamma(n + 1))
    return s


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _survival(tails: np.ndarray, scale: float, x: np.ndarray) -> np.ndarray:
    """Survival sum_j Pois(j; mean) Q(j+1, y) at y = scale*x from a link's
    :attr:`RicianLink._tails`, to within :data:`KERNEL_TOL`.

    The tails carry the weight left out on the last Q(n+1, y): Q
    increases toward 1 in j, so the truncation error stays below the
    tolerance, and the first tail is exactly 1, so the survival at
    y = 0 is exactly 1.
    """
    return np.minimum(_mixture(tails, scale, x), 1.0)


def _as_result(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def power_gain_pdf(link: RicianLink, x):
    """Density of the power gain at x (scalar or array).

    a times the Poisson(K) mixture of gamma(j+1) densities at a*x, the
    series form of a*exp(-K - a*x)*I0(2*sqrt(K*a*x)).  Each gamma
    density is at most 1, so the weight left out bounds the error by
    a * :data:`KERNEL_TOL`.
    """
    x = _check_nonneg(x)
    a = link.inv_scale
    return _as_result(a * _mixture(link._weights, a, x))


def power_gain_sf(link: RicianLink, x):
    """Survival P[gain > x] = Q1(sqrt(2K), sqrt(2*a*x)), to within
    :data:`KERNEL_TOL`."""
    x = _check_nonneg(x)
    return _as_result(_survival(link._tails, link.inv_scale, x))


def power_gain_cdf(link: RicianLink, x):
    """Distribution function P[gain <= x], complement of
    :func:`power_gain_sf`, to within :data:`KERNEL_TOL`."""
    x = _check_nonneg(x)
    return _as_result(1.0 - _survival(link._tails, link.inv_scale, x))
