"""Rician fading power-gain model.

One link is parameterized by the Rician factor K (line-of-sight to
diffuse power ratio) and the mean power gain Omega = E[|h|^2].  The
squared magnitude of the channel coefficient is then a scaled
noncentral chi-square variate with two degrees of freedom, and every
distribution function here is expressed through the convergent series

    f(x) = A * sum_n B(n) x^n e^(-a x),   a = (1+K)/Omega,  A = a e^(-K),
    B(n) = K^n (1+K)^n / (Omega^n (n!)^2),

whose coefficients are exposed through :func:`series_constants`.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, InvalidKFactor, InvalidPower, ModelAssumptionWarning

__all__ = [
    "RicianLink",
    "SeriesConstants",
    "NetworkGeometry",
    "make_link",
    "sample_power_gains",
    "power_gain_pdf",
    "power_gain_cdf",
    "power_gain_sf",
    "marcum_q1",
    "series_constants",
    "split_stream",
]

# Hard cap on the open-ended Poisson-mixture series; the loop normally
# stops much earlier via the cumulative-weight criterion.
_SERIES_CAP = 100_000


@dataclass(frozen=True)
class RicianLink:
    """One fading link: Rician factor K and mean power gain Omega.

    ``k_factor`` is dimensionless, >= 0 (0 is Rayleigh fading); the
    sampled power gain has mean ``mean_power``.
    """

    k_factor: float
    mean_power: float

    def __post_init__(self):
        if not (self.k_factor >= 0.0) or not math.isfinite(self.k_factor):
            raise InvalidKFactor(f"k_factor must be finite and >= 0, got {self.k_factor}")
        if not (self.mean_power > 0.0) or not math.isfinite(self.mean_power):
            raise InvalidPower(f"mean_power must be finite and > 0, got {self.mean_power}")

    @property
    def inv_scale(self) -> float:
        """Inverse power gain a = (1+K)/Omega."""
        return (1.0 + self.k_factor) / self.mean_power

    @property
    def los_power(self) -> float:
        """Power of the deterministic line-of-sight component."""
        return self.k_factor * self.mean_power / (self.k_factor + 1.0)

    @property
    def diffuse_var(self) -> float:
        """Per-component variance of the diffuse Gaussian part."""
        return self.mean_power / (2.0 * (self.k_factor + 1.0))


@dataclass(frozen=True)
class SeriesConstants:
    """Coefficients of the power-gain density series for one link.

    ``b[n]`` holds B(n), ``b_tilde[n]`` holds B(n)/a^(n+1); both arrays
    run from n = 0 to n = n_max inclusive.
    """

    a: float
    big_a: float
    b: np.ndarray
    b_tilde: np.ndarray


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
                stacklevel=2,
            )


def make_link(k_factor: float, mean_power: float) -> RicianLink:
    """Validated constructor for :class:`RicianLink`."""
    return RicianLink(float(k_factor), float(mean_power))


def split_stream(seed: int, stream_index: int) -> np.random.Generator:
    """Derive an independent random stream from a master seed.

    Stream b is ``default_rng(SeedSequence([seed, b]))``.  Distinct
    indices give statistically independent streams, so blocks of a
    simulation can run in any order (or in parallel) and still be a
    pure function of (seed, index).
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream_index)]))


def sample_power_gains(link: RicianLink, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n instantaneous power gains |h|^2.

    h = mu + g with mu = sqrt(K*Omega/(K+1)) and g circularly-symmetric
    complex Gaussian whose real/imaginary parts each have variance
    Omega/(2(K+1)).  Exact construction, no inverse-CDF approximation.
    """
    mu = math.sqrt(link.los_power)
    sd = math.sqrt(link.diffuse_var)
    z = rng.standard_normal((2, n))
    re = mu + sd * z[0]
    im = sd * z[1]
    return re * re + im * im


def _check_nonneg(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("power gain argument must be >= 0")
    return x


def power_gain_pdf(link: RicianLink, x):
    """Density of the power gain at x (scalar or array).

    Closed Bessel form a*exp(-K - a*x)*I0(2*sqrt(K*a*x)), evaluated
    through the exponentially-scaled I0 so large K*a*x cannot overflow.
    """
    x = _check_nonneg(x)
    a = link.inv_scale
    z = 2.0 * np.sqrt(link.k_factor * a * x)
    # -K - a*x + z = -(sqrt(K) - sqrt(a*x))^2 <= 0
    out = a * np.exp(-link.k_factor - a * x + z) * special.i0e(z)
    return float(out) if out.ndim == 0 else out


def _poisson_mixture_sf(half_nc: float, y, tol: float) -> np.ndarray:
    """Survival of a unit-scale noncentral chi-square(2) at 2*y.

    sum_j Pois(j; half_nc) * Q(j+1, y) with Q the regularized upper
    incomplete gamma, iterated until the remaining Poisson weight is
    below ``tol``.  All terms are nonnegative, so no cancellation.
    """
    y = np.asarray(y, dtype=float)
    pois = math.exp(-half_nc)
    t = np.exp(-y)          # e^-y y^j / j!
    q = t.copy()            # Q(j+1, y)
    total = pois * q
    wsum = pois
    j = 0
    while wsum < 1.0 - tol and j < _SERIES_CAP:
        j += 1
        pois *= half_nc / j
        wsum += pois
        t *= y / j
        q += t
        total += pois * q
    # Q(j+1, y) increases toward 1 in j, so settling the outstanding
    # Poisson mass at the last Q bounds the truncation error by tol and
    # makes the y = 0 boundary (all Q = 1) exact.
    total += (1.0 - wsum) * q
    return np.clip(total, 0.0, 1.0)


def marcum_q1(a: float, b, tol: float = 1e-13) -> float:
    """First-order Marcum Q function Q1(a, b).

    Convergent Poisson-mixture series; the truncation tail is bounded
    by ``tol`` (default well below 1e-12).
    """
    if a < 0.0:
        raise DomainError("marcum_q1 requires a >= 0")
    b = _check_nonneg(b)
    out = _poisson_mixture_sf(0.5 * a * a, 0.5 * b * b, tol)
    return float(out) if out.ndim == 0 else out


def power_gain_sf(link: RicianLink, x, tol: float = 1e-13):
    """Survival P[gain > x] = Q1(sqrt(2K), sqrt(2*a*x))."""
    x = _check_nonneg(x)
    out = _poisson_mixture_sf(link.k_factor, link.inv_scale * x, tol)
    return float(out) if out.ndim == 0 else out


def power_gain_cdf(link: RicianLink, x, tol: float = 1e-13):
    """Distribution function P[gain <= x], complement of :func:`power_gain_sf`."""
    x = _check_nonneg(x)
    out = 1.0 - _poisson_mixture_sf(link.k_factor, link.inv_scale * x, tol)
    return float(out) if out.ndim == 0 else out


def series_constants(link: RicianLink, n_max: int) -> SeriesConstants:
    """Coefficients B(0..n_max) and B~(0..n_max) for one link.

    Per-term recurrences B(n) = B(n-1)*K*(1+K)/(Omega*n^2) and
    B~(n) = B~(n-1)*K/n^2 avoid explicit factorials.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    k = link.k_factor
    a = link.inv_scale
    b = np.empty(n_max + 1)
    bt = np.empty(n_max + 1)
    b[0] = 1.0
    bt[0] = 1.0 / a
    for n in range(1, n_max + 1):
        b[n] = b[n - 1] * k * a / (n * n)
        bt[n] = bt[n - 1] * k / (n * n)
    return SeriesConstants(a=a, big_a=a * math.exp(-k), b=b, b_tilde=bt)
