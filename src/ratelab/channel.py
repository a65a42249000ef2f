"""Rician fading power-gain model.

One link is parameterized by the Rician factor K (line-of-sight to
diffuse power ratio) and the mean power gain Omega = E[|h|^2].  The
squared magnitude of the channel coefficient is then a scaled
noncentral chi-square variate with two degrees of freedom, and every
distribution function here is expressed through the convergent series

    f(x) = A * sum_n B(n) x^n e^(-a x),   a = (1+K)/Omega,  A = a e^(-K),
    B(n) = K^n (1+K)^n / (Omega^n (n!)^2),

that is, a Poisson(K) mixture of gamma(n+1) densities at a*x.  One
kernel, :func:`poisson_mixture`, evaluates that mixture for the
survival, the distribution function, the density and the Marcum Q
function here, and for the truncated series of
:mod:`ratelab.analytic`, which also takes its Poisson weights from
:func:`poisson_weights`.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidKFactor, InvalidPower, ModelAssumptionWarning

__all__ = [
    "MAX_NONCENTRALITY",
    "KERNEL_TOL",
    "RicianLink",
    "NetworkGeometry",
    "make_link",
    "sample_power_gains",
    "power_gain_pdf",
    "power_gain_cdf",
    "power_gain_sf",
    "marcum_q1",
    "poisson_mixture",
    "poisson_weights",
    "split_stream",
]

# Largest Poisson mean K (half the chi-square noncentrality; a^2/2 for
# Marcum Q1(a, b)) the kernel accepts.  Past it e^-K and e^-y head for
# underflow: against the noncentral chi-square survival, the survival is
# 1.6e-12 off at K = 500, 1.1e-10 at K = 520 and 0.12 at K = 700.
MAX_NONCENTRALITY = 500.0

# Poisson weight the survival, distribution function, density and Marcum
# Q function may leave out; it bounds each one's truncation error.
KERNEL_TOL = 1e-13


@dataclass(frozen=True)
class RicianLink:
    """One fading link: Rician factor K and mean power gain Omega.

    ``k_factor`` is dimensionless, >= 0 (0 is Rayleigh fading); the
    sampled power gain has mean ``mean_power``, refused where the
    inverse scale (1 + K)/Omega overflows.
    """

    k_factor: float
    mean_power: float

    def __post_init__(self):
        if not (self.k_factor >= 0.0) or not math.isfinite(self.k_factor):
            raise InvalidKFactor(f"k_factor must be finite and >= 0, got {self.k_factor}")
        if not (0.0 < self.mean_power < math.inf and self.inv_scale < math.inf):
            raise InvalidPower(f"mean_power and (1 + K)/mean_power must be finite and > 0, got {self.mean_power}")

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


def sample_power_gains(link: RicianLink, rng: np.random.Generator, n: int, *, work=None) -> np.ndarray:
    """Draw n instantaneous power gains |h|^2.

    h = mu + g with mu = sqrt(K*Omega/(K+1)) and g circularly-symmetric
    complex Gaussian whose real/imaginary parts each have variance
    Omega/(2(K+1)).  Exact construction, no inverse-CDF approximation.
    With ``work``, a block workspace (see :mod:`ratelab.montecarlo`),
    the gains are written to its rows, with the same floats.
    """
    mu = math.sqrt(link.los_power)
    sd = math.sqrt(link.diffuse_var)
    z = rng.standard_normal((2, n))
    out, s = (None, None) if work is None else (work.take(), work.scratch)
    re = np.add(mu, np.multiply(sd, z[0], out=out), out=out)
    im = np.multiply(sd, z[1], out=s)
    return np.add(np.multiply(re, re, out=out), np.multiply(im, im, out=s), out=out)


def _check_nonneg(x, name: str = "power gain argument") -> np.ndarray:
    """``x`` as a float array; one pass refuses a negative or NaN element, +inf passes."""
    x = np.asarray(x, dtype=float)
    if not (x >= 0.0).all():
        raise DomainError(f"{name} must be >= 0 and not NaN")
    return x


def poisson_weights(mean: float, tail_tol: float) -> tuple[np.ndarray, float]:
    """Poisson(mean) weights w_0..w_n and the weight they cover.

    These are the series coefficients A * B~(n) * n! of one link at
    mean = K, by the pmf recurrence w_j = w_(j-1) * mean / j.  The
    weights stop at the first n whose covered weight sum_j w_j reaches
    1 - ``tail_tol``, or where a weight no longer changes the covered
    sum in floating point (a ``tail_tol`` below the rounding of that
    sum).  Either comes within a few hundred terms: at the largest
    mean, :data:`MAX_NONCENTRALITY`, there are 666 weights at
    ``tail_tol`` 1e-12 and 694 at 1e-300.  Raises :class:`DomainError`
    for a mean above :data:`MAX_NONCENTRALITY` and for a ``tail_tol``
    outside (0, 1), which would keep a single weight.
    """
    if not 0.0 < tail_tol < 1.0:
        raise DomainError(f"tail_tol must be in (0, 1), got {tail_tol}")
    if not mean <= MAX_NONCENTRALITY:
        raise DomainError(f"noncentrality K = {mean:.6g} is above {MAX_NONCENTRALITY:g}, "
                          "where the Poisson-mixture series underflows")
    w = math.exp(-mean)
    weights = [w]
    covered = w
    j = 0
    while covered < 1.0 - tail_tol:
        j += 1
        w *= mean / j
        if covered + w == covered:
            break
        covered += w
        weights.append(w)
    return np.asarray(weights), covered


def poisson_mixture(mean: float, y, tol: float, density: bool = False):
    """One pass over the Poisson(mean) mixture of gamma(j+1) terms at y.

    With the weights w_j of :func:`poisson_weights` at ``tol`` and the
    terms t_j = e^-y y^j / j!, returns ``(s, covered, q)``:

    * s = sum_j w_j Q(j+1, y), Q the regularized upper incomplete
      gamma, Q(j+1, y) = t_0 + ... + t_j; with ``density``,
      s = sum_j w_j t_j instead, and no Q is accumulated;
    * covered = sum_j w_j, the Poisson weight the pass took in;
    * q, the last Q(j+1, y) (the last t_j with ``density``).

    s is the partial sum over the covered weight; all terms are
    nonnegative, so there is no cancellation.  At mean = K and y = a*x
    it is the survival, or the density over a, of the link's power
    gain, short of the outstanding mass 1 - covered.
    """
    w, covered = poisson_weights(mean, tol)
    y = np.asarray(y, dtype=float)
    t = np.exp(-y)
    if density:
        s = w[0] * t
        for j in range(1, len(w)):
            t *= y / j
            s += w[j] * t
        return s, covered, t
    q = t.copy()
    s = w[0] * q
    for j in range(1, len(w)):
        t *= y / j
        q += t
        s += w[j] * q
    return s, covered, q


def _settled_sf(mean: float, y) -> np.ndarray:
    """Survival sum_j Pois(j; mean) Q(j+1, y), to within :data:`KERNEL_TOL`.

    Q(j+1, y) increases toward 1 in j, so settling the outstanding
    Poisson mass at the last Q bounds the truncation error by the
    tolerance and makes the y = 0 boundary (all Q = 1) exact.
    """
    sf, covered, q = poisson_mixture(mean, y, KERNEL_TOL)
    return np.clip(sf + (1.0 - covered) * q, 0.0, 1.0)


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
    pdf, _, _ = poisson_mixture(link.k_factor, a * x, KERNEL_TOL, density=True)
    return _as_result(a * pdf)


def marcum_q1(a: float, b) -> float:
    """First-order Marcum Q function Q1(a, b).

    Convergent Poisson-mixture series at mean a^2/2 (at most
    :data:`MAX_NONCENTRALITY`); the truncation tail is bounded by
    :data:`KERNEL_TOL`.
    """
    a = float(_check_nonneg(a, "marcum_q1 argument a"))
    b = _check_nonneg(b, "marcum_q1 argument b")
    return _as_result(_settled_sf(0.5 * a * a, 0.5 * b * b))


def power_gain_sf(link: RicianLink, x):
    """Survival P[gain > x] = Q1(sqrt(2K), sqrt(2*a*x)), to within
    :data:`KERNEL_TOL`."""
    x = _check_nonneg(x)
    return _as_result(_settled_sf(link.k_factor, link.inv_scale * x))


def power_gain_cdf(link: RicianLink, x):
    """Distribution function P[gain <= x], complement of
    :func:`power_gain_sf`, to within :data:`KERNEL_TOL`."""
    x = _check_nonneg(x)
    return _as_result(1.0 - _settled_sf(link.k_factor, link.inv_scale * x))
