"""Closed-form rate machinery and an independent quadrature oracle.

Three kinds of objects live here:

* truncated-series CDFs of the composite variates driving the rate
  analysis: gamma_1 = min(lambda_RD, lambda_SR) and gamma_2 = lambda_SD
  (:func:`cdf_min_pair_series`, :func:`cdf_single_link_series`), plus
  the two as-published forms that deviate from them
  (:func:`cdf_min_pair_approx`, :func:`cdf_gamma2_paper`);
* the ergodic-rate series :func:`h_rho` / :func:`g_rho`, each a
  coefficient vector times an exact moment kernel, and their
  combination :func:`ergodic_rate_series`;
* :func:`ergodic_rate_quadrature_quantities`, a deterministic
  numerical-integration oracle: every rate one half-rate integral of a
  survival, by a vectorised trapezoidal rule in ln x over a bounded
  span, with one Gauss-Legendre inner rule over the S-D gain where a
  rate mixes two gains.

Both return a :class:`ratelab.rates.RateBreakdown` of ergodic rates.
What the oracle and the series share is the Poisson(K) mixture of the
single-link power gain in :mod:`ratelab.channel`: the oracle and the
series CDFs take their survivals and densities from it, and the rate
series their coefficients, from the upper tails of its one truncation
:func:`ratelab.channel.poisson_weights`.  Everything else, the
integration rules on one side and the moment kernel on the other, is
separate.

The series have no setting: their depth is the constant
:data:`ratelab.channel.KERNEL_TOL`, and their moment kernel is exact.

The published analysis carries a link-label inconsistency (the
min-pair CDF is printed with S-D/S-R constants although the variate is
min over R-D/S-R, and the single-variate gamma_2 gets a two-link
form).  Both readings are kept: ``literal`` evaluates the symbols as
printed, ``corrected`` feeds the links matching the variates.  The
deviations between the two are data, not bugs; see
:func:`ratelab.sweep.discrepancy_report`.
"""

import functools
import itertools
import math

import numpy as np

from .channel import (NetworkGeometry, RicianLink, _check_nonneg, poisson_weights, power_gain_cdf,
                      power_gain_pdf, power_gain_sf)
from .errors import ConvergenceError, DomainError
from .rates import RATES, PowerSplit, RateBreakdown, _check_rho, _check_split

__all__ = [
    "cdf_min_pair_series",
    "cdf_min_pair_approx",
    "cdf_single_link_series",
    "cdf_gamma2_paper",
    "h_rho",
    "g_rho",
    "ergodic_rate_series",
    "ergodic_rate_quadrature_quantities",
]

LN2 = math.log(2.0)
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def cdf_min_pair_series(link_a: RicianLink, link_b: RicianLink, gamma: float) -> float:
    """CDF of min(X_a, X_b) for independent link gains, by double series.

    1 - A_a A_b sum_{n,k} B~_a(n) B~_b(k) n! k! e^(-(a_a+a_b)g)
        sum_{i<=n, j<=k} a_a^i a_b^j g^(i+j) / (i! j!)

    The inner sums factorize per link, so the double sum is the product
    of the two links' survivals, 1 - S_a(g) S_b(g), each from
    :func:`ratelab.channel.power_gain_sf`.  At K = 0 this collapses to
    1 - e^(-(a_a+a_b)g).
    """
    gamma = float(_check_nonneg(gamma, "gamma"))
    return 1.0 - power_gain_sf(link_a, gamma) * power_gain_sf(link_b, gamma)


def cdf_single_link_series(link: RicianLink, gamma: float) -> float:
    """Single-link gain CDF, :func:`ratelab.channel.power_gain_cdf`; the
    corrected form for gamma_2 = lambda_SD."""
    return power_gain_cdf(link, float(_check_nonneg(gamma, "gamma")))


def cdf_gamma2_paper(link_y: RicianLink, link_z: RicianLink, gamma: float) -> float:
    """As-published two-link form of the gamma_2 CDF, constants (z, y).

    The variate gamma_2 = lambda_SD is one link, yet the published CDF
    carries R-D and S-R constants; this evaluates that printed form so
    it can be diffed against :func:`cdf_single_link_series`.
    """
    return cdf_min_pair_series(link_z, link_y, gamma)


def _log_powers(x: float, n_terms: int) -> np.ndarray:
    """ln(x^j / j!) for j = 0..n_terms-1; -inf for j > 0 at x = 0."""
    out = np.zeros(n_terms)
    if x > 0.0:
        out[1:] = np.cumsum(math.log(x) - np.log(np.arange(1, n_terms)))
    else:
        out[1:] = -math.inf
    return out


def cdf_min_pair_approx(
    link_a: RicianLink,
    link_b: RicianLink,
    gamma: float,
    clamp: bool = True,
) -> float:
    """The simplified as-published min-pair CDF.

    Relative to :func:`cdf_min_pair_series` the printed simplification
    replaces A_x by e^(-K_x), B~ by B, drops the a^i a^j inner powers,
    and damps with e^(-g) instead of e^(-(a_a+a_b)g).  At K = 0 the raw
    value is 1 - e^(-g) regardless of the mean powers.  It is not a
    valid CDF in general: the value is clamped to [0, 1], and
    ``clamp=False`` returns the raw value.

    Each link's sum and their product are taken in log space, so the
    raw value is finite, or -inf where it lies below the float range
    (from K of about 70 at the fig3 powers); it is never NaN.
    """
    gamma = float(_check_nonneg(gamma, "gamma"))
    terms = [len(poisson_weights(link.k_factor)) for link in (link_a, link_b)]
    # ln E_n(g), E_n(g) = sum_{i<=n} g^i/i!
    log_e = np.logaddexp.accumulate(_log_powers(gamma, max(terms)))

    def log_link_sum(link, n):
        # ln sum_n e^-K B(n) n! E_n(g), with B(n) n! = (K a)^n / n!
        x = _log_powers(link.k_factor * link.inv_scale, n) + log_e[:n]
        top = x.max()
        return top + math.log(np.sum(np.exp(x - top))) - link.k_factor

    log_p = log_link_sum(link_a, terms[0]) + log_link_sum(link_b, terms[1]) - gamma
    raw = 1.0 - math.exp(log_p) if log_p < _LOG_FLOAT_MAX else -math.inf
    return min(max(raw, 0.0), 1.0) if clamp else raw


# ---------------------------------------------------------------------------
# Ergodic-rate series
# ---------------------------------------------------------------------------

# Steps the moment kernel's continued fraction may take; over c in
# (1, 1e300] and orders up to 1331 it needed at most 90.
_MAX_FRACTION_TERMS = 500


def _moment_kernel(m_max: int, c: float) -> np.ndarray:
    """G[m] = e^c E_(m+1)(c) (DLMF 8.19) for m = 0..m_max, exact to rounding.

    m! G[m] = int_0^inf t^m e^-t / (t + c) dt is the moment integral of
    the series at c = alpha/rho.  Orders are linked by
    m G[m] + c G[m-1] = 1, which is stable run forward where m >= c and
    backward where m <= c.  So G starts at m0 = 0 when c <= 1, from the
    power series of e^c E_1(c) (DLMF 6.6.2), and otherwise at
    m0 = min(ceil(c), m_max), from the continued fraction of e^c E_n(c)
    (Numerical Recipes, 3rd ed., 6.3) by the modified Lentz method; it
    recurs backward below m0 and forward above it.  At c = inf every
    G[m] is 0, its limit; c = 0, where G[0] diverges, raises
    :class:`DomainError`.
    """
    if not c > 0.0:
        raise DomainError(f"the series need alpha/rho > 0, got {c}")
    out = np.empty(m_max + 1)
    if c <= 1.0:
        m0 = 0
        tail = sum((-c) ** k / (k * math.factorial(k)) for k in range(1, 20))  # last term < 5e-19
        out[0] = math.exp(c) * (-np.euler_gamma - math.log(c) - tail)
    else:
        # c e^c E_n(c), each partial denominator divided by c and each
        # numerator by c^2, so that every quantity stays near 1 also where
        # 1/c is subnormal
        m0 = m_max if c > m_max else math.ceil(c)
        n = m0 + 1
        b = 1.0 + n / c
        d = value = 1.0 / b
        e = math.inf  # Lentz's C: its first step gives C = b
        for i in range(1, _MAX_FRACTION_TERMS + 1):
            a = -i * (n - 1 + i) / c / c
            b = 1.0 + (n + 2 * i) / c
            d = 1.0 / (a * d + b)
            e = b + a / e
            delta = e * d
            value *= delta
            # at c = 1e300, b + 2 == b and |delta - 1| can stay at one
            # rounding of 1, so a test against a bound below eps never stops
            if abs(delta - 1.0) <= np.finfo(float).eps:
                break
        else:
            raise ConvergenceError(f"continued fraction for E_{n}({c:g}) did not converge "
                                   f"within {_MAX_FRACTION_TERMS} terms")
        out[m0] = value / c
    for m in range(m0, 0, -1):
        out[m - 1] = (1.0 - m * out[m]) / c
    for m in range(m0 + 1, m_max + 1):
        out[m] = (1.0 - c * out[m - 1]) / m
    return out


def _check_rho_pos(rho: float) -> float:
    """:func:`ratelab.rates._check_rho`, and rho > 0, which the series and
    the oracle need and the rate functions do not."""
    if _check_rho(rho) == 0.0:
        raise DomainError("rho must be > 0 for the series and the oracle, got 0")
    return float(rho)


def _series(coeffs: np.ndarray, c: float) -> float:
    """sum_m coeffs[m] G[m], G the moment kernel at c; every rate series."""
    return float(coeffs @ _moment_kernel(len(coeffs) - 1, c))


def _rhos(rho) -> list[float]:
    """One rho or a sequence, as a list through :func:`_check_rho_pos`."""
    return [_check_rho_pos(r) for r in ([rho] if np.ndim(rho) == 0 else rho)]


def _rate_series(links: tuple, rhos: list) -> list[float]:
    """E[ln(1 + rho*X)] (nats) at each rho, X one link's gain or a pair's
    min: :func:`_series` at c = sum of a/rho over the links, with the
    coefficients (:func:`g_rho`'s T, :func:`h_rho`'s D) built once."""
    if len(links) == 1:
        coeffs = links[0]._tails
    else:
        ta, tb = links[0]._tails, links[1]._tails
        aa, ab = links[0].inv_scale, links[1].inv_scale
        # W[i, j] = C(i+j, i) p^i q^j, a binomial pmf term, is the running product
        # of its ratios q(i+j)/j from p^i: good to a few roundings, where ln m! (up
        # to 8000) carries 1e-12.  p and q stay defined at any inverse-scale ratio.
        p, q = 1.0 / (1.0 + ab / aa), 1.0 / (1.0 + aa / ab)
        i = np.arange(len(ta))[:, None]
        j = np.arange(len(tb))
        w = np.cumprod(np.hstack((p ** i, q * (i + j[1:]) / j[1:])), axis=1)
        coeffs = np.bincount((i + j).ravel(), (w * np.outer(ta, tb)).ravel())
    # c = a_a/rho + a_b/rho, as a_a + a_b may overflow; an infinite c gives G = 0
    return [_series(coeffs, sum(link.inv_scale / rho for link in links)) for rho in rhos]


def h_rho(link_a: RicianLink, link_b: RicianLink, rho: float) -> float:
    """Series for E[ln(1 + rho*min(X_a, X_b))] (nats).

    sum_m D[m] G[m], G the exact moment kernel at c = (a_a + a_b)/rho and
    D[m] = sum_(i+j=m) C(m, i) p^i q^j Ta[i] Tb[j], p = a_a/(a_a + a_b),
    q = 1 - p and Ta, Tb the links' Poisson(K) upper tails;
    (1/(2 ln 2)) * h_rho is the relayed-symbol ergodic rate.  Its only
    error is the Poisson(K) weight each link's series leaves out,
    :data:`ratelab.channel.KERNEL_TOL`.
    """
    return _rate_series((link_a, link_b), [_check_rho_pos(rho)])[0]


def g_rho(link_z: RicianLink, link_y: RicianLink | None, rho: float) -> float:
    """Series for the direct-symbol log-rate term (nats).

    With two links this is :func:`h_rho` over the (z, y) constants,
    matching the printed form.  Passing ``link_y=None`` evaluates the
    single-link variant over ``link_z`` alone, E[ln(1 + rho*X_z)], as
    sum_m T[m] G[m] over the link's Poisson(K) upper tails T, with the
    moment kernel at c = a_z/rho; the corrected pipeline feeds the S-D
    link that way since gamma_2 is one link, not a pair.
    """
    return _rate_series((link_z,) if link_y is None else (link_z, link_y), [_check_rho_pos(rho)])[0]


def ergodic_rate_series(geometry: NetworkGeometry, rho, *,
                        literal: bool = False) -> RateBreakdown | list[RateBreakdown]:
    """Paper-mode CRS-NOMA ergodic rates from the series; the total is
    (h + 2g)/(2 ln 2).  The series cover that one rate token, so
    :data:`ratelab.sweep.ESTIMATORS` gives both series ``crs_noma_paper``
    alone, and a sweep writes series rows only where it selects it.

    ``literal=False`` (corrected): H over (S-R, R-D) and G over the S-D
    link alone, matching the variates gamma_1 and gamma_2.
    ``literal=True``: H over (S-D, S-R) and G over (R-D, S-R), exactly
    as the symbols appear in the published expressions.

    ``rho`` is one SNR, or a sequence giving a list in its order; the
    coefficients are built once a call, and a rho's floats do not depend
    on the others.
    """
    rhos = _rhos(rho)
    sr, rd, sd = geometry.sr, geometry.rd, geometry.sd
    h_links, g_links = ((sd, sr), (rd, sr)) if literal else ((sr, rd), (sd,))
    rates = []
    for h, g in zip(_rate_series(h_links, rhos), _rate_series(g_links, rhos)):
        c_d = g / (2.0 * LN2)
        rates.append(RateBreakdown(h / (2.0 * LN2), c_d, c_d))
    return rates if np.ndim(rho) else rates[0]


# ---------------------------------------------------------------------------
# Deterministic quadrature oracle
# ---------------------------------------------------------------------------

# Nodes of the one inner rule over the S-D gain; from -10 to 80 dB and at K
# up to 500 they match 1024 nodes to 7e-13 bit/s/Hz.
_INNER_NODES = 64

# The outer integrals run over [lo, hi] with lo = _CUT_MASS / max(rho, 1):
# every integrand is at most max(rho, 1), so the mass cut below lo is under
# 1e-18.  Past (sqrt(K) + _SF_REACH)^2 / a a link's survival is below 1e-20,
# since Q1(alpha, beta) <= exp(-(beta - alpha)^2 / 2).
_CUT_MASS = 1e-18
_SF_REACH = 6.8
# The outer rules' nodes lie on one lattice in t = ln x, t = j*h with
# h = _LATTICE_STEP * 2^-level, and every span is widened outward to it.
# Each refinement level of the trapezoid halves the step, and none
# evaluates more than _MAX_LEVEL_NODES new nodes per rho: times the 64 inner
# nodes, one survival call stays at or below 0.5 M points.  From -20 to
# 100 dB at K up to 500 the fig3/fig4 spans take 84-142 first-rule steps,
# so they refine at most 7 levels.  _quad reads the budget on every call.
_LATTICE_STEP = 0.5
_MAX_LEVEL_NODES = 8192


@functools.cache
def _unit_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on (0, 1).

    The roots x of P_n in [0, 1) come from Newton's method on the
    three-term recurrence, started from Tricomi's estimates (the plain
    Newton form of Hale & Townsend, SIAM J. Sci. Comput. 35, 2013); the
    other roots are their mirror images.  Newton stops at the first
    pass whose step is below 1e-12 at every root, and that last step is
    taken to first order: the distance 1 - x to the end of [-1, 1] and
    the weight 2/((1 - x^2) P_n'(x)^2) are formed at x - step, so the
    nodes near 0 and every weight keep their relative accuracy.  A
    (0, 1) node is (1 +- x)/2 and its weight half the [-1, 1] one.
    Built on first use, so importing the module computes no rule.
    """
    theta = math.pi / (4 * n + 2) * (4.0 * np.arange((n + 1) // 2) + 3.0)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(theta)
    while True:
        p, dp = _legendre(n, x)
        step = p / dp
        if np.abs(step).max() <= 1e-12:
            break
        x -= step
    half_gap = 0.5 * ((1.0 - x) + step)  # (1 - root)/2, increasing as x decreases
    w = 1.0 / (dp * dp * ((1.0 - x) * (1.0 + x) - 2.0 * x * step))
    nodes = np.concatenate((half_gap, (1.0 - half_gap)[::-1][n % 2:]))
    weights = np.concatenate((w, w[::-1][n % 2:]))
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for x in (-1, 1), by the three-term recurrence
    j P_j = (2j - 1) x P_(j-1) - (j - 1) P_(j-2)."""
    p0, p1, p2 = np.ones_like(x), x.copy(), np.empty_like(x)
    for j in range(2, n + 1):
        np.multiply(x, p1, out=p2)
        p2 *= (2 * j - 1) / j
        p0 *= (j - 1) / j
        p2 -= p0
        p0, p1, p2 = p1, p2, p0
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def _reach(link: RicianLink) -> float:
    """Point past which the link's survival is below 1e-20."""
    return (math.sqrt(link.k_factor) + _SF_REACH) ** 2 / link.inv_scale


def _sd_integral(sd: RicianLink, top: np.ndarray, g) -> np.ndarray:
    """int_0^top f_SD(s) g(s) ds at each outer node, by one Gauss-Legendre
    rule on s = top*u, each span ``top`` clipped at the S-D reach; ``g`` maps
    the (nodes x :data:`_INNER_NODES`) matrix of s to an array of its shape."""
    u, wu = _unit_gauss_legendre(_INNER_NODES)
    top = np.minimum(top, _reach(sd))
    s = top[:, None] * u
    # einsum sums each row alike wherever it sits; a BLAS product rounds a
    # row by its position, and the oracle's nodes are slices of a shared set
    return top * np.einsum("ij,j->i", power_gain_pdf(sd, s) * g(s), wu)


def _quad(rhos: list, hi: float, shared, survival=lambda rho, x, s: s) -> list[float]:
    """The half rate 0.5 E[log2(1 + rho*X)] = (0.5/ln2) int rho*S(x)/(1 + rho*x) dx
    in bit/s/Hz at each rho, S(x) = survival(rho, x, shared(x)), by the
    trapezoidal rule in t = ln x over [lo, hi], lo = 1e-18/max(rho, 1).

    In t the integrand is S*x/(x + 1/rho), which no step can overflow.
    Each span is widened outward to the lattice t = j*h, h = 0.5, which
    the first rule steps by; each refinement level halves h and evaluates
    the new midpoints.  The spans share their upper end, so every rho's
    new nodes are a tail of one set, on which the rho-independent
    ``shared`` is evaluated once for all rhos still refining.  A rho stops
    at its first level within max(1e-13, 1e-10*|T|) bit/s/Hz of the one
    before; it fails with :class:`ConvergenceError` when its next level
    would evaluate over ``_MAX_LEVEL_NODES`` nodes, and with
    :class:`DomainError` when ln(lo) or ln(hi) is not finite.  A span with
    hi <= lo integrates to 0.  Value and error depend on the rho's own
    nodes only; a sequence raises the error of its first rho that fails.
    """
    out, start = [], {}  # value or error by rho; lattice index of each open span's first node
    for i, rho in enumerate(rhos):
        lo = _CUT_MASS / max(rho, 1.0)
        if hi <= lo:
            out.append(0.0)
        elif not (lo > 0.0 and math.isfinite(hi)):
            out.append(DomainError(f"integration span [{lo:.3g}, {hi:.3g}] is out of floating-point range"))
        else:
            out.append(None)
            start[i] = math.floor(math.log(lo) / _LATTICE_STEP)

    def per_ln_x(rho, x, s):  # the integrand in t = ln x
        return survival(rho, x, s) * x / (x + 1.0 / rho)

    if start:
        end = math.ceil(math.log(hi) / _LATTICE_STEP)
        h = _LATTICE_STEP
        first = min(start.values())
        x = np.exp(h * np.arange(first, end + 1))
        s = shared(x)
        total, gap = {}, dict.fromkeys(start, math.inf)
        for i, j in start.items():
            g = per_ln_x(rhos[i], x[j - first:], s[j - first:])
            total[i] = h / (2.0 * LN2) * float(g.sum() - 0.5 * (g[0] + g[-1]))
        for level in itertools.count():
            for i in list(start):
                n = (end - start[i]) << level
                if n > _MAX_LEVEL_NODES:
                    out[i] = ConvergenceError(f"quadrature stopped after {level} refinement level(s): the next "
                                              f"needs {n} nodes, over {_MAX_LEVEL_NODES}; last gap between levels "
                                              f"{gap[i]:.3g}")
                    del start[i]
            if not start:
                break
            first = min(start.values()) << level
            x = np.exp(h * (np.arange(first, end << level) + 0.5))
            s = shared(x)
            for i, j in list(start.items()):
                k = (j << level) - first
                prev = total[i]
                total[i] = 0.5 * (prev + h / (2.0 * LN2) * float(np.sum(per_ln_x(rhos[i], x[k:], s[k:]))))
                gap[i] = abs(total[i] - prev)
                if gap[i] <= max(1e-13, 1e-10 * abs(total[i])):
                    out[i] = total[i]
                    del start[i]
            h *= 0.5
    for value in out:
        if isinstance(value, Exception):
            raise value
    return out


def ergodic_rate_quadrature_quantities(
    geometry: NetworkGeometry,
    rho,
    scheme: str,
    split: PowerSplit | None = None,
) -> RateBreakdown | list[RateBreakdown]:
    """All five ergodic rate quantities of one :data:`~ratelab.rates.RATES`
    token, by integration.

    ``rho`` is one SNR, or a sequence giving a list in its order, which
    evaluates each rho-independent survival once for all; a rho's floats
    do not depend on the others.

    Survivals are built from the Marcum-Q single-link survival; min
    terms are survival products.  Every rate is one half rate,
    (rho/(2 ln2)) int S(x)/(1 + rho*x) dx, of the survival S of its
    limiting SNR; for conventional c_s1, S is the survival of
    W = min(lambda_SD, lambda_SR) weighted by a1/(a2*rho*w + 1).  Each
    is taken by the trapezoidal rule in ln x with step halving over a
    finite span: from 1e-18/max(rho, 1) up to the point where the
    survival of a bounding link falls below 1e-20, each end widened
    outward to a lattice of step 0.5 in ln x, which the first rule steps
    by.  Each refinement level halves the step, making one vectorised
    survival call per link on the new nodes.  A rate stops at the first
    level that agrees with the one before it to 1e-10 relative (1e-13
    bit/s/Hz absolute); when none does before a level would evaluate
    more than 8192 new nodes, :class:`ConvergenceError` is raised.

    The exact-mode relay SNR and the CRS-OMA combined branch mix two
    independent gains; their survival at each outer node comes from one
    64-node Gauss-Legendre rule over the S-D gain s on [0, top], top
    clipped at the S-D reach: reach_RD/(rho*y) for exact mode, past which
    S_RD(y*(1 + rho*s)) is below 1e-20, and w for the CRS-OMA convolution.
    It agrees with nested adaptive quadrature to about 1e-13 bit/s/Hz.
    Only the exact-mode inner rule depends on rho.
    """
    rhos = _rhos(rho)
    if scheme not in RATES:
        raise DomainError(f"scheme must be one of {tuple(RATES)}, got {scheme!r}")
    sr, rd, sd = geometry.sr, geometry.rd, geometry.sd
    family, mode = RATES[scheme]

    if family == "crs_noma":
        c_direct = _quad(rhos, _reach(sd), lambda x: power_gain_sf(sd, x))
        if mode == "paper":
            c_relay = _quad(rhos, min(_reach(sr), _reach(rd)), lambda x: power_gain_sf(sr, x) * power_gain_sf(rd, x))
        else:
            # Y = min(lambda_SR, lambda_RD/(1 + rho*lambda_SD)); S_Y(y) =
            # S_SR(y) * E over lambda_SD of S_RD(y + rho*y*s), below 1e-20
            # past s = reach_RD/(rho*y).  That span may overflow (and is then
            # clipped) or underflow to 0.  Over the span y + rho*y*s is at most
            # y + reach_RD, where 1 + rho*s would overflow once rho > ~1e304;
            # only rho*y itself may overflow: S_RD(inf) = 0.
            def s_y(rho, y, s_sr):
                with np.errstate(over="ignore"):
                    inner = _sd_integral(sd, _reach(rd) / rho / y,
                                         lambda s: power_gain_sf(rd, y[:, None] + (rho * y)[:, None] * s))
                return s_sr * inner

            c_relay = _quad(rhos, min(_reach(sr), _reach(rd)), lambda y: power_gain_sf(sr, y), s_y)
        rates = [RateBreakdown(r, d, d) for r, d in zip(c_relay, c_direct)]

    elif scheme == "conventional":
        _check_split(split)
        a1, a2 = split.a1, split.a2
        # s1 passes through the increasing SINR map g(w) = a1*rho*w/(a2*rho*w+1)
        # of W = min(lambda_SD, lambda_SR), which collapses the min of the
        # two decode rates to one half rate: g'/(1 + g) = rho/(rho*w+1) times
        # the weight a1/(a2*rho*w+1), whose denominator may overflow, giving
        # the weight its limit 0.
        def weighted(rho, w, s):
            with np.errstate(over="ignore"):
                return s * (a1 / (a2 * rho * w + 1.0))

        c_s1 = _quad(rhos, min(_reach(sd), _reach(sr)), lambda w: power_gain_sf(sd, w) * power_gain_sf(sr, w),
                     weighted)
        # s2 is limited by min(a2*lambda_SR, lambda_RD) at full rho.
        c_s2 = _quad(rhos, min(a2 * _reach(sr), _reach(rd)), lambda v: power_gain_sf(sr, v / a2) * power_gain_sf(rd, v))
        rates = [RateBreakdown(s1, 0.0, s2) for s1, s2 in zip(c_s1, c_s2)]

    else:
        # crs_oma: W = min(lambda_SR, lambda_SD + lambda_RD), and the branch sum
        # has P[SD+RD > w] = S_SD(w) + int_0^w S_RD(w-s) f_SD(s) ds.
        def s_w(w):
            inner = _sd_integral(sd, w, lambda s: power_gain_sf(rd, w[:, None] - s))
            return power_gain_sf(sr, w) * np.minimum(power_gain_sf(sd, w) + inner, 1.0)

        rates = [RateBreakdown(c, 0.0, 0.0) for c in _quad(rhos, _reach(sr), s_w)]
    return rates if np.ndim(rho) else rates[0]
