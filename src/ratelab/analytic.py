"""Closed-form rate machinery and an independent quadrature oracle.

Three kinds of objects live here:

* truncated-series CDFs of the composite variates driving the rate
  analysis: gamma_1 = min(lambda_RD, lambda_SR) and gamma_2 = lambda_SD
  (:func:`cdf_min_pair_series`, :func:`cdf_single_link_series`), plus
  the two as-published forms that deviate from them
  (:func:`cdf_min_pair_approx`, :func:`cdf_gamma2_paper`);
* the ergodic-rate series :func:`h_rho` / :func:`g_rho`, over an exact
  moment kernel, and their combination :func:`ergodic_rate_series`;
* :func:`ergodic_rate_quadrature_quantities`, a deterministic
  numerical-integration oracle: vectorised trapezoidal rules in ln x
  over bounded spans, with fixed Gauss-Legendre inner rules where a
  rate mixes two gains.

Both return a :class:`ratelab.rates.RateBreakdown` of ergodic rates.
What the oracle and the series share is the Poisson(K) mixture of the
single-link power gain in :mod:`ratelab.channel`: the oracle and the
series CDFs take their survivals and densities from it, and the rate
series their weights, from its one truncation
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


def _log_power(log_base: float, k: np.ndarray) -> np.ndarray:
    """k * log_base, the log of base^k; the power k = 0 is 1 also where
    the base underflows to 0 (log_base = -inf)."""
    if log_base > -math.inf:
        return k * log_base
    return np.where(k == 0, 0.0, -math.inf)


def h_rho(link_a: RicianLink, link_b: RicianLink, rho: float) -> float:
    """Series for E[ln(1 + rho*min(X_a, X_b))] (nats).

    Double series over the two links' coefficients with the exact moment
    kernel at c = (a_a + a_b)/rho; (1/(2 ln 2)) * h_rho is the
    relayed-symbol ergodic rate.  Its only error is the Poisson(K) weight
    each link's series leaves out, :data:`ratelab.channel.KERNEL_TOL`.
    Up to K = :data:`ratelab.channel.MAX_NONCENTRALITY` a link's series
    has at most 674 terms, so the matrix built here stays under 4 MB.
    """
    rho = _check_rho_pos(rho)
    aa, ab = link_a.inv_scale, link_b.inv_scale
    wa = poisson_weights(link_a.k_factor)
    wb = poisson_weights(link_b.k_factor)
    na, nb = len(wa), len(wb)
    # c = a_a/rho + a_b/rho, as a_a + a_b may overflow; an infinite c gives G = 0
    g = _moment_kernel(na + nb - 2, aa / rho + ab / rho)
    # W[i,j] = C(i+j, i) p^i q^j G[i+j]; a binomial pmf term, never large.
    # ln p and ln q stay defined where one inverse scale dwarfs the other.
    i = np.arange(na)[:, None]
    j = np.arange(nb)[None, :]
    log_fact = np.cumsum(np.log(np.maximum(np.arange(na + nb - 1), 1)))  # ln k!, k = 0..na+nb-2
    log_binom = log_fact[i + j] - log_fact[i] - log_fact[j]
    log_pq = _log_power(-math.log1p(ab / aa), i) + _log_power(-math.log1p(aa / ab), j)
    w = np.exp(log_binom + log_pq) * g[i + j]
    inner = np.cumsum(np.cumsum(w, axis=0), axis=1)
    return float(wa @ inner @ wb)


def g_rho(link_z: RicianLink, link_y: RicianLink | None, rho: float) -> float:
    """Series for the direct-symbol log-rate term (nats).

    With two links this is :func:`h_rho` over the (z, y) constants,
    matching the printed form.  Passing ``link_y=None`` evaluates the
    single-link variant over ``link_z`` alone, E[ln(1 + rho*X_z)], with
    the same moment kernel at c = a_z/rho; the corrected pipeline feeds
    the S-D link that way since gamma_2 is one link, not a pair.
    """
    if link_y is not None:
        return h_rho(link_z, link_y, rho)
    rho = _check_rho_pos(rho)
    w = poisson_weights(link_z.k_factor)
    g = _moment_kernel(len(w) - 1, link_z.inv_scale / rho)
    return float(w @ np.cumsum(g))


def ergodic_rate_series(geometry: NetworkGeometry, rho: float, *, literal: bool = False) -> RateBreakdown:
    """Paper-mode CRS-NOMA ergodic rates from the series; the total is
    (h + 2g)/(2 ln 2).

    ``literal=False`` (corrected): H over (S-R, R-D) and G over the S-D
    link alone, matching the variates gamma_1 and gamma_2.
    ``literal=True``: H over (S-D, S-R) and G over (R-D, S-R), exactly
    as the symbols appear in the published expressions.
    """
    if literal:
        h = h_rho(geometry.sd, geometry.sr, rho)
        g = g_rho(geometry.rd, geometry.sr, rho)
    else:
        h = h_rho(geometry.sr, geometry.rd, rho)
        g = g_rho(geometry.sd, None, rho)
    c_d = g / (2.0 * LN2)
    return RateBreakdown(h / (2.0 * LN2), c_d, c_d)


# ---------------------------------------------------------------------------
# Deterministic quadrature oracle
# ---------------------------------------------------------------------------

# Node counts of the fixed inner rules of the two schemes that mix two
# gains; at K in {0, 3, 10} and 5-25 dB they match nested adaptive
# quadrature to about 1e-13 bit/s/Hz.
_EXACT_INNER_NODES = 256
_OMA_INNER_NODES = 64

# The outer integrals run over [lo, hi] with lo = _CUT_MASS / max(rho, 1):
# every integrand is at most max(rho, 1), so the mass cut below lo is under
# 1e-18.  Past (sqrt(K) + _SF_REACH)^2 / a a link's survival is below 1e-20,
# since Q1(alpha, beta) <= exp(-(beta - alpha)^2 / 2).
_CUT_MASS = 1e-18
_SF_REACH = 6.8
# Refinement levels of the trapezoid in ln x; each halves the step.  The
# fig3/fig4 spans take 105-120 first-rule steps, so level 7 evaluates
# 64 x that many new nodes.  _quad reads it on every call.  A level never
# evaluates more than _MAX_LEVEL_NODES new nodes: times the 256 exact-mode
# inner points, one survival call stays at or below 2.1 M points.
MAX_QUAD_LEVELS = 7
_MAX_LEVEL_NODES = 8192


@functools.cache
def _unit_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on (0, 1).

    Built on first use, so importing the module computes no rule.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _reach(link: RicianLink) -> float:
    """Point past which the link's survival is below 1e-20."""
    return (math.sqrt(link.k_factor) + _SF_REACH) ** 2 / link.inv_scale


def _quad(f, lo: float, hi: float) -> float:
    """int_lo^hi f(x) dx by the trapezoidal rule in t = ln x.

    ``f`` maps an array of x to an array.  The first rule steps by at
    most 0.5 in t; each of up to :data:`MAX_QUAD_LEVELS` refinement
    levels halves the step and evaluates ``f`` once, on the new
    midpoints.  Returns the first level that agrees with the one before
    it to max(1e-13, 1e-10*|T|).  Raises :class:`ConvergenceError` when
    no level within :data:`MAX_QUAD_LEVELS` does, or when the next level
    would evaluate more than ``_MAX_LEVEL_NODES`` nodes, and
    :class:`DomainError` when ln(lo) or ln(hi) is not finite.  A span
    with hi <= lo integrates to 0.
    """
    if hi <= lo:
        return 0.0
    if not (lo > 0.0 and math.isfinite(hi)):
        raise DomainError(f"integration span [{lo:.3g}, {hi:.3g}] is out of floating-point range")
    t_lo = math.log(lo)
    span = math.log(hi) - t_lo
    n = math.ceil(2.0 * span)
    h = span / n
    x = np.exp(t_lo + h * np.arange(n + 1))
    g = x * f(x)
    total, gap = h * float(g.sum() - 0.5 * (g[0] + g[-1])), math.inf
    for level in range(MAX_QUAD_LEVELS):
        if n > _MAX_LEVEL_NODES:
            raise ConvergenceError(f"quadrature stopped after {level} refinement level(s): the next "
                                   f"needs {n} nodes, over {_MAX_LEVEL_NODES}; last gap between levels {gap:.3g}")
        x = np.exp(t_lo + h * (np.arange(n) + 0.5))
        prev, total = total, 0.5 * (total + h * float(np.sum(x * f(x))))
        h, n = 0.5 * h, 2 * n
        gap = abs(total - prev)
        if gap <= max(1e-13, 1e-10 * abs(total)):
            return total
    raise ConvergenceError(f"quadrature did not converge within {MAX_QUAD_LEVELS} refinement level(s); "
                           f"last gap between levels {gap:.3g}")


def ergodic_rate_quadrature_quantities(
    geometry: NetworkGeometry,
    rho: float,
    scheme: str,
    split: PowerSplit | None = None,
) -> RateBreakdown:
    """All five ergodic rate quantities of one :data:`~ratelab.rates.RATES`
    token, by integration.

    Survivals are built from the Marcum-Q single-link survival; min
    terms are survival products.  Every rate is a one-dimensional
    integral over the survival of the limiting SNR, taken by the
    trapezoidal rule in ln x with step halving over a finite span: from
    1e-18/max(rho, 1) up to the point where the survival of a bounding
    link falls below 1e-20.  The first rule steps by at most 0.5 in ln x,
    and each refinement level halves the step, making one vectorised
    survival call per link on the new nodes.  A rate stops at the first
    level that agrees with the one before it to 1e-10 relative (1e-13
    absolute); when none of the :data:`MAX_QUAD_LEVELS` levels does, or a
    level would evaluate more than 8192 new nodes,
    :class:`ConvergenceError` is raised.

    The exact-mode relay SNR and the CRS-OMA combined branch mix two
    independent gains; their survival at each outer node comes from a
    fixed Gauss-Legendre rule over the S-D gain (256 nodes on
    s = Omega_SD*u/(1-u) for exact mode, 64 nodes on [0, w] for the
    CRS-OMA convolution).  That inner rule agrees with nested adaptive
    quadrature to about 1e-13 bit/s/Hz.
    """
    rho = _check_rho_pos(rho)
    if scheme not in RATES:
        raise DomainError(f"scheme must be one of {tuple(RATES)}, got {scheme!r}")
    sr, rd, sd = geometry.sr, geometry.rd, geometry.sd
    family, mode = RATES[scheme]
    lo = _CUT_MASS / max(rho, 1.0)

    def half_rate(survival, hi):
        """0.5 E[log2(1 + rho*X)] = (0.5/ln2) int_0^inf rho*S(x)/(1+rho*x) dx."""
        return 0.5 * _quad(lambda x: rho * survival(x) / (1.0 + rho * x), lo, hi) / LN2

    if family == "crs_noma":
        c_direct = half_rate(lambda x: power_gain_sf(sd, x), _reach(sd))
        if mode == "paper":
            c_relay = half_rate(lambda x: power_gain_sf(sr, x) * power_gain_sf(rd, x),
                                min(_reach(sr), _reach(rd)))
        else:
            # Y = min(lambda_SR, lambda_RD/(1 + rho*lambda_SD));
            # S_Y(y) = S_SR(y) * E over lambda_SD of S_RD(y*(1+rho*s)).
            # The expectation maps s = Omega_SD*u/(1-u) onto u in (0, 1);
            # its weights carry the Jacobian and the S-D density.
            u, wu = _unit_gauss_legendre(_EXACT_INNER_NODES)
            s = sd.mean_power * u / (1.0 - u)
            ws = wu * sd.mean_power / (1.0 - u) ** 2 * power_gain_pdf(sd, s)
            snr_scale = 1.0 + rho * s

            def s_y(y):
                # at huge mean powers this overflows to inf, the right
                # limit: the kernel gives S_RD(inf) = 0
                with np.errstate(over="ignore"):
                    scaled = y[:, None] * snr_scale
                return power_gain_sf(sr, y) * (power_gain_sf(rd, scaled) @ ws)

            c_relay = half_rate(s_y, min(_reach(sr), _reach(rd)))
        return RateBreakdown(c_relay, c_direct, c_direct)

    if scheme == "conventional":
        _check_split(split)
        a1, a2 = split.a1, split.a2
        # s1 passes through the increasing map g(w) = a1*rho*w/(a2*rho*w+1)
        # of W = min(lambda_SD, lambda_SR), which collapses the min of the
        # two decode rates to one integral:
        # c_s1 = (a1*rho/(2 ln2)) int S_SD S_SR / ((a2*rho*w+1)(rho*w+1)) dw
        def s1_integrand(w):
            # At a huge rho the denominator can overflow to inf, making the
            # integrand 0, which is its limit: up to a factor 4 the
            # denominator is a2*(rho*w)^2, so it overflows only where
            # rho*w > sqrt(DBL_MAX/a2)/2, and there a node adds less than
            # a1/(ln2*sqrt(a2*DBL_MAX)) per unit of ln w to c_s1, below
            # 1e-140 bit/s/Hz for any a2 >= 1e-20.
            with np.errstate(over="ignore"):
                denominator = (a2 * rho * w + 1.0) * (rho * w + 1.0)
            return power_gain_sf(sd, w) * power_gain_sf(sr, w) / denominator

        c_s1 = a1 * rho / (2.0 * LN2) * _quad(s1_integrand, lo, min(_reach(sd), _reach(sr)))
        # s2 is limited by min(a2*lambda_SR, lambda_RD) at full rho.
        c_s2 = half_rate(lambda v: power_gain_sf(sr, v / a2) * power_gain_sf(rd, v),
                         min(a2 * _reach(sr), _reach(rd)))
        return RateBreakdown(c_s1, 0.0, c_s2)

    # crs_oma: W = min(lambda_SR, lambda_SD + lambda_RD); the branch sum
    # needs one convolution level: P[SD+RD > w] = S_SD(w) + int_0^w
    # S_RD(w-s) f_SD(s) ds, taken on s = w*v with v in (0, 1).
    v, wv = _unit_gauss_legendre(_OMA_INNER_NODES)

    def s_sum(w):
        wc = w[:, None]
        inner = w * ((power_gain_sf(rd, wc * (1.0 - v)) * power_gain_pdf(sd, wc * v)) @ wv)
        return np.minimum(power_gain_sf(sd, w) + inner, 1.0)

    c_total = half_rate(lambda w: power_gain_sf(sr, w) * s_sum(w), _reach(sr))
    return RateBreakdown(c_total, 0.0, 0.0)
