"""Closed-form rate machinery and an independent quadrature oracle.

Three kinds of objects live here:

* truncated-series CDFs of the composite variates driving the rate
  analysis: gamma_1 = min(lambda_RD, lambda_SR) and gamma_2 = lambda_SD
  (:func:`cdf_min_pair_series`, :func:`cdf_single_link_series`), plus
  the two as-published forms that deviate from them
  (:func:`cdf_min_pair_approx`, :func:`cdf_gamma2_paper`);
* the Chebyshev-node ergodic-rate series :func:`h_rho` / :func:`g_rho`
  and their combination :func:`ergodic_rate_series`;
* :func:`ergodic_rate_quadrature_quantities`, a deterministic
  numerical-integration oracle that shares nothing with the series path
  beyond the single-link Marcum-Q survival.

Both return a :class:`ratelab.rates.RateBreakdown` of ergodic rates.

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
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .channel import NetworkGeometry, RicianLink, power_gain_pdf, power_gain_sf
from .errors import ConvergenceError, DomainError, TruncationWarning
from .rates import RATES, PowerSplit, RateBreakdown

__all__ = [
    "SeriesTruncation",
    "ClampStats",
    "DEFAULT_TRUNCATION",
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


@dataclass(frozen=True)
class SeriesTruncation:
    """Truncation and quadrature controls for the series machinery.

    ``n_max``/``k_max`` cap the outer/inner series over the two links;
    ``quad_order`` is the Chebyshev node count (decoupled from the
    series indices on purpose); ``tail_tol`` stops a series early once
    the remaining weight drops below it.
    """

    n_max: int = 20
    k_max: int = 20
    quad_order: int = 50
    tail_tol: float = 1e-12

    def __post_init__(self):
        if self.n_max < 0 or self.k_max < 0:
            raise DomainError("n_max and k_max must be >= 0")
        if self.quad_order < 1:
            raise DomainError("quad_order must be >= 1")
        if not self.tail_tol > 0.0:
            raise DomainError("tail_tol must be > 0")


DEFAULT_TRUNCATION = SeriesTruncation()


@dataclass
class ClampStats:
    """Caller-owned counter of CDF values clamped back into [0, 1]."""

    events: int = 0
    max_excess: float = 0.0

    def record(self, raw: float) -> float:
        clamped = min(max(raw, 0.0), 1.0)
        if clamped != raw:
            self.events += 1
            excess = abs(raw - clamped) if math.isfinite(raw) else math.inf
            self.max_excess = max(self.max_excess, excess)
        return clamped


def _clamp(raw: float, stats: ClampStats | None) -> float:
    if stats is not None:
        return stats.record(raw)
    return min(max(raw, 0.0), 1.0)


def _check_gamma(gamma: float) -> float:
    if not gamma >= 0.0:
        raise DomainError(f"gamma must be >= 0, got {gamma}")
    return float(gamma)


def _poisson_weights(k_factor: float, n_max: int, tail_tol: float):
    """Poisson(K) weights up to n_max with early stop.

    These are exactly the series coefficients A * B~(n) * n!, evaluated
    through the stable pmf recurrence.  Returns (weights, tail_ok);
    tail_ok is False when n_max was hit while more than tail_tol of the
    weight was still outstanding.
    """
    w = [math.exp(-k_factor)]
    total = w[0]
    n = 0
    while total < 1.0 - tail_tol and n < n_max:
        n += 1
        w.append(w[-1] * k_factor / n)
        total += w[-1]
    return np.asarray(w), total >= 1.0 - tail_tol


def _upper_gamma_q(y: float, n_terms: int) -> np.ndarray:
    """Q(j+1, y) = e^-y sum_{m<=j} y^m/m! for j = 0..n_terms-1."""
    t = math.exp(-y)
    out = np.empty(n_terms)
    q = t
    out[0] = q
    for j in range(1, n_terms):
        t *= y / j
        q += t
        out[j] = q
    return out


def _survival_series(link: RicianLink, gamma: float, n_max: int, tail_tol: float):
    """Truncated survival sum_n A B~(n) n! e^(-a*g) sum_i (a*g)^i/i!."""
    w, ok = _poisson_weights(link.k_factor, n_max, tail_tol)
    q = _upper_gamma_q(link.inv_scale * gamma, len(w))
    return float(w @ q), ok


def _warn_truncation(op: str, trunc: SeriesTruncation, k_first: float, k_second: float | None = None):
    """Warn that a series stopped at its caps, n_max over the first
    link's Poisson(K) weights and k_max over the second's.  The
    warning's ``tail`` is the weight beyond those caps."""
    tail_a = special.gammainc(trunc.n_max + 1, k_first)  # P(N > n_max)
    tail_b = 0.0 if k_second is None else special.gammainc(trunc.k_max + 1, k_second)
    tail = float(tail_a + tail_b - tail_a * tail_b)
    warnings.warn(
        TruncationWarning(
            f"{op}: series stopped at n_max={trunc.n_max}/k_max={trunc.k_max} with {tail:.3g} "
            f"of its weight left, above tail_tol={trunc.tail_tol}; increase n_max for large K",
            tail,
        ),
        stacklevel=3,
    )


def cdf_min_pair_series(
    link_a: RicianLink,
    link_b: RicianLink,
    gamma: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    clamp_stats: ClampStats | None = None,
) -> float:
    """CDF of min(X_a, X_b) for independent link gains, by double series.

    1 - A_a A_b sum_{n,k} B~_a(n) B~_b(k) n! k! e^(-(a_a+a_b)g)
        sum_{i<=n, j<=k} a_a^i a_b^j g^(i+j) / (i! j!)

    The inner sums factorize per link, so the rectangular (n_max, k_max)
    truncation is evaluated as the product of two single-link partial
    sums; the value is identical term-for-term to the double sum.  At
    K = 0 this collapses to 1 - e^(-(a_a+a_b)g).
    """
    gamma = _check_gamma(gamma)
    sa, ok_a = _survival_series(link_a, gamma, trunc.n_max, trunc.tail_tol)
    sb, ok_b = _survival_series(link_b, gamma, trunc.k_max, trunc.tail_tol)
    if not (ok_a and ok_b):
        _warn_truncation("cdf_min_pair_series", trunc, link_a.k_factor, link_b.k_factor)
    return _clamp(1.0 - sa * sb, clamp_stats)


def cdf_single_link_series(
    link: RicianLink,
    gamma: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    clamp_stats: ClampStats | None = None,
) -> float:
    """Single-link gain CDF by the same series machinery.

    Agrees with :func:`ratelab.channel.power_gain_cdf` within the series
    tolerance; this is the corrected form for gamma_2 = lambda_SD.
    """
    gamma = _check_gamma(gamma)
    s, ok = _survival_series(link, gamma, trunc.n_max, trunc.tail_tol)
    if not ok:
        _warn_truncation("cdf_single_link_series", trunc, link.k_factor)
    return _clamp(1.0 - s, clamp_stats)


def cdf_gamma2_paper(
    link_y: RicianLink,
    link_z: RicianLink,
    gamma: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    clamp_stats: ClampStats | None = None,
) -> float:
    """As-published two-link form of the gamma_2 CDF, constants (z, y).

    The variate gamma_2 = lambda_SD is one link, yet the published CDF
    carries R-D and S-R constants; this evaluates that printed form so
    it can be diffed against :func:`cdf_single_link_series`.
    """
    return cdf_min_pair_series(link_z, link_y, gamma, trunc, clamp_stats)


def _exp_partial_sum(gamma: float, n_terms: int) -> np.ndarray:
    """sum_{i<=j} gamma^i/i! for j = 0..n_terms-1 (no e^-g damping)."""
    out = np.empty(n_terms)
    t = 1.0
    s = 1.0
    out[0] = s
    for j in range(1, n_terms):
        t *= gamma / j
        s += t
        out[j] = s
    return out


def cdf_min_pair_approx(
    link_a: RicianLink,
    link_b: RicianLink,
    gamma: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    clamp_stats: ClampStats | None = None,
    clamp: bool = True,
) -> float:
    """The simplified as-published min-pair CDF.

    Relative to :func:`cdf_min_pair_series` the printed simplification
    replaces A_x by e^(-K_x), B~ by B, drops the a^i a^j inner powers,
    and damps with e^(-g) instead of e^(-(a_a+a_b)g).  At K = 0 the raw
    value is 1 - e^(-g) regardless of the mean powers.  It is not a
    valid CDF in general; pass ``clamp=False`` to obtain the raw value,
    and a :class:`ClampStats` to count how often clamping bites.
    """
    gamma = _check_gamma(gamma)

    def one_link(link, cap):
        # sum_n e^-K B(n) n! E_n(g) with B(n) n! = (K a)^n / n!
        ka = link.k_factor * link.inv_scale
        e_partial = _exp_partial_sum(gamma, cap + 1)
        w = math.exp(-link.k_factor)
        total = w * e_partial[0]
        wsum = math.exp(-link.k_factor)  # Poisson(K) mass actually covered
        pk = wsum
        for n in range(1, cap + 1):
            w *= ka / n
            total += w * e_partial[n]
            pk *= link.k_factor / n
            wsum += pk
        return total, wsum >= 1.0 - trunc.tail_tol

    fa, ok_a = one_link(link_a, trunc.n_max)
    fb, ok_b = one_link(link_b, trunc.k_max)
    if not (ok_a and ok_b):
        _warn_truncation("cdf_min_pair_approx", trunc, link_a.k_factor, link_b.k_factor)
    raw = 1.0 - fa * fb * math.exp(-gamma)
    if not clamp:
        return raw
    return _clamp(raw, clamp_stats)


# ---------------------------------------------------------------------------
# Chebyshev-node ergodic-rate series
# ---------------------------------------------------------------------------

def _chebyshev_kernel(m_max: int, rho_eff: float, order: int) -> np.ndarray:
    """G[m] for m = 0..m_max with nodes c_t = cos((2t-1)pi/(2*order)).

    G[m] = e^(1/r) (pi/N) sum_t ((1+c)/2)^m (1+c)^-1
           e^(-(2/r)/(1+c)) |sin theta_t|

    m! G[m] equals the moment integral
    int_0^inf g^m e^-g * r/(1+r*g) dg at r = rho_eff, which for m = 0
    tends to ln(r) - euler_gamma as r grows.  Everything is evaluated in
    log space so that the (1+c)^(m-1) kernel is safe at nodes hugging
    c = -1 and the e^(1/r) prefactor cannot overflow at small r.
    """
    theta = (2.0 * np.arange(1, order + 1) - 1.0) * math.pi / (2.0 * order)
    c = np.cos(theta)
    s = np.abs(np.sin(theta))
    # exponent of e^(1/r) * e^(-(2/r)/(1+c)) combined: (1/r)*(c-1)/(1+c) <= 0
    damp = (c - 1.0) / (1.0 + c) / rho_eff
    log_half = np.log1p(c) - LN2
    base = np.exp(damp) * s / (1.0 + c)
    out = np.empty(m_max + 1)
    for m in range(m_max + 1):
        out[m] = (math.pi / order) * float(np.sum(np.exp(m * log_half) * base))
    return out


def _check_rho_pos(rho: float) -> float:
    if not rho > 0.0:
        raise DomainError(f"rho must be > 0, got {rho}")
    return float(rho)


def h_rho(
    link_a: RicianLink,
    link_b: RicianLink,
    rho: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> float:
    """Series approximation of E[ln(1 + rho*min(X_a, X_b))] (nats).

    Double series over the two links' coefficients with the
    Chebyshev-node moment kernel; (1/(2 ln 2)) * h_rho approximates the
    relayed-symbol ergodic rate.  At a fixed ``quad_order`` the error
    grows with transmit SNR: the kernel's e^(-(2/r)/(1+c)) factor
    sharpens toward c = -1 as r = rho/alpha grows, and a fixed node set
    resolves it ever worse (at K = 0 and 50 nodes, about 2e-4 bit/s/Hz
    at 5 dB but 0.27 at 25 dB).  Raising ``quad_order`` reduces it.
    """
    rho = _check_rho_pos(rho)
    aa, ab = link_a.inv_scale, link_b.inv_scale
    alpha = aa + ab
    wa, ok_a = _poisson_weights(link_a.k_factor, trunc.n_max, trunc.tail_tol)
    wb, ok_b = _poisson_weights(link_b.k_factor, trunc.k_max, trunc.tail_tol)
    if not (ok_a and ok_b):
        _warn_truncation("h_rho", trunc, link_a.k_factor, link_b.k_factor)
    na, nb = len(wa), len(wb)
    g = _chebyshev_kernel(na + nb - 2, rho / alpha, trunc.quad_order)
    # W[i,j] = C(i+j, i) p^i q^j G[i+j]; a binomial pmf term, never large.
    i = np.arange(na)[:, None]
    j = np.arange(nb)[None, :]
    log_binom = special.gammaln(i + j + 1.0) - special.gammaln(i + 1.0) - special.gammaln(j + 1.0)
    w = np.exp(log_binom + i * math.log(aa / alpha) + j * math.log(ab / alpha)) * g[i + j]
    inner = np.cumsum(np.cumsum(w, axis=0), axis=1)
    return float(wa @ inner @ wb)


def g_rho(
    link_z: RicianLink,
    link_y: RicianLink | None,
    rho: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
) -> float:
    """Series approximation of the direct-symbol log-rate term (nats).

    With two links this is the same kernel as :func:`h_rho` over the
    (z, y) constants, matching the printed form.  Passing
    ``link_y=None`` evaluates the single-link variant over ``link_z``
    alone, i.e. E[ln(1 + rho*X_z)]; the corrected pipeline feeds the
    S-D link that way since gamma_2 is one link, not a pair.
    """
    if link_y is not None:
        return h_rho(link_z, link_y, rho, trunc)
    rho = _check_rho_pos(rho)
    w, ok = _poisson_weights(link_z.k_factor, trunc.n_max, trunc.tail_tol)
    if not ok:
        _warn_truncation("g_rho", trunc, link_z.k_factor)
    g = _chebyshev_kernel(len(w) - 1, rho / link_z.inv_scale, trunc.quad_order)
    return float(w @ np.cumsum(g))


def ergodic_rate_series(
    geometry: NetworkGeometry,
    rho: float,
    trunc: SeriesTruncation = DEFAULT_TRUNCATION,
    literal: bool = False,
) -> RateBreakdown:
    """Paper-mode CRS-NOMA ergodic rates from the series; the total is
    (h + 2g)/(2 ln 2).

    ``literal=False`` (corrected): H over (S-R, R-D) and G over the S-D
    link alone, matching the variates gamma_1 and gamma_2.
    ``literal=True``: H over (S-D, S-R) and G over (R-D, S-R), exactly
    as the symbols appear in the published expressions.
    """
    if literal:
        h = h_rho(geometry.sd, geometry.sr, rho, trunc)
        g = g_rho(geometry.rd, geometry.sr, rho, trunc)
    else:
        h = h_rho(geometry.sr, geometry.rd, rho, trunc)
        g = g_rho(geometry.sd, None, rho, trunc)
    c_r = h / (2.0 * LN2)
    c_d = g / (2.0 * LN2)
    return RateBreakdown(
        c_relay_s1=c_r,
        c_direct_s1=c_d,
        c_s1=c_r + c_d,
        c_s2=c_d,
        c_total=c_r + 2.0 * c_d,
    )


# ---------------------------------------------------------------------------
# Deterministic quadrature oracle
# ---------------------------------------------------------------------------

# Node counts of the fixed inner rules of the two schemes that mix two
# gains; at K in {0, 3, 10} and 5-25 dB they match nested adaptive
# quadrature to about 1e-13 bit/s/Hz.
_EXACT_INNER_NODES = 256
_OMA_INNER_NODES = 64


@functools.cache
def _unit_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on (0, 1).

    Built on first use, so importing the module computes no rule.
    """
    x, w = special.roots_legendre(n)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _quad(f, lo, hi, budget: int) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            val, _ = integrate.quad(f, lo, hi, limit=budget, epsabs=1e-10, epsrel=1e-9)
        except integrate.IntegrationWarning as exc:
            raise ConvergenceError(f"quadrature did not converge: {exc}") from exc
    return val


def _ergodic_log2(survival, rho: float, budget: int) -> float:
    """E[log2(1 + rho*X)] = (1/ln2) int_0^inf rho*S(x)/(1+rho*x) dx."""
    return _quad(lambda x: rho * survival(x) / (1.0 + rho * x), 0.0, np.inf, budget) / LN2


def ergodic_rate_quadrature_quantities(
    geometry: NetworkGeometry,
    rho: float,
    scheme: str,
    split: PowerSplit | None = None,
    budget: int = 200,
) -> RateBreakdown:
    """All five ergodic rate quantities of one :data:`~ratelab.rates.RATES`
    token, by integration.

    Survivals are built from the Marcum-Q single-link survival; min
    terms are survival products.  Every rate is an adaptive
    one-dimensional integral over the survival of the limiting SNR.
    The exact-mode relay SNR and the CRS-OMA combined branch mix two
    independent gains; their survival at each outer node comes from a
    fixed Gauss-Legendre rule over the S-D gain (256 nodes on
    s = Omega_SD*u/(1-u) for exact mode, 64 nodes on [0, w] for the
    CRS-OMA convolution), one vectorised survival evaluation per node.
    That inner rule agrees with nested adaptive quadrature to about
    1e-13 bit/s/Hz.  Raises :class:`ConvergenceError` when the outer
    subdivision budget is exhausted.
    """
    rho = _check_rho_pos(rho)
    if scheme not in RATES:
        raise DomainError(f"scheme must be one of {tuple(RATES)}, got {scheme!r}")
    sr, rd, sd = geometry.sr, geometry.rd, geometry.sd
    family, mode = RATES[scheme]

    if family == "crs_noma":
        c_direct = 0.5 * _ergodic_log2(lambda x: power_gain_sf(sd, x), rho, budget)
        if mode == "paper":
            c_relay = 0.5 * _ergodic_log2(
                lambda x: power_gain_sf(sr, x) * power_gain_sf(rd, x), rho, budget
            )
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
                return power_gain_sf(sr, y) * float(ws @ power_gain_sf(rd, y * snr_scale))

            c_relay = 0.5 * _ergodic_log2(s_y, rho, budget)
        c_s1 = c_relay + c_direct
        return RateBreakdown(c_relay, c_direct, c_s1, c_direct, c_s1 + c_direct)

    if scheme == "conventional":
        if split is None:
            raise DomainError("conventional scheme requires a PowerSplit")
        a1, a2 = split.a1, split.a2
        # s1 passes through the increasing map g(w) = a1*rho*w/(a2*rho*w+1)
        # of W = min(lambda_SD, lambda_SR), which collapses the min of the
        # two decode rates to one integral:
        # c_s1 = (a1*rho/(2 ln2)) int S_SD S_SR / ((a2*rho*w+1)(rho*w+1)) dw
        c_s1 = (
            a1
            * rho
            / (2.0 * LN2)
            * _quad(
                lambda w: power_gain_sf(sd, w)
                * power_gain_sf(sr, w)
                / ((a2 * rho * w + 1.0) * (rho * w + 1.0)),
                0.0,
                np.inf,
                budget,
            )
        )
        # s2 is limited by min(a2*lambda_SR, lambda_RD) at full rho.
        c_s2 = 0.5 * _ergodic_log2(
            lambda v: power_gain_sf(sr, v / a2) * power_gain_sf(rd, v), rho, budget
        )
        return RateBreakdown(c_s1, 0.0, c_s1, c_s2, c_s1 + c_s2)

    # crs_oma: W = min(lambda_SR, lambda_SD + lambda_RD); the branch sum
    # needs one convolution level: P[SD+RD > w] = S_SD(w) + int_0^w
    # S_RD(w-s) f_SD(s) ds, taken on s = w*v with v in (0, 1).
    v, wv = _unit_gauss_legendre(_OMA_INNER_NODES)

    def s_sum(w):
        if w <= 0.0:
            return 1.0
        inner = w * float(wv @ (power_gain_sf(rd, w * (1.0 - v)) * power_gain_pdf(sd, w * v)))
        return min(power_gain_sf(sd, w) + inner, 1.0)

    c_total = 0.5 * _ergodic_log2(lambda w: power_gain_sf(sr, w) * s_sum(w), rho, budget)
    return RateBreakdown(c_total, 0.0, c_total, 0.0, c_total)

