import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

import ratelab
import ratelab.analytic as analytic
from ratelab import (
    NetworkGeometry,
    PowerSplit,
    cdf_gamma2_paper,
    cdf_min_pair_approx,
    cdf_min_pair_series,
    cdf_single_link_series,
    crs_noma_rate,
    ergodic_rate_quadrature_quantities,
    ergodic_rate_series,
    estimate_rates,
    make_link,
    power_gain_cdf,
    power_gain_pdf,
    power_gain_sf,
    sample_power_gains,
    split_stream,
)
from ratelab.errors import ConvergenceError, DomainError, ModelAssumptionWarning
from ratelab.rates import QUANTITIES, RATES, RateBreakdown, RateTerms
from ratelab.sweep import parse_config, preset_geometry, run_sweep

FIG3 = NetworkGeometry(sr=make_link(0, 8), rd=make_link(0, 8), sd=make_link(0, 3))


def series(*links, rho):
    """The log-rate series (nats) over one link or a pair, at one rho."""
    return analytic._rate_series(links, [rho])[0]


def ln_rate_exponential(rho, omega):
    """E[ln(1 + rho X)] for X exponential with mean omega (closed form)."""
    z = 1.0 / (rho * omega)
    return math.exp(z) * special.exp1(z)


def test_default_series_emit_no_warning_up_to_the_kernel_bound():
    for k in (3.0, 10.0, 30.0, 500.0):
        geometry = NetworkGeometry(sr=make_link(k, 8), rd=make_link(k, 8), sd=make_link(k, 3))
        a, b = geometry.sr, geometry.sd
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rho in (0.5, 316.0):
                ergodic_rate_series(geometry, rho)
                ergodic_rate_series(geometry, rho, literal=True)
            for gamma in (0.5, 4.0):
                cdf_min_pair_series(a, b, gamma)
                cdf_single_link_series(a, gamma)


def test_corrected_series_tracks_the_oracle_at_k10():
    geometry = NetworkGeometry(sr=make_link(10, 8), rd=make_link(10, 8), sd=make_link(10, 3))
    for rho_db in (5.0, 25.0):
        rho = 10.0 ** (rho_db / 10.0)
        series = ergodic_rate_series(geometry, rho)["c_total"]
        oracle = ergodic_rate_quadrature_quantities(geometry, rho, "crs_noma_paper")["c_total"]
        assert abs(series - oracle) < 1e-8, rho_db


def test_min_pair_rayleigh_median():
    a = make_link(0, 1)
    b = make_link(0, 1)
    assert cdf_min_pair_series(a, b, math.log(2) / 2) == pytest.approx(0.5, abs=1e-12)
    assert cdf_min_pair_series(a, b, 0.0) == 0.0


def test_min_pair_rayleigh_collapse_grid():
    a = make_link(0, 2.5)
    b = make_link(0, 0.7)
    rate = a.inv_scale + b.inv_scale
    for g in np.linspace(0.0, 20.0, 97):
        want = 1.0 - math.exp(-rate * g)
        assert cdf_min_pair_series(a, b, float(g)) == pytest.approx(want, abs=1e-12)


def test_min_pair_matches_survival_product_oracle():
    a = make_link(3, 8)
    b = make_link(3, 8)
    fa = power_gain_cdf(a, 4.0)
    fb = power_gain_cdf(b, 4.0)
    want = 1.0 - (1.0 - fa) * (1.0 - fb)
    assert cdf_min_pair_series(a, b, 4.0) == pytest.approx(want, abs=1e-8)


def test_min_pair_survival_product_identity_sweep():
    rng = np.random.default_rng(5)
    for _ in range(50):
        ka, kb = rng.uniform(0, 10, size=2)
        oa, ob = rng.uniform(0.5, 12, size=2)
        g = float(rng.exponential(4.0))
        a, b = make_link(ka, oa), make_link(kb, ob)
        want = power_gain_cdf(a, g) + power_gain_cdf(b, g) - power_gain_cdf(a, g) * power_gain_cdf(b, g)
        assert cdf_min_pair_series(a, b, g) == pytest.approx(want, abs=1e-8)


def test_min_pair_rejects_negative_gamma():
    with pytest.raises(DomainError):
        cdf_min_pair_series(make_link(0, 1), make_link(0, 1), -0.1)


def test_single_link_series_values():
    assert cdf_single_link_series(make_link(0, 1), math.log(2)) == pytest.approx(0.5, abs=1e-12)
    link = make_link(2, 3)
    assert cdf_single_link_series(link, 1e3 * link.mean_power) == pytest.approx(1.0, abs=1e-6)
    link = make_link(3, 3)
    assert cdf_single_link_series(link, 3.0) == pytest.approx(power_gain_cdf(link, 3.0), abs=1e-8)


def test_single_link_series_tracks_marcum_grid():
    link = make_link(7, 5)
    xs = np.linspace(0.0, 40.0, 1000)
    vals = np.array([cdf_single_link_series(link, float(x)) for x in xs])
    ref = power_gain_cdf(link, xs)
    assert np.max(np.abs(vals - ref)) < 1e-8


def test_gamma2_paper_form():
    rd, sr = make_link(0, 8), make_link(0, 8)
    assert cdf_gamma2_paper(sr, rd, 0.0) == 0.0
    rate = rd.inv_scale + sr.inv_scale
    assert cdf_gamma2_paper(sr, rd, 2.0) == pytest.approx(1 - math.exp(-rate * 2.0), abs=1e-12)
    # the printed two-link form deviates from the true single-link CDF of S-D
    dev = abs(cdf_gamma2_paper(sr, rd, 2.0) - cdf_single_link_series(FIG3.sd, 2.0))
    assert dev > 0.01


def test_approx_form_rayleigh_is_omega_blind():
    # raw simplified series at K=0 is 1 - e^-g whatever the mean powers
    for oa, ob in [(1.0, 1.0), (8.0, 3.0)]:
        a, b = make_link(0, oa), make_link(0, ob)
        raw = cdf_min_pair_approx(a, b, 1.7, clamp=False)
        assert raw == pytest.approx(1 - math.exp(-1.7), abs=1e-12)


def test_approx_form_boundary_and_clamping():
    a = make_link(3, 1)  # inv_scale 4 > 1 drives the raw value negative at 0
    b = make_link(3, 1)
    raw = cdf_min_pair_approx(a, b, 0.0, clamp=False)
    assert raw < 0.0
    assert cdf_min_pair_approx(a, b, 0.0) == min(max(raw, 0.0), 1.0) == 0.0


def test_approx_deviation_from_exact_is_visible():
    a = make_link(3, 8)
    b = make_link(3, 8)
    dev = abs(cdf_min_pair_approx(a, b, 4.0) - cdf_min_pair_series(a, b, 4.0))
    assert dev > 1e-3


def _approx_in_linear_space(link_a, link_b, gamma):
    """The printed min-pair form summed term by term in linear floats,
    the reference for the log-space sums; at gamma = 800 it overflows
    from K of about 30."""
    product = 1.0
    for link in (link_a, link_b):
        w, term, partial = math.exp(-link.k_factor), 1.0, 1.0
        total = w
        for j in range(1, len(analytic.poisson_weights(link.k_factor))):
            term *= gamma / j
            partial += term
            w *= link.k_factor * link.inv_scale / j
            total += w * partial
        product *= total
    return 1.0 - product * math.exp(-gamma)


def test_approx_form_is_never_nan_and_never_warns():
    for k in (10, 30, 60, 80, 100):
        a, b = make_link(k, 8), make_link(k, 3)
        for gamma in (0.0, 1.0, 800.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                raw = cdf_min_pair_approx(a, b, gamma, clamp=False)
                clamped = cdf_min_pair_approx(a, b, gamma)
            assert math.isfinite(raw) or raw == -math.inf, (k, gamma, raw)
            assert clamped == min(max(raw, 0.0), 1.0)
            reference = _approx_in_linear_space(a, b, gamma)
            if math.isfinite(reference):
                assert raw == pytest.approx(reference, rel=1e-12), (k, gamma)


def test_valid_series_cdfs_need_no_clamping():
    # 1 - (product of the survivals), strictly inside (0, 1): clamping
    # cannot have moved either value
    a, b = make_link(1, 2), make_link(2, 3)
    pair = cdf_min_pair_series(a, b, 1.0)
    single = cdf_single_link_series(a, 1.0)
    assert pair == pytest.approx(1.0 - power_gain_sf(a, 1.0) * power_gain_sf(b, 1.0), abs=1e-12)
    assert single == pytest.approx(1.0 - power_gain_sf(a, 1.0), abs=1e-12)
    assert 0.0 < single < pair < 1.0


def test_series_cdfs_are_the_kernel_survivals():
    for ka, kb in ((0, 0), (0.5, 3), (30, 10), (500, 3)):
        a, b = make_link(ka, 2), make_link(kb, 7)
        for gamma in (0.0, 0.3, 4.0, 60.0):
            assert cdf_min_pair_series(a, b, gamma) == 1.0 - power_gain_sf(a, gamma) * power_gain_sf(b, gamma)
            assert cdf_single_link_series(a, gamma) == power_gain_cdf(a, gamma)


# Inverse-scale pairs where a_a + a_b overflows, or where one is below
# 1e-308 times the other, so that a_a/(a_a + a_b) underflows to 0.
_EXTREME_SCALES = [(1e308, 1e308), (1e300, 1e-300), (1e308, 1e-20)]


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("scales", _EXTREME_SCALES + [pair[::-1] for pair in _EXTREME_SCALES[1:]])
def test_pair_series_is_finite_at_extreme_inverse_scale_ratios(scales, k):
    # the links are built at mean power (1 + K)/a, so each has inverse scale a
    a, b = (make_link(k, (1 + k) / scale) for scale in scales)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelAssumptionWarning)
        geometry = NetworkGeometry(sr=a, rd=b, sd=make_link(k, 1))
    for rho in (10 ** 0.5, 10 ** 1.5):
        h = series(a, b, rho=rho)
        oracle = ergodic_rate_quadrature_quantities(geometry, rho, "crs_noma_paper")["c_relay_s1"]
        assert math.isfinite(h) and abs(h - 2 * math.log(2) * oracle) <= 1e-8, (scales, k, rho)


def test_pair_series_rayleigh_high_snr_closed_form():
    # K=0, Omega=8 pair: exact value e^z E1(z), z = (a_a+a_b)/rho
    a = make_link(0, 8)
    b = make_link(0, 8)
    rho = 1e3
    want = ln_rate_exponential(rho, 4.0)  # min of two exp(8) is exp(4)
    assert series(a, b, rho=rho) == pytest.approx(want, rel=1e-12)


def _moment_by_quadrature(m, c):
    """G[m] = E[1/(T + c)] for T ~ gamma(m + 1), by quadrature in u = ln T.

    The density is taken relative to its value at the mode and divided by
    its own integral, so it neither overflows at m = 1330 nor carries the
    rounding of ln m!.
    """
    mode = math.log(m + 1)

    def density(u):
        return math.exp((m + 1) * (u - mode) - math.exp(u) + m + 1)

    lo = math.log(1e-20 * min(c, 1.0)) if m == 0 else mode - 60 / math.sqrt(m + 1) - 3
    hi = math.log(m + 80 + 12 * math.sqrt(m + 1))
    points = sorted({mode, *([math.log(c)] if lo < math.log(c) < hi else [])})
    rule = dict(epsabs=0.0, epsrel=1e-13, limit=1000, points=points)
    top = integrate.quad(lambda u: density(u) / (math.exp(u) + c), lo, hi, **rule)[0]
    return top / integrate.quad(density, lo, hi, **rule)[0]


def test_moment_kernel_is_exact():
    # G[m] = e^c E_(m+1)(c): power series and forward recurrence for c <= 1,
    # continued fraction at min(ceil(c), m_max) and both recurrences above
    orders = (0, 1, 2, 5, 41, 200, 1330)
    for c in (1e-30, 1e-12, 1e-3, 0.5, 1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-9, 1.5, 2.0, 10.0, 150.0,
              1e3, 1e5, 1e10, 1e100, 1e300):
        g = analytic._moment_kernel(1330, c)
        for m in orders:
            assert g[m] == pytest.approx(_moment_by_quadrature(m, c), rel=1e-13), (c, m)
        m = np.arange(1, 1331)
        assert np.abs(m * g[1:] + c * g[:-1] - 1.0).max() <= 4 * np.finfo(float).eps, c
        assert analytic._moment_kernel(0, c)[0] == pytest.approx(g[0], rel=1e-15), c
    # both series at the ends of the SNR range
    geometry = NetworkGeometry(sr=make_link(3, 8), rd=make_link(3, 8), sd=make_link(3, 3))
    for rho in (1e-300, 1e300):
        for literal in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rates = ergodic_rate_series(geometry, rho, literal=literal)
            assert all(math.isfinite(rates[q]) and rates[q] >= 0.0 for q in QUANTITIES), (rho, literal)


def test_moment_kernel_limits_and_stop_bound(monkeypatch):
    # G[m] ~ 1/c: 0 at c = inf; c = 0 (alpha/rho below the float range) has G[0] = inf
    assert not analytic._moment_kernel(3, math.inf).any()
    with pytest.raises(DomainError, match=r"^the series need alpha/rho > 0, got 0\.0$"):
        analytic._moment_kernel(3, 0.0)
    with pytest.raises(DomainError, match="alpha/rho > 0"):
        series(make_link(0, 1e300), make_link(0, 1e300), rho=1e300)
    monkeypatch.setattr(analytic, "_MAX_FRACTION_TERMS", 1)
    with pytest.raises(ConvergenceError, match=r"^continued fraction for E_4\(2\.5\) did not converge within 1 terms$"):
        analytic._moment_kernel(5, 2.5)


@pytest.mark.parametrize("call", [
    lambda rho: ergodic_rate_series(FIG3, rho),
    lambda rho: ergodic_rate_series(FIG3, rho, literal=True),
    lambda rho: ergodic_rate_quadrature_quantities(FIG3, rho, "crs_noma_paper"),
], ids=["series", "series-literal", "oracle"])
def test_series_and_oracle_refuse_a_nonpositive_rho_in_order(call):
    # each rho in turn, first finite and >= 0, then > 0
    positive = r"^rho must be > 0 for the series and the oracle, got 0$"
    nonneg = r"^rho must be finite and >= 0, got -2\.0$"
    for rho, message in ((0.0, positive), (-2.0, nonneg), ([1.0, 0.0, -2.0], positive), ([1.0, -2.0, 0.0], nonneg)):
        with pytest.raises(DomainError, match=message):
            call(rho)


def test_single_link_series_rayleigh_closed_form():
    # corrected mode: the S-D link alone, at K = 0 the closed form e^z E1(z)
    for rho in (1e-2, 1.0, 1e3, 1e8):
        assert series(make_link(0, 3), rho=rho) == pytest.approx(ln_rate_exponential(rho, 3.0), rel=1e-13)


def double_cumsum_pair_series(link_a, link_b, rhos):
    """The pair series at each rho as wa @ cumsum(cumsum(W, 0), 1) @ wb, over the links'
    Poisson weights, with W[i, j] = C(i+j, i) p^i q^j G[i+j] and its binomial
    terms from SciPy's pmf."""
    wa, wb = analytic.poisson_weights(link_a.k_factor), analytic.poisson_weights(link_b.k_factor)
    aa, ab = link_a.inv_scale, link_b.inv_scale
    i, j = np.ogrid[:len(wa), :len(wb)]
    pmf = stats.binom.pmf(i, i + j, aa / (aa + ab))
    moments = (analytic._moment_kernel(len(wa) + len(wb) - 2, (aa + ab) / rho) for rho in rhos)
    return [float(wa @ np.cumsum(np.cumsum(pmf * g[i + j], axis=0), axis=1) @ wb) for g in moments]


@pytest.mark.parametrize("k", [0, 3, 10, 100, 500])
def test_pair_series_matches_the_double_cumsum_reference(k):
    # at K = 500, binomial terms from logs of m! (up to 8000) are 7e-13 off
    rhos = [10 ** (rho_db / 10) for rho_db in range(-20, 101, 20)]
    for omegas in ((8, 8, 3), (100, 0.5, 0.1)):
        sr, rd, sd = (make_link(k, omega) for omega in omegas)
        for a, b in ((sr, rd), (sd, sr)):
            for rho, want in zip(rhos, double_cumsum_pair_series(a, b, rhos)):
                h = series(a, b, rho=rho)
                assert h == pytest.approx(want, rel=1e-13), (omegas, a, b, rho)
                assert h == pytest.approx(series(b, a, rho=rho), rel=1e-14), (omegas, a, b, rho)


def test_literal_g_is_the_corrected_h_of_the_swapped_relay_links():
    # the printed two-link G over (R-D, S-R) is the pair form H takes over (S-R, R-D)
    sd = make_link(0, 3)
    g = NetworkGeometry(sr=make_link(1, 7), rd=make_link(2, 5), sd=sd)
    swapped = NetworkGeometry(sr=g.rd, rd=g.sr, sd=sd)
    assert ergodic_rate_series(g, 50.0, literal=True).c_direct_s1 == ergodic_rate_series(swapped, 50.0).c_relay_s1


def test_ergodic_series_report_invariant_and_mapping():
    rep = ergodic_rate_series(FIG3, 100.0)
    assert rep.c_total == rep.c_relay_s1 + 2.0 * rep.c_direct_s1
    assert rep.c_s1 == rep.c_relay_s1 + rep.c_direct_s1
    assert rep.c_s2 == rep.c_direct_s1
    to_bits = 2.0 * math.log(2.0)
    # corrected: H over (S-R, R-D), G over the S-D link alone
    assert rep.c_relay_s1 == series(FIG3.sr, FIG3.rd, rho=100.0) / to_bits
    assert rep.c_direct_s1 == series(FIG3.sd, rho=100.0) / to_bits
    # literal: H over (S-D, S-R), G over (R-D, S-R), as printed
    lit = ergodic_rate_series(FIG3, 100.0, literal=True)
    assert lit.c_relay_s1 == series(FIG3.sd, FIG3.sr, rho=100.0) / to_bits
    assert lit.c_direct_s1 == series(FIG3.rd, FIG3.sr, rho=100.0) / to_bits
    # the two symbol mappings disagree; the gap is data for the report
    assert abs(lit.c_total - rep.c_total) > 0.02


def test_ergodic_series_vs_monte_carlo_paper_mode():
    rho = 10 ** 2.5
    rep = ergodic_rate_series(FIG3, rho)
    res = estimate_rates(FIG3, rho, ("crs_noma",), "paper", trials=200_000, seed=8)
    mc = next(r.mean for r in res if r.quantity == "c_total")
    assert rep.c_total == pytest.approx(mc, rel=0.05)


def test_quadrature_matches_closed_form_exponential():
    g = NetworkGeometry(sr=make_link(0, 8), rd=make_link(0, 8), sd=make_link(0, 3))
    rho = 10.0
    q = ergodic_rate_quadrature_quantities(g, rho, "crs_noma_paper")
    want_relay = 0.5 * ln_rate_exponential(rho, 4.0) / math.log(2)
    want_direct = 0.5 * ln_rate_exponential(rho, 3.0) / math.log(2)
    assert q["c_relay_s1"] == pytest.approx(want_relay, abs=1e-8)
    assert q["c_direct_s1"] == pytest.approx(want_direct, abs=1e-8)
    assert q["c_total"] == pytest.approx(want_relay + 2 * want_direct, abs=1e-7)


def _rayleigh_closed_forms(token, geometry, rho, a2=0.1):
    """The K = 0 rates of ``token`` in closed form, quantity -> value, from
    scipy's E1 alone: e^x E1(x) is E[ln(1 + X/x)] for X exponential with mean 1."""
    a_sr, a_rd, a_sd = (1.0 / link.mean_power for link in (geometry.sr, geometry.rd, geometry.sd))

    def half(x):  # 0.5 E[log2(1 + X/x)]
        return math.exp(x) * special.exp1(x) / (2.0 * math.log(2.0))

    if token == "crs_noma_paper":
        return {"c_relay_s1": half((a_sr + a_rd) / rho), "c_direct_s1": half(a_sd / rho)}
    if token == "conventional":
        alpha = a_sd + a_sr
        return {"c_s1": half(alpha / rho) - half(alpha / (a2 * rho)), "c_s2": half((a_sr / a2 + a_rd) / rho)}
    if token == "crs_oma":  # the hypoexponential survival of lambda_SD + lambda_RD
        return {"c_total": (a_sd * half((a_sr + a_rd) / rho) - a_rd * half((a_sr + a_sd) / rho)) / (a_sd - a_rd)}
    # exact mode: Kim & Lee, IEEE Commun. Lett. 19(11), 2015
    p, q, alpha = a_sd / (a_rd * rho), 1.0 / rho, a_sr + a_rd
    return {"c_relay_s1": p / (q - p) * (half(alpha * p) - half(alpha * q))}


_RAYLEIGH_DB = range(-20, 101, 5)


def _assert_oracle_matches_rayleigh_closed_forms(geometry, token, grid_db):
    for db in grid_db:
        rho = 10.0 ** (db / 10.0)
        got = ergodic_rate_quadrature_quantities(geometry, rho, token, PowerSplit(0.9, 0.1))
        for quantity, want in _rayleigh_closed_forms(token, geometry, rho).items():
            assert abs(got[quantity] - want) <= 1e-12, (db, quantity, got[quantity] - want)


@pytest.mark.parametrize("preset", ["fig3", "fig4"])
@pytest.mark.parametrize("token", ["crs_noma_paper", "conventional", "crs_oma"])
def test_oracle_matches_rayleigh_closed_forms(preset, token):
    _assert_oracle_matches_rayleigh_closed_forms(preset_geometry(preset, 0.0), token, _RAYLEIGH_DB)


@pytest.mark.parametrize("preset", ["fig3", "fig4"])
@pytest.mark.parametrize("db", _RAYLEIGH_DB)
def test_exact_mode_oracle_matches_the_kim_lee_closed_form(preset, db):
    _assert_oracle_matches_rayleigh_closed_forms(preset_geometry(preset, 0.0), "crs_noma_exact", [db])


@pytest.mark.parametrize("preset", ["fig3", "fig4"])
@pytest.mark.parametrize("k", [0.0, 3.0, 100.0])
def test_oracle_meets_its_closed_form_high_snr_limits(preset, k):
    # the affine high-SNR expansion of Lozano, Tulino & Verdu (IEEE Trans.
    # Inf. Theory 51(12), 2005), whose remainder O(c ln c), c = alpha/rho,
    # is below rounding from about 200 dB
    g, split = preset_geometry(preset, k), PowerSplit(0.9, 0.1)
    rhos = [10.0 ** (db / 10.0) for db in (200, 1000, 3000)]
    two_ln2 = 2.0 * math.log(2.0)
    # E psi(N + 1) for N ~ Poisson(K), the Gamma(N + 1) mixture's mean log
    e_psi = math.log(k) + special.exp1(k) if k > 0.0 else -np.euler_gamma
    limits = [("crs_noma_paper", "c_direct_s1",
               lambda rho: (math.log(rho) - math.log(g.sd.inv_scale) + e_psi) / two_ln2),
              ("conventional", "c_s1", lambda rho: 0.5 * math.log2(1.0 / split.a2))]
    if k == 0.0:  # the exact-mode relay's ceiling, E ln(1 + lambda_RD/lambda_SD)/(2 ln 2)
        b = g.sd.mean_power / g.rd.mean_power
        limits.append(("crs_noma_exact", "c_relay_s1", lambda rho: math.log(b) / ((b - 1.0) * two_ln2)))
    for token, quantity, limit in limits:
        for rho, got in zip(rhos, ergodic_rate_quadrature_quantities(g, rhos, token, split)):
            want = limit(rho)
            assert abs(got[quantity] - want) <= max(1e-13, 1e-15 * abs(want)), (token, rho, got[quantity] - want)


# At rho = 1e304 and beyond, rho*x passes the float range over most of a span.
@pytest.mark.parametrize("token,db", [(token, db) for token in sorted(RATES) for db in (3000, 3020, 3030, 3040, 3050)])
def test_oracle_matches_rayleigh_closed_forms_where_rho_x_overflows(token, db):
    _assert_oracle_matches_rayleigh_closed_forms(_links(0, 1000, 1000, 100), token, [db])


def test_quadrature_degenerate_direct_link():
    g = NetworkGeometry(sr=make_link(0, 8), rd=make_link(0, 8), sd=make_link(0, 1e-9))
    rho = 10 ** 2.5
    q = ergodic_rate_quadrature_quantities(g, rho, "crs_noma_paper")
    want = 0.5 * ln_rate_exponential(rho, 4.0) / math.log(2)
    assert q["c_total"] == pytest.approx(want, abs=1e-4)


def test_quadrature_unit_power_links_against_large_monte_carlo():
    import warnings as _w

    with _w.catch_warnings():
        _w.simplefilter("ignore")  # Omega_SR == Omega_SD trips the placement warning
        g = NetworkGeometry(sr=make_link(0, 1), rd=make_link(0, 1), sd=make_link(0, 1))
    q = ergodic_rate_quadrature_quantities(g, 1.0, "crs_noma_paper")
    res = estimate_rates(g, 1.0, ("crs_noma",), "paper", trials=10**7, seed=6)
    r = next(x for x in res if x.quantity == "c_total")
    assert abs(q["c_total"] - r.mean) < 3 * r.std_err


def test_quadrature_exact_mode_against_monte_carlo():
    g = NetworkGeometry(sr=make_link(2, 8), rd=make_link(2, 8), sd=make_link(2, 3))
    rho = 10.0
    q = ergodic_rate_quadrature_quantities(g, rho, "crs_noma_exact")
    res = estimate_rates(g, rho, ("crs_noma",), "exact", trials=10**6, seed=4)
    for quantity in ("c_relay_s1", "c_total"):
        r = next(x for x in res if x.quantity == quantity)
        assert abs(q[quantity] - r.mean) < max(3 * r.std_err, 1e-3)


def test_quadrature_all_schemes_against_sampled_oracle():
    # one shared 1e6-draw brute-force pass checks every scheme at once
    g = NetworkGeometry(sr=make_link(1, 8), rd=make_link(1, 8), sd=make_link(1, 3))
    split = PowerSplit(0.9, 0.1)
    rho = 10 ** 1.5
    rng = split_stream(606, 0)
    n = 10**6
    # the gains checked once, for the four rates evaluated on them
    r = RateTerms([sample_power_gains(link, rng, n) for link in (g.sr, g.rd, g.sd)], rho)
    from ratelab import conventional_noma_rate, crs_oma_rate

    checks = {
        "crs_noma_paper": crs_noma_rate(r, rho, "paper").c_total,
        "crs_noma_exact": crs_noma_rate(r, rho, "exact").c_total,
        "conventional": conventional_noma_rate(r, rho, split).c_total,
        "crs_oma": crs_oma_rate(r, rho).c_total,
    }
    for scheme, samples in checks.items():
        q = ergodic_rate_quadrature_quantities(g, rho, scheme, split)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(q["c_total"] - samples.mean()) < max(3 * se, 5e-3), scheme


def test_quadrature_monotone_in_rho():
    vals = [
        ergodic_rate_quadrature_quantities(FIG3, 10 ** (db / 10), "crs_noma_paper")["c_total"]
        for db in (0, 5, 10, 15, 20, 25, 30)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_quadrature_breakdown_invariants():
    rep = ergodic_rate_quadrature_quantities(FIG3, 10.0, "crs_noma_paper")
    assert rep.c_total == pytest.approx(rep.c_relay_s1 + 2 * rep.c_direct_s1, rel=1e-12)


def test_quadrature_validates_inputs():
    for rho in (0.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            ergodic_rate_quadrature_quantities(FIG3, rho, "crs_noma_paper")
    with pytest.raises(DomainError):
        ergodic_rate_quadrature_quantities(FIG3, 1.0, "nonsense")
    with pytest.raises(DomainError):
        ergodic_rate_quadrature_quantities(FIG3, 1.0, "conventional", split=None)


def test_oracle_integrates_an_empty_span_to_zero():
    # at Omega_SD = 1e-30 the S-D survival is below 1e-20 before the span starts
    rates = ergodic_rate_quadrature_quantities(_links(0, 8, 8, 1e-30), 10 ** 0.5, "crs_noma_paper")
    assert rates.c_direct_s1 == 0.0 and rates.c_relay_s1 > 0.0


def test_quadrature_budget_exhaustion_raises(monkeypatch):
    # the FIG3 spans at 40 dB take 112 and 114 first-rule steps, so the
    # second refinement level would need more than 150 nodes
    monkeypatch.setattr(analytic, "_MAX_LEVEL_NODES", 150)
    with pytest.raises(ConvergenceError):
        ergodic_rate_quadrature_quantities(FIG3, 1e4, "crs_noma_paper")


def _rician_sf(link, x):
    """P[lambda > x] of one link as SciPy's Marcum Q, not the package kernel."""
    return 1.0 - special.chndtr(2.0 * link.inv_scale * x, 2.0, 2.0 * link.k_factor)


def _rician_pdf(link, x):
    """Density of one link's power gain in its Bessel closed form."""
    a, k = link.inv_scale, link.k_factor
    z = 2.0 * math.sqrt(k * a * x)
    return a * special.i0e(z) * math.exp(z - k - a * x)


def nested_quadrature_reference(g, rho, scheme):
    """The five quantities of exact-mode CRS-NOMA or CRS-OMA with the
    inner integral over the S-D gain done by adaptive quadrature too, on
    the links' SciPy closed forms: it shares neither the oracle's rules
    nor its kernel."""
    sr, rd, sd = g.sr, g.rd, g.sd
    sf, pdf = _rician_sf, _rician_pdf

    def quad(f, lo, hi, epsabs, epsrel):
        return integrate.quad(f, lo, hi, limit=200, epsabs=epsabs, epsrel=epsrel)[0]

    def half_rate(survival):  # 0.5 E[log2(1 + rho X)] from the survival of X
        integral = quad(lambda x: rho * survival(x) / (1 + rho * x), 0, np.inf, 1e-10, 1e-9)
        return 0.5 * integral / math.log(2)

    if scheme == "crs_noma_exact":
        def s_relay(y):
            # in t = c*s with c = max(1, rho*y) neither factor is narrower
            # than its own link's scale, so QUADPACK's map of [0, inf)
            # resolves both
            c = max(1.0, rho * y)
            inner = quad(lambda t: sf(rd, y + rho * y * t / c) * pdf(sd, t / c) / c, 0, np.inf, 1e-11, 1e-10)
            return sf(sr, y) * inner

        c_relay = half_rate(s_relay)
        c_direct = half_rate(lambda x: sf(sd, x))
        return {"c_relay_s1": c_relay, "c_direct_s1": c_direct, "c_s1": c_relay + c_direct,
                "c_s2": c_direct, "c_total": c_relay + 2 * c_direct}

    def s_branch_sum(w):  # P[lambda_SD + lambda_RD > w]
        inner = quad(lambda s: sf(rd, w - s) * pdf(sd, s), 0, w, 1e-11, 1e-10)
        return min(sf(sd, w) + inner, 1.0)

    c = half_rate(lambda w: sf(sr, w) * s_branch_sum(w))
    return {"c_relay_s1": c, "c_direct_s1": 0.0, "c_s1": c, "c_s2": 0.0, "c_total": c}


@pytest.mark.parametrize("scheme,k,omegas,db", [
    ("crs_noma_exact", 0, (8, 8, 3), 5), ("crs_noma_exact", 3, (8, 8, 3), 5),
    ("crs_oma", 0, (8, 8, 3), 5), ("crs_oma", 10, (8, 8, 3), 5),
    # a narrow S-D density inside the S-R span, and a high SNR where the
    # R-D survival is gone a short way into the S-D span
    ("crs_oma", 300, (100, 0.5, 0.1), 5), ("crs_noma_exact", 3, (8, 8, 3), 50),
], ids=["crs_noma_exact-0", "crs_noma_exact-3", "crs_oma-0", "crs_oma-10", "crs_oma-300-narrow", "crs_noma_exact-3-50db"])
def test_quadrature_fixed_inner_rule_matches_nested_reference(scheme, k, omegas, db):
    g, rho = _links(k, *omegas), 10 ** (db / 10)
    fast = ergodic_rate_quadrature_quantities(g, rho, scheme)
    ref = nested_quadrature_reference(g, rho, scheme)
    for name, value in ref.items():
        assert abs(fast[name] - value) <= 1e-10, name


def quadpack_reference(g, rho, token, split):
    """The oracle's five quantities with every outer integral taken by
    adaptive QUADPACK over [0, inf) on scalar survivals; the inner
    integral over the S-D gain is the oracle's own rule."""
    sr, rd, sd = g.sr, g.rd, g.sd

    def quad(f):
        return integrate.quad(f, 0, np.inf, limit=200, epsabs=1e-13, epsrel=1e-11)[0]

    def half_rate(survival):
        return 0.5 * quad(lambda x: rho * survival(x) / (1 + rho * x)) / math.log(2)

    family, mode = RATES[token]
    if family == "crs_noma":
        c_direct = half_rate(lambda x: power_gain_sf(sd, x))
        if mode == "paper":
            c_relay = half_rate(lambda x: power_gain_sf(sr, x) * power_gain_sf(rd, x))
        else:
            def s_relay(y):
                inner = analytic._sd_integral(sd, np.array([analytic._reach(rd) / (rho * y)]),
                                              lambda s: power_gain_sf(rd, y + rho * y * s))
                return power_gain_sf(sr, y) * float(inner[0])

            c_relay = half_rate(s_relay)
        return RateBreakdown(c_relay, c_direct, c_direct)
    if token == "conventional":
        a1, a2 = split.a1, split.a2
        c_s1 = a1 * rho / (2 * math.log(2)) * quad(
            lambda w: power_gain_sf(sd, w) * power_gain_sf(sr, w) / ((a2 * rho * w + 1) * (rho * w + 1)))
        c_s2 = half_rate(lambda v: power_gain_sf(sr, v / a2) * power_gain_sf(rd, v))
        return RateBreakdown(c_s1, 0.0, c_s2)
    def s_sum(w):
        inner = analytic._sd_integral(sd, np.array([w]), lambda s: power_gain_sf(rd, w - s))
        return min(power_gain_sf(sd, w) + float(inner[0]), 1.0)

    c = half_rate(lambda w: power_gain_sf(sr, w) * s_sum(w))
    return RateBreakdown(c, 0.0, 0.0)


def tanhsinh_reference(f):
    """int_0^1e3 f(x) dx by tanh-sinh on [0, 1e-6] and on each decade up to
    1e3, every piece in one vectorised call; ``f`` maps an array of nodes
    to an array of its shape."""
    edges = np.array([0.0, *(10.0 ** e for e in range(-6, 4))])
    res = integrate.tanhsinh(f, edges[:-1], edges[1:], rtol=1e-14, atol=1e-25)
    assert res.success.all()
    return math.fsum(res.integral)


def _links(k, omega_sr, omega_rd, omega_sd):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # some geometries break the relay placement assumption
        return NetworkGeometry(sr=make_link(k, omega_sr), rd=make_link(k, omega_rd), sd=make_link(k, omega_sd))


@pytest.mark.parametrize("k,omegas,db", [
    *((k, (8, 8, 3), db) for k in (0, 3, 10) for db in (0, 15, 30)),
    (30, (100, 0.5, 0.1), 40), (30, (0.01, 0.02, 0.005), 40), (30, (1e3, 5e2, 2e2), 40),
])
def test_quadrature_matches_quadpack_reference(k, omegas, db):
    g, rho, split = _links(k, *omegas), 10 ** (db / 10), PowerSplit(0.9, 0.1)
    for token in RATES:
        fast = ergodic_rate_quadrature_quantities(g, rho, token, split)
        ref = quadpack_reference(g, rho, token, split)
        for name in QUANTITIES:
            assert abs(fast[name] - ref[name]) <= 1e-10 * abs(ref[name]), (token, name)


@pytest.mark.parametrize("k,omegas,db,a2", [
    (10, (12, 12, 3), 30, 0.1),
    # at high SNR c_s1 is a1*rho/(2 ln2) times an integral that shrinks as
    # 1/rho, so a stop test on that integral would be loose in bit/s/Hz
    (500, (8, 8, 3), 65, 0.1), (500, (8, 8, 3), 90, 1e-6),
])
def test_quadrature_matches_split_interval_reference(k, omegas, db, a2):
    # adaptive QUADPACK over [0, inf) is 4e-9 off at the first case at epsrel
    # 1e-9; tanh-sinh on [0, 1e3] is not (every survival is below 1e-20 by 1e3)
    g, rho, split = _links(k, *omegas), 10 ** (db / 10), PowerSplit(1 - a2, a2)
    c_s1 = split.a1 * rho / (2 * math.log(2)) * tanhsinh_reference(
        lambda w: power_gain_sf(g.sd, w) * power_gain_sf(g.sr, w) / ((a2 * rho * w + 1) * (rho * w + 1)))
    c_s2 = 0.5 / math.log(2) * tanhsinh_reference(
        lambda v: rho * power_gain_sf(g.sr, v / a2) * power_gain_sf(g.rd, v) / (1 + rho * v))
    fast = ergodic_rate_quadrature_quantities(g, rho, "conventional", split)
    assert abs(fast.c_s1 - c_s1) <= 1e-13
    assert abs(fast.c_s2 - c_s2) <= 1e-13


@pytest.mark.parametrize("token", sorted(RATES))
def test_quadrature_makes_a_few_vectorised_survival_calls_per_level(token, monkeypatch):
    # each level of each outer integral evaluates at most three survivals
    # (CRS-OMA: S-R, S-D and the R-D inner rule), each on all new nodes
    sizes = []
    real_sf = analytic.power_gain_sf
    monkeypatch.setattr(analytic, "power_gain_sf", lambda link, x: sizes.append(np.size(x)) or real_sf(link, x))
    g = _links(3, 8, 8, 3)
    ergodic_rate_quadrature_quantities(g, 10 ** 2.5, token, PowerSplit(0.9, 0.1))
    integrals = 1 if token == "crs_oma" else 2
    # the first rule and at most 7 refinement levels: these spans take
    # over 64 first-rule steps, and a level evaluates at most 8192 nodes
    assert 0 < len(sizes) <= 3 * 8 * integrals
    assert min(sizes) > 50


@pytest.mark.parametrize("db", [-10, 0])
def test_quadrature_converges_where_the_crs_oma_s_d_density_is_narrow(db):
    # at K=300 the S-D density is a narrow peak near Omega_SD = 0.1, far
    # inside the S-R span; the inner rule spans at most the S-D reach, so
    # the outer rule stops at the reference's value.  The reference is
    # quadpack_reference's, its outer integral by tanh-sinh over [0, 1e3],
    # past the S-R reach of 193
    g, rho = _links(300, 100, 0.5, 0.1), 10 ** (db / 10)

    def s_sum(w):
        flat = w.ravel()
        inner = analytic._sd_integral(g.sd, flat, lambda s: power_gain_sf(g.rd, flat[:, None] - s))
        return np.minimum(power_gain_sf(g.sd, flat) + inner, 1.0).reshape(w.shape)

    ref = 0.5 / math.log(2) * tanhsinh_reference(
        lambda w: rho * power_gain_sf(g.sr, w) * s_sum(w) / (1 + rho * w))
    fast = ergodic_rate_quadrature_quantities(g, rho, "crs_oma")
    assert abs(fast.c_total - ref) <= 1e-10 * ref


@pytest.mark.parametrize("token,k,omegas,db", [
    ("crs_noma_exact", 3, (8, 8, 3), 50), ("crs_noma_exact", 3, (8, 8, 3), 80),
    ("crs_oma", 500, (100, 0.5, 0.1), 5),
])
def test_oracle_inner_rule_matches_four_times_the_nodes(token, k, omegas, db, monkeypatch):
    # exact mode at high SNR, where S_RD(y(1 + rho*s)) is gone a short way
    # into the S-D span, and CRS-OMA at K = 500, where the S-D density is a
    # narrow peak inside [0, w]
    g, rho = _links(k, *omegas), 10 ** (db / 10)
    rates = ergodic_rate_quadrature_quantities(g, rho, token)
    monkeypatch.setattr(analytic, "_INNER_NODES", 256)
    finer = ergodic_rate_quadrature_quantities(g, rho, token)
    for name in QUANTITIES:
        assert abs(rates[name] - finer[name]) <= 1e-12, name


def test_quadrature_bounds_its_work_at_extreme_inputs(monkeypatch):
    sizes = []
    real_sf = analytic.power_gain_sf
    monkeypatch.setattr(analytic, "power_gain_sf", lambda link, x: sizes.append(np.size(x)) or real_sf(link, x))
    assert math.isfinite(ergodic_rate_quadrature_quantities(_links(3, 1e100, 1e100, 1e100), 10.0,
                                                            "crs_noma_exact").c_total)
    # y*(1 + rho*s) overflows to inf here, where S_RD takes its limit 0, so
    # the oracle converges to its value at the scaled-down link powers
    huge = ergodic_rate_quadrature_quantities(_links(3, 1e300, 1e300, 1e300), 10.0, "crs_noma_exact").c_total
    scaled = ergodic_rate_quadrature_quantities(_links(3, 1.0, 1.0, 1.0), 1e301, "crs_noma_exact").c_total
    assert huge == pytest.approx(scaled, rel=1e-12)
    assert max(sizes) <= 8192 * 64
    with pytest.raises(DomainError, match="out of floating-point range"):
        ergodic_rate_quadrature_quantities(FIG3, 1e306, "crs_oma")


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    # with SciPy made unimportable, the whole runtime still works on the
    # fig3 powers at K = 3: the oracle for every token, both series, the
    # density and the survival; and so do the three commands, the sweep over
    # two Monte-Carlo blocks on the thread pool; the None entry is the
    # only scipy module
    code = """
import contextlib, io, os, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import ratelab
from ratelab import (NetworkGeometry, PowerSplit, RATES, ergodic_rate_quadrature_quantities,
                     ergodic_rate_series, make_link, power_gain_pdf, power_gain_sf)
from ratelab.cli import main
fig3 = NetworkGeometry(sr=make_link(3, 8), rd=make_link(3, 8), sd=make_link(3, 3))
for token in RATES:
    ergodic_rate_quadrature_quantities(fig3, 10.0, token, PowerSplit(0.9, 0.1))
ergodic_rate_series(fig3, 10.0, literal=True)
ergodic_rate_series(fig3, 10.0)
power_gain_pdf(fig3.sd, [0.0, 1.0])
power_gain_sf(fig3.sr, [0.0, 1.0])
tmp = sys.argv[1]
cfg = os.path.join(tmp, "mc.txt")
with open(cfg, "w") as fh:
    fh.write("preset = fig3\\n[sweep]\\nrho_db = 5\\ntrials = 140000\\n")
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["sweep", "--config", cfg, "--workers", "2", "--out", os.path.join(tmp, "mc.csv")]) == 0
    assert "concurrent.futures.thread" in sys.modules
    assert main(["calibrate", "--preset", "fig3", "--k-grid", "0,5", "--trials", "1000",
                 "--out", os.path.join(tmp, "cal.csv")]) == 0
    assert main(["discrepancy", "--preset", "fig3", "--out", os.path.join(tmp, "dis.csv")]) == 0
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(ratelab.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['scipy']"


@pytest.mark.parametrize("n", [64, 256])
def test_gauss_legendre_rule_is_exact_up_to_degree_2n_minus_1(n):
    u, w = analytic._unit_gauss_legendre(n)
    assert np.all(np.diff(u) > 0) and 0.0 < u[0] and u[-1] < 1.0
    assert np.all(w > 0) and abs(w.sum() - 1.0) <= 1e-15
    # int_0^1 u^k du = 1/(k + 1)
    for k in range(2 * n):
        assert abs(float(w @ u**k) * (k + 1) - 1.0) <= 1e-14, k


def test_oracle_builds_its_inner_rules_without_numpy_polynomial():
    code = """
import sys
from ratelab import NetworkGeometry, ergodic_rate_quadrature_quantities, make_link
fig3 = NetworkGeometry(sr=make_link(3, 8), rd=make_link(3, 8), sd=make_link(3, 3))
ergodic_rate_quadrature_quantities(fig3, 10.0, "crs_noma_exact")
ergodic_rate_quadrature_quantities(fig3, 10.0, "crs_oma")
print("numpy.polynomial" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(ratelab.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_convergence_error_reports_the_levels_and_the_last_gap(monkeypatch):
    monkeypatch.setattr(analytic, "_MAX_LEVEL_NODES", 150)
    with pytest.raises(ConvergenceError, match=r"after 1 refinement level\(s\): the next needs 224 nodes, over 150; "
                                               r"last gap between levels \d"):
        ergodic_rate_quadrature_quantities(FIG3, 1e4, "crs_noma_paper")


def test_oracle_at_3000_db_gives_finite_rows_without_a_warning():
    # rho = 1e300: the weight a1/(a2*rho*w + 1) of the conventional s1
    # half rate overflows its denominator and takes its limit 0 without a
    # RuntimeWarning; at rho = 1e305 exact mode's rho*s and y*(1 + rho*s)
    # can pass the float range too
    cfg = parse_config("preset = fig3\n[sweep]\nrho_db = 3000, 3050\nschemes = crs_noma, conventional, crs_oma\n"
                       "modes = paper, exact\nestimators = quadrature_oracle\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_sweep(cfg).rows
    assert len(rows) == 2 * 4 * len(QUANTITIES)
    assert all(math.isfinite(r.value) for r in rows)
    # as rho grows the s1 SINR tends to a1/a2 on both links
    c_s1 = [r.value for r in rows if (r.scheme, r.quantity) == ("conventional", "c_s1")]
    assert c_s1 == pytest.approx([0.5 * math.log2(1.0 + 0.9 / 0.1)] * 2, abs=1e-9)


# Their spans start on lattice nodes at odd distances apart, so the rows of
# the shared node set a rho reads sit at odd offsets at the first levels.
SEQUENCE_DB = (-10, 5, 7, 15, 47)


@pytest.mark.parametrize("k", [0, 3, 100])
@pytest.mark.parametrize("token", sorted(RATES))
def test_the_oracle_over_a_sequence_of_rho_gives_the_floats_of_single_calls(token, k):
    # each rho's nodes are a slice of one shared set, and its value depends
    # on its own nodes alone
    g, split = preset_geometry("fig3", k), PowerSplit(0.9, 0.1)
    rhos = [10 ** (db / 10) for db in SEQUENCE_DB]
    many = ergodic_rate_quadrature_quantities(g, rhos, token, split)
    for rho, rates in zip(rhos, many, strict=True):
        single = ergodic_rate_quadrature_quantities(g, rho, token, split)
        assert [rates[q] for q in QUANTITIES] == [single[q] for q in QUANTITIES], rho


@pytest.mark.parametrize("k", [0, 3, 100])
@pytest.mark.parametrize("literal", [False, True])
def test_the_series_over_a_sequence_of_rho_give_the_floats_of_single_calls(literal, k):
    g = preset_geometry("fig3", k)
    rhos = [10 ** (db / 10) for db in SEQUENCE_DB]
    many = ergodic_rate_series(g, rhos, literal=literal)
    for rho, rates in zip(rhos, many, strict=True):
        single = ergodic_rate_series(g, rho, literal=literal)
        assert [rates[q] for q in QUANTITIES] == [single[q] for q in QUANTITIES], rho


def test_a_sequence_of_rho_evaluates_each_shared_survival_once(monkeypatch):
    sizes = []
    real_sf = analytic.power_gain_sf
    monkeypatch.setattr(analytic, "power_gain_sf", lambda link, x: sizes.append(np.size(x)) or real_sf(link, x))
    g, rhos = preset_geometry("fig3", 3), [10 ** 0.5, 10 ** 1.5, 10 ** 2.5]
    singles = []
    for rho in rhos:
        sizes.clear()
        ergodic_rate_quadrature_quantities(g, rho, "crs_oma")
        singles.append(sum(sizes))
    sizes.clear()
    ergodic_rate_quadrature_quantities(g, rhos, "crs_oma")
    assert sum(sizes) <= 1.2 * max(singles)
    # the shared set is at most the largest span's nodes, so a long grid
    # keeps every survival call within one level's budget
    grid = [10 ** (db / 10) for db in range(-20, 101)]
    for token in RATES:
        sizes.clear()
        ergodic_rate_quadrature_quantities(g, grid, token, PowerSplit(0.9, 0.1))
        assert 0 < max(sizes) <= analytic._MAX_LEVEL_NODES * analytic._INNER_NODES, token


def test_each_rho_of_a_sequence_keeps_its_own_budget_and_errors(monkeypatch):
    # at 200 nodes a level, paper mode converges at 0 dB and runs out of
    # nodes at 100 dB, whose span is longer; a sequence raises the error
    # of the rho that fails, as a single call gives it
    monkeypatch.setattr(analytic, "_MAX_LEVEL_NODES", 200)
    g, low, high = preset_geometry("fig3", 3), 1.0, 1e10
    ergodic_rate_quadrature_quantities(g, low, "crs_noma_paper")
    with pytest.raises(ConvergenceError) as single:
        ergodic_rate_quadrature_quantities(g, high, "crs_noma_paper")
    assert "the next needs 274 nodes, over 200" in str(single.value)
    for rhos in ([low, high], [high, low]):
        with pytest.raises(ConvergenceError) as many:
            ergodic_rate_quadrature_quantities(g, rhos, "crs_noma_paper")
        assert str(many.value) == str(single.value)
    with pytest.raises(DomainError, match="out of floating-point range"):
        ergodic_rate_quadrature_quantities(FIG3, [10.0, 1e306], "crs_oma")


def test_the_inner_rule_gives_a_node_the_same_float_in_any_slice():
    # CRS-OMA evaluates its inner rule once on the shared node set, and
    # each rho reads a slice of it; a BLAS product rounds a row by its
    # position in the matrix
    g = preset_geometry("fig3", 3)
    w = np.exp(np.linspace(-40.0, 3.0, 2048))

    def inner(top):
        return analytic._sd_integral(g.sd, top, lambda s: power_gain_sf(g.rd, top[:, None] - s))

    full = inner(w)
    for k in (1, 3, 7, 1001):
        assert np.array_equal(inner(w[k:]), full[k:]), k
