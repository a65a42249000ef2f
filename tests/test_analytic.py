import math

import numpy as np
import pytest
from scipy import integrate, special

from ratelab import (
    ChannelRealization,
    ClampStats,
    NetworkGeometry,
    PowerSplit,
    SeriesTruncation,
    cdf_gamma2_paper,
    cdf_min_pair_approx,
    cdf_min_pair_series,
    cdf_single_link_series,
    crs_noma_rate,
    ergodic_rate_quadrature_quantities,
    ergodic_rate_series,
    estimate_rates,
    g_rho,
    h_rho,
    make_link,
    power_gain_cdf,
    power_gain_pdf,
    power_gain_sf,
    sample_power_gains,
    split_stream,
)
from ratelab.errors import ConvergenceError, DomainError, TruncationWarning

FIG3 = NetworkGeometry(sr=make_link(0, 8), rd=make_link(0, 8), sd=make_link(0, 3))


def ln_rate_exponential(rho, omega):
    """E[ln(1 + rho X)] for X exponential with mean omega (closed form)."""
    z = 1.0 / (rho * omega)
    return math.exp(z) * special.exp1(z)


def test_truncation_validation():
    SeriesTruncation(0, 0, 1, 1e-9)
    with pytest.raises(DomainError):
        SeriesTruncation(n_max=-1)
    with pytest.raises(DomainError):
        SeriesTruncation(quad_order=0)
    with pytest.raises(DomainError):
        SeriesTruncation(tail_tol=0.0)


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
        trunc = SeriesTruncation(n_max=60, k_max=60)
        want = power_gain_cdf(a, g) + power_gain_cdf(b, g) - power_gain_cdf(a, g) * power_gain_cdf(b, g)
        assert cdf_min_pair_series(a, b, g, trunc) == pytest.approx(want, abs=1e-8)


def test_min_pair_rejects_negative_gamma():
    with pytest.raises(DomainError):
        cdf_min_pair_series(make_link(0, 1), make_link(0, 1), -0.1)


def test_min_pair_truncation_warning():
    trunc = SeriesTruncation(n_max=3, k_max=3)
    with pytest.warns(TruncationWarning):
        cdf_min_pair_series(make_link(9, 4), make_link(9, 4), 1.0, trunc)


def test_single_link_series_values():
    assert cdf_single_link_series(make_link(0, 1), math.log(2)) == pytest.approx(0.5, abs=1e-12)
    link = make_link(2, 3)
    assert cdf_single_link_series(link, 1e3 * link.mean_power) == pytest.approx(1.0, abs=1e-6)
    link = make_link(3, 3)
    assert cdf_single_link_series(link, 3.0) == pytest.approx(power_gain_cdf(link, 3.0), abs=1e-8)


def test_single_link_series_tracks_marcum_grid():
    link = make_link(7, 5)
    xs = np.linspace(0.0, 40.0, 1000)
    trunc = SeriesTruncation(n_max=60)
    vals = np.array([cdf_single_link_series(link, float(x), trunc) for x in xs])
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


def test_approx_form_boundary_and_clamp_counting():
    a = make_link(3, 1)  # inv_scale 4 > 1 drives the raw value negative at 0
    b = make_link(3, 1)
    stats = ClampStats()
    assert cdf_min_pair_approx(a, b, 0.0, clamp_stats=stats) == 0.0
    assert stats.events == 1
    assert stats.max_excess > 0
    raw = cdf_min_pair_approx(a, b, 0.0, clamp=False)
    assert raw < 0.0


def test_approx_deviation_from_exact_is_visible():
    a = make_link(3, 8)
    b = make_link(3, 8)
    dev = abs(cdf_min_pair_approx(a, b, 4.0) - cdf_min_pair_series(a, b, 4.0))
    assert dev > 1e-3


def test_clamp_stats_not_triggered_on_valid_series():
    stats = ClampStats()
    cdf_min_pair_series(make_link(1, 2), make_link(2, 3), 1.0, clamp_stats=stats)
    cdf_single_link_series(make_link(1, 2), 1.0, clamp_stats=stats)
    assert stats.events == 0


def test_h_rho_rayleigh_high_snr_against_oracle():
    # K=0, Omega=8 pair: exact value e^z E1(z), z = (a_a+a_b)/rho
    a = make_link(0, 8)
    b = make_link(0, 8)
    rho = 1e3
    want = ln_rate_exponential(rho, 4.0)  # min of two exp(8) is exp(4)
    got = h_rho(a, b, rho)
    assert got == pytest.approx(want, rel=0.05)
    # finer quadrature converges much closer
    got200 = h_rho(a, b, rho, SeriesTruncation(quad_order=200))
    assert got200 == pytest.approx(want, rel=2e-3)


def test_h_rho_quad_order_one_is_finite():
    v = h_rho(make_link(1, 2), make_link(0, 3), 10.0, SeriesTruncation(quad_order=1))
    assert math.isfinite(v) and v >= 0


def test_h_rho_rejects_nonpositive_rho():
    with pytest.raises(DomainError):
        h_rho(make_link(0, 1), make_link(0, 1), 0.0)
    with pytest.raises(DomainError):
        g_rho(make_link(0, 1), None, -2.0)


def test_g_rho_single_link_against_oracle():
    # corrected mode: the S-D link alone
    rho = 1e3
    want = ln_rate_exponential(rho, 3.0)
    got = g_rho(make_link(0, 3), None, rho)
    assert got == pytest.approx(want, rel=0.05)


def test_g_rho_pair_matches_h_rho():
    z, y = make_link(2, 5), make_link(1, 7)
    assert g_rho(z, y, 50.0) == h_rho(z, y, 50.0)


def test_ergodic_series_report_invariant_and_mapping():
    rep = ergodic_rate_series(FIG3, 100.0)
    assert rep.c_total == rep.c_relay_s1 + 2.0 * rep.c_direct_s1
    assert rep.c_s1 == rep.c_relay_s1 + rep.c_direct_s1
    assert rep.c_s2 == rep.c_direct_s1
    to_bits = 2.0 * math.log(2.0)
    # corrected: H over (S-R, R-D), G over the S-D link alone
    assert rep.c_relay_s1 == h_rho(FIG3.sr, FIG3.rd, 100.0) / to_bits
    assert rep.c_direct_s1 == g_rho(FIG3.sd, None, 100.0) / to_bits
    # literal: H over (S-D, S-R), G over (R-D, S-R), as printed
    lit = ergodic_rate_series(FIG3, 100.0, literal=True)
    assert lit.c_relay_s1 == h_rho(FIG3.sd, FIG3.sr, 100.0) / to_bits
    assert lit.c_direct_s1 == g_rho(FIG3.rd, FIG3.sr, 100.0) / to_bits
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
    r = ChannelRealization(
        sample_power_gains(g.sr, rng, n),
        sample_power_gains(g.rd, rng, n),
        sample_power_gains(g.sd, rng, n),
    )
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
    with pytest.raises(DomainError):
        ergodic_rate_quadrature_quantities(FIG3, 0.0, "crs_noma_paper")
    with pytest.raises(DomainError):
        ergodic_rate_quadrature_quantities(FIG3, 1.0, "nonsense")
    with pytest.raises(DomainError):
        ergodic_rate_quadrature_quantities(FIG3, 1.0, "conventional", split=None)


def test_quadrature_budget_exhaustion_raises():
    with pytest.raises(ConvergenceError):
        ergodic_rate_quadrature_quantities(FIG3, 1e4, "crs_noma_paper", budget=1)


def nested_quadrature_reference(g, rho, scheme):
    """The five quantities of exact-mode CRS-NOMA or CRS-OMA with the
    inner integral over the S-D gain done by adaptive quadrature too."""
    sr, rd, sd = g.sr, g.rd, g.sd

    def quad(f, lo, hi, epsabs, epsrel):
        return integrate.quad(f, lo, hi, limit=200, epsabs=epsabs, epsrel=epsrel)[0]

    def half_rate(survival):  # 0.5 E[log2(1 + rho X)] from the survival of X
        integral = quad(lambda x: rho * survival(x) / (1 + rho * x), 0, np.inf, 1e-10, 1e-9)
        return 0.5 * integral / math.log(2)

    if scheme == "crs_noma_exact":
        def s_relay(y):
            inner = quad(lambda s: power_gain_sf(rd, y * (1 + rho * s)) * power_gain_pdf(sd, s),
                         0, np.inf, 1e-11, 1e-10)
            return power_gain_sf(sr, y) * inner

        c_relay = half_rate(s_relay)
        c_direct = half_rate(lambda x: power_gain_sf(sd, x))
        return {"c_relay_s1": c_relay, "c_direct_s1": c_direct, "c_s1": c_relay + c_direct,
                "c_s2": c_direct, "c_total": c_relay + 2 * c_direct}

    def s_branch_sum(w):  # P[lambda_SD + lambda_RD > w]
        inner = quad(lambda s: power_gain_sf(rd, w - s) * power_gain_pdf(sd, s), 0, w, 1e-11, 1e-10)
        return min(power_gain_sf(sd, w) + inner, 1.0)

    c = half_rate(lambda w: power_gain_sf(sr, w) * s_branch_sum(w))
    return {"c_relay_s1": c, "c_direct_s1": 0.0, "c_s1": c, "c_s2": 0.0, "c_total": c}


@pytest.mark.parametrize("scheme,k", [("crs_noma_exact", 0), ("crs_noma_exact", 3),
                                      ("crs_oma", 0), ("crs_oma", 10)])
def test_quadrature_fixed_inner_rule_matches_nested_reference(scheme, k):
    g = NetworkGeometry(sr=make_link(k, 8), rd=make_link(k, 8), sd=make_link(k, 3))
    rho = 10 ** 0.5
    fast = ergodic_rate_quadrature_quantities(g, rho, scheme)
    ref = nested_quadrature_reference(g, rho, scheme)
    for name, value in ref.items():
        assert abs(fast[name] - value) <= 1e-10, name
