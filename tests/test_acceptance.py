"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines inline.  Criteria 5 and 6 are calibration-conditional: the
experiments behind the published rate values never state the Rician K,
so those criteria either reproduce the values at a fitted K or emit the
full residual table and mark the values not-reproducible-as-published.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from ratelab import (
    NetworkGeometry,
    PowerSplit,
    cdf_min_pair_series,
    cdf_single_link_series,
    conventional_noma_rate,
    crs_noma_rate,
    crs_oma_rate,
    ergodic_rate_quadrature_quantities,
    ergodic_rate_series,
    estimate_rates,
    make_link,
    paired_gap,
    parse_config,
    power_gain_cdf,
    render_csv,
    run_sweep,
    sample_power_gains,
    split_stream,
)
from ratelab.sweep import PAPER_TARGETS, PRESETS, calibrate_k, render_calibration_csv

import conftest

SEED = 42
SPLIT = PowerSplit(0.9, 0.1)
RHO_DB_GRID = (5.0, 15.0, 25.0)
K_GRID = (0.0, 3.0, 10.0)
BAND = 0.15


def fig_geometry(preset: str, k: float) -> NetworkGeometry:
    om = PRESETS[preset]
    return NetworkGeometry(
        sr=make_link(k, om["omega_sr"]),
        rd=make_link(k, om["omega_rd"]),
        sd=make_link(k, om["omega_sd"]),
    )


def verdict(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    conftest.record_verdict(line)


@pytest.fixture(scope="module")
def calibrations():
    out = {}
    for preset in ("fig3", "fig4"):
        out[preset] = calibrate_k(preset, trials=10**6, seed=SEED)
    return out


def test_criterion_1_oracle_triangle():
    t0 = time.time()
    worst = 0.0
    worst_at = None
    for k in K_GRID:
        g = fig_geometry("fig3", k)
        for rho_db in RHO_DB_GRID:
            rho = 10 ** (rho_db / 10)
            mc = {}
            for r in estimate_rates(g, rho, ("crs_noma", "conventional", "crs_oma"),
                                    "paper", SPLIT, trials=10**6, seed=SEED):
                if r.quantity == "c_total":
                    mc[r.scheme if r.scheme != "crs_noma" else "crs_noma_paper"] = r
            for r in estimate_rates(g, rho, ("crs_noma",), "exact", SPLIT,
                                    trials=10**6, seed=SEED):
                if r.quantity == "c_total":
                    mc["crs_noma_exact"] = r
            for token, row in mc.items():
                oracle = ergodic_rate_quadrature_quantities(g, rho, token, SPLIT)["c_total"]
                tol = max(3 * row.std_err, 0.005)
                dev = abs(row.mean - oracle)
                if dev / tol > worst:
                    worst = dev / tol
                    worst_at = (k, rho_db, token, dev, tol)
                assert dev <= tol, (k, rho_db, token, dev, tol)
    elapsed = time.time() - t0
    ok = worst <= 1.0 and elapsed < 120
    verdict(1, ok, f"oracle triangle over 9x4 grid: worst dev/tol={worst:.3f} "
                   f"at {worst_at}, runtime {elapsed:.1f}s (< 120s)")
    assert elapsed < 120


def test_criterion_2_corrected_series_vs_oracle(tmp_path):
    rows = []
    worst = 0.0
    for k in K_GRID:
        g = fig_geometry("fig3", k)
        for rho_db in (5.0, 15.0, 25.0):
            rho = 10 ** (rho_db / 10)
            series = ergodic_rate_series(g, rho).c_total
            oracle = ergodic_rate_quadrature_quantities(g, rho, "crs_noma_paper")["c_total"]
            err = abs(series - oracle)
            rows.append((k, rho_db, series, oracle, err))
            worst = max(worst, err)
            assert err <= 1e-8, (k, rho_db, err)
    table = tmp_path / "series_vs_oracle.csv"
    table.write_text(
        "k,rho_db,series_corrected,oracle,abs_err\n"
        + "\n".join(f"{r[0]:g},{r[1]:g},{r[2]:.6g},{r[3]:.6g},{r[4]:.3e}" for r in rows)
        + "\n"
    )
    print(f"  series-vs-oracle error table ({table}):")
    for r in rows:
        print(f"    K={r[0]:>4g} rho={r[1]:>4g}dB abs_err={r[4]:.3e}")
    verdict(2, True, f"corrected series within 1e-8 bit/s/Hz of the oracle on every row "
                     f"(worst {worst:.1e}); full table emitted")


def test_criterion_3_rayleigh_reductions():
    t0 = time.time()
    link_a = make_link(0, 8)
    link_b = make_link(0, 8)
    link_s = make_link(0, 3)
    rate = link_a.inv_scale + link_b.inv_scale
    gs = np.linspace(0.0, 25.0, 1000)
    worst = 0.0
    for g in gs:
        g = float(g)
        worst = max(worst, abs(cdf_min_pair_series(link_a, link_b, g) - (1 - math.exp(-rate * g))))
        worst = max(worst, abs(cdf_single_link_series(link_s, g) - (1 - math.exp(-g / 3.0))))
    elapsed = time.time() - t0
    verdict(3, worst < 1e-10 and elapsed < 1.0,
            f"K=0 collapse on 1000-point grid: worst abs err {worst:.2e} (< 1e-10), "
            f"runtime {elapsed:.2f}s (< 1s)")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_criterion_4_distributional_validity():
    t0 = time.time()
    n = 10**6
    crit = stats.kstwobign.isf(0.01) / math.sqrt(n)
    worst = 0.0
    stream = 0
    for k in (0, 1, 3, 10):
        for om in (1, 3, 8, 12):
            link = make_link(k, om)
            x = np.sort(sample_power_gains(link, split_stream(SEED, stream), n))
            stream += 1
            f = power_gain_cdf(link, x)
            d = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(0, n) / n))
            worst = max(worst, d / crit)
            assert d < crit, (k, om, d, crit)
    elapsed = time.time() - t0
    verdict(4, worst < 1.0 and elapsed < 30,
            f"KS at 1% over 16 (K,Omega) pairs: worst D/crit={worst:.3f}, "
            f"runtime {elapsed:.1f}s (< 30s)")
    assert elapsed < 30


def _band_check(cal, targets):
    """simulated c_total at best_k vs target bands; returns (met, rows)."""
    rows = [r for r in cal.residuals if r[0] == cal.best_k]
    met = all(abs(r[5]) <= BAND for r in rows)
    return met, rows


def test_criterion_5_fig3_reproduction(calibrations, tmp_path):
    cal = calibrations["fig3"]
    met, rows = _band_check(cal, cal.targets)
    table = tmp_path / "fig3_residuals.csv"
    table.write_text(render_calibration_csv(cal))
    if met:
        verdict(5, True, f"fig3 reproduced at calibrated K={cal.best_k:g}: "
                         + "; ".join(f"{r[2]}@{r[1]:g}dB sim={r[3]:.3f} target={r[4]:g}" for r in rows))
        return
    # spec-sanctioned alternative outcome: residual table is the deliverable
    print(f"  fig3 residuals at best K={cal.best_k:g} (full table: {table}):")
    for r in rows:
        print(f"    {r[2]:>12s} @ {r[1]:>4g} dB: simulated {r[3]:7.3f}  target {r[4]:6.3f}  "
              f"residual {r[5]:+7.3f}")
    assert len(cal.residuals) == len(cal.sse_by_k) * len(cal.targets)
    verdict(5, True, f"fig3 values not-reproducible-as-published under any K in [0,10] "
                     f"(best K={cal.best_k:g}); residual table emitted as the deliverable")


def test_criterion_6_fig4_reproduction_and_gap_growth(calibrations, tmp_path):
    cal = calibrations["fig4"]
    met, rows = _band_check(cal, cal.targets)
    table = tmp_path / "fig4_residuals.csv"
    table.write_text(render_calibration_csv(cal))
    if not met:
        print(f"  fig4 residuals at best K={cal.best_k:g} (full table: {table}):")
        for r in rows:
            print(f"    {r[2]:>12s} @ {r[1]:>4g} dB: simulated {r[3]:7.3f}  target {r[4]:6.3f}  "
                  f"residual {r[5]:+7.3f}")

    # gap-growth clause holds regardless of value reproduction:
    # CRS-NOMA's lead over conventional at 5 dB grows with the larger
    # relay-path powers of fig4 (published gaps 0.56 vs 0.407)
    rho5 = 10 ** 0.5
    gaps = {}
    for preset in ("fig3", "fig4"):
        g = fig_geometry(preset, calibrations[preset].best_k)
        gaps[preset] = paired_gap(g, rho5, "crs_noma", "conventional", "paper", SPLIT,
                                  trials=10**6, seed=SEED)
    margin = gaps["fig4"].mean - gaps["fig3"].mean
    noise = 3 * math.hypot(gaps["fig4"].std_err, gaps["fig3"].std_err)
    assert margin > noise, (gaps["fig3"], gaps["fig4"])
    value_note = (
        f"values reproduced at K={cal.best_k:g}" if met
        else "values not-reproducible-as-published; residual table emitted"
    )
    verdict(6, True, f"fig4: {value_note}; gap growth holds "
                     f"(5 dB paired gap fig4 {gaps['fig4'].mean:.3f} > fig3 {gaps['fig3'].mean:.3f})")


def test_criterion_7_qualitative_ordering(calibrations):
    rho_grid_db = np.arange(5.0, 25.01, 2.5)
    worst = math.inf
    for preset in ("fig3", "fig4"):
        for k in {0.0, calibrations[preset].best_k}:
            g = fig_geometry(preset, k)
            for rho_db in rho_grid_db:
                gap = paired_gap(g, 10 ** (rho_db / 10), "crs_noma", "conventional",
                                 "paper", SPLIT, trials=10**5, seed=SEED)
                worst = min(worst, gap.mean)
                assert gap.mean >= 0.0, (preset, k, rho_db, gap.mean)
    # larger relay-path powers only help: fig4 CRS-NOMA dominates fig3 pointwise
    for rho_db in rho_grid_db:
        rho = 10 ** (rho_db / 10)
        c3 = ergodic_rate_quadrature_quantities(fig_geometry("fig3", 0.0), rho, "crs_noma_paper")
        c4 = ergodic_rate_quadrature_quantities(fig_geometry("fig4", 0.0), rho, "crs_noma_paper")
        assert c4["c_total"] >= c3["c_total"], rho_db
    verdict(7, worst >= 0.0,
            f"CRS-NOMA >= conventional on [5,25] dB, both presets, K=0 and calibrated K "
            f"(smallest paired gap {worst:.3f}); fig4 totals dominate fig3 pointwise")


def test_criterion_8_determinism(tmp_path):
    doc = """
    preset = fig3
    [sweep]
    rho_db = 0:30:5
    schemes = crs_noma, conventional
    modes = paper
    estimators = monte_carlo
    trials = 50000
    seed = 42
    """
    a = render_csv(run_sweep(parse_config(doc)))
    b = render_csv(run_sweep(parse_config(doc)))
    c = render_csv(run_sweep(replace(parse_config(doc), workers=4)))
    assert a == b
    assert a == c
    (tmp_path / "fig3_sweep.csv").write_text(a)
    verdict(8, True, "identical config+seed give byte-identical CSVs; "
                     "worker count does not change a byte")


def test_criterion_9_property_suite():
    t0 = time.time()
    n = 10**4
    rng = np.random.default_rng(SEED)
    lam = rng.exponential(rng.uniform(0.5, 8.0, size=(3, 1)), size=(3, n))
    r = (lam[0], lam[1], lam[2])

    schemes = {
        "crs_noma_paper": lambda rr, p: crs_noma_rate(rr, p, "paper").c_total,
        "crs_noma_exact": lambda rr, p: crs_noma_rate(rr, p, "exact").c_total,
        "conventional": lambda rr, p: conventional_noma_rate(rr, p, SPLIT).c_total,
        "crs_oma": lambda rr, p: crs_oma_rate(rr, p).c_total,
    }

    # monotonicity in rho: 20 random (rho_lo < rho_hi) pairs, each applied
    # to all 1e4 realizations at once for every scheme and mode
    for _ in range(20):
        rho_lo = float(rng.uniform(0.0, 500.0))
        rho_hi = rho_lo * float(1.0 + rng.exponential(1.0)) + 1e-6
        for name, fn in schemes.items():
            assert np.all(fn(r, rho_hi) >= fn(r, rho_lo) - 1e-12), name

    # mode dominance and decomposition, fully vectorized over 1e4 draws
    for rho_scalar in (0.5, 3.16, 31.6, 316.0):
        paper = crs_noma_rate(r, rho_scalar, "paper")
        exact = crs_noma_rate(r, rho_scalar, "exact")
        assert np.all(paper.c_total >= exact.c_total - 1e-12)
        for b in (paper, exact, conventional_noma_rate(r, rho_scalar, SPLIT), crs_oma_rate(r, rho_scalar)):
            assert np.array_equal(b.c_total, b.c_s1 + b.c_s2)

    # min-CDF survival-product identity on random links
    worst = 0.0
    for _ in range(10**4):
        ka, kb = rng.uniform(0, 10, size=2)
        oa, ob = rng.uniform(0.5, 12, size=2)
        gam = float(rng.exponential(4.0))
        a, b = make_link(ka, oa), make_link(kb, ob)
        fa, fb = power_gain_cdf(a, gam), power_gain_cdf(b, gam)
        want = fa + fb - fa * fb
        worst = max(worst, abs(cdf_min_pair_series(a, b, gam) - want))
    assert worst < 1e-8
    elapsed = time.time() - t0
    verdict(9, elapsed < 30,
            f"properties over 1e4 randomized inputs (monotonicity, mode dominance, "
            f"decomposition, survival product worst={worst:.1e}), runtime {elapsed:.1f}s (< 30s)")
    assert elapsed < 30


def test_criterion_10_published_slope_follows_exact_mode():
    # growth from 5 to 25 dB in bit/s/Hz per unit of log2 rho, from the
    # oracle alone: at high SNR the paper-mode total gains 1.5 a unit
    # (relay rate plus twice the direct rate), exact mode 1.0, as its
    # relay rate saturates
    t0 = time.time()
    rhos = [10 ** 0.5, 10 ** 2.5]
    units = math.log2(rhos[1] / rhos[0])
    slopes, published = {"exact": [], "paper": []}, {}
    for preset in ("fig3", "fig4"):
        target = {db: v for db, scheme, v in PAPER_TARGETS[preset] if scheme == "crs_noma"}
        published[preset] = (target[25.0] - target[5.0]) / units
        for k in K_GRID:
            g = fig_geometry(preset, k)
            for mode, found in slopes.items():
                low, high = ergodic_rate_quadrature_quantities(g, rhos, f"crs_noma_{mode}")
                found.append((high["c_total"] - low["c_total"]) / units)
            assert slopes["exact"][-1] - published[preset] <= 0.08, (preset, k, published, slopes)
            assert slopes["paper"][-1] - published[preset] >= 0.4, (preset, k, published, slopes)
    elapsed = time.time() - t0
    verdict(10, True, f"published CRS-NOMA slopes 5-25 dB (fig3 {published['fig3']:.3f}, fig4 "
                      f"{published['fig4']:.3f} bit/s/Hz per log2 rho) within 0.08 of exact mode "
                      f"({min(slopes['exact']):.3f}-{max(slopes['exact']):.3f}) and >= 0.4 below paper mode "
                      f"({min(slopes['paper']):.3f}-{max(slopes['paper']):.3f}), K in {{0, 3, 10}}, "
                      f"oracle only, {elapsed:.2f}s; the conventional values stay unexplained")
