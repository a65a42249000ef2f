"""The benchmark's workloads: what each runs, at what size, and how its
output is checked.

A workload is a config document for ``ratelab.sweep.parse_config`` (the
set-up), a computation through the rendered CSV text (the timed part)
and a correctness check run afterwards, outside the timed region.  Sizes
are fields of the config template so the tests can run the same code at
a tiny size.
"""

import math
import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable

from ratelab import analytic, sweep
from ratelab.channel import NetworkGeometry, make_link
from ratelab.montecarlo import estimate_rates

NPROC = len(os.sched_getaffinity(0))
FALSE_ALARM = 1e-4  # chance per run that correct code fails the Monte-Carlo check
QUANTITIES = ("c_s1", "c_s2", "c_total", "c_relay_s1", "c_direct_s1")


@dataclass(frozen=True)
class Workload:
    config: str  # parse_config template, filled from the seed and a size
    size: dict  # benchmark size
    tiny: dict  # smoke-test size
    compute: Callable  # (config, size) -> (result, csv text)
    check: Callable  # (config, size, result) -> (problems, series_max_abs_err)


def _mc_tolerance(std_err: float, cells: int) -> float:
    """Acceptance criterion 1's max(3 SE, 0.005), with 3 raised to the
    two-sided Bonferroni quantile for ``cells`` comparisons.  A run checks
    dozens of cells at a fresh seed, and with 3 SE alone correct code
    failed 1 of 21 calibrate runs."""
    z = max(3.0, NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2 * cells)))
    return max(z * std_err, 0.005)


def _series_error(geometry, rho: float, oracle_c_total: float) -> float:
    return abs(analytic.ergodic_rate_series(geometry, rho).c_total - oracle_c_total)


def _compute_sweep(cfg, size):
    result = sweep.run_sweep(cfg)
    return result, sweep.render_csv(result)


def _rows(result) -> dict:
    return {(r.rho_db, r.scheme, r.mode, r.estimator, r.quantity): r for r in result.rows}


def _check_mc_sweep(cfg, size, result):
    """Paper mode and the baselines against the quadrature oracle; exact
    mode (its nested oracle is too slow to run here) only for being
    dominated by paper mode, which holds per realization."""
    problems, err = [], 0.0
    rows = _rows(result)
    expected = len(cfg.rho_grid_db) * (len(cfg.modes) + 2) * len(QUANTITIES)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    checked = (("crs_noma", "paper", "crs_noma_paper"), ("conventional", "-", "conventional"),
               ("crs_oma", "-", "crs_oma"))
    cells = len(cfg.rho_grid_db) * len(checked) * len(QUANTITIES)
    for rho_db in cfg.rho_grid_db:
        rho = sweep.db_to_linear(rho_db)
        for scheme, mode, token in checked:
            oracle = analytic.ergodic_rate_quadrature_quantities(cfg.geometry, rho, token, cfg.split)
            for q in QUANTITIES:
                row = rows[(rho_db, scheme, mode, "monte_carlo", q)]
                if abs(row.value - oracle[q]) > _mc_tolerance(row.std_err, cells):
                    problems.append(f"{rho_db} dB {token} {q}: MC {row.value} vs oracle {oracle[q]}")
            if token == "crs_noma_paper":
                err = max(err, _series_error(cfg.geometry, rho, oracle["c_total"]))
        for q in ("c_relay_s1", "c_total"):
            paper = rows[(rho_db, "crs_noma", "paper", "monte_carlo", q)].value
            exact = rows[(rho_db, "crs_noma", "exact", "monte_carlo", q)].value
            if exact > paper + 1e-12:
                problems.append(f"{rho_db} dB {q}: exact {exact} above paper {paper}")
    return problems, err


def _check_oracle_sweep(cfg, size, result):
    """Acceptance criterion 2: corrected series within 5% of the oracle at
    >= 15 dB; the oracle's exact-mode total below its paper-mode total."""
    problems, err = [], 0.0
    rows = _rows(result)
    expected = len(cfg.rho_grid_db) * (len(cfg.modes) + 2 + 2) * len(QUANTITIES)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    for rho_db in cfg.rho_grid_db:
        paper = rows[(rho_db, "crs_noma", "paper", "quadrature_oracle", "c_total")].value
        exact = rows[(rho_db, "crs_noma", "exact", "quadrature_oracle", "c_total")].value
        series = rows[(rho_db, "crs_noma", "paper", "series_corrected", "c_total")].value
        err = max(err, abs(series - paper))
        if rho_db >= 15.0 and abs(series - paper) > 0.05 * paper:
            problems.append(f"{rho_db} dB: corrected series {series} vs oracle {paper}")
        if exact > paper + 1e-9:
            problems.append(f"{rho_db} dB: oracle exact {exact} above paper {paper}")
    return problems, err


def _compute_calibrate(cfg, size):
    result = sweep.calibrate_k(cfg.preset, k_grid=size["k_grid"], trials=cfg.trials,
                               seed=cfg.seed, workers=NPROC)
    return result, sweep.render_calibration_csv(result)


def _check_calibrate(cfg, size, result):
    """Every simulated rate reproduces exactly and lies within the
    Monte-Carlo tolerance of the oracle; the residuals and the best K are
    consistent."""
    problems, err = [], 0.0
    omegas = sweep.PRESETS[cfg.preset]
    split = cfg.split
    if len(result.residuals) != len(size["k_grid"]) * len(result.targets):
        problems.append(f"{len(result.residuals)} residuals for {len(size['k_grid'])} K values")
    for k, rho_db, scheme, sim, target, residual in result.residuals:
        g = NetworkGeometry(sr=make_link(k, omegas["omega_sr"]), rd=make_link(k, omegas["omega_rd"]),
                            sd=make_link(k, omegas["omega_sd"]))
        rho = sweep.db_to_linear(rho_db)
        mc = next(r for r in estimate_rates(g, rho, (scheme,), "paper", split, cfg.trials,
                                            cfg.seed, NPROC) if r.quantity == "c_total")
        token = "crs_noma_paper" if scheme == "crs_noma" else scheme
        oracle = analytic.ergodic_rate_quadrature_quantities(g, rho, token, split)["c_total"]
        if mc.mean != sim:
            problems.append(f"K={k} {rho_db} dB {scheme}: rerun gives {mc.mean}, calibration {sim}")
        if abs(sim - oracle) > _mc_tolerance(mc.std_err, len(result.residuals)):
            problems.append(f"K={k} {rho_db} dB {scheme}: MC {sim} vs oracle {oracle}")
        if residual != sim - target:
            problems.append(f"K={k} {rho_db} dB {scheme}: residual {residual} != {sim} - {target}")
        if scheme == "crs_noma":
            err = max(err, _series_error(g, rho, oracle))
    best = min(result.sse_by_k, key=lambda kv: kv[1])
    if result.best_k != best[0] or not math.isfinite(best[1]):
        problems.append(f"best K {result.best_k}, minimum SSE at {best}")
    return problems, err


_SWEEP = """\
preset = fig3
[geometry]
k = {k}
[sweep]
rho_db = {rho_db}
schemes = crs_noma, conventional, crs_oma
modes = paper, exact
estimators = {estimators}
trials = {trials}
seed = {seed}
"""

WORKLOADS = {
    # Plain single-threaded Monte-Carlo sweep at K=0: time goes to channel
    # sampling, the rate functions and the block loop, none to analytic.
    "mc_sweep": Workload(
        config=_SWEEP,
        size={"k": 0, "rho_db": "0:30:10", "estimators": "monte_carlo", "trials": 1 << 18},
        tiny={"k": 0, "rho_db": "0, 20", "estimators": "monte_carlo", "trials": 2000},
        compute=_compute_sweep,
        check=_check_mc_sweep,
    ),
    # Quadrature oracle and both series at K=3: scalar Marcum-Q survival
    # calls inside nested quadrature; no Monte-Carlo.
    "oracle_sweep": Workload(
        config=_SWEEP,
        size={"k": 3, "rho_db": "5, 15, 25", "trials": 1,
              "estimators": "quadrature_oracle, series_corrected, series_paper_literal"},
        tiny={"k": 3, "rho_db": "15", "trials": 1,
              "estimators": "quadrature_oracle, series_corrected, series_paper_literal"},
        compute=_compute_sweep,
        check=_check_oracle_sweep,
    ),
    # K calibration over 21 geometries: many small single-scheme
    # Monte-Carlo calls, two blocks each on a thread pool of nproc workers.
    "calibrate": Workload(
        config="preset = fig3\n[sweep]\ntrials = {trials}\nseed = {seed}\n",
        size={"trials": 1 << 18, "k_grid": [i * 0.5 for i in range(21)]},
        tiny={"trials": 2000, "k_grid": [0.0, 10.0]},
        compute=_compute_calibrate,
        check=_check_calibrate,
    ),
}


def build_config(name: str, seed: int, size: dict):
    """The set-up step: parse the workload's config document."""
    return sweep.parse_config(WORKLOADS[name].config.format(seed=seed, **size))
