import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ratelab
from ratelab import (
    emit_plot_script,
    ergodic_rate_quadrature_quantities,
    ergodic_rate_series,
    estimate_rates,
    paired_gap,
    parse_config,
    preset_config,
    render_csv,
    run_sweep,
)
from ratelab import montecarlo
from ratelab.cli import _parse_grid, main
from ratelab.errors import DomainError, ParseError, ValidationError
from ratelab.montecarlo import MAX_TRIALS, MAX_WORKERS
from ratelab.rates import QUANTITIES, RATES
from ratelab.sweep import (
    ESTIMATORS,
    MAX_GRID_POINTS,
    PAPER_TARGETS,
    calibrate_k,
    discrepancy_report,
    parse_grid,
    preset_geometry,
    render_discrepancy_csv,
)

MINIMAL = """
[geometry]
omega_sr = 8
omega_rd = 8
omega_sd = 3
"""

SMALL_SWEEP = """
preset = fig3

[sweep]
rho_db = 5, 15
schemes = crs_noma, conventional
modes = paper
estimators = monte_carlo, quadrature_oracle
trials = 20000
seed = 7
"""


def test_minimal_document_gets_documented_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.trials == 10**6
    assert cfg.seed == 42
    assert cfg.quad_order == 50
    assert cfg.rho_grid_db[0] == 0.0 and cfg.rho_grid_db[-1] == 30.0
    assert len(cfg.rho_grid_db) == 31
    assert cfg.geometry.sd.mean_power == 3.0
    assert cfg.split.a1 == 0.9 and cfg.split.a2 == 0.1


def test_descending_grid_is_rejected_by_name():
    doc = MINIMAL + "\n[sweep]\nrho_db = 10, 5, 1\n"
    with pytest.raises(ValidationError, match="rho_db"):
        parse_config(doc)


def test_fig3_preset_keyword():
    # quoted and bare values are equivalent
    cfg_q = parse_config('preset = "fig3"\n')
    assert cfg_q.geometry.sd.mean_power == 3.0
    cfg = parse_config("preset = fig3\n")
    assert cfg.geometry.sd.mean_power == 3.0
    assert cfg.geometry.sr.mean_power == 8.0
    assert cfg.geometry.rd.mean_power == 8.0
    assert (cfg.split.a1, cfg.split.a2) == (0.9, 0.1)
    cfg4 = parse_config("preset = fig4\n")
    assert cfg4.geometry.sr.mean_power == 12.0


def test_explicit_keys_override_preset():
    cfg = parse_config("preset = fig3\n[geometry]\nomega_sd = 5\nk = 2\n")
    assert cfg.geometry.sd.mean_power == 5.0
    assert cfg.geometry.sr.k_factor == 2.0


def test_json_config_is_accepted():
    doc = json.dumps(
        {
            "preset": "fig3",
            "sweep": {"rho_db": [5.0, 25.0], "estimators": "quadrature_oracle",
                      "schemes": "crs_noma", "trials": 1000},
        }
    )
    cfg = parse_config(doc)
    assert cfg.rho_grid_db == (5.0, 25.0)
    assert cfg.estimators == ("quadrature_oracle",)


def test_parse_errors_and_field_errors():
    with pytest.raises(ParseError):
        parse_config("this is not a key value line\n")
    with pytest.raises(ParseError):
        parse_config("{not json")
    with pytest.raises(ValidationError, match="line 2"):
        parse_config("[sweep]\ntrials = many\n" + MINIMAL)
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config(MINIMAL + "\n[sweep]\nbogus = 1\n")
    with pytest.raises(ValidationError, match="estimators"):
        parse_config(MINIMAL + "\n[sweep]\nestimators = magic\n")
    with pytest.raises(ValidationError):
        parse_config("[geometry]\nomega_sr = 8\n")  # missing links


def test_single_point_cardinality():
    doc = """
    preset = fig3
    [sweep]
    rho_db = 15
    schemes = crs_noma
    modes = paper
    estimators = monte_carlo, quadrature_oracle, series_corrected, series_paper_literal
    trials = 4000
    """
    cfg = parse_config(doc)
    result = run_sweep(cfg)
    # one grid point x 1 scheme x 4 estimators x 5 quantities
    assert len(result.rows) == 1 * 1 * 4 * 5
    assert all(math.isfinite(r.value) for r in result.rows)


def test_sweep_grid_cardinality_and_oracle_band():
    cfg = parse_config(SMALL_SWEEP)
    result = run_sweep(cfg)
    # |grid| x |schemes| x |estimators| x |quantities|
    assert len(result.rows) == 2 * 2 * 2 * 5
    mc = {(r.rho_db, r.scheme, r.quantity): r for r in result.rows if r.estimator == "monte_carlo"}
    qo = {(r.rho_db, r.scheme, r.quantity): r for r in result.rows if r.estimator == "quadrature_oracle"}
    assert set(mc) == set(qo)
    for key, row in mc.items():
        # 20k trials: generous band, the acceptance suite tightens this
        assert abs(row.value - qo[key].value) <= max(4 * row.std_err, 0.01), key


def test_fig3_every_mc_row_within_three_stderr_of_oracle():
    doc = """
    preset = fig3
    [sweep]
    rho_db = 5
    modes = paper
    estimators = monte_carlo, quadrature_oracle
    trials = 1000000
    seed = 42
    """
    result = run_sweep(parse_config(doc))
    mc = {(r.scheme, r.quantity): r for r in result.rows if r.estimator == "monte_carlo"}
    qo = {(r.scheme, r.quantity): r for r in result.rows if r.estimator == "quadrature_oracle"}
    for key, row in mc.items():
        assert abs(row.value - qo[key].value) <= 3 * row.std_err + 1e-12, key


def test_sweep_totals_nondecreasing_in_rho():
    result = run_sweep(parse_config(SMALL_SWEEP))
    by_series = {}
    for r in result.rows:
        if r.quantity == "c_total":
            by_series.setdefault((r.scheme, r.estimator), []).append((r.rho_db, r.value))
    assert by_series
    for series in by_series.values():
        series.sort()
        assert all(b[1] >= a[1] for a, b in zip(series, series[1:]))


def test_series_rows_only_for_crs_noma():
    doc = SMALL_SWEEP.replace("monte_carlo, quadrature_oracle", "series_corrected")
    result = run_sweep(parse_config(doc))
    assert {r.scheme for r in result.rows} == {"crs_noma"}
    assert all(r.estimator == "series_corrected" for r in result.rows)


def test_render_csv_shape_and_determinism():
    cfg = parse_config(SMALL_SWEEP)
    text_a = render_csv(run_sweep(cfg))
    text_b = render_csv(run_sweep(parse_config(SMALL_SWEEP)))
    assert text_a == text_b
    lines = text_a.splitlines()
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "rho_db,scheme,mode,estimator,quantity,value,std_err"
    data = lines[header_idx + 1:]
    assert len(data) == 2 * 2 * 2 * 5
    # sorted by (rho_db, scheme, estimator, quantity)
    keys = [(float(l.split(",")[0]), l.split(",")[1], l.split(",")[3], l.split(",")[4]) for l in data]
    assert keys == sorted(keys)
    # quadrature rows carry a blank std_err, monte carlo rows do not
    for l in data:
        parts = l.split(",")
        if parts[3] == "quadrature_oracle":
            assert parts[6] == ""
        else:
            assert parts[6] != ""
    # six significant digits
    value = data[0].split(",")[5]
    mantissa = value.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
    assert len(mantissa) <= 6


def test_worker_count_leaves_csv_bytes_unchanged():
    base = parse_config(SMALL_SWEEP)
    from dataclasses import replace

    a = render_csv(run_sweep(replace(base, workers=1)))
    b = render_csv(run_sweep(replace(base, workers=3)))
    assert a == b


def test_emit_plot_script_declares_one_series_per_scheme():
    result = run_sweep(parse_config(SMALL_SWEEP))
    script = emit_plot_script(result, csv_path="out.csv")
    assert script.count("'out.csv' using") == 2
    assert "strcol(5) eq 'c_total'" in script
    # only schema columns 1..7 are referenced
    for n in range(1, 8):
        pass
    assert "column(6)" in script and "column(8)" not in script


def test_calibration_roundtrip_recovers_known_k():
    # synthesize targets from a known K=4 run, then fit over a 0..10 grid
    true_k = 4.0
    targets = []
    for rho_db, scheme, _ in PAPER_TARGETS["fig3"]:
        cal = calibrate_k("fig3", targets=[(rho_db, scheme, 0.0)], k_grid=[true_k],
                          trials=50_000, seed=404)
        sim = cal.residuals[0][3]
        targets.append((rho_db, scheme, sim))
    fit = calibrate_k("fig3", targets=targets, k_grid=list(range(11)), trials=50_000, seed=404)
    assert fit.best_k == true_k
    zero = [r for r in fit.residuals if r[0] == true_k]
    assert all(abs(r[5]) < 1e-12 for r in zero)


def test_discrepancy_report_columns():
    cfg = preset_config("fig3")
    rows = discrepancy_report(cfg.geometry, [5.0, 25.0])
    assert len(rows) == 2 * 3
    quantities = {r[1] for r in rows}
    assert quantities == {"c_r_s1", "c_d_s1", "c_total"}
    for r in rows:
        assert r[5] == abs(r[2] - r[3])
    text = render_discrepancy_csv(rows, cfg.geometry)
    header = next(l for l in text.splitlines() if not l.startswith("#"))
    assert header == "rho_db,quantity,paper_literal,corrected,oracle,abs_gap"


CLI_CONFIG = """
preset = fig3
[sweep]
rho_db = 5
schemes = crs_noma
modes = paper
estimators = monte_carlo
trials = 5000
seed = 3
"""


def test_cli_sweep_and_seed_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CLI_CONFIG)
    out = tmp_path / "a.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    base = out.read_text()
    assert "# seed = 3" in base

    # env var overrides the config seed
    monkeypatch.setenv("RATELAB_SEED", "99")
    out_env = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_env)]) == 0
    assert "# seed = 99" in out_env.read_text()

    # explicit flag beats the env var
    out_flag = tmp_path / "c.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_flag), "--seed", "3"]) == 0
    assert out_flag.read_text() == base


def test_cli_emit_plot_and_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CLI_CONFIG)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    plot = tmp_path / "plot.gp"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1), "--emit-plot", str(plot)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--workers", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "gnuplot" in plot.read_text()


def test_cli_uses_config_output_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CLI_CONFIG + "\n[output]\npath = from_config.csv\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "from_config.csv").exists()
    # the text form reads every value as text, so a numeric path is a name
    assert parse_config(MINIMAL + "[output]\npath = 5\n").output_path == "5"


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("[sweep]\nrho_db = 9, 1\n" + MINIMAL)
    assert main(["sweep", "--config", str(bad)]) == 1
    assert main(["sweep", "--config", str(tmp_path / "missing.txt")]) == 1


def test_usage_errors_exit_one_with_one_line(tmp_path, capsys):
    # a negative start reads as an option unless it is joined with '='
    argv = ["discrepancy", "--preset", "fig3", "--rho-grid", "-10:30:5"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "ratelab: error: argument --rho-grid: expected one argument\n"
    for argv in (["bogus"], [], ["calibrate"], ["sweep", "--config", "c.txt", "--trials", "many"]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("ratelab: error: ") and err.count("\n") == 1, argv
    out = tmp_path / "d.csv"
    assert main(["discrepancy", "--preset", "fig3", "--rho-grid=-10:30:5", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "rho_db"))]
    assert rows[0].startswith("-10,") and len(rows) == 9 * 3


def test_trials_and_workers_are_bounded_everywhere(tmp_path, monkeypatch, capsys):
    def no_blocks(*args):
        raise AssertionError("blocks run past a bad bound")

    monkeypatch.setattr(montecarlo, "_run_blocks", no_blocks)
    huge = MAX_TRIALS + 1
    with pytest.raises(ValidationError, match=f"field sweep.trials: must be <= {MAX_TRIALS}"):
        parse_config(json.dumps({"preset": "fig3", "trials": huge}))
    assert parse_config(f"preset = fig3\ntrials = {MAX_TRIALS}\n").trials == MAX_TRIALS
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CLI_CONFIG)
    for flag, bad, most in (("--trials", huge, MAX_TRIALS), ("--workers", MAX_WORKERS + 1, MAX_WORKERS)):
        for argv in (["sweep", "--config", str(cfg)], ["calibrate", "--preset", "fig3", "--k-grid", "0"]):
            assert main(argv + [flag, str(bad)]) == 1
            assert capsys.readouterr().err == f"ratelab: error: {flag} must be <= {most}\n"
    # the case that used to build a block plan of 7.6e9 entries
    assert main(["calibrate", "--preset", "fig3", "--k-grid", "0", "--trials", str(10**15)]) == 1
    geometry = preset_config("fig3").geometry
    with pytest.raises(DomainError, match=f"trials must be <= {MAX_TRIALS}, got {huge}"):
        estimate_rates(geometry, 1.0, ("crs_noma",), trials=huge)
    for workers in (0, MAX_WORKERS + 1):
        message = f"workers must be between 1 and {MAX_WORKERS}, got {workers}"
        with pytest.raises(DomainError, match=message):
            estimate_rates(geometry, 1.0, ("crs_noma",), trials=10, workers=workers)
        with pytest.raises(DomainError, match=message):
            paired_gap(geometry, 1.0, "crs_noma", "crs_oma", trials=10, workers=workers)
        with pytest.raises(DomainError, match=message):
            calibrate_k("fig3", k_grid=[0.0], trials=10, workers=workers)


def test_import_leaves_the_thread_pool_unloaded():
    # the pool is imported by the first threaded run, not by import ratelab
    src = str(Path(ratelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ratelab; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_cli_discrepancy(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["discrepancy", "--preset", "fig3", "--rho-grid", "5:25:10", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "rho_db,quantity,paper_literal,corrected,oracle,abs_gap"
    assert len(lines) == 1 + 3 * 3


def test_cli_calibrate(tmp_path):
    out = tmp_path / "cal.csv"
    assert main([
        "calibrate", "--preset", "fig3", "--k-grid", "0,1", "--trials", "20000",
        "--seed", "5", "--out", str(out),
    ]) == 0
    text = out.read_text()
    assert "# best_k = " in text
    assert "k,rho_db,scheme,simulated,target,residual" in text


def test_cli_calibrate_rejects_bad_seed_and_workers(monkeypatch, capsys):
    args = ["calibrate", "--preset", "fig3", "--k-grid", "0", "--trials", "1000"]
    monkeypatch.setenv("RATELAB_SEED", "abc")
    assert main(args) == 1
    assert capsys.readouterr().err == "ratelab: error: RATELAB_SEED must be an integer, got 'abc'\n"
    monkeypatch.delenv("RATELAB_SEED")
    for workers in ("0", "-3"):
        assert main(args + ["--workers", workers]) == 1
        assert capsys.readouterr().err == "ratelab: error: --workers must be >= 1\n"


def test_grid_length_is_bounded_before_the_grid_is_built(tmp_path, capsys):
    # one point past the bound: a parser that skipped the check would build
    # only that many points, so a regression fails here instead of hanging
    too_long = f"0:{MAX_GRID_POINTS}:1"
    assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1", "--k-grid")) == MAX_GRID_POINTS
    assert len(parse_config(MINIMAL + f"[sweep]\nrho_db = 0:{MAX_GRID_POINTS - 1}:1\n").rho_grid_db) \
        == MAX_GRID_POINTS
    for spec in (too_long, "0:nan:1"):
        with pytest.raises(ValidationError, match="at most"):
            _parse_grid(spec, "--k-grid")
    for spec in (too_long, "0:inf:1", "0:nan:1"):
        with pytest.raises(ValidationError, match="rho_db: grid .* at most"):
            parse_config(MINIMAL + f"[sweep]\nrho_db = {spec}\n")
    for argv in (["discrepancy", "--preset", "fig3", "--rho-grid", too_long],
                 ["calibrate", "--preset", "fig3", "--k-grid", too_long]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("ratelab: error: ") and err.count("\n") == 1
    cfg = tmp_path / "long.txt"
    cfg.write_text(MINIMAL + f"[sweep]\nrho_db = {too_long}\n")
    assert main(["sweep", "--config", str(cfg)]) == 1


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CLI_CONFIG)
    out = tmp_path / "cli.csv"
    # the child imports the ratelab this process imported, installed or not
    src = str(Path(ratelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ratelab.cli", "sweep", "--config", str(cfg), "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("spec", ["0:1:0.3", "0:1:0.1", "0:30:1"])
def test_cli_and_config_parse_a_grid_alike(spec):
    config_grid = parse_config(MINIMAL + f"[sweep]\nrho_db = {spec}\n").rho_grid_db
    assert _parse_grid(spec, "--rho-grid") == list(config_grid) == parse_grid(spec)


def test_grid_points_are_the_decimals_the_step_names():
    assert parse_grid("0:1:0.3") == [0.0, 0.3, 0.6, 0.9]
    assert parse_grid("0:1:0.1")[3] == 0.3
    # accumulating the step drifts on long grids (378.630000000001)
    assert 378.63 in parse_grid("7.83:551.43:3.6")


@pytest.mark.parametrize("argv, config", [
    (["discrepancy", "--preset", "fig3", "--k", "-1"], None),
    (["discrepancy", "--preset", "fig3", "--k", "inf"], None),
    (["calibrate", "--preset", "fig3", "--k-grid=-1,0", "--trials", "1000"], None),
    (["sweep"], "[geometry]\nk = -1\n"),
    (["sweep"], "[geometry]\nomega_sd = 0\n"),
    (["sweep"], "[split]\na1 = 0.5\na2 = 0.5\n"),
])
def test_cli_invalid_k_power_or_split_exits_one(argv, config, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("preset = fig3\n" + config)
        argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out.csv")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("ratelab: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("token", sorted(RATES))
def test_every_rate_token_is_accepted_by_every_estimator(token):
    cfg = preset_config("fig3")
    g, split, rho = cfg.geometry, cfg.split, 10.0
    scheme, mode = RATES[token]
    by_token = estimate_rates(g, rho, (token,), "paper", split, trials=2000, seed=1)
    by_scheme = estimate_rates(g, rho, (scheme,), mode, split, trials=2000, seed=1)
    assert [r.mean for r in by_token] == [r.mean for r in by_scheme]
    gap = paired_gap(g, rho, token, scheme, mode, split, trials=2000, seed=1)
    assert gap.mean == 0.0 and gap.std_err == 0.0
    for result in (ergodic_rate_quadrature_quantities(g, rho, token, split), ergodic_rate_series(g, rho)):
        for q in QUANTITIES:
            assert result[q] == getattr(result, q)
        with pytest.raises(KeyError):
            result["c_r_s1"]


def test_full_sweep_emits_exactly_the_rate_table_labels():
    cfg = preset_config(
        "fig3", rho_grid_db=(10.0,), schemes=("crs_noma", "conventional", "crs_oma"),
        modes=("paper", "exact"), estimators=("monte_carlo", "quadrature_oracle"), trials=2000,
    )
    rows = run_sweep(cfg).rows
    for estimator in cfg.estimators:
        mine = [(r.scheme, r.mode) for r in rows if r.estimator == estimator]
        assert sorted(set(mine)) == sorted(RATES.values())
        assert len(mine) == len(RATES) * len(QUANTITIES)


def test_negative_seed_exits_one_on_every_cli_route(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.txt"
    out = str(tmp_path / "out.csv")
    cfg.write_text(CLI_CONFIG.replace("seed = 3", "seed = -1"))
    monkeypatch.delenv("RATELAB_SEED", raising=False)
    assert main(["sweep", "--config", str(cfg), "--out", out]) == 1
    assert capsys.readouterr().err == "ratelab: error: seed must be >= 0, got -1\n"
    cfg.write_text(CLI_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", out, "--seed=-1"]) == 1
    assert capsys.readouterr().err == "ratelab: error: seed must be >= 0, got -1\n"
    monkeypatch.setenv("RATELAB_SEED", "-3")
    assert main(["calibrate", "--preset", "fig3", "--k-grid", "0", "--trials", "1000"]) == 1
    assert capsys.readouterr().err == "ratelab: error: seed must be >= 0, got -3\n"


@pytest.mark.parametrize("spec, message", [
    ("25,5,5", "grid must be strictly increasing"),
    ("5:1:1", "grid must be nonempty"),
    (",", "grid must be nonempty"),
])
def test_cli_and_config_reject_a_bad_grid_alike(spec, message, tmp_path, capsys):
    with pytest.raises(ValidationError, match=f"rho_db: {message}"):
        parse_config(MINIMAL + f"[sweep]\nrho_db = {spec}\n")
    values = [float(v) for v in spec.split(",") if v] if ":" not in spec else []
    with pytest.raises(ValidationError, match=f"rho_db: {message}"):
        parse_config(json.dumps({"preset": "fig3", "rho_db": values}))
    out = tmp_path / "d.csv"
    assert main(["discrepancy", "--preset", "fig3", "--rho-grid", spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ratelab: error: --rho-grid: {message}\n"
    assert not out.exists()


OVERFLOW = "rho_db = 4000: 10^(rho_db/10) is not a finite float"


@pytest.mark.parametrize("argv, config, message", [
    (["sweep"], "4000", OVERFLOW),
    (["sweep"], "inf", "line 3: sweep.rho_db: grid points must be finite, got inf"),
    (["sweep"], "nan, 1", "line 3: sweep.rho_db: grid points must be finite, got nan"),
    (["discrepancy", "--preset", "fig3", "--rho-grid", "4000"], None, OVERFLOW),
    (["calibrate", "--preset", "fig3", "--k-grid", "0,inf"], None,
     "--k-grid: grid points must be finite, got inf"),
])
def test_a_grid_without_a_finite_snr_exits_one_before_any_block(argv, config, message, tmp_path, monkeypatch,
                                                                 capsys):
    def no_blocks(*args):
        raise AssertionError("a block was drawn for a bad grid")

    monkeypatch.setattr(montecarlo, "split_stream", no_blocks)
    out = tmp_path / "out.csv"
    if config is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"preset = fig3\n[sweep]\nrho_db = {config}\ntrials = 1000\n")
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ratelab: error: {message}\n"
    assert not out.exists()


def test_cli_discrepancy_at_large_k_is_silent(tmp_path):
    cmd = [sys.executable, "-m", "ratelab.cli", "discrepancy", "--preset", "fig3", "--k", "10",
           "--out", str(tmp_path / "d.csv")]
    src = str(Path(ratelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert (done.returncode, done.stderr) == (0, "")


def test_series_controls_are_bounded_in_a_config(tmp_path, capsys):
    with pytest.raises(ValidationError, match=r"series\.quad_order: must be in 1\.\.100000"):
        parse_config(MINIMAL + "[series]\nquad_order = 100000000000\n")
    with pytest.raises(ValidationError, match=r"field series\.n_max: unknown key"):
        parse_config(json.dumps({"preset": "fig3", "series": {"n_max": 20}}))
    cfg = tmp_path / "cfg.txt"
    for line, message in (("quad_order = 100000000000", "line 3: series.quad_order: must be in 1..100000"),
                          ("tail_tol = inf", "line 3: series.tail_tol: unknown key"),
                          ("n_max = 20", "line 3: series.n_max: unknown key")):
        cfg.write_text(f"preset = fig3\n[series]\n{line}\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"ratelab: error: {message}\n"


def test_integer_fields_reject_fractions_and_booleans():
    doc = {"preset": "fig3", "sweep": {"trials": 1.9, "seed": 2.7}, "series": {"quad_order": True}}
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(doc))
    for field, value in (("trials", "1.9"), ("seed", "2.7"), ("quad_order", "True")):
        assert f"{field}: expected an integer, got {value}" in str(err.value)
    with pytest.raises(ValidationError, match="cannot interpret '1.9'"):
        parse_config(MINIMAL + "[sweep]\ntrials = 1.9\n")
    cfg = parse_config(json.dumps({"preset": "fig3", "sweep": {"trials": 1e6, "seed": 7.0}}))
    assert (cfg.trials, cfg.seed) == (10**6, 7)


def test_json_config_errors_name_the_field_once():
    doc = {"preset": "fig3", "sweep": {"trials": 1.9, "estimators": "magic"}}
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps(doc))
    message = str(err.value)
    assert "field sweep.trials: expected an integer, got 1.9" in message
    assert "field sweep.estimators: unknown value 'magic'" in message
    assert message.count("trials") == 1 and message.count("estimators") == 1


SCHEMES = "crs_noma, conventional, crs_oma"


@pytest.mark.parametrize("doc, message", [
    # a JSON null is never a value, whatever the field's kind
    ({"geometry": {"k": None}}, "field geometry.k: null is not a value"),
    ({"geometry": {"k_rd": None}}, "field geometry.k_rd: null is not a value"),
    ({"geometry": {"omega_sd": None}}, "field geometry.omega_sd: null is not a value"),
    ({"series": {"tail_tol": None}}, "field series.tail_tol: unknown key"),
    ({"sweep": {"rho_db": None}}, "field sweep.rho_db: null is not a value"),
    ({"sweep": {"schemes": None}}, "field sweep.schemes: null is not a value"),
    ({"sweep": {"trials": None}}, "field sweep.trials: null is not a value"),
    ({"output": {"path": None}}, "field output.path: null is not a value"),
    ({"preset": None}, "field sweep.preset: null is not a value"),
    # a boolean is never a number
    ({"geometry": {"k": True}}, "field geometry.k: expected a number, got True"),
    ({"split": {"a2": False}}, "field split.a2: expected a number, got False"),
    ({"sweep": {"rho_db": [5, True]}}, "field sweep.rho_db: expected a number, got True"),
    # numbers in a token field, an object in a grid, empty token lists
    ({"sweep": {"schemes": 5}}, "field sweep.schemes: expected a comma list, got 5"),
    ({"sweep": {"schemes": ["crs_noma", 5]}}, f"field sweep.schemes: unknown value 5 (allowed: {SCHEMES})"),
    ({"sweep": {"rho_db": {"start": 0}}}, "field sweep.rho_db: expected a number, got {'start': 0}"),
    ({"sweep": {"modes": []}}, "field sweep.modes: at least one mode required"),
    ({"sweep": {"estimators": ""}}, "field sweep.estimators: at least one estimator required"),
    # a path is a JSON string, never a number, boolean or list
    ({"output": {"path": True}}, "field output.path: expected a string, got True"),
    ({"output": {"path": 5}}, "field output.path: expected a string, got 5"),
    ({"path": [1]}, "field output.path: expected a string, got [1]"),
])
def test_a_bad_json_field_is_one_line_naming_it(doc, message, tmp_path, capsys):
    text = json.dumps({"preset": "fig3", **doc})
    with pytest.raises(ValidationError) as err:
        parse_config(text)
    assert str(err.value) == message
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"ratelab: error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_readme_config_block_holds_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Config grammar", 1)[1].split("```")[1]
    assert parse_config(block) == parse_config("preset = fig3\n")


def test_cli_refuses_a_noncentrality_the_kernel_cannot_sum(tmp_path, capsys):
    # e^-K underflows past the kernel's bound; Monte-Carlo has no such limit
    cfg = tmp_path / "cfg.txt"
    out = tmp_path / "out.csv"
    cfg.write_text("preset = fig3\n[geometry]\nk = 800\n[sweep]\nrho_db = 5\nestimators = quadrature_oracle\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ratelab: error: noncentrality K = 800 is above 500") and err.count("\n") == 1
    cfg.write_text(CLI_CONFIG.replace("preset = fig3", "preset = fig3\n[geometry]\nk = 800"))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0


def test_a_warning_is_one_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    out = tmp_path / "out.csv"
    cfg.write_text(CLI_CONFIG + "[geometry]\nomega_sr = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ("ratelab: warning: S-R mean power does not exceed S-D mean power; "
                                       "the relay placement assumption of the scheme is violated\n")
    assert out.read_text().startswith("# tool = ratelab\n")


def test_a_mean_power_whose_inverse_scale_overflows_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    out = tmp_path / "out.csv"
    cfg.write_text("preset = fig3\n[geometry]\nomega_sd = 1e-320\n[sweep]\nrho_db = 5\n"
                   "estimators = quadrature_oracle, series_corrected\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("ratelab: error: geometry.sd: mean_power and (1 + K)/mean_power must be "
                                       "finite and > 0, got 1e-320\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, config, message", [
    (["discrepancy", "--preset", "fig3", "--rho-grid", "0:10"], None, "--rho-grid: need start:stop:step"),
    (["discrepancy", "--preset", "fig3", "--rho-grid", "0:10:0"], None, "--rho-grid: step must be > 0"),
    (["sweep"], "[geometry]\nk = abc\n", "line 3: geometry.k: cannot interpret 'abc'"),
    (["sweep"], "[sweep]\ntrials = 0\n", "line 3: sweep.trials: must be >= 1"),
    (["sweep"], "= 5\n", "line 2: empty key"),
    (["sweep"], "[bogus]\n", "unknown section [bogus]"),
    (["sweep"], "bogus = 1\n", "line 2: bogus: unknown top-level key"),
])
def test_each_refused_config_or_grid_is_one_line(argv, config, message, tmp_path, capsys):
    out = tmp_path / "out.csv"
    if config is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("preset = fig3\n" + config)
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"ratelab: error: {message}\n"
    assert not out.exists()


def test_run_sweep_and_calibrate_k_refuse_bad_arguments(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("a block ran past a refused argument")

    monkeypatch.setattr(montecarlo, "_run_blocks", no_blocks)
    with pytest.raises(DomainError, match=re.escape(f"estimators must be among {ESTIMATORS}, got ('magic',)")):
        run_sweep(preset_config("fig3", estimators=("magic",)))
    with pytest.raises(ValidationError, match="^unknown preset 'fig5'$"):
        calibrate_k("fig5")
    with pytest.raises(ValidationError, match="^k_grid must be nonempty$"):
        calibrate_k("fig3", k_grid=[])


def test_calibrate_k_refuses_an_empty_target_list(monkeypatch):
    # an empty list is given targets, not the paper's
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: pytest.fail("a block ran"))
    with pytest.raises(ValidationError, match="^targets must be nonempty$"):
        calibrate_k("fig3", targets=[], k_grid=[0.0], trials=10)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_a_non_finite_sweep_row_is_refused():
    # at rho = 1e300 and Omega = 1e300, rho*lambda overflows and the Monte-Carlo mean is inf
    cfg = parse_config("[geometry]\nomega_sr = 1e300\nomega_rd = 1e300\nomega_sd = 1e299\n"
                       "[sweep]\nrho_db = 3000\nschemes = crs_oma\ntrials = 10\n")
    with pytest.raises(DomainError, match=r"^non-finite value in sweep row SweepRow\(rho_db=3000\.0, "
                                          r"scheme='crs_oma', mode='-', estimator='monte_carlo', quantity='c_s1', "
                                          r"value=inf"):
        run_sweep(cfg)


def test_out_dash_writes_the_table_to_stdout(capsys):
    assert main(["discrepancy", "--preset", "fig3", "--rho-grid", "5", "--out", "-"]) == 0
    geometry = preset_geometry("fig3", 0.0)
    assert capsys.readouterr() == (render_discrepancy_csv(discrepancy_report(geometry, [5.0]), geometry), "")
