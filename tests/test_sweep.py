import errno
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ratelab
from ratelab import (
    ergodic_rate_quadrature_quantities,
    ergodic_rate_series,
    estimate_rates,
    paired_gap,
    parse_config,
    render_csv,
    run_sweep,
)
from ratelab import analytic, cli, montecarlo, sweep
from ratelab.cli import main
from ratelab.errors import DomainError
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
    assert cfg.rho_grid_db[0] == 0.0 and cfg.rho_grid_db[-1] == 30.0
    assert len(cfg.rho_grid_db) == 31
    assert cfg.geometry.sd.mean_power == 3.0
    assert cfg.split.a1 == 0.9 and cfg.split.a2 == 0.1


def test_descending_grid_is_rejected_by_name():
    doc = MINIMAL + "\n[sweep]\nrho_db = 10, 5, 1\n"
    with pytest.raises(DomainError, match="rho_db"):
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


def test_parse_errors_and_field_errors():
    with pytest.raises(DomainError):
        parse_config("this is not a key value line\n")
    with pytest.raises(DomainError):
        parse_config("{not json")
    with pytest.raises(DomainError, match="line 2"):
        parse_config("[sweep]\ntrials = many\n" + MINIMAL)
    with pytest.raises(DomainError, match="unknown key"):
        parse_config(MINIMAL + "\n[sweep]\nbogus = 1\n")
    with pytest.raises(DomainError, match="estimators"):
        parse_config(MINIMAL + "\n[sweep]\nestimators = magic\n")
    with pytest.raises(DomainError):
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
    a = render_csv(run_sweep(replace(base, workers=1)))
    b = render_csv(run_sweep(replace(base, workers=3)))
    assert a == b


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
    cfg = parse_config("preset = fig3\n")
    rows = discrepancy_report(cfg.geometry, [5.0, 25.0])
    assert len(rows) == 2 * 3
    quantities = {r[1] for r in rows}
    assert quantities == {"c_r_s1", "c_d_s1", "c_total"}
    for r in rows:
        assert r[5] == abs(r[2] - r[3])
    text = render_discrepancy_csv(rows, cfg.geometry)
    header = next(l for l in text.splitlines() if not l.startswith("#"))
    assert header == "rho_db,quantity,paper_literal,corrected,oracle,abs_gap"


def test_discrepancy_table_reads_the_rows_of_a_sweep():
    geometry = preset_geometry("fig3", 3.0)
    grid = parse_grid("-10:30:5")
    result = run_sweep(replace(parse_config("preset = fig3\n"), geometry=geometry, rho_grid_db=tuple(grid),
                               schemes=("crs_noma",),
                               estimators=("series_paper_literal", "series_corrected", "quadrature_oracle")))
    table = discrepancy_report(geometry, grid)
    assert [r[:2] for r in table] == [(x, q) for x in grid for q in ("c_r_s1", "c_d_s1", "c_total")]
    # the sweep's metadata line and the table give the same largest gap
    gap = max(r[5] for r in table if r[1] == "c_total")
    assert dict(result.metadata)["discrepancy_max_abs_gap_c_total"] == f"{gap:.6g}"
    # each table value is the float of the sweep's row
    value = {(r.rho_db, r.estimator, r.quantity): r.value for r in result.rows}
    read = {"c_r_s1": "c_relay_s1", "c_d_s1": "c_direct_s1", "c_total": "c_total"}
    for rho_db, name, lit, cor, oracle, abs_gap in table:
        q = read[name]
        assert (lit, cor, oracle) == (value[(rho_db, "series_paper_literal", q)],
                                      value[(rho_db, "series_corrected", q)],
                                      value[(rho_db, "quadrature_oracle", q)])
        assert abs_gap == abs(lit - cor)
    # a programmatic grid keeps the rule of a parsed one
    with pytest.raises(DomainError, match="^grid must be strictly increasing$"):
        discrepancy_report(geometry, [25, 5])


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

    # the environment is no seed source: the config alone fixes the bytes
    monkeypatch.setenv("RATELAB_SEED", "99")
    out_env = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_env)]) == 0
    assert out_env.read_bytes() == out.read_bytes()

    # the flag overrides the config seed
    out_flag = tmp_path / "c.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out_flag), "--seed", "99"]) == 0
    assert "# seed = 99" in out_flag.read_text()
    assert main(["sweep", "--config", str(cfg), "--out", str(out_flag), "--seed", "3"]) == 0
    assert out_flag.read_text() == base


def test_cli_sweep_bytes_do_not_depend_on_workers(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(CLI_CONFIG)
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(out2), "--workers", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sweep_writes_sweep_csv_without_out(tmp_path, monkeypatch, capsys):
    # --out is the one output setting; a config names no path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text(CLI_CONFIG)
    assert main(["sweep", "--config", "cfg.txt", "--out", "5"]) == 0
    assert main(["sweep", "--config", "cfg.txt"]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "5").read_bytes()
    (tmp_path / "sweep.csv").unlink()
    (tmp_path / "sweep.csv").mkdir()
    assert main(["sweep", "--config", "cfg.txt"]) == 1
    assert capsys.readouterr().err == (f"ratelab: error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: "
                                       "'sweep.csv'\n")


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("[sweep]\nrho_db = 9, 1\n" + MINIMAL)
    assert main(["sweep", "--config", str(bad)]) == 1
    assert main(["sweep", "--config", str(tmp_path / "missing.txt")]) == 1


def test_cli_runtime_error_exits_two_with_one_line(tmp_path, monkeypatch, capsys):
    # the fig3 paper-mode spans at 40 dB need more than 150 nodes at their
    # second refinement level
    monkeypatch.setattr(analytic, "_MAX_LEVEL_NODES", 150)
    cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
    cfg.write_text("preset = fig3\n[sweep]\nrho_db = 40\nschemes = crs_noma\nmodes = paper\n"
                   "estimators = quadrature_oracle\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ratelab: runtime error: quadrature stopped after 1 refinement level(s)")
    assert err.count("\n") == 1
    assert not out.exists()


def test_usage_errors_exit_one_with_one_line(tmp_path, capsys):
    # a negative start reads as an option unless it is joined with '='
    argv = ["discrepancy", "--preset", "fig3", "--rho-grid", "-10:30:5"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "ratelab: error: argument --rho-grid: expected one argument\n"
    for argv in (["bogus"], [], ["calibrate"], ["sweep", "--config", "c.txt", "--trials", "many"],
                 ["sweep", "--config", "c.txt", "--emit-plot", "p.gp"]):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("ratelab: error: ") and err.count("\n") == 1, argv
    out = tmp_path / "d.csv"
    assert main(["discrepancy", "--preset", "fig3", "--rho-grid=-10:30:5", "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith(("#", "rho_db"))]
    assert rows[0].startswith("-10,") and len(rows) == 9 * 3


def test_trials_and_workers_are_bounded_everywhere(tmp_path, monkeypatch, capsys):
    def no_blocks(block_fn, trials, workers):
        raise AssertionError(f"blocks run for {trials} trials on {workers} workers")

    monkeypatch.setattr(montecarlo, "_run_blocks", no_blocks)
    # each bound is inclusive: the config and the flags take it, and the flags pass it on
    assert parse_config(f"preset = fig3\n[sweep]\ntrials = {MAX_TRIALS}\n").trials == MAX_TRIALS
    with pytest.raises(AssertionError, match=f"^blocks run for {MAX_TRIALS} trials on {MAX_WORKERS} workers$"):
        main(["calibrate", "--preset", "fig3", "--k-grid", "0", "--trials", str(MAX_TRIALS),
              "--workers", str(MAX_WORKERS)])
    # the case that used to build a block plan of 7.6e9 entries
    assert main(["calibrate", "--preset", "fig3", "--k-grid", "0", "--trials", str(10**15)]) == 1
    assert capsys.readouterr().err == f"ratelab: error: --trials: {RULES['trials']}\n"


# The text of each run setting's rule, and where each setting enters: a
# config key, a flag of sweep and calibrate, and library
# calls.  workers has no config key.
RULES = {
    "trials": f"trials must be between 1 and {MAX_TRIALS}",
    "workers": f"workers must be between 1 and {MAX_WORKERS}",
    "seed": "seed must be >= 0",
}
CONFIG_KEYS = {"trials": "sweep", "seed": "sweep"}
FLAGS = ("trials", "workers", "seed")


def _library_calls(setting, bad):
    geometry = preset_geometry("fig3", 0.0)
    given = {"trials": 10, setting: bad}
    return [lambda: estimate_rates(geometry, 1.0, ("crs_noma",), **given),
            lambda: paired_gap(geometry, 1.0, "crs_noma", "crs_oma", **given),
            lambda: calibrate_k("fig3", k_grid=[0.0], **given)]


@pytest.mark.parametrize("setting, bad", [
    ("trials", 0), ("trials", MAX_TRIALS + 1), ("trials", 10**400),
    ("workers", 0), ("workers", -3), ("workers", MAX_WORKERS + 1),
    ("seed", -1),
], ids=lambda v: "10**400" if v == 10**400 else None)
def test_a_run_setting_has_one_rule_at_every_entry_point(setting, bad, tmp_path, monkeypatch, capsys):
    def no_blocks(*args):
        raise AssertionError("blocks run past a bad bound")

    monkeypatch.setattr(montecarlo, "_run_blocks", no_blocks)
    rule = RULES[setting]
    out = tmp_path / "out.csv"
    lines = []
    if setting in CONFIG_KEYS:
        section = CONFIG_KEYS[setting]
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"preset = fig3\n[{section}]\n{setting} = {bad}\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        lines.append((capsys.readouterr().err, f"line 3: {section}.{setting}: {rule}"))
    if setting in FLAGS:
        cfg = tmp_path / "good.txt"
        cfg.write_text(CLI_CONFIG)
        for argv in (["sweep", "--config", str(cfg)], ["calibrate", "--preset", "fig3", "--k-grid", "0"]):
            assert main(argv + [f"--{setting}={bad}", "--out", str(out)]) == 1
            lines.append((capsys.readouterr().err, f"--{setting}: {rule}"))
    assert len(lines) >= 2
    for err, message in lines:
        assert err == f"ratelab: error: {message}\n"
    assert not out.exists()
    for call in _library_calls(setting, bad):
        with pytest.raises(DomainError, match=f"^{re.escape(rule)}$"):
            call()


def test_import_leaves_the_thread_pool_unloaded():
    # the pool is imported by the first threaded run, not by import ratelab
    src = str(Path(ratelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, ratelab; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_import_leaves_json_unloaded():
    # no config path needs the json module: a text config parses and a JSON
    # document is refused without it
    src = str(Path(ratelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, ratelab; print('json' in sys.modules, end=' '); ratelab.parse_config('preset = fig3'); "
            "print('json' in sys.modules, end=' ')\n"
            "try:\n    ratelab.parse_config('{\"preset\": \"fig3\"}')\n"
            "except ratelab.errors.DomainError:\n    print('json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False False False\n", "")


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
    args = ["calibrate", "--preset", "fig3", "--k-grid", "0", "--trials", "1000", "--out", "-"]
    assert main(args) == 0
    default = capsys.readouterr()
    # the environment is no seed source; calibrate_k's default seed holds
    monkeypatch.setenv("RATELAB_SEED", "abc")
    assert main(args) == 0
    assert capsys.readouterr() == default
    assert main(args + ["--seed", "42"]) == 0
    assert capsys.readouterr() == default
    # a bad flag gives its rule's text, as at every other entry point
    assert main(args + ["--workers=-3"]) == 1
    assert capsys.readouterr().err == f"ratelab: error: --workers: {RULES['workers']}\n"


def test_grid_length_is_bounded_before_the_grid_is_built(tmp_path, capsys):
    # one point past the bound: a parser that skipped the check would build
    # only that many points, so a regression fails here instead of hanging
    too_long = f"0:{MAX_GRID_POINTS}:1"
    # the flag takes a grid at the bound: its last point, 3083 dB, is the
    # first whose linear SNR overflows
    assert main(["discrepancy", "--preset", "fig3", f"--rho-grid={3084 - MAX_GRID_POINTS}:3083:1"]) == 1
    assert capsys.readouterr().err == "ratelab: error: rho_db = 3083: 10^(rho_db/10) is not a finite float\n"
    assert len(parse_config(MINIMAL + f"[sweep]\nrho_db = 0:{MAX_GRID_POINTS - 1}:1\n").rho_grid_db) \
        == MAX_GRID_POINTS
    for spec in (too_long, "0:inf:1", "0:nan:1"):
        with pytest.raises(DomainError, match="rho_db: grid .* at most"):
            parse_config(MINIMAL + f"[sweep]\nrho_db = {spec}\n")
    for argv in (["discrepancy", "--preset", "fig3", "--rho-grid", too_long],
                 ["calibrate", "--preset", "fig3", "--k-grid", too_long],
                 ["calibrate", "--preset", "fig3", "--k-grid", "0:nan:1"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("ratelab: error: ") and err.count("\n") == 1
        assert re.match(r"ratelab: error: --(k|rho)-grid: grid .* at most", err), err
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
def test_cli_and_config_parse_a_grid_alike(spec, monkeypatch):
    config_grid = parse_config(MINIMAL + f"[sweep]\nrho_db = {spec}\n").rho_grid_db
    flag_grids = []
    run = sweep.run_sweep
    monkeypatch.setattr(sweep, "run_sweep", lambda config: flag_grids.append(config.rho_grid_db) or run(config))
    assert main(["discrepancy", "--preset", "fig3", "--rho-grid", spec, "--out", "-"]) == 0
    assert flag_grids == [config_grid] and list(config_grid) == parse_grid(spec)


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
    (["sweep"], "[split]\na2 = 0.5\n"),
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
    cfg = parse_config("preset = fig3\n")
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


@pytest.mark.parametrize("k", [0, 3, 100])
def test_sweep_oracle_and_series_rows_are_the_floats_of_single_calls(k):
    # run_sweep takes the whole grid in one call per token and estimator;
    # each row is still the float of a call at its rho alone
    cfg = replace(
        parse_config("preset = fig3\n"), geometry=preset_geometry("fig3", k), rho_grid_db=(-10.0, 5.0, 7.0, 15.0, 47.0),
        schemes=("crs_noma", "conventional", "crs_oma"), modes=("paper", "exact"),
        estimators=("quadrature_oracle", "series_corrected", "series_paper_literal"),
    )
    token = {scheme_mode: token for token, scheme_mode in RATES.items()}
    singles = {}
    for rho_db in cfg.rho_grid_db:
        rho = 10.0 ** (rho_db / 10.0)
        for t in RATES:
            singles[rho_db, "quadrature_oracle", t] = ergodic_rate_quadrature_quantities(
                cfg.geometry, rho, t, cfg.split)
        for estimator in ("series_corrected", "series_paper_literal"):
            singles[rho_db, estimator, "crs_noma_paper"] = ergodic_rate_series(
                cfg.geometry, rho, literal=estimator == "series_paper_literal")
    rows = run_sweep(cfg).rows
    assert len(rows) == len(singles) * len(QUANTITIES)
    for r in rows:
        assert r.value == singles[r.rho_db, r.estimator, token[r.scheme, r.mode]][r.quantity], r


@pytest.mark.parametrize("estimators", [(e,) for e in ESTIMATORS] + [tuple(ESTIMATORS)], ids="+".join)
@pytest.mark.parametrize("modes", [("paper",), ("exact",), ("paper", "exact")], ids="+".join)
@pytest.mark.parametrize("schemes", [("crs_noma",), ("conventional",), ("crs_oma",),
                                     ("crs_noma", "conventional", "crs_oma")], ids="+".join)
def test_each_estimator_gives_rows_for_the_selected_tokens_it_covers(schemes, modes, estimators):
    cfg = replace(parse_config("preset = fig3\n"), rho_grid_db=(5.0, 25.0), schemes=schemes, modes=modes,
                  estimators=estimators, trials=1000)
    expected = {(e, *RATES[t]) for e in estimators for t in ESTIMATORS[e]
                if RATES[t][0] in schemes and RATES[t][1] in (*modes, "-")}
    if not expected:
        with pytest.raises(DomainError, match="^empty sweep: no rows for schemes "):
            run_sweep(cfg)
        return
    rows = [(r.estimator, r.scheme, r.mode) for r in run_sweep(cfg).rows]
    assert set(rows) == expected
    assert len(rows) == len(cfg.rho_grid_db) * len(expected) * len(QUANTITIES)
    # the series cover paper-mode CRS-NOMA only
    assert all((scheme, mode) == ("crs_noma", "paper") for e, scheme, mode in rows if e.startswith("series_"))


_GRID_CONFIG = "preset = fig3\n[sweep]\nschemes = crs_noma\nestimators = series_corrected\n"


@pytest.mark.parametrize("grid, message", [
    ((5.0, 5.0), "grid must be strictly increasing"),
    ((25.0, 5.0), "grid must be strictly increasing"),
    ((25, 5, 5), "grid must be strictly increasing"),
    ((), "grid must be nonempty"),
    ((5.0, math.inf), "grid points must be finite, got inf"),
    (5, "grid must be a sequence of numbers, got 5"),
    ("25", "grid must be a sequence of numbers, got '25'"),
    ((5.0, "a"), "grid must be a sequence of numbers, got (5.0, 'a')"),
], ids=["repeat", "decreasing", "decreasing-int", "empty", "inf", "number", "str", "str-point"])
def test_a_library_grid_keeps_the_rule_of_a_parsed_one(grid, message):
    # (5.0, 5.0) wrote duplicate rows, (25.0, 5.0) ran, and 5 escaped as a TypeError
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run_sweep(replace(parse_config(_GRID_CONFIG), rho_grid_db=grid))
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        discrepancy_report(preset_geometry("fig3", 0.0), grid)


def test_a_library_grid_reads_its_points_as_float_does():
    cfg = parse_config(_GRID_CONFIG)
    want = run_sweep(replace(cfg, rho_grid_db=(5.0, 25.0))).rows
    assert run_sweep(replace(cfg, rho_grid_db=("5", 25))).rows == want
    assert sweep.db_to_linear("10") == 10.0
    with pytest.raises(DomainError, match=r"^rho_db must be a number, got 'a'$"):
        sweep.db_to_linear("a")


@pytest.mark.parametrize("call, message", [
    (lambda: calibrate_k("fig3", targets=5), "targets must be a sequence of (rho_db, scheme, value) triples, got 5"),
    (lambda: calibrate_k("fig3", targets=[(5.0,)]),
     "targets must be a sequence of (rho_db, scheme, value) triples, got (5.0,)"),
    (lambda: calibrate_k("fig3", targets=[(5.0, "crs_noma", "x")]), "a target value must be finite and >= 0, got 'x'"),
    (lambda: calibrate_k("fig3", targets=[(5.0, "crs_noma", math.nan)], k_grid=[1.0, 0.0]),
     "a target value must be finite and >= 0, got nan"),
    (lambda: calibrate_k("fig3", targets=[(5.0, "crs_noma", math.inf)], k_grid=[1.0, 0.0]),
     "a target value must be finite and >= 0, got inf"),
    (lambda: calibrate_k("fig3", targets=[(5.0, "crs_noma", -1)]), "a target value must be finite and >= 0, got -1.0"),
    (lambda: calibrate_k("fig3", targets=[("a", "crs_noma", 4.29)]), "rho_db must be a number, got 'a'"),
    (lambda: calibrate_k("fig3", k_grid=5), "k_grid must be a sequence of K values, got 5"),
    (lambda: calibrate_k("fig3", k_grid="05"), "k_grid must be a sequence of K values, got '05'"),
    (lambda: calibrate_k(["fig3"]), "unknown value ['fig3'] (allowed: fig3, fig4)"),
    (lambda: calibrate_k("fig3", targets=[(5.0, ["crs_noma"], 4.29)]),
     f"unknown value ['crs_noma'] (allowed: crs_noma, {', '.join(RATES)})"),
    (lambda: estimate_rates(preset_geometry("fig3", 0.0), 10.0, None),
     "schemes must be a sequence of names, got None"),
    (lambda: estimate_rates(preset_geometry("fig3", 0.0), 10.0, "crs_oma"),
     "schemes must be a sequence of names, got 'crs_oma'"),
    (lambda: paired_gap(preset_geometry("fig3", 0.0), 10.0, [1.0, 2.0], "crs_oma"),
     f"unknown value [1.0, 2.0] (allowed: crs_noma, {', '.join(RATES)})"),
    (lambda: ergodic_rate_quadrature_quantities(preset_geometry("fig3", 0.0), 10.0, ["fig3"]),
     f"unknown value ['fig3'] (allowed: {', '.join(RATES)})"),
], ids=["targets-number", "target-short", "target-value-str", "target-value-nan", "target-value-inf",
        "target-value-negative", "target-rho-db-str", "k-grid-number", "k-grid-str", "preset-list",
        "target-scheme-list", "schemes-none", "schemes-str", "scheme-list", "oracle-scheme-list"])
def test_a_library_name_or_table_that_cannot_be_read_is_one_line(call, message, monkeypatch):
    # each escaped as a TypeError or ValueError
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: pytest.fail("a block ran"))
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_rho_zero_runs_on_every_cli_route(tmp_path, capsys):
    # 10^(-4000/10) is rho = 0.0, which the series and the oracle refused
    cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
    cfg.write_text(f"preset = fig3\n[sweep]\nrho_db = -4000, 0\nschemes = crs_noma, conventional, crs_oma\n"
                   f"modes = paper, exact\nestimators = {', '.join(ESTIMATORS)}\ntrials = 1000\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    low = [row for row in rows if row[0] == "-4000"]
    assert {row[3] for row in low} == set(ESTIMATORS) and len(low) == len(rows) // 2
    assert all(float(row[5]) == 0.0 and row[6] in ("", "0") for row in low)
    assert main(["discrepancy", "--preset", "fig3", "--rho-grid=-4000,0", "--out", str(out)]) == 0
    table = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    assert all(float(v) == 0.0 for row in table if row[0] == "-4000" for v in row[2:])
    assert capsys.readouterr().err == ""


def test_an_empty_sweep_exits_one_with_one_line_and_no_file(tmp_path, capsys):
    cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
    cfg.write_text("preset = fig3\n[sweep]\nrho_db = 5, 25\nschemes = conventional\nestimators = series_corrected\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("ratelab: error: empty sweep: no rows for schemes ('conventional',), modes "
                                       "('paper',) and estimators ('series_corrected',) over 2 grid point(s)\n")
    assert not out.exists()
    # an empty scheme list or grid reaches run_sweep only from the library,
    # and is refused by the rule of a parsed one
    for field, what in (("schemes", "scheme"), ("modes", "mode"), ("estimators", "estimator")):
        with pytest.raises(DomainError, match=f"^at least one {what} required$"):
            run_sweep(replace(parse_config("preset = fig3\n"), **{field: ()}))
    with pytest.raises(DomainError, match="^grid must be nonempty$"):
        run_sweep(replace(parse_config("preset = fig3\n"), rho_grid_db=()))


def test_negative_seed_exits_one_on_every_cli_route(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    out = tmp_path / "out.csv"
    cfg.write_text(CLI_CONFIG.replace("seed = 3", "seed = -1"))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ratelab: error: line 9: sweep.seed: seed must be >= 0\n"
    # refused where it enters, though no estimator draws from it
    cfg.write_text(CLI_CONFIG.replace("seed = 3", "seed = -1").replace("monte_carlo", "quadrature_oracle"))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "ratelab: error: line 9: sweep.seed: seed must be >= 0\n"
    cfg.write_text(CLI_CONFIG)
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--seed=-1"]) == 1
    assert capsys.readouterr().err == "ratelab: error: --seed: seed must be >= 0\n"
    assert main(["calibrate", "--preset", "fig3", "--k-grid", "0", "--trials", "1000", "--seed=-3"]) == 1
    assert capsys.readouterr().err == "ratelab: error: --seed: seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("25,5,5", "grid must be strictly increasing"),
    ("5:1:1", "grid must be nonempty"),
    (",", "grid must be nonempty"),
])
def test_cli_and_config_reject_a_bad_grid_alike(spec, message, tmp_path, capsys):
    with pytest.raises(DomainError, match=f"rho_db: {message}"):
        parse_config(MINIMAL + f"[sweep]\nrho_db = {spec}\n")
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


WEAK_RELAY = ("ratelab: warning: S-R mean power does not exceed S-D mean power; "
              "the relay placement assumption of the scheme is violated\n")
EVERY_TOKEN = "schemes = crs_noma, conventional, crs_oma\nmodes = paper, exact\n"
ORACLE_AND_SERIES = "estimators = quadrature_oracle, series_corrected, series_paper_literal\n"


@pytest.mark.parametrize("argv, config, stderr", [
    pytest.param(["discrepancy", "--preset", "fig3", "--k", "10"], None, "", id="k10-discrepancy"),
    # the deepest series (674 terms a link) through both branches of the moment kernel
    pytest.param(["discrepancy", "--preset", "fig3", "--k", "500", "--rho-grid=-20:100:20"], None, "",
                 id="k500-discrepancy"),
    # the kernel's upward Horner pass (a*x above 700), for every token
    pytest.param(["sweep"], "[geometry]\nk = 500\n[sweep]\nrho_db = 5, 40\n" + EVERY_TOKEN + ORACLE_AND_SERIES, "",
                 id="k500-every-token"),
    # exact mode, where the series give no rows
    pytest.param(["sweep"], "[sweep]\nrho_db = 5, 25\nmodes = exact\n"
                 "estimators = quadrature_oracle, series_corrected\n", "", id="exact-mode-series"),
    # inverse scales 1e600 apart: the relay placement warning, nothing more
    pytest.param(["sweep"], "[geometry]\nomega_sr = 1e-300\nomega_rd = 1e300\n[sweep]\nrho_db = 5\n"
                 "schemes = crs_noma\n" + ORACLE_AND_SERIES, WEAK_RELAY, id="extreme-scales"),
    # K*Omega overflows; Monte-Carlo has no bound on K
    pytest.param(["sweep"], "[geometry]\nk = 1e308\n[sweep]\nrho_db = 5, 25\ntrials = 1000\n", "",
                 id="k1e308-monte-carlo"),
])
def test_a_valid_extreme_cli_run_prints_only_its_expected_stderr(argv, config, stderr, tmp_path, capfd):
    # the suite makes a RuntimeWarning an error, so a numpy warning would raise
    out = tmp_path / "out.csv"
    if config is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("preset = fig3\n" + config)
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 0
    assert capfd.readouterr().err == stderr
    assert out.exists()


def test_series_controls_are_bounded_in_a_config(tmp_path, capsys):
    # the series have no setting: a [series] section is refused, whatever it holds
    cfg = tmp_path / "cfg.txt"
    for line in ("quad_order = 50", "tail_tol = 1e-9", "n_max = 20"):
        cfg.write_text(f"preset = fig3\n[series]\n{line}\n")
        with pytest.raises(DomainError, match=r"^line 2: unknown section \[series\]$"):
            parse_config(cfg.read_text())
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == "ratelab: error: line 2: unknown section [series]\n"
    assert not (tmp_path / "out.csv").exists()


def test_integer_fields_reject_fractions_and_booleans():
    with pytest.raises(DomainError, match="cannot interpret '1.9'"):
        parse_config(MINIMAL + "[sweep]\ntrials = 1.9\n")
    with pytest.raises(DomainError, match="^line 7: sweep.seed: cannot interpret 'true'$"):
        parse_config(MINIMAL + "[sweep]\nseed = true\n")


def test_config_errors_name_the_field_once():
    with pytest.raises(DomainError) as err:
        parse_config("preset = fig3\n[sweep]\ntrials = 1.9\nestimators = magic\n")
    message = str(err.value)
    assert "line 3: sweep.trials: cannot interpret '1.9'" in message
    assert "line 4: sweep.estimators: unknown value 'magic'" in message
    assert message.count("trials") == 1 and message.count("estimators") == 1


SCHEMES = "crs_noma, conventional, crs_oma"
ESTIMATOR_NAMES = ", ".join(ESTIMATORS)
BIG = "1" + "0" * 400  # an integer above the float range


@pytest.mark.parametrize("config, message", [
    # an empty value is never a value, whatever the field's kind
    ("[geometry]\nk =\n", "line 3: geometry.k: cannot interpret ''"),
    ("[geometry]\nk_rd =\n", "line 3: geometry.k_rd: cannot interpret ''"),
    ("[geometry]\nomega_sd =\n", "line 3: geometry.omega_sd: cannot interpret ''"),
    ("[series]\ntail_tol =\n", "line 2: unknown section [series]"),
    ("[sweep]\nrho_db =\n", "line 3: sweep.rho_db: grid must be nonempty"),
    ("[sweep]\nschemes =\n", "line 3: sweep.schemes: at least one scheme required"),
    ("[sweep]\ntrials =\n", "line 3: sweep.trials: cannot interpret ''"),
    ("[sweep]\nseed = null\n", "line 3: sweep.seed: cannot interpret 'null'"),
    ("preset =\n", "line 2: preset: unknown value '' (allowed: fig3, fig4)"),
    # the output path is a flag only, and the split one number, a2
    ("[output]\npath = x.csv\n", "line 2: unknown section [output]"),
    ("[split]\na1 = 0.9\n", "line 3: split.a1: unknown key"),
    # a boolean word is never a number
    ("[geometry]\nk = true\n", "line 3: geometry.k: cannot interpret 'true'"),
    ("[split]\na2 = false\n", "line 3: split.a2: cannot interpret 'false'"),
    ("[sweep]\nrho_db = 5, true\n", "line 3: sweep.rho_db: cannot interpret ' true'"),
    # numbers in a token field, a two-part range, empty token lists
    ("[sweep]\nschemes = 5\n", f"line 3: sweep.schemes: unknown value '5' (allowed: {SCHEMES})"),
    ("[sweep]\nschemes = crs_noma, 5\n", f"line 3: sweep.schemes: unknown value '5' (allowed: {SCHEMES})"),
    ("[sweep]\nestimators = monte_carlo, magic\n",
     f"line 3: sweep.estimators: unknown value 'magic' (allowed: {ESTIMATOR_NAMES})"),
    ("[sweep]\nrho_db = 0:10\n", "line 3: sweep.rho_db: need start:stop:step"),
    ("[sweep]\nmodes =\n", "line 3: sweep.modes: at least one mode required"),
    ("[sweep]\nestimators =\n", "line 3: sweep.estimators: at least one estimator required"),
    # an integer field takes integer digits only
    ("[sweep]\ntrials = 1e6\n", "line 3: sweep.trials: cannot interpret '1e6'"),
    ("[sweep]\nseed = 7.0\n", "line 3: sweep.seed: cannot interpret '7.0'"),
    # an integer above the float range reads as inf, and each rule refuses it
    (f"[geometry]\nomega_sd = {BIG}\n",
     "geometry.sd: mean_power and (1 + K)/mean_power must be finite and > 0, got inf"),
    (f"[geometry]\nk = {BIG}\n", "; ".join(f"geometry.{link}: k_factor must be finite and >= 0, got inf"
                                          for link in ("sr", "rd", "sd"))),
    (f"[split]\na2 = {BIG}\n", "line 3: split.a2: need 0 < a2 < 0.5, got inf"),
    (f"[sweep]\nrho_db = 5, {BIG}\n", "line 3: sweep.rho_db: grid points must be finite, got inf"),
])
def test_a_bad_text_field_is_one_line_naming_it(config, message, tmp_path, capsys, monkeypatch):
    # every field is refused when the config is parsed, before any block runs
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: pytest.fail("a block ran"))
    text = "preset = fig3\n" + config
    with pytest.raises(DomainError) as err:
        parse_config(text)
    assert str(err.value) == message
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 1
    assert capsys.readouterr().err == f"ratelab: error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("call, error, message", [
    (lambda: parse_grid("5, 1" + "0" * 400), DomainError, "grid points must be finite, got inf"),
    (lambda: calibrate_k("fig3", k_grid=[0, 10**400], trials=10), DomainError,
     "k_factor must be finite and >= 0, got an integer above the float range"),
    # a boolean word is never a number, in a library grid as in a config
    (lambda: parse_grid("true, 2"), DomainError, "cannot interpret 'true'"),
], ids=["parse_grid", "calibrate_k", "parse_grid-boolean"])
def test_a_library_grid_point_that_is_no_float_is_one_error(call, error, message, monkeypatch):
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: pytest.fail("a block ran"))
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("key, value, section", [
    ("seed", "7", "sweep"), ("trials", "1000", "sweep"), ("rho_db", "5", "sweep"), ("a2", "0.2", "split"),
])
def test_a_sectioned_key_at_the_top_level_is_refused(key, value, section, tmp_path, monkeypatch, capsys):
    # preset is the one top-level key; every other key is read in its section only
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: pytest.fail("a block ran"))
    monkeypatch.chdir(tmp_path)
    text = f"preset = fig3\n{key} = {value}\n"
    (tmp_path / "cfg.txt").write_text(text)
    assert main(["sweep", "--config", "cfg.txt", "--out", "out.csv"]) == 1
    assert capsys.readouterr() == ("", f"ratelab: error: line 2: {key}: unknown top-level key\n")
    assert os.listdir(tmp_path) == ["cfg.txt"]
    assert parse_config(f"preset = fig3\n[{section}]\n{key} = {value}\n") != parse_config("preset = fig3\n")


@pytest.mark.parametrize("call, message", [
    (lambda: parse_grid("0:10"), "need start:stop:step"),
    (lambda: parse_config("preset = fig3\n[sweep]\ntrials = many\n"), "line 3: sweep.trials: cannot interpret 'many'"),
    (lambda: calibrate_k("fig5"), "unknown value 'fig5' (allowed: fig3, fig4)"),
    (lambda: cli.build_parser().parse_args(["sweep"]), "the following arguments are required: --config"),
], ids=["parse_grid", "parse_config", "calibrate_k", "usage"])
def test_every_refused_input_is_one_domain_error(call, message, monkeypatch):
    # a grid, a config, a library argument and a command line are refused alike
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: pytest.fail("a block ran"))
    with pytest.raises(DomainError) as err:
        call()
    assert (err.type, str(err.value)) == (DomainError, message)
    assert not hasattr(ratelab.errors, "ValidationError")


def test_readme_config_block_holds_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Config grammar", 1)[1].split("```")[1]
    assert parse_config(block) == parse_config("preset = fig3\n")


def test_readme_library_block_runs(capsys):
    # the block runs as written, so a README that names a removed function fails
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    values = capsys.readouterr().out.split()
    assert len(values) == 3 and all(math.isfinite(float(v)) for v in values)


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
    assert capsys.readouterr().err == WEAK_RELAY
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
    (["sweep"], "[sweep]\ntrials = 0\n", f"line 3: sweep.trials: trials must be between 1 and {MAX_TRIALS}"),
    (["sweep"], "= 5\n", "line 2: empty key"),
    (["sweep"], "[bogus]\n", "line 2: unknown section [bogus]"),
    (["sweep"], "bogus = 1\n", "line 2: bogus: unknown top-level key"),
    # a JSON document is refused at its first line, like any line without "="
    pytest.param(["sweep"], '{"preset": "fig3", "geometry": {"k": 3}}',
                 """line 1: expected 'key = value', got '{"preset": "...y": {"k": 3}}'""", id="json-document"),
    # a JSON document of 5001 digits or nested 100000 deep is still one short line
    pytest.param(["sweep"], '{"preset": "fig3", "geometry": {"omega_sd": 1' + "0" * 5000 + "}}",
                 """line 1: expected 'key = value', got '{"preset": "...00000000000}}'""", id="json-5001-digits"),
    pytest.param(["sweep"], '{"preset": "fig3", "sweep": {"rho_db": ' + "[" * 100000 + "]" * 100000 + "}}",
                 """line 1: expected 'key = value', got '{"preset": "...]]]]]]]]]]]}}'""", id="json-nested-100000"),
    # an integer of 5001 digits, in a text config and a flag: one short line
    pytest.param(["sweep"], "[sweep]\ntrials = 1" + "0" * 5000 + "\n",
                 "line 3: sweep.trials: cannot interpret '100000000000...0000000000000'", id="text-5001-digits"),
    pytest.param(["sweep", "--trials", "1" + "0" * 5000], "",
                 "--trials: cannot interpret '100000000000...0000000000000'", id="flag-5001-digits"),
    (["sweep", "--trials", "abc"], "", "--trials: cannot interpret 'abc'"),
    # long text values, each echoed cut short
    pytest.param(["sweep"], "[sweep]\nrho_db = " + "x" * 5000 + "\n",
                 "line 3: sweep.rho_db: cannot interpret 'xxxxxxxxxxxx...xxxxxxxxxxxxx'", id="text-long-grid"),
    pytest.param(["sweep"], "y" * 5000 + "\n",
                 "line 2: expected 'key = value', got 'yyyyyyyyyyyy...yyyyyyyyyyyyy'", id="text-long-line"),
    pytest.param(["discrepancy", "--preset", "fig3", "--rho-grid", "z" * 5000], None,
                 "--rho-grid: cannot interpret 'zzzzzzzzzzzz...zzzzzzzzzzzzz'", id="flag-long-rho-grid"),
    pytest.param(["calibrate", "--preset", "fig3", "--k-grid", "1:2:" + "z" * 5000], None,
                 "--k-grid: cannot interpret 'zzzzzzzzzzzz...zzzzzzzzzzzzz'", id="flag-long-k-grid"),
    # an empty grid flag is refused, not read as the default grid
    pytest.param(["calibrate", "--preset", "fig3", "--k-grid", ""], None, "--k-grid: grid must be nonempty",
                 id="flag-empty-k-grid"),
    pytest.param(["discrepancy", "--preset", "fig3", "--rho-grid", ""], None, "--rho-grid: grid must be nonempty",
                 id="flag-empty-rho-grid"),
])
def test_each_refused_config_or_grid_is_one_line(argv, config, message, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: pytest.fail("a block ran"))
    monkeypatch.setattr(analytic, "_quad", lambda *args, **kwargs: pytest.fail("a quadrature ran"))
    out = tmp_path / "out.csv"
    if config is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config if config.startswith("{") else "preset = fig3\n" + config)
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"ratelab: error: {message}\n" and len(err.encode()) < 200
    assert not out.exists()


@pytest.mark.parametrize("argv", [["sweep", "--config", "cfg.txt"], ["calibrate", "--preset", "fig3"],
                                  ["discrepancy", "--preset", "fig3"]], ids=lambda argv: argv[0])
def test_an_empty_out_is_refused_before_any_work(argv, tmp_path, monkeypatch, capsys):
    # an empty --out is not absent: sweep does not fall back to the config's path
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: pytest.fail("a block ran"))
    monkeypatch.setattr(analytic, "_quad", lambda *args, **kwargs: pytest.fail("a quadrature ran"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.txt").write_text(CLI_CONFIG)
    assert main(argv + ["--out", ""]) == 1
    assert capsys.readouterr() == ("", "ratelab: error: --out: must not be empty\n")
    assert os.listdir(tmp_path) == ["cfg.txt"]


# a name too long for the system, and the line that echoes it cut short
_LONG = "1" + "0" * 5000
_TOO_LONG = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: '100000000000...0000000000000'"


def test_a_path_of_any_length_is_echoed_cut_short(tmp_path, monkeypatch, capsys):
    # every error the system gives for a path the user named exits 1
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--config", _LONG]) == 1
    assert capsys.readouterr().err == f"ratelab: error: {_TOO_LONG}\n"
    assert main(["discrepancy", "--preset", "fig3", "--rho-grid", "5", "--out", _LONG]) == 1
    assert capsys.readouterr() == ("", f"ratelab: error: {_TOO_LONG}\n")
    assert os.listdir(tmp_path) == []


_MISSING = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'missing/'"
_DIRECTORY = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: 'made'"
_NUL = "{flag}: a path cannot hold a NUL byte, got 'a\\x00b'"


@pytest.mark.parametrize("argv, line", [
    (["sweep", "--config", "made"], _DIRECTORY),
    (["sweep", "--config", "cfg.txt", "--out", "missing/x.csv"], _MISSING),
    (["sweep", "--config", "cfg.txt", "--out", "made"], _DIRECTORY),
    (["calibrate", "--preset", "fig3", "--out", "missing/x.csv"], _MISSING),
    (["calibrate", "--preset", "fig3", "--out", "made"], _DIRECTORY),
    (["discrepancy", "--preset", "fig3", "--out", "missing/x.csv"], _MISSING),
    (["discrepancy", "--preset", "fig3", "--out", "made"], _DIRECTORY),
    (["sweep", "--config", "cfg.txt", "--out", _LONG], _TOO_LONG),
    (["calibrate", "--preset", "fig3", "--out", _LONG], _TOO_LONG),
    (["discrepancy", "--preset", "fig3", "--out", _LONG], _TOO_LONG),
    # a NUL byte, for which the system calls raise a ValueError
    (["sweep", "--config", "a\x00b"], _NUL.format(flag="--config")),
    (["sweep", "--config", "cfg.txt", "--out", "a\x00b"], _NUL.format(flag="--out")),
], ids=["sweep-config-directory", "sweep-out-missing", "sweep-out-directory", "calibrate-missing",
        "calibrate-directory", "discrepancy-missing", "discrepancy-directory", "sweep-out-too-long",
        "calibrate-too-long", "discrepancy-too-long", "sweep-config-nul", "sweep-out-nul"])
def test_a_path_that_cannot_be_used_is_refused_before_any_estimator(argv, line, tmp_path, monkeypatch, capsys):
    for estimator in ("run_sweep", "calibrate_k", "discrepancy_report"):
        monkeypatch.setattr(cli, estimator, lambda *args, **kwargs: pytest.fail("an estimator ran"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "made").mkdir()
    (tmp_path / "cfg.txt").write_text(CLI_CONFIG)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"ratelab: error: {line}\n")
    assert sorted(os.listdir(tmp_path)) == ["cfg.txt", "made"] and os.listdir(tmp_path / "made") == []


def test_run_sweep_and_calibrate_k_refuse_bad_arguments(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("a block ran past a refused argument")

    monkeypatch.setattr(montecarlo, "_run_blocks", no_blocks)
    with pytest.raises(DomainError, match=re.escape(f"unknown value 'magic' (allowed: {', '.join(ESTIMATORS)})")):
        run_sweep(replace(parse_config("preset = fig3\n"), estimators=("magic",)))
    with pytest.raises(DomainError, match=r"^unknown value 'fig5' \(allowed: fig3, fig4\)$"):
        calibrate_k("fig5")
    with pytest.raises(DomainError, match="^at least one K value required$"):
        calibrate_k("fig3", k_grid=[])


@pytest.mark.parametrize("field, value, message", [
    ("seed", -1, "seed must be >= 0"),
    ("trials", 0, f"trials must be between 1 and {MAX_TRIALS}"),
    ("seed", [[0.0], [0.0]], "seed must be a whole number, got [[0.0], [0.0]]"),
], ids=["seed-negative", "trials-zero", "seed-nested-list"])
def test_run_sweep_checks_the_trials_and_seed_it_records_without_monte_carlo(field, value, message):
    # the metadata wrote them as given: a negative seed, no trials, a list
    cfg = parse_config("preset = fig3\n[sweep]\nrho_db = 5\nestimators = quadrature_oracle\n")
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        run_sweep(replace(cfg, **{field: value}))


def test_run_sweep_reads_a_scheme_named_twice_once():
    # a hand-built config named twice wrote every row twice and listed the scheme twice
    cfg = parse_config("preset = fig3\n[sweep]\nrho_db = 5\nestimators = quadrature_oracle\n")
    result = run_sweep(replace(cfg, schemes=("crs_oma", "crs_oma")))
    assert len(result.rows) == len(QUANTITIES) == 5
    assert "# schemes = crs_oma\n" in render_csv(result)


def test_calibrate_k_refuses_an_empty_target_list(monkeypatch):
    # an empty list is given targets, not the paper's
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: pytest.fail("a block ran"))
    with pytest.raises(DomainError, match="^at least one target required$"):
        calibrate_k("fig3", targets=[], k_grid=[0.0], trials=10)


def test_calibration_residuals_carry_the_float_rho_db_that_ran():
    # a residual kept the target's rho_db as given, such as the string '5'
    given = calibrate_k("fig3", targets=[("5", "crs_noma", 4.29)], k_grid=[0.0], trials=100)
    want = calibrate_k("fig3", targets=[(5.0, "crs_noma", 4.29)], k_grid=[0.0], trials=100)
    assert type(given.residuals[0][1]) is float
    assert given.residuals == want.residuals


def test_a_non_finite_sweep_row_is_refused():
    # at rho = 1e300 and Omega = 1e300, rho*lambda overflows and the Monte-Carlo mean is inf
    cfg = parse_config("[geometry]\nomega_sr = 1e300\nomega_rd = 1e300\nomega_sd = 1e299\n"
                       "[sweep]\nrho_db = 3000\nschemes = crs_oma\ntrials = 10\n")
    with pytest.raises(DomainError, match=r"^non-finite value in sweep row SweepRow\(rho_db=3000\.0, "
                                          r"scheme='crs_oma', mode='-', estimator='monte_carlo', quantity='c_s1', "
                                          r"value=inf"):
        run_sweep(cfg)


@pytest.mark.parametrize("config, message", [
    # the S-R gains overflow
    ("preset = fig3\n[geometry]\nomega_sr = 1e308\n[sweep]\nrho_db = 5\ntrials = 1000\n",
     "lambda_sr must be finite and >= 0\n"),
    # rho*lambda overflows, and the mean is inf
    ("preset = fig3\n[geometry]\nomega_sr = 1e300\nomega_rd = 1e300\nomega_sd = 1e299\n"
     "[sweep]\nrho_db = 3000\nschemes = crs_oma\ntrials = 10\n", "non-finite value in sweep row "),
], ids=["gain", "rate"])
def test_overflow_in_the_engine_exits_one_with_one_line(config, message, tmp_path, capsys):
    # the suite makes a RuntimeWarning an error, so a numpy warning would raise
    cfg, out = tmp_path / "cfg.txt", tmp_path / "out.csv"
    cfg.write_text(config)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ratelab: error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_out_dash_writes_the_table_to_stdout(capsys):
    assert main(["discrepancy", "--preset", "fig3", "--rho-grid", "5", "--out", "-"]) == 0
    geometry = preset_geometry("fig3", 0.0)
    assert capsys.readouterr() == (render_discrepancy_csv(discrepancy_report(geometry, [5.0]), geometry), "")


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--config", "c.txt", "--trials", "many"], "--trials: cannot interpret 'many'"),
    (["calibrate", "--preset", "fig3", "--workers", "0"], f"--workers: {RULES['workers']}"),
    (["discrepancy", "--preset", "fig3", "--out", ""], "--out: must not be empty"),
    (["discrepancy", "--preset", "fig3", "--rho-grid", ""], "--rho-grid: grid must be nonempty"),
    (["calibrate", "--preset", "fig3", "--k-grid", "0:nan:1"],
     f"--k-grid: grid 0:nan:1 must be finite with at most {MAX_GRID_POINTS} points"),
], ids=["trials", "workers", "out", "rho-grid", "k-grid"])
def test_the_parser_reads_each_value_flag_by_its_rule(argv, message, monkeypatch, capsys):
    # the parser returned the raw text, trials='many', and a second reader refused it later
    monkeypatch.setattr(montecarlo, "_run_blocks", lambda *args: pytest.fail("a block ran"))
    with pytest.raises(DomainError) as err:
        cli.build_parser().parse_args(argv)
    assert (err.type, str(err.value)) == (DomainError, message)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"ratelab: error: {message}\n")


def test_the_parser_gives_each_default_read_by_its_rule():
    parse = cli.build_parser().parse_args
    cal = parse(["calibrate", "--preset", "fig3"])
    assert (cal.k_grid, cal.trials, cal.seed, cal.workers, cal.out) == (
        [i * 0.5 for i in range(21)], montecarlo.DEFAULT_TRIALS, montecarlo.DEFAULT_SEED, 1, "-")
    dis = parse(["discrepancy", "--preset", "fig3"])
    assert (dis.k, dis.rho_grid, dis.out) == (0.0, [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0], "-")
    # sweep's seed and trials default to the config's
    swp = parse(["sweep", "--config", "c.txt"])
    assert (swp.out, swp.seed, swp.trials, swp.workers) == ("sweep.csv", None, None, 1)


@pytest.mark.parametrize("command, defaults", [
    ("sweep", ["sweep.csv", "1"]),
    ("calibrate", ["0:10:0.5", str(montecarlo.DEFAULT_TRIALS), str(montecarlo.DEFAULT_SEED), "1", "-"]),
    ("discrepancy", ["0", "0:30:5", "-"]),
])
def test_help_shows_each_default_and_the_usage_of_the_module_docstring(command, defaults, monkeypatch, capsys):
    # a bad %(default)s in a help string fails only when the help is printed
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exit_:
        cli.build_parser().parse_args([command, "--help"])
    assert exit_.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for default in defaults:
        assert f"(default: {default})" in out, default
    usage = out.split(" options: ")[0].removeprefix("usage: ")
    assert usage in " ".join(cli.__doc__.split())


def test_a_sweep_config_defaults_its_settings_as_a_config_does():
    parsed = parse_config("preset = fig3\n")
    built = sweep.SweepConfig(rho_grid_db=parsed.rho_grid_db, geometry=parsed.geometry, schemes=parsed.schemes,
                              modes=parsed.modes, estimators=parsed.estimators, preset="fig3")
    assert built == parsed
