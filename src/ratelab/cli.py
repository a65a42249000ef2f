"""Command-line front end.

    ratelab sweep --config cfg.txt [--out sweep.csv] [--seed N]
                  [--trials N] [--workers N]
    ratelab calibrate --preset fig3|fig4 [--k-grid a:b:step] [--trials N]
                  [--seed N] [--workers N] [--out residuals.csv]
    ratelab discrepancy --preset fig3|fig4 [--k K] [--rho-grid a:b:step]
                  [--out table.csv]

The three commands write the three tables: sweep, calibration and
discrepancy; the discrepancy table is read from the rows of a sweep of
both series and the oracle.  A grid that starts below zero is written
with '=', --rho-grid=-10:30:5, since a bare -10:30:5 reads as an option.

Exit codes: 0 success, 1 configuration/validation error (usage errors
included), 2 runtime or convergence error.  A warning prints as one
``ratelab: warning: ...`` line and leaves the exit code alone.  --seed,
--trials and --workers override the config, read and checked as its
integer fields are.
"""

import argparse
import sys
import warnings
from dataclasses import replace

from .errors import ConvergenceError, DomainError, RateLabError, ValidationError
from .montecarlo import _check_seed, _check_trials, _check_workers
from .sweep import (
    PRESETS,
    _integer,
    calibrate_k,
    discrepancy_report,
    parse_config,
    parse_grid,
    preset_geometry,
    render_calibration_csv,
    render_csv,
    render_discrepancy_csv,
    run_sweep,
)

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_RUNTIME = 2


def _parse_grid(text: str, what: str):
    try:
        return parse_grid(text)
    except ValueError as exc:
        raise ValidationError(f"{what}: {exc}") from exc


def _settings(args) -> dict:
    """The run settings given as flags, each read as a config integer
    and put through its rule."""
    given = {}
    for name, rule in (("seed", _check_seed), ("trials", _check_trials), ("workers", _check_workers)):
        if getattr(args, name) is not None:
            try:
                given[name] = rule(_integer(getattr(args, name)))
            except (ValueError, DomainError) as exc:
                raise ValidationError(f"--{name}: {exc}") from None
    return given


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _cmd_sweep(args) -> int:
    settings = _settings(args)
    with open(args.config) as fh:
        config = replace(parse_config(fh.read()), **settings)
    _write(args.out or config.output_path, render_csv(run_sweep(config)))
    return _EXIT_OK


def _cmd_calibrate(args) -> int:
    settings = _settings(args)
    k_grid = _parse_grid(args.k_grid, "--k-grid") if args.k_grid else None
    result = calibrate_k(args.preset, k_grid=k_grid, **settings)
    _write(args.out, render_calibration_csv(result))
    if args.out not in (None, "-"):
        sys.stdout.write(f"best_k = {result.best_k}\n")
    return _EXIT_OK


def _cmd_discrepancy(args) -> int:
    geometry = preset_geometry(args.preset, args.k)
    grid = _parse_grid(args.rho_grid, "--rho-grid") if args.rho_grid else list(range(0, 31, 5))
    rows = discrepancy_report(geometry, grid)
    _write(args.out, render_discrepancy_csv(rows, geometry))
    return _EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are configuration errors: one
    line and exit 1, where argparse prints its usage and exits 2."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ratelab",
        description="Achievable-rate laboratory for cooperative NOMA relaying over Rician fading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run an SNR sweep from a config document")
    p_sweep.add_argument("--config", required=True, help="path to the config document")
    p_sweep.add_argument("--out", help="output CSV path (default: config output path)")
    p_sweep.add_argument("--seed", help="override the config seed")
    p_sweep.add_argument("--trials", help="override the Monte-Carlo trial count")
    p_sweep.add_argument("--workers", help="Monte-Carlo worker threads (result-invariant)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="fit the unreported Rician K to published rates")
    p_cal.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p_cal.add_argument("--k-grid", help="K grid as start:stop:step or comma list (default 0:10:0.5)")
    p_cal.add_argument("--trials")
    p_cal.add_argument("--seed")
    p_cal.add_argument("--workers", help="Monte-Carlo worker threads (result-invariant)")
    p_cal.add_argument("--out", help="residual-table CSV path (default: stdout)")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_dis = sub.add_parser(
        "discrepancy", help="literal vs corrected analytic rate table with the oracle"
    )
    p_dis.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p_dis.add_argument("--k", type=float, default=0.0, help="Rician K on all links (default 0)")
    p_dis.add_argument("--rho-grid", help="dB grid as start:stop:step (default 0:30:5); "
                       "write a negative start as --rho-grid=-10:30:5")
    p_dis.add_argument("--out", help="output CSV path (default: stdout)")
    p_dis.set_defaults(func=_cmd_discrepancy)
    return parser


def main(argv=None) -> int:
    try:
        # one line per shown warning; a filter that makes it an error still raises
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"ratelab: warning: {message}", file=sys.stderr)
            args = build_parser().parse_args(argv)
            return args.func(args)
    except (ValidationError, DomainError, FileNotFoundError) as exc:
        print(f"ratelab: error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (ConvergenceError, OSError, RateLabError) as exc:
        print(f"ratelab: runtime error: {exc}", file=sys.stderr)
        return _EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
