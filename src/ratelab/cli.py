"""Command-line front end.

    ratelab sweep --config cfg.txt [--out sweep.csv] [--seed N]
                  [--trials N] [--workers N]
    ratelab calibrate --preset fig3|fig4 [--k-grid a:b:step] [--trials N]
                  [--seed N] [--workers N] [--out residuals.csv]
    ratelab discrepancy --preset fig3|fig4 [--k K] [--rho-grid a:b:step]
                  [--out table.csv]

The three commands write the three tables: sweep, calibration and
discrepancy; the discrepancy table is read from the rows of a sweep of
both series and the oracle.  ``--out`` is the one output setting of
each: a path, or "-" for stdout, which calibrate and discrepancy
default to; sweep defaults to sweep.csv.  A config holds no output
path.  A grid that starts below zero is written with '=',
--rho-grid=-10:30:5, since a bare -10:30:5 reads as an option.

Exit codes: 0 success, 1 a refused input (a ``DomainError``: a config
line or field, a flag, a usage error or a value outside its domain) or
any error the system gives for a named path, 2 a ``ConvergenceError``.
A warning prints as one ``ratelab: warning: ...`` line and leaves the
exit code alone.  Each value flag is read by the rule of the setting it
names before any command runs, so an empty value is refused, not taken
as absent.
"""

import argparse
import errno
import os
import stat
import sys
import warnings
from dataclasses import replace

from .errors import ConvergenceError, DomainError, RateLabError, _echo
from .montecarlo import _check_setting
from .sweep import (
    _FIELDS,
    PRESETS,
    _number,
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


def _path(raw: str) -> str:
    """An output path, the rule of --out."""
    if not raw:
        raise DomainError("must not be empty")
    return raw


# Each value flag and the rule of the setting it names, the config's where it has one
_FLAGS = {
    "seed": _FIELDS["sweep"]["seed"][0], "trials": _FIELDS["sweep"]["trials"][0],
    "workers": lambda raw: _check_setting(_number(raw, int), "workers"),
    "out": _path, "k": _FIELDS["geometry"]["k"][0],
    "k_grid": parse_grid, "rho_grid": parse_grid,
}


def _read_flags(args) -> dict:
    """The value flags given, each read by its rule."""
    flags = {}
    for name, rule in _FLAGS.items():
        if getattr(args, name, None) is not None:
            try:
                flags[name] = rule(getattr(args, name))
            except DomainError as exc:
                raise DomainError(f"--{name.replace('_', '-')}: {exc}") from None
    return flags


def _writable(path: str) -> str:
    """``path``, refused where it names a directory, lies in one that is
    missing or gives any other system error but a missing file, so that
    no estimator runs for a table that cannot be written; "-" is stdout."""
    if path != "-":
        os.stat(os.path.join(os.path.dirname(path), "") or ".")  # a missing parent, or a file, raises
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:  # a new file
            return path
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return path


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _cmd_sweep(args, out="sweep.csv", **settings):
    with open(args.config) as fh:
        config = replace(parse_config(fh.read()), **settings)
    _writable(out)
    _write(out, render_csv(run_sweep(config)))


def _cmd_calibrate(args, out="-", **settings):
    _writable(out)
    result = calibrate_k(args.preset, **settings)
    _write(out, render_calibration_csv(result))
    if out != "-":
        sys.stdout.write(f"best_k = {result.best_k}\n")


def _cmd_discrepancy(args, k=0.0, rho_grid=tuple(range(0, 31, 5)), out="-"):
    geometry = preset_geometry(args.preset, k)
    _writable(out)
    _write(out, render_discrepancy_csv(discrepancy_report(geometry, rho_grid), geometry))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are refused inputs: one line
    and exit 1, where argparse prints its usage and exits 2."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ratelab",
        description="Achievable-rate laboratory for cooperative NOMA relaying over Rician fading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run an SNR sweep from a config document")
    p_sweep.add_argument("--config", required=True, help="path to the config document")
    p_sweep.add_argument("--out", help="output CSV path (default: sweep.csv)")
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
    p_dis.add_argument("--k", help="Rician K on all links (default 0)")
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
            args.func(args, **_read_flags(args))  # every flag is read before the command runs
        return _EXIT_OK
    except (RateLabError, OSError) as exc:
        refused = not isinstance(exc, ConvergenceError)  # an OSError comes from a path the user named
        if isinstance(exc, OSError) and exc.filename is not None:  # a path of any length, cut short
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_echo(exc.filename)}"
        print(f"ratelab: {'error' if refused else 'runtime error'}: {exc}", file=sys.stderr)
        return _EXIT_CONFIG if refused else _EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
