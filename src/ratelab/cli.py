"""Command-line front end.

    ratelab sweep [-h] --config CONFIG [--out OUT] [--seed SEED]
                  [--trials TRIALS] [--workers WORKERS]
    ratelab calibrate [-h] --preset {fig3,fig4} [--k-grid K_GRID]
                  [--trials TRIALS] [--seed SEED] [--workers WORKERS]
                  [--out OUT]
    ratelab discrepancy [-h] --preset {fig3,fig4} [--k K]
                  [--rho-grid RHO_GRID] [--out OUT]

The three commands write the three tables: sweep, calibration and
discrepancy; the discrepancy table is read from the rows of a sweep of
both series and the oracle.  ``--out`` is the one output setting of
each: a path, or "-" for stdout, which calibrate and discrepancy
default to; sweep defaults to sweep.csv.  A config holds no output
path.  A grid that starts below zero is written with '=',
--rho-grid=-10:30:5, since a bare -10:30:5 reads as an option.
``--help`` shows each command's defaults.

Exit codes: 0 success, 1 a refused input (a ``DomainError``: a config
line or field, a flag, a usage error or a value outside its domain) or
any error the system gives for a named path, 2 a ``ConvergenceError``.
A warning prints as one ``ratelab: warning: ...`` line and leaves the
exit code alone.  argparse reads each value flag, and each default
given as text, by the rule of the setting it names while it parses the
command line, so an empty value is refused, not taken as absent, and
an output path that cannot be written, or a path with a NUL byte, is
refused before any command runs.
"""

import argparse
import errno
import os
import stat
import sys
import warnings
from dataclasses import replace

from .errors import ConvergenceError, DomainError, RateLabError, _echo
from .montecarlo import DEFAULT_SEED, DEFAULT_TRIALS, DEFAULT_WORKERS
from .sweep import (
    DEFAULT_K_GRID,
    PRESETS,
    _number,
    _setting,
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


def _named(path: str) -> str:
    """``path``, the rule of --config: refused where it holds a NUL byte,
    which no system path can, and for which the system calls raise a
    ValueError, not an OSError naming the path."""
    if "\0" in path:
        raise DomainError(f"a path cannot hold a NUL byte, got {_echo(path)}")
    return path


def _out(path: str) -> str:
    """``path``, the rule of --out: refused where it is empty, holds a NUL
    byte, names a directory, lies in one that is missing or gives any
    other system error but a missing file, so that no estimator runs for
    a table that cannot be written; "-" is stdout."""
    if not path:
        raise DomainError("must not be empty")
    if _named(path) != "-":
        os.stat(os.path.join(os.path.dirname(path), "") or ".")  # a missing parent, or a file, raises
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:  # a new file
            return path
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return path


def _flag(parser, flag: str, rule, **kwargs):
    """Add the value flag ``flag``, which argparse reads by ``rule``, its
    text default too; a refusal names the flag."""
    def read(raw):
        try:
            return rule(raw)
        except DomainError as exc:
            raise DomainError(f"{flag}: {exc}") from None
    parser.add_argument(flag, type=read, **kwargs)


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _cmd_sweep(args):
    with open(args.config) as fh:
        config = parse_config(fh.read())
    given = {name: getattr(args, name) for name in ("seed", "trials") if getattr(args, name) is not None}
    _write(args.out, render_csv(run_sweep(replace(config, workers=args.workers, **given))))


def _cmd_calibrate(args):
    result = calibrate_k(args.preset, k_grid=args.k_grid, trials=args.trials, seed=args.seed, workers=args.workers)
    _write(args.out, render_calibration_csv(result))
    if args.out != "-":
        sys.stdout.write(f"best_k = {result.best_k}\n")


def _cmd_discrepancy(args):
    geometry = preset_geometry(args.preset, args.k)
    _write(args.out, render_discrepancy_csv(discrepancy_report(geometry, args.rho_grid), geometry))


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

    workers = "Monte-Carlo worker threads, result-invariant (default: %(default)s)"
    p_sweep = sub.add_parser("sweep", help="run an SNR sweep from a config document")
    _flag(p_sweep, "--config", _named, required=True, help="path to the config document")
    _flag(p_sweep, "--out", _out, default="sweep.csv", help="output CSV path, - for stdout (default: %(default)s)")
    _flag(p_sweep, "--seed", _setting("seed"), help="override the config seed")
    _flag(p_sweep, "--trials", _setting("trials"), help="override the config's Monte-Carlo trial count")
    _flag(p_sweep, "--workers", _setting("workers"), default=DEFAULT_WORKERS, help=workers)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="fit the unreported Rician K to published rates")
    p_cal.add_argument("--preset", required=True, choices=sorted(PRESETS))
    _flag(p_cal, "--k-grid", parse_grid, default=DEFAULT_K_GRID,
          help="K grid as start:stop:step or comma list (default: %(default)s)")
    _flag(p_cal, "--trials", _setting("trials"), default=DEFAULT_TRIALS, help="trial count (default: %(default)s)")
    _flag(p_cal, "--seed", _setting("seed"), default=DEFAULT_SEED, help="Monte-Carlo seed (default: %(default)s)")
    _flag(p_cal, "--workers", _setting("workers"), default=DEFAULT_WORKERS, help=workers)
    _flag(p_cal, "--out", _out, default="-", help="residual-table CSV path, - for stdout (default: %(default)s)")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_dis = sub.add_parser("discrepancy", help="literal vs corrected analytic rate table with the oracle")
    p_dis.add_argument("--preset", required=True, choices=sorted(PRESETS))
    _flag(p_dis, "--k", _number, default="0", help="Rician K on all links (default: %(default)s)")
    _flag(p_dis, "--rho-grid", parse_grid, default="0:30:5",
          help="dB grid as start:stop:step or comma list (default: %(default)s); "
               "write a negative start as --rho-grid=-10:30:5")
    _flag(p_dis, "--out", _out, default="-", help="output CSV path, - for stdout (default: %(default)s)")
    p_dis.set_defaults(func=_cmd_discrepancy)
    return parser


def main(argv=None) -> int:
    try:
        # one line per shown warning; a filter that makes it an error still raises
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"ratelab: warning: {message}", file=sys.stderr)
            args = build_parser().parse_args(argv)
            args.func(args)
        return _EXIT_OK
    except (RateLabError, OSError) as exc:
        refused = not isinstance(exc, ConvergenceError)  # an OSError comes from a path the user named
        if isinstance(exc, OSError) and exc.filename is not None:  # a path of any length, cut short
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_echo(exc.filename)}"
        print(f"ratelab: {'error' if refused else 'runtime error'}: {exc}", file=sys.stderr)
        return _EXIT_CONFIG if refused else _EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
