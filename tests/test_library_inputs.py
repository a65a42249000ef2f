"""Junk inputs over the public library entries: each call returns or
raises one short RateLabError line, never another exception."""

import ast
import dataclasses
import math
import reprlib
from pathlib import Path

import numpy as np
import pytest

from ratelab import (
    NetworkGeometry,
    PowerSplit,
    RicianLink,
    calibrate_k,
    cdf_gamma2_paper,
    cdf_min_pair_approx,
    cdf_min_pair_series,
    cdf_single_link_series,
    conventional_noma_rate,
    crs_noma_rate,
    crs_oma_rate,
    discrepancy_report,
    ergodic_rate_quadrature_quantities,
    ergodic_rate_series,
    estimate_rates,
    paired_gap,
    power_gain_cdf,
    power_gain_pdf,
    power_gain_sf,
    run_sweep,
)
from ratelab.errors import RateLabError
from ratelab.sweep import parse_config

LINK = RicianLink(0, 8)
FIG3 = NetworkGeometry(sr=RicianLink(0, 8), rd=RicianLink(0, 8), sd=RicianLink(0, 3))
GAINS = (1.0, 2.0, 0.5)
RUN = {"trials": 100, "seed": 1, "workers": 1}
# no Monte-Carlo, so that run_sweep itself must refuse junk trials and seeds
SWEEP = parse_config("preset = fig3\n[sweep]\nrho_db = 5\nestimators = quadrature_oracle\n")

# Each entry with a valid baseline call: the function and its arguments
# by name.  Links, geometries and splits stay valid; every other
# argument, a number, a sequence or a name, takes each junk value in turn.
ENTRIES = {
    "crs_noma_rate": (crs_noma_rate, {"r": GAINS, "rho": 10.0, "mode": "paper"}),
    "conventional_noma_rate": (conventional_noma_rate, {"r": GAINS, "rho": 10.0}),
    "crs_oma_rate": (crs_oma_rate, {"r": GAINS, "rho": 10.0}),
    "RicianLink": (RicianLink, {"k_factor": 3.0, "mean_power": 8.0}),
    "PowerSplit": (PowerSplit, {"a2": 0.1}),
    "power_gain_pdf": (power_gain_pdf, {"link": LINK, "x": 1.0}),
    "power_gain_sf": (power_gain_sf, {"link": LINK, "x": 1.0}),
    "power_gain_cdf": (power_gain_cdf, {"link": LINK, "x": 1.0}),
    "cdf_min_pair_series": (cdf_min_pair_series, {"link_a": LINK, "link_b": LINK, "gamma": 1.0}),
    "cdf_min_pair_approx": (cdf_min_pair_approx, {"link_a": LINK, "link_b": LINK, "gamma": 1.0}),
    "cdf_single_link_series": (cdf_single_link_series, {"link": LINK, "gamma": 1.0}),
    "cdf_gamma2_paper": (cdf_gamma2_paper, {"link_y": LINK, "link_z": LINK, "gamma": 1.0}),
    "ergodic_rate_series": (ergodic_rate_series, {"geometry": FIG3, "rho": 10.0}),
    "oracle": (ergodic_rate_quadrature_quantities, {"geometry": FIG3, "rho": 10.0, "scheme": "crs_oma"}),
    "estimate_rates": (estimate_rates, {"geometry": FIG3, "rho": 10.0, "schemes": ("crs_oma",), "mode": "paper",
                                        **RUN}),
    "paired_gap": (paired_gap, {"geometry": FIG3, "rho": 10.0, "scheme_a": "crs_noma", "scheme_b": "crs_oma",
                                "mode": "paper", "quantity": "c_total", **RUN}),
    "calibrate_k": (calibrate_k, {"preset": "fig3", "targets": ((5.0, "crs_noma", 4.29),), "k_grid": (0.0,),
                                  **RUN}),
    "discrepancy_report": (discrepancy_report, {"geometry": FIG3, "rho_grid_db": (5.0,)}),
    # a hand-built config: every field but the geometry and the split
    "run_sweep": (lambda **fields: run_sweep(dataclasses.replace(SWEEP, **fields)),
                  {f.name: getattr(SWEEP, f.name) for f in dataclasses.fields(SWEEP)
                   if f.name not in ("geometry", "split")}),
}
CASES = [(entry, arg) for entry, (_, kwargs) in ENTRIES.items()
         for arg, value in kwargs.items() if not isinstance(value, (RicianLink, NetworkGeometry))]

JUNK = (None, "a", object(), [], [1.0, 2.0], [1.0, [2.0, 3.0]], 10**400, math.nan, -1.0, np.ones((2, 2)),
        np.zeros((2, 1)), {}, "x" * 5000)
# The longest message a refusal may give.
MAX_LINE = 300


@pytest.mark.parametrize("entry, arg", CASES, ids=[f"{entry}-{arg}" for entry, arg in CASES])
def test_a_junk_argument_returns_or_is_one_rate_lab_error_line(entry, arg):
    fn, kwargs = ENTRIES[entry]
    fn(**kwargs)  # the baseline runs
    escaped = []
    for junk in JUNK:
        try:
            fn(**{**kwargs, arg: junk})
        except RateLabError as exc:
            if "\n" in str(exc) or len(str(exc)) > MAX_LINE:
                escaped.append(f"{reprlib.repr(junk)}: not one short line, {reprlib.repr(str(exc))}")
        except Exception as exc:  # noqa: BLE001 (what escapes is the finding)
            escaped.append(f"{reprlib.repr(junk)}: {type(exc).__name__}: {exc}")
    assert not escaped, "\n".join(escaped)


@pytest.mark.parametrize("field", ["schemes", "modes", "estimators"])
def test_run_sweep_keeps_the_first_occurrence_of_a_name(field):
    # parse_config's rule: each name given twice reads as given once
    names = getattr(SWEEP, field)
    assert run_sweep(dataclasses.replace(SWEEP, **{field: names + names})) == run_sweep(SWEEP)



def test_only_errors_imports_reprlib():
    # every echo of a refused value goes through errors._echo
    src = Path(__file__).resolve().parents[1] / "src" / "ratelab"
    importers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "reprlib" in names:
                importers.append(path.stem)
    assert importers == ["errors"]
