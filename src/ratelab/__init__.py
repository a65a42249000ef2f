"""ratelab: achievable-rate analysis of cooperative NOMA relaying over
Rician fading, with Monte-Carlo and quadrature cross-validation."""

__version__ = "0.1.0"

from .channel import (
    NetworkGeometry,
    RicianLink,
    make_link,
    power_gain_cdf,
    power_gain_pdf,
    power_gain_sf,
    sample_power_gains,
    split_stream,
)
from .rates import (
    RATES,
    PowerSplit,
    RateBreakdown,
    conventional_noma_rate,
    crs_noma_rate,
    crs_oma_rate,
)
from .analytic import (
    cdf_gamma2_paper,
    cdf_min_pair_approx,
    cdf_min_pair_series,
    cdf_single_link_series,
    ergodic_rate_quadrature_quantities,
    ergodic_rate_series,
)
from .montecarlo import EstimatorResult, estimate_rates, paired_gap
from .sweep import (
    CalibrationResult,
    SweepConfig,
    SweepResult,
    SweepRow,
    calibrate_k,
    discrepancy_report,
    parse_config,
    render_csv,
    run_sweep,
)
from . import errors

__all__ = [
    "__version__",
    "NetworkGeometry", "RicianLink",
    "make_link", "power_gain_cdf", "power_gain_pdf", "power_gain_sf",
    "sample_power_gains", "split_stream",
    "RATES", "PowerSplit", "RateBreakdown",
    "conventional_noma_rate", "crs_noma_rate", "crs_oma_rate",
    "cdf_gamma2_paper", "cdf_min_pair_approx", "cdf_min_pair_series",
    "cdf_single_link_series", "ergodic_rate_quadrature_quantities",
    "ergodic_rate_series",
    "EstimatorResult", "estimate_rates", "paired_gap",
    "CalibrationResult", "SweepConfig", "SweepResult", "SweepRow",
    "calibrate_k", "discrepancy_report", "parse_config", "render_csv", "run_sweep",
    "errors",
]
