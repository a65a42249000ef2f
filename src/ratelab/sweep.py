"""SNR-grid sweeps, K-factor calibration and report emission.

The sweep configuration is a flat key = value document with section
headers (grammar documented in the README).  Presets
``fig3`` and ``fig4`` install the two published channel-power setups:

    fig3: Omega_SD = 3, Omega_SR = Omega_RD = 8
    fig4: Omega_SD = 3, Omega_SR = Omega_RD = 12

Both use the published power split of the conventional baseline,
:data:`ratelab.rates.PAPER_SPLIT` (a2 = 0.1), which is also the
config's default.  A config holds no output path: the command line's
``--out`` names where a table goes.

The published experiments never state the Rician K factor, so K
defaults to 0 and :func:`calibrate_k` recovers a best-fit K against
the published rate values; calibration results are labeled as artifact
choices, never as ground truth.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analytic import ergodic_rate_quadrature_quantities, ergodic_rate_series
from .channel import KERNEL_TOL, NetworkGeometry, RicianLink
from .errors import DomainError, _echo, _finite_nonneg, _nonempty, _one_of, _to_float
from .montecarlo import DEFAULT_SEED, DEFAULT_TRIALS, DEFAULT_WORKERS, _check_setting, _estimate, estimate_rates
from .rates import MODES, PAPER_SPLIT, QUANTITIES, RATES, PowerSplit, _check_split, rate_token

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "CalibrationResult",
    "PRESETS",
    "PAPER_TARGETS",
    "parse_config",
    "parse_grid",
    "preset_geometry",
    "run_sweep",
    "calibrate_k",
    "render_csv",
    "render_calibration_csv",
    "render_discrepancy_csv",
    "discrepancy_report",
]

# Each estimator and the rates.RATES tokens it evaluates; the paper's
# series exist for paper-mode CRS-NOMA only.
ESTIMATORS = {"monte_carlo": tuple(RATES), "series_paper_literal": ("crs_noma_paper",),
              "series_corrected": ("crs_noma_paper",), "quadrature_oracle": tuple(RATES)}
# The schemes a sweep selects, each with every mode it has.
_SCHEMES = tuple(dict.fromkeys(s for s, _ in RATES.values()))

# Published channel-power presets and the rate values quoted for them
# (sum rates in bit/s/Hz at 5 and 25 dB; conventional at 5 dB).
PRESETS = {
    "fig3": {"omega_sd": 3.0, "omega_sr": 8.0, "omega_rd": 8.0},
    "fig4": {"omega_sd": 3.0, "omega_sr": 12.0, "omega_rd": 12.0},
}
PAPER_TARGETS = {
    "fig3": (
        (5.0, "crs_noma", 4.29),
        (25.0, "crs_noma", 10.41),
        (5.0, "conventional", 3.883),
    ),
    "fig4": (
        (5.0, "crs_noma", 4.662),
        (25.0, "crs_noma", 10.81),
        (5.0, "conventional", 4.107),
    ),
}


@dataclass(frozen=True)
class SweepConfig:
    """Validated parameterization of one sweep run."""

    rho_grid_db: tuple
    geometry: NetworkGeometry
    schemes: tuple
    modes: tuple
    estimators: tuple
    split: PowerSplit = PAPER_SPLIT
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED
    preset: str | None = None
    workers: int = DEFAULT_WORKERS


@dataclass(frozen=True)
class SweepRow:
    rho_db: float
    scheme: str
    mode: str
    estimator: str
    quantity: str
    value: float
    std_err: float | None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    metadata: tuple  # ordered (key, value) pairs


@dataclass(frozen=True)
class CalibrationResult:
    preset: str
    best_k: float
    sse_by_k: tuple  # (k, sse)
    residuals: tuple  # (k, rho_db, scheme, simulated, target, residual)
    targets: tuple


def db_to_linear(rho_db: float) -> float:
    """10^(rho_db/10), ``rho_db`` read by float(); raises DomainError where
    float() refuses it or the power is not a finite float."""
    rho_db = _to_float(rho_db, "rho_db must be a number")
    try:
        rho = 10.0 ** (rho_db / 10.0)
    except OverflowError:
        rho = math.inf
    if not math.isfinite(rho):
        raise DomainError(f"rho_db = {rho_db:g}: 10^(rho_db/10) is not a finite float")
    return rho


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

MAX_GRID_POINTS = 100_000
# The K grid a calibration fits over, the default of calibrate_k and of --k-grid
DEFAULT_K_GRID = "0:10:0.5"


def parse_grid(spec: str) -> list[float]:
    """Grid values of 'start:stop:step' or of a comma list.

    A start:stop:step grid has floor((stop - start)/step + 1e-9) + 1
    points, start + i*step each rounded to 12 decimals, so a fractional
    step yields the decimals it names (0:1:0.1 gives 0.3, not
    0.30000000000000004).  Raises DomainError on malformed text, on a
    start:stop:step grid with a nonpositive step or more than
    :data:`MAX_GRID_POINTS` points (before any point is built) and on a
    grid that breaks the rule of :func:`_check_grid`.
    """
    if ":" not in spec:
        vals = [_number(p) for p in spec.split(",") if p.strip()]
    else:
        parts = [_number(p) for p in spec.split(":")]
        if len(parts) != 3:
            raise DomainError("need start:stop:step")
        start, stop, step = parts
        if step <= 0:
            raise DomainError("step must be > 0")
        if not (stop - start) / step <= MAX_GRID_POINTS - 1:
            raise DomainError(
                f"grid {start:g}:{stop:g}:{step:g} must be finite with at most {MAX_GRID_POINTS} points"
            )
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        vals = [round(start + i * step, 12) for i in range(n)]
    return _check_grid(vals)


def _check_grid(grid) -> list[float]:
    """The points of ``grid`` as floats, by the one rule of every grid,
    parsed or given to :func:`run_sweep`: a sequence of numbers, each
    finite, at least one, strictly increasing; DomainError otherwise."""
    rule = "grid must be a sequence of numbers"
    vals = _to_float(grid, rule, lambda g: np.asarray(g, dtype=float))
    if vals.ndim != 1:
        raise DomainError(f"{rule}, got {_echo(grid)}")
    vals = vals.tolist()
    for v in vals:
        if not math.isfinite(v):
            raise DomainError(f"grid points must be finite, got {v}")
    if not vals:
        raise DomainError("grid must be nonempty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise DomainError("grid must be strictly increasing")
    return vals


def _names(names, allowed, what: str) -> tuple:
    """``names`` as a tuple, at least one, each one of ``allowed``, the first
    occurrence of each kept in order: the rule of a sweep's schemes, modes
    and estimators, parsed or given to :func:`run_sweep`."""
    names = _nonempty(names, f"{what}s must be a sequence of names", what)
    return tuple(dict.fromkeys(_one_of(n, allowed) for n in names))


# Field parsers: each takes the text of a value and raises DomainError,
# its own or that of the setting's rule, saying what is wrong with it.

def _number(raw: str, convert=float):
    """``convert(raw)``: the number of a value's text, a float or, with
    ``int``, a whole number."""
    try:
        return convert(raw)
    except ValueError:
        raise DomainError(f"cannot interpret {_echo(raw)}") from None


def _name_list(allowed, what: str):
    """Parser of a comma list, read by :func:`_names`."""
    return lambda raw: _names([n.strip() for n in raw.split(",") if n.strip()], allowed, what)


def _setting(name: str):
    """Parser of the run setting ``name``, a whole number read by :func:`_check_setting`."""
    return lambda raw: _check_setting(_number(raw, int), name)


_LINKS = ("sr", "rd", "sd")

# Every config field: section -> key -> (parser, default text); the
# section "" is the top level, whose one key is the preset.  Defaults go
# through the parser like given values.  A default of None leaves the
# field unset: a preset's powers fill unset omega_*, k fills unset k_*.
_FIELDS = {
    "": {"preset": (lambda raw: _one_of(raw.strip().lower(), PRESETS), None)},
    "sweep": {
        "rho_db": (lambda raw: tuple(parse_grid(raw)), "0:30:1"),
        "schemes": (_name_list(_SCHEMES, "scheme"), "crs_noma, conventional"),
        "modes": (_name_list(MODES, "mode"), "paper"),
        "estimators": (_name_list(ESTIMATORS, "estimator"), "monte_carlo"),
        "trials": (_setting("trials"), str(DEFAULT_TRIALS)),
        "seed": (_setting("seed"), str(DEFAULT_SEED)),
    },
    "geometry": {
        "k": (_number, "0"),
        "k_sr": (_number, None), "k_rd": (_number, None), "k_sd": (_number, None),
        "omega_sr": (_number, None), "omega_rd": (_number, None), "omega_sd": (_number, None),
    },
    "split": {"a2": (lambda raw: PowerSplit(_number(raw)), str(PAPER_SPLIT.a2))},
}


def parse_config(text: str) -> SweepConfig:
    """Parse a sweep configuration document into a validated SweepConfig.

    ``preset`` is the one key of the top level; every other key is
    given in its section, and unknown sections or keys are errors.
    Raises :class:`DomainError`: for the first line that cannot be read
    at all, or with one line-referenced message per bad field.
    """
    sections: dict = {"": {}}
    lines: dict = {}  # (section, key) -> "line N"; key None for the section's header
    current = ""
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            lines.setdefault((current, None), f"line {lineno}")
            continue
        if "=" not in line:
            raise DomainError(f"line {lineno}: expected 'key = value', got {_echo(line)}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if not key:
            raise DomainError(f"line {lineno}: empty key")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        sections[current][key] = value
        lines[(current, key)] = f"line {lineno}"

    errors: list[str] = []

    def where(section, key):
        """The field's name, once, after its line when the document gave it."""
        name = f"{section}.{key}" if section else key
        line = lines.get((section, key))
        return f"{line}: {name}" if line else f"field {name}"

    for section, content in sections.items():
        if section not in _FIELDS:
            errors.append(f"{lines[section, None]}: unknown section [{section}]")
            continue
        for key in content:
            if key not in _FIELDS[section]:
                errors.append(f"{where(section, key)}: unknown {'key' if section else 'top-level key'}")

    values = {}
    for section, fields in _FIELDS.items():
        for key, (parse, default) in fields.items():
            power = PRESETS.get(values.get("preset"), {}).get(key)
            raw = sections.get(section, {}).get(key, default if power is None else str(power))
            if raw is None:
                values[key] = None  # unset
                continue
            try:
                values[key] = parse(raw)
            except DomainError as exc:
                errors.append(f"{where(section, key)}: {exc}")
    if errors:
        raise DomainError("; ".join(errors))

    links = {}
    for name in _LINKS:
        k, omega = values[f"k_{name}"], values[f"omega_{name}"]
        if omega is None:
            errors.append(f"{where('geometry', f'omega_{name}')}: required (set it or choose a preset)")
            continue
        try:
            links[name] = RicianLink(values["k"] if k is None else k, omega)
        except DomainError as exc:
            errors.append(f"geometry.{name}: {exc}")
    if errors:
        raise DomainError("; ".join(errors))

    return SweepConfig(
        rho_grid_db=values["rho_db"],
        geometry=NetworkGeometry(**links),
        schemes=values["schemes"],
        modes=values["modes"],
        split=values["a2"],
        estimators=values["estimators"],
        trials=values["trials"],
        seed=values["seed"],
        preset=values["preset"],
    )


def preset_geometry(preset: str, k: float) -> NetworkGeometry:
    """The links of ``preset``, each with Rician factor ``k``."""
    return NetworkGeometry(**{name: RicianLink(k, PRESETS[preset][f"omega_{name}"]) for name in _LINKS})


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------

def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every (grid point, scheme, estimator, quantity) cell.

    Deterministic in the config (the seed covers all stochastic parts).
    ``rho_grid_db`` must keep the rule of a parsed grid,
    :func:`_check_grid`: finite, nonempty and strictly increasing; the
    schemes, modes and estimators that of parsed names, :func:`_names`,
    the preset is None or one of :data:`PRESETS`, and the trials and the
    seed are checked whatever the estimators.  Each
    estimator evaluates the selected :data:`~ratelab.rates.RATES` tokens
    that :data:`ESTIMATORS` lists for it (the series paper-mode CRS-NOMA
    only); a sweep in which none does raises :class:`DomainError`.  Each
    estimator takes the whole grid in one call (the oracle one per
    token), and a grid point's values are the floats a one-point grid
    gives.
    """
    schemes = _names(config.schemes, _SCHEMES, "scheme")
    modes = _names(config.modes, MODES, "mode")
    estimators = _names(config.estimators, ESTIMATORS, "estimator")
    preset = "custom" if config.preset is None else _one_of(config.preset, PRESETS)
    _check_setting(config.trials, "trials")  # the metadata records both, whatever the estimators
    _check_setting(config.seed, "seed")
    _check_split(config.split)
    grid = _check_grid(config.rho_grid_db)
    # a baseline's single mode "-" is selected whatever the modes
    selected = [token for scheme in schemes for token, (s, mode) in RATES.items()
                if s == scheme and mode in (*modes, "-")]
    covered = {e: tokens for e in estimators if (tokens := [t for t in selected if t in ESTIMATORS[e]])}
    if not covered:
        raise DomainError(f"empty sweep: no rows for schemes {schemes}, modes {modes} and "
                          f"estimators {estimators} over {len(grid)} grid point(s)")
    rhos = [db_to_linear(rho_db) for rho_db in grid]
    cells = {}  # (estimator, token) -> one {quantity: (value, std_err)} per grid point
    for estimator, tokens in covered.items():
        if estimator == "monte_carlo":
            # one call: each block is drawn once for every (rho, token) cell
            mc = {(r.rho, r.scheme, r.quantity): (r.mean, r.std_err)
                  for r in estimate_rates(config.geometry, rhos, tokens, "paper", config.split,
                                          config.trials, config.seed, config.workers)}
            for token in tokens:
                cells[estimator, token] = [{q: mc[rho, token, q] for q in QUANTITIES} for rho in rhos]
            continue
        for token in tokens:
            if estimator == "quadrature_oracle":
                rates = ergodic_rate_quadrature_quantities(config.geometry, rhos, token, config.split)
            else:  # a series, whose one token is paper-mode CRS-NOMA
                rates = ergodic_rate_series(config.geometry, rhos, literal=estimator == "series_paper_literal")
            cells[estimator, token] = [{q: (r[q], None) for q in QUANTITIES} for r in rates]
    rows = [SweepRow(rho_db, *RATES[token], estimator, q, value, std_err)
            for i, rho_db in enumerate(grid)
            for estimator, tokens in covered.items()
            for token in tokens
            for q, (value, std_err) in cells[estimator, token][i].items()]
    for r in rows:
        if not math.isfinite(r.value):
            raise DomainError(f"non-finite value in sweep row {r}")

    g = config.geometry
    meta = [
        ("tool", "ratelab"),
        ("version", __version__),
        ("preset", preset),
        ("seed", config.seed),
        ("trials", config.trials),
        ("schemes", ",".join(schemes)),
        ("modes", ",".join(modes)),
        ("estimators", ",".join(estimators)),
        ("k_sr", g.sr.k_factor), ("k_rd", g.rd.k_factor), ("k_sd", g.sd.k_factor),
        ("omega_sr", g.sr.mean_power), ("omega_rd", g.rd.mean_power), ("omega_sd", g.sd.mean_power),
        ("a1", config.split.a1), ("a2", config.split.a2),
        ("tail_tol", KERNEL_TOL),
        ("k_factor_note", "K values are artifact choices; the published experiments do not report K"),
    ]
    gaps = [gap for _, quantity, *_, gap in _discrepancy_rows(rows) if quantity == "c_total"]
    if gaps:
        meta.append(("discrepancy_max_abs_gap_c_total", _fmt(max(gaps))))
    return SweepResult(rows=tuple(rows), metadata=tuple(meta))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------

def calibrate_k(
    preset: str,
    targets=None,
    k_grid=None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    workers: int = DEFAULT_WORKERS,
) -> CalibrationResult:
    """Fit a single Rician K (shared by all links) to published rates.

    For each K on the grid, the paper-mode CRS-NOMA and the
    conventional-NOMA sum rates are simulated at the target grid points
    and compared against the target values; the K minimizing the sum of
    squared residuals wins.  Every K shares one Monte-Carlo pass, and
    a K's values are those a grid holding only that K gives.  The full
    residual table is returned so the fit quality is inspectable either
    way.

    ``targets`` are (rho_dB, scheme, value) triples, each rho_dB read by
    :func:`db_to_linear` and each value, a rate, by float() as finite
    and >= 0; the K grid and the targets may repeat a value.  Every
    input is checked before any block is drawn.
    """
    _one_of(preset, PRESETS)
    if targets is None:
        targets = PAPER_TARGETS[preset]
    rule = "targets must be a sequence of (rho_db, scheme, value) triples"
    targets = tuple(_to_float(t, rule, tuple) for t in _nonempty(targets, rule, "target"))
    for t in targets:
        if len(t) != 3:
            raise DomainError(f"{rule}, got {_echo(t)}")
    if k_grid is None:
        k_grid = parse_grid(DEFAULT_K_GRID)
    k_grid = _nonempty(k_grid, "k_grid must be a sequence of K values", "K value")
    geometries = [preset_geometry(preset, k) for k in k_grid]
    cells = [(db_to_linear(rho_db), rate_token(scheme, "paper"), None) for rho_db, scheme, _ in targets]
    values = [_finite_nonneg(value, "a target value") for _, _, value in targets]  # a rate
    # one pass for every K, of means only: each block's normals are drawn once, and no square is taken
    sims = [m for m, _ in _estimate(geometries, cells, PAPER_SPLIT, trials, seed, workers, ("c_total",), std_err=False)]
    residuals = []
    sse_by_k = []
    for i, k in enumerate(g.sr.k_factor for g in geometries):  # each K as its links' float
        sse = 0.0
        for (rho_db, scheme, _), target, sim in zip(targets, values, sims[i * len(targets):]):
            residuals.append((k, float(rho_db), scheme, sim, target, sim - target))  # as db_to_linear read it
            sse += (sim - target) ** 2
        sse_by_k.append((k, sse))
    best_k = min(sse_by_k, key=lambda kv: kv[1])[0]
    return CalibrationResult(
        preset=preset,
        best_k=best_k,
        sse_by_k=tuple(sse_by_k),
        residuals=tuple(residuals),
        targets=targets,
    )


# ---------------------------------------------------------------------------
# discrepancy report
# ---------------------------------------------------------------------------

# The discrepancy table's quantities: its name for each and the rate
# quantity it reads.
_DISCREPANCY = (("c_r_s1", "c_relay_s1"), ("c_d_s1", "c_direct_s1"), ("c_total", "c_total"))


def _discrepancy_rows(rows) -> tuple:
    """The discrepancy table of a sweep's rows.

    Rows are (rho_db, quantity, paper_literal, corrected, oracle,
    abs_gap) for each grid point, in the sweep's order, and each
    quantity of :data:`_DISCREPANCY`, read from the paper-mode CRS-NOMA
    rows; abs_gap is the absolute literal-corrected difference, and
    oracle is None where the sweep has no such oracle row.  A grid
    point without both series rows gives none.
    """
    value = {(r.rho_db, r.estimator, r.quantity): r.value
             for r in rows if (r.scheme, r.mode) == ("crs_noma", "paper")}
    table = []
    for rho_db in dict.fromkeys(r.rho_db for r in rows):
        for name, q in _DISCREPANCY:
            lit = value.get((rho_db, "series_paper_literal", q))
            cor = value.get((rho_db, "series_corrected", q))
            if lit is not None and cor is not None:
                oracle = value.get((rho_db, "quadrature_oracle", q))
                table.append((float(rho_db), name, lit, cor, oracle, abs(lit - cor)))
    return tuple(table)


def discrepancy_report(geometry: NetworkGeometry, rho_grid_db) -> tuple:
    """Literal vs corrected analytic rates, with the oracle alongside.

    The :func:`_discrepancy_rows` of a paper-mode CRS-NOMA sweep by both
    series and the oracle over ``rho_grid_db``, held to the rule of
    every grid, :func:`_check_grid`.
    """
    config = SweepConfig(rho_grid_db=tuple(_check_grid(rho_grid_db)), geometry=geometry, schemes=("crs_noma",),
                         modes=("paper",), estimators=("series_paper_literal", "series_corrected", "quadrature_oracle"))
    return _discrepancy_rows(run_sweep(config).rows)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _table(meta, header: str, rows) -> str:
    """'#' metadata lines, the header and one line per row, each value
    through :func:`_fmt`; LF line endings."""
    out = [f"# {k} = {v}" for k, v in meta]
    out.append(header)
    out += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(out) + "\n"


def render_csv(result: SweepResult) -> str:
    """Render a sweep as CSV: '#' metadata lines, header, sorted rows.

    Six significant digits, '.' decimal separator, LF line endings;
    byte-identical output for identical inputs.
    """
    rows = sorted(result.rows, key=lambda r: (r.rho_db, r.scheme, r.estimator, r.quantity, r.mode))
    return _table(result.metadata, "rho_db,scheme,mode,estimator,quantity,value,std_err",
                  [(r.rho_db, r.scheme, r.mode, r.estimator, r.quantity, r.value, r.std_err) for r in rows])


def render_calibration_csv(result: CalibrationResult) -> str:
    meta = [("tool", "ratelab"), ("version", __version__), ("preset", result.preset),
            ("best_k", _fmt(result.best_k)),
            ("note", "single K shared by all links; published experiments do not report K")]
    return _table(meta, "k,rho_db,scheme,simulated,target,residual", result.residuals)


def render_discrepancy_csv(rows, geometry: NetworkGeometry) -> str:
    links = (geometry.sr, geometry.rd, geometry.sd)
    meta = [("tool", "ratelab"), ("version", __version__),
            ("k", ",".join(_fmt(link.k_factor) for link in links)),
            ("omega", ",".join(_fmt(link.mean_power) for link in links))]
    return _table(meta, "rho_db,quantity,paper_literal,corrected,oracle,abs_gap", rows)
