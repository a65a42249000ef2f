"""SNR-grid sweeps, K-factor calibration and report emission.

The sweep configuration is a flat key = value document with section
headers (grammar documented in the README).  Presets
``fig3`` and ``fig4`` install the two published channel-power setups:

    fig3: Omega_SD = 3, Omega_SR = Omega_RD = 8,  split (0.9, 0.1)
    fig4: Omega_SD = 3, Omega_SR = Omega_RD = 12, split (0.9, 0.1)

The published experiments never state the Rician K factor, so K
defaults to 0 and :func:`calibrate_k` recovers a best-fit K against
the published rate values; calibration results are labeled as artifact
choices, never as ground truth.
"""

import io
import math
import reprlib
from dataclasses import dataclass, replace

from . import __version__
from .analytic import ergodic_rate_quadrature_quantities, ergodic_rate_series
from .channel import KERNEL_TOL, NetworkGeometry, make_link
from .errors import DomainError, ParseError, ValidationError
from .montecarlo import _check_seed, _check_trials, _estimate, _resolve, estimate_rates
from .rates import QUANTITIES, RATES, PowerSplit

__all__ = [
    "SweepConfig",
    "SweepRow",
    "SweepResult",
    "CalibrationResult",
    "PRESETS",
    "PAPER_TARGETS",
    "parse_config",
    "parse_grid",
    "preset_config",
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
    split: PowerSplit
    estimators: tuple
    trials: int
    seed: int
    output_path: str
    preset: str | None = None
    workers: int = 1


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
    """10^(rho_db/10); raises DomainError where that is not a finite float."""
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


def parse_grid(spec: str) -> list[float]:
    """Grid values of 'start:stop:step' or of a comma list.

    A start:stop:step grid has floor((stop - start)/step + 1e-9) + 1
    points, start + i*step each rounded to 12 decimals, so a fractional
    step yields the decimals it names (0:1:0.1 gives 0.3, not
    0.30000000000000004).  Raises ValueError on malformed text, on a
    start:stop:step grid with a nonpositive step or more than
    :data:`MAX_GRID_POINTS` points (before any point is built) and on a
    grid that holds a non-finite point, is empty or is not strictly
    increasing.
    """
    if ":" not in spec:
        vals = [_number(p) for p in spec.split(",") if p.strip()]
    else:
        parts = [_number(p) for p in spec.split(":")]
        if len(parts) != 3:
            raise ValueError("need start:stop:step")
        start, stop, step = parts
        if step <= 0:
            raise ValueError("step must be > 0")
        if not (stop - start) / step <= MAX_GRID_POINTS - 1:
            raise ValueError(
                f"grid {start:g}:{stop:g}:{step:g} must be finite with at most {MAX_GRID_POINTS} points"
            )
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        vals = [round(start + i * step, 12) for i in range(n)]
    for v in vals:
        if not math.isfinite(v):
            raise ValueError(f"grid points must be finite, got {v}")
    if not vals:
        raise ValueError("grid must be nonempty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValueError("grid must be strictly increasing")
    return vals


# Field parsers: each takes the text of a value and raises ValueError, or
# the DomainError of the setting's rule, saying what is wrong with it.  A
# value they echo is cut short by reprlib, so a value of thousands of
# digits still gives a short line.

def _number(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"cannot interpret {reprlib.repr(raw)}") from None


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"cannot interpret {reprlib.repr(raw)}") from None


def _one_of(allowed, name):
    if name not in allowed:
        raise ValueError(f"unknown value {reprlib.repr(name)} (allowed: {', '.join(allowed)})")
    return name


def _preset(raw: str) -> str:
    return _one_of(tuple(PRESETS), raw.strip().lower())


def _names(allowed: tuple, what: str):
    """Parser of a comma list of names from ``allowed``; the first
    occurrence of each name is kept, in the given order."""

    def parse(raw: str) -> tuple:
        names = [_one_of(allowed, n.strip()) for n in raw.split(",") if n.strip()]
        if not names:
            raise ValueError(f"at least one {what} required")
        return tuple(dict.fromkeys(names))

    return parse


_LINKS = ("sr", "rd", "sd")

# Every config field: section -> key -> (parser, default text).  Defaults
# go through the parser like given values.  A default of None leaves the
# field unset: a preset's powers fill unset omega_*, k fills unset k_*.
_FIELDS = {
    "sweep": {
        "preset": (_preset, None),
        "rho_db": (lambda raw: tuple(parse_grid(raw)), "0:30:1"),
        "schemes": (_names(tuple(dict.fromkeys(s for s, _ in RATES.values())), "scheme"),
                    "crs_noma, conventional"),
        "modes": (_names(tuple(m for _, m in RATES.values() if m != "-"), "mode"), "paper"),
        "estimators": (_names(tuple(ESTIMATORS), "estimator"), "monte_carlo"),
        "trials": (lambda raw: _check_trials(_integer(raw)), "1000000"),
        "seed": (lambda raw: _check_seed(_integer(raw)), "42"),
    },
    "geometry": {
        "k": (_number, "0"),
        "k_sr": (_number, None), "k_rd": (_number, None), "k_sd": (_number, None),
        "omega_sr": (_number, None), "omega_rd": (_number, None), "omega_sd": (_number, None),
    },
    "split": {"a1": (_number, "0.9"), "a2": (_number, "0.1")},
    "output": {"path": (str, "sweep.csv")},
}
# The section of each key a document may also give at its top level.
_TOP_LEVEL = {"preset": "sweep", "seed": "sweep", "trials": "sweep", "rho_db": "sweep", "path": "output"}


def parse_config(text: str) -> SweepConfig:
    """Parse a sweep configuration document.

    Raises :class:`ParseError` for documents that cannot be read at all
    and :class:`ValidationError` carrying one line-referenced message
    per bad field otherwise.
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
            raise ParseError(f"line {lineno}: expected 'key = value', got {reprlib.repr(line)}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        sections[current][key] = value
        lines[(current, key)] = f"line {lineno}"
    return _config_from_mapping(sections, lines)


def _config_from_mapping(sections: dict, lines: dict) -> SweepConfig:
    """Build a validated SweepConfig from the text of each value, by
    section ("" for the top level, whose keys are folded into their
    section) and key, with the "line N" of each (section, key) and of
    each section's header (key None).  Unknown sections or keys are
    errors.
    """
    errors: list[str] = []

    def where(name, origin=None):
        """The field's name, once, after its line when the document gave one."""
        line = lines.get(origin)
        return f"{line}: {name}" if line else f"field {name}"

    given = {}  # key -> (raw text, its (section, key) in the document)
    for section, content in sections.items():
        if section and section not in _FIELDS:
            errors.append(f"{lines[section, None]}: unknown section [{section}]")
            continue
        for key, raw in content.items():
            home = section or _TOP_LEVEL.get(key)
            if home is None:
                errors.append(f"{where(key, (section, key))}: unknown top-level key")
            elif key not in _FIELDS[home]:
                errors.append(f"{where(f'{home}.{key}', (section, key))}: unknown key")
            else:
                given[key] = raw, (section, key)

    values = {}
    for section, fields in _FIELDS.items():
        for key, (parse, default) in fields.items():
            if key in given:
                raw, origin = given[key]
            else:
                power = PRESETS.get(values.get("preset"), {}).get(key)
                raw, origin = default if power is None else str(power), None
                if raw is None:
                    values[key] = None  # unset
                    continue
            try:
                values[key] = parse(raw)
            except (ValueError, DomainError) as exc:
                errors.append(f"{where(f'{section}.{key}', origin)}: {exc}")
    if errors:
        raise ValidationError("; ".join(errors))

    def build(label, make, *args):
        try:
            return make(*args)
        except DomainError as exc:
            errors.append(f"{label}: {exc}")

    links = {}
    for name in _LINKS:
        k, omega = values[f"k_{name}"], values[f"omega_{name}"]
        if omega is None:
            errors.append(f"{where(f'geometry.omega_{name}')}: required (set it or choose a preset)")
        else:
            links[name] = build(f"geometry.{name}", make_link, values["k"] if k is None else k, omega)
    split = build("split", PowerSplit, values["a1"], values["a2"])
    if errors:
        raise ValidationError("; ".join(errors))

    return SweepConfig(
        rho_grid_db=values["rho_db"],
        geometry=NetworkGeometry(**links),
        schemes=values["schemes"],
        modes=values["modes"],
        split=split,
        estimators=values["estimators"],
        trials=values["trials"],
        seed=values["seed"],
        output_path=values["path"],
        preset=values["preset"],
    )


def preset_config(preset: str, **overrides) -> SweepConfig:
    """Convenience constructor: a preset with optional field overrides."""
    cfg = _config_from_mapping({"": {"preset": preset}}, {})
    return replace(cfg, **overrides) if overrides else cfg


def preset_geometry(preset: str, k: float) -> NetworkGeometry:
    """The links of ``preset``, each with Rician factor ``k``."""
    return NetworkGeometry(**{name: make_link(k, PRESETS[preset][f"omega_{name}"]) for name in _LINKS})


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------

def run_sweep(config: SweepConfig) -> SweepResult:
    """Evaluate every (grid point, scheme, estimator, quantity) cell.

    Deterministic in the config (the seed covers all stochastic parts).
    Each estimator evaluates the selected :data:`~ratelab.rates.RATES`
    tokens that :data:`ESTIMATORS` lists for it (the series paper-mode
    CRS-NOMA only); a sweep in which none does, or with no grid point,
    raises :class:`DomainError`.  Each estimator takes the whole grid in one call (the oracle one per
    token), and a grid point's values are the floats a one-point grid
    gives.
    """
    if not set(config.estimators) <= set(ESTIMATORS):
        raise DomainError(f"estimators must be among {tuple(ESTIMATORS)}, got {config.estimators}")
    # a baseline's single mode "-" is selected whatever the modes
    selected = [token for scheme in config.schemes for token, (s, mode) in RATES.items()
                if s == scheme and mode in (*config.modes, "-")]
    covered = {e: tokens for e in config.estimators if (tokens := [t for t in selected if t in ESTIMATORS[e]])}
    if not (covered and config.rho_grid_db):
        raise DomainError(f"empty sweep: no rows for schemes {config.schemes}, modes {config.modes} and "
                          f"estimators {config.estimators} over {len(config.rho_grid_db)} grid point(s)")
    rhos = [db_to_linear(rho_db) for rho_db in config.rho_grid_db]
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
            for i, rho_db in enumerate(config.rho_grid_db)
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
        ("preset", config.preset or "custom"),
        ("seed", config.seed),
        ("trials", config.trials),
        ("schemes", ",".join(config.schemes)),
        ("modes", ",".join(config.modes)),
        ("estimators", ",".join(config.estimators)),
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
    trials: int = 10**6,
    seed: int = 42,
    workers: int = 1,
) -> CalibrationResult:
    """Fit a single Rician K (shared by all links) to published rates.

    For each K on the grid, the paper-mode CRS-NOMA and the
    conventional-NOMA sum rates are simulated at the target grid points
    and compared against the target values; the K minimizing the sum of
    squared residuals wins.  Every K shares one Monte-Carlo pass, and
    a K's values are those a grid holding only that K gives.  The full
    residual table is returned so the fit quality is inspectable either
    way.
    """
    if preset not in PRESETS:
        raise ValidationError(f"unknown preset {preset!r}")
    targets = PAPER_TARGETS[preset] if targets is None else tuple(targets)
    if not targets:
        raise ValidationError("targets must be nonempty")
    if k_grid is None:
        k_grid = [i * 0.5 for i in range(21)]
    geometries = [preset_geometry(preset, k) for k in k_grid]
    if not geometries:
        raise ValidationError("k_grid must be nonempty")
    split = PowerSplit(0.9, 0.1)

    rhos = [db_to_linear(rho_db) for rho_db, _, _ in targets]
    tokens = _resolve([scheme for _, scheme, _ in targets], "paper", split, rhos, trials, seed, workers)
    cells = [(g, rho, token, None) for g in geometries for rho, token in zip(rhos, tokens)]
    # one pass for every K: each block's normals are drawn once
    sims = [mean for mean, _ in _estimate(cells, split, trials, seed, workers, ("c_total",))]
    residuals = []
    sse_by_k = []
    for i, k in enumerate(g.sr.k_factor for g in geometries):  # each K as its links' float
        sse = 0.0
        for (rho_db, scheme, target), sim in zip(targets, sims[i * len(targets):]):
            residuals.append((k, rho_db, scheme, sim, float(target), sim - float(target)))
            sse += (sim - float(target)) ** 2
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
    series and the oracle over ``rho_grid_db``, taken in the order given.
    """
    # paper-mode CRS-NOMA reads no power split, and neither the series
    # nor the oracle reads the trials, the seed or the output path
    config = SweepConfig(rho_grid_db=tuple(rho_grid_db), geometry=geometry, schemes=("crs_noma",),
                         modes=("paper",), split=PowerSplit(0.9, 0.1),
                         estimators=("series_paper_literal", "series_corrected", "quadrature_oracle"),
                         trials=1, seed=0, output_path="-")
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
