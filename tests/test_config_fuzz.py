"""Seeded config fuzzer: one valid config document, mutated in one or
two fields per case, run through the command line in-process.  Whatever
the values, a run exits 0, 1 or 2; a refused run prints one short error
line, no traceback, and writes no output file; and no case takes long."""

import json
import math
import time

import numpy as np

from ratelab.cli import main

BASE = {
    "preset": "fig3",
    "geometry": {"k": 3},
    "sweep": {
        "rho_db": [5, 15],
        "schemes": ["crs_noma", "conventional", "crs_oma"],
        "modes": ["paper", "exact"],
        "estimators": ["monte_carlo", "series_paper_literal", "series_corrected", "quadrature_oracle"],
        "trials": 2000,
        "seed": 7,
    },
    "split": {"a1": 0.9, "a2": 0.1},
}
FIELDS = [(None, "preset")] + [
    (section, key)
    for section, keys in (("geometry", ("k", "k_sr", "k_rd", "k_sd", "omega_sr", "omega_rd", "omega_sd")),
                          ("sweep", tuple(BASE["sweep"])), ("split", ("a1", "a2")))
    for key in keys
]


# Every value a field may be set to.  3000 is a valid extreme SNR, count,
# seed and power; the integers of 401 and 5001 digits are far above the
# float range, so the trial counts they give are refused.
MENU = ["", math.nan, math.inf, -math.inf, 1e308, 1e-308, 5e-324, 3000, "1" + "0" * 400, "1" + "0" * 5000,
        [[1.0, 2.0], [3.0]], [[[]]], True, False, None]
CASES = 300
SECONDS_PER_CASE = 5.0


def mutate(rng) -> dict:
    doc = json.loads(json.dumps(BASE))
    for _ in range(rng.integers(1, 3)):
        op = rng.integers(10)
        if op == 0:  # a Rician factor past the kernel bound
            section, key, value = "geometry", ["k", "k_sr", "k_rd", "k_sd"][rng.integers(4)], 501
        elif op == 1:
            section, key, value = "sweep", "rho_db", [15, 5]
        elif op == 2:
            section = [None, "geometry", "sweep", "split", "extra"][rng.integers(5)]
            key, value = "bogus", 1
        else:
            section, key = FIELDS[rng.integers(len(FIELDS))]
            value = MENU[rng.integers(len(MENU))]
        (doc if section is None else doc.setdefault(section, {}))[key] = value
    return doc


def as_text(doc: dict) -> str:
    def value(v):
        if isinstance(v, list) and all(not isinstance(x, list) for x in v):
            return ", ".join(map(str, v))
        return v if isinstance(v, str) else json.dumps(v)

    lines = [f"{k} = {value(v)}" for k, v in doc.items() if not isinstance(v, dict)]
    for section, content in doc.items():
        if isinstance(content, dict):
            lines += [f"[{section}]"] + [f"{k} = {value(v)}" for k, v in content.items()]
    return "\n".join(lines) + "\n"


def test_mutated_configs_exit_cleanly(tmp_path, capsys):
    rng = np.random.default_rng(2024)
    config = tmp_path / "config"
    codes = []
    for case in range(CASES):
        text = as_text(mutate(rng))
        config.write_text(text)
        out = tmp_path / f"{case}.csv"
        start = time.perf_counter()
        code = main(["sweep", "--config", str(config), "--out", str(out)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        what = f"case {case}: {text[:300]!r}"
        lines = [line for line in err.splitlines() if not line.startswith("ratelab: warning: ")]
        assert code in (0, 1, 2), what
        assert "Traceback" not in err, what
        assert elapsed < SECONDS_PER_CASE, what
        if code == 0:
            assert lines == [] and out.exists(), what
        else:
            assert len(lines) == 1 and len(lines[0].encode()) < 300, (what, err[:600])
            assert lines[0].startswith(("ratelab: error: ", "ratelab: runtime error: ")), what
            assert not out.exists(), what
        codes.append(code)
    # the mutations both run and get refused
    assert 0 in codes and 1 in codes
