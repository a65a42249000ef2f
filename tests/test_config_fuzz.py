"""Seeded config and flag fuzzer: one valid config document, or one valid
command line, mutated in one or two fields, splits or flags per
case, run through the command line in-process.  Whatever the values, a
run exits 0, 1 or 2; a refused run prints one short error line, no
traceback, and writes no output file; and no case takes long."""

import copy
import os
import time

import numpy as np

from ratelab.cli import main

BASE = {
    "preset": "fig3",
    "geometry": {"k": "3"},
    "sweep": {
        "rho_db": "5, 15",
        "schemes": "crs_noma, conventional, crs_oma",
        "modes": "paper, exact",
        "estimators": "monte_carlo, series_paper_literal, series_corrected, quadrature_oracle",
        "trials": "2000",
        "seed": "7",
    },
    "split": {"a2": "0.1"},
}
FIELDS = [(None, "preset")] + [
    (section, key)
    for section, keys in (("geometry", ("k", "k_sr", "k_rd", "k_sd", "omega_sr", "omega_rd", "omega_sd")),
                          ("sweep", tuple(BASE["sweep"])), ("split", ("a2",)))
    for key in keys
]


# Every value a field may be set to.  3000 is a valid extreme SNR, count,
# seed and power; 500 is a valid count, seed and power, and a valid K at
# the kernel bound; the integers of 401 and 5001 digits are far above the
# float range, so the trial counts they give are refused.
MENU = ["", "NaN", "Infinity", "-Infinity", "1e+308", "1e-308", "5e-324", "3000", "500", "1" + "0" * 400,
        "1" + "0" * 5000, "[[1.0, 2.0], [3.0]]", "[[[]]]", "true", "false", "null"]
# Valid values of each field and flag besides its base value, drawn in
# half of the mutations: a grid with a negative point, a single Monte-Carlo
# trial, another spelling of the split, workers at their bound, stdout.
K = ("0", "0.5", "10")
OMEGA = ("1", "20", "0.5")
GRID = ("0:30:10", "-5, 25")
# Valid splits other than the base a2 = 0.1.
SPLITS = ("0.2", "0.25", "0.4")
VALID = {
    "preset": ("fig4",), "k": K, "k_sr": K, "k_rd": K, "k_sd": K,
    "omega_sr": OMEGA, "omega_rd": OMEGA, "omega_sd": OMEGA,
    "rho_db": GRID, "schemes": ("crs_oma", "conventional, crs_noma"), "modes": ("exact", "paper"),
    "estimators": ("quadrature_oracle", "monte_carlo, series_corrected"),
    "trials": ("1", "500"), "seed": ("0", "12345"), "a2": ("1e-1", "0.100"),
    "--seed": ("0", "12345"), "--trials": ("1", "500"), "--workers": ("1", "2", "64"), "--out": ("-", "t.csv"),
    "--k-grid": ("0:10:5", "0.5, 3"), "--rho-grid": GRID, "--k": K,
}
CASES = 300
SECONDS_PER_CASE = 5.0


def value_for(rng, name) -> str:
    return VALID[name][rng.integers(len(VALID[name]))] if rng.integers(2) else MENU[rng.integers(len(MENU))]


def mutate(rng) -> dict:
    doc = copy.deepcopy(BASE)
    for _ in range(rng.integers(1, 3)):
        op = rng.integers(10)
        if op == 0:  # a Rician factor past the kernel bound
            section, key, value = "geometry", ["k", "k_sr", "k_rd", "k_sd"][rng.integers(4)], "501"
        elif op == 1:
            section, key, value = "sweep", "rho_db", "15, 5"
        elif op == 2:
            section = [None, "geometry", "sweep", "split", "extra"][rng.integers(5)]
            key, value = "bogus", "1"
        elif op == 3:
            doc["split"] = {"a2": SPLITS[rng.integers(len(SPLITS))]}
            continue
        else:
            section, key = FIELDS[rng.integers(len(FIELDS))]
            value = value_for(rng, key)
        (doc if section is None else doc.setdefault(section, {}))[key] = value
    return doc


def as_text(doc: dict) -> str:
    lines = [f"{k} = {v}" for k, v in doc.items() if isinstance(v, str)]
    for section, content in doc.items():
        if isinstance(content, dict):
            lines += [f"[{section}]"] + [f"{k} = {v}" for k, v in content.items()]
    return "\n".join(lines) + "\n"


def check_run(argv, out, what, capsys):
    """Run argv in the current directory, which starts empty, and check
    its exit; ``out`` is the file a successful run writes, None for stdout."""
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if not line.startswith("ratelab: warning: ")]
    assert code in (0, 1, 2), what
    assert "Traceback" not in err, what
    assert elapsed < SECONDS_PER_CASE, what
    if code == 0:
        assert lines == [] and os.listdir() == ([] if out is None else [out]), what
    else:
        assert len(lines) == 1 and len(lines[0].encode()) < 300, (what, err[:600])
        assert lines[0].startswith(("ratelab: error: ", "ratelab: runtime error: ")), what
        assert os.listdir() == [], what
    return code


def test_mutated_configs_exit_cleanly(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(2024)
    config = tmp_path / "config"
    codes = []
    for case in range(CASES):
        text = as_text(mutate(rng))
        config.write_text(text)
        run = tmp_path / str(case)
        run.mkdir()
        monkeypatch.chdir(run)
        codes.append(check_run(["sweep", "--config", str(config), "--out", "out.csv"], "out.csv",
                               f"case {case}: {text[:300]!r}", capsys))
    # the mutations both run and get refused
    assert 0 in codes and 1 in codes


# Each command, its valid arguments and the value flags the flag route
# mutates; a flag given twice takes its last value.
COMMANDS = (
    (["sweep", "--config", "{config}", "--out=out.csv"], ("--seed", "--trials", "--workers", "--out")),
    (["calibrate", "--preset", "fig3", "--k-grid=0,5", "--trials=2000", "--out=out.csv"],
     ("--k-grid", "--seed", "--trials", "--workers", "--out")),
    (["discrepancy", "--preset", "fig3", "--k=3", "--rho-grid=5,15", "--out=out.csv"], ("--k", "--rho-grid", "--out")),
)


def test_mutated_flags_exit_cleanly(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(2025)
    config = tmp_path / "config"
    config.write_text(as_text(BASE))
    codes = []
    for case in range(CASES):
        base, flags = COMMANDS[rng.integers(len(COMMANDS))]
        argv = [arg.format(config=config) for arg in base]
        for _ in range(rng.integers(1, 3)):
            flag = flags[rng.integers(len(flags))]
            argv.append(f"{flag}={value_for(rng, flag)}")  # joined, so a value may start with '-'
        out = [arg for arg in argv if arg.startswith("--out=")][-1][len("--out="):]
        run = tmp_path / str(case)
        run.mkdir()
        monkeypatch.chdir(run)
        codes.append(check_run(argv, None if out == "-" else out, f"case {case}: {argv!r:.300}", capsys))
    assert 0 in codes and 1 in codes
