"""ratelab benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload mc_sweep --seed 1 --seconds 35 --trace 0

Run from anywhere; the checkout measured is the one holding this file.
Each repetition is a fresh interpreter (``bench/worker.py``) importing
``ratelab`` from the checkout's ``src``.  Repetitions run one after the
other (a closed loop) until ``--seconds`` are used, and the first one
also checks the output.  ``--trace 0`` reports the end-to-end metrics
named in BENCHMARK.json as medians over repetitions; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REP_TIMEOUT_S = 150.0  # one repetition; the whole run must end within 180 s
MIN_REPS = 3


class CheckoutError(RuntimeError):
    """The worker imported a ratelab from outside the checkout under test."""


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_rep(workload: str, seed: int, traced: bool, check: bool) -> dict:
    """One repetition in a fresh interpreter; raises CheckoutError if the
    worker imported a ratelab from outside the checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--check", str(int(check))]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {REP_TIMEOUT_S} s"}
    if proc.returncode == 3:
        raise CheckoutError(proc.stderr.strip())
    if proc.returncode != 0:
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep.pop("ready_at") - spawned_at
    rep["traced"] = traced
    if rep.get("problems"):
        rep["error"] = "; ".join(rep["problems"][:20])
    return rep


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Closed loop of repetitions for ``seconds``; traced runs alternate
    with untraced ones so the tracing overhead can be taken."""
    reps, start = [], time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, traced, check=not reps))
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def summarize(workload: str, seed: int, reps: list, trace: bool) -> tuple[dict, dict]:
    """(result, info): the contract's result object and the record printed before it."""
    ok = [r for r in reps if "error" not in r]
    problems = [r["error"] for r in reps if "error" in r]
    hashes = sorted({r["sha256"] for r in ok})
    if len(hashes) > 1:
        problems.append(f"CSV differs between repetitions with one seed: {hashes}")
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    checked = next((r for r in ok if "series_max_abs_err" in r), None)
    if checked is None:
        problems.append("no repetition completed its correctness check")

    metrics = {}
    reported = {}  # name -> (unit, samples)
    if not trace and untraced and checked:
        values = {
            "run_s": [r["run_s"] for r in untraced],
            "setup_s": [r["setup_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            # resolved down to the oracle's own tolerance, so a value never reads 0
            "series_max_abs_err": [max(checked["series_max_abs_err"], 1e-8)],
        }
        for m in SPEC["end_to_end"]:
            metrics[m["name"]] = statistics.median(values[m["name"]])
            reported[m["name"]] = (m["unit"], values[m["name"]])
    if trace and traced and untraced:
        first = traced[0]["layers"]
        for r in traced[1:]:
            moved = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")
                     and r["layers"][m["name"]] != first[m["name"]]]
            if moved:
                problems.append(f"counts differ between traced repetitions: {moved}")
        overhead = (statistics.median(r["run_s"] for r in traced)
                    - statistics.median(r["run_s"] for r in untraced))
        for m in SPEC["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                samples = [overhead]
            elif m["unit"] in ("count", "ratio") or first[name] is None:
                samples = [first[name]]
            else:
                samples = [r["layers"][name] for r in traced]
            metrics[name] = None if samples[0] is None else statistics.median(samples)
            reported[name] = (m["unit"], samples)

    env = next((r["env"] for r in ok), {})
    info = {
        "workload": workload,
        "seed": seed,
        "env": {"nproc": len(os.sched_getaffinity(0)), "commit": git_commit(), **env},
        "csv_sha256": hashes[0] if len(hashes) == 1 else hashes,
        "repetitions": len(reps),
        "samples": {name: samples for name, (_, samples) in reported.items() if len(samples) > 1},
        "failed_frac": (len(reps) - len(ok)) / len(reps),
        "absent": sorted({a for r in traced for a in r.get("absent", ())}),
        "problems": problems,
    }
    result = {
        "correct": not problems,
        "attempted": len(reps),
        "failed": len(reps) - len(ok),
        "metrics": {
            name: {"value": value, "unit": reported[name][0], **({"absent": True} if value is None else {})}
            for name, value in metrics.items()
        },
    }
    for name, value in metrics.items():
        unit, samples = reported[name]
        if value is None:
            print(f"{workload} {name}: absent (its binding no longer exists)")
            continue
        q1, _, q3 = quartiles(samples)
        print(f"{workload} {name} = {value:.6g} {unit} (median of {len(samples)}, IQR {q3 - q1:.3g})")
    return result, info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "ratelab" / "__init__.py").is_file():
        print(f"no ratelab sources under {ROOT / 'src'}; nothing to measure", file=sys.stderr)
        return 2
    try:
        reps = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckoutError as exc:
        print(exc, file=sys.stderr)
        return 2
    result, info = summarize(args.workload, args.seed, reps, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
