"""One repetition of a workload in a fresh interpreter.

Run by ``run.py`` with ``PYTHONPATH=src`` from the root of a checkout.
Prints one JSON object: the run time, the CSV's sha256 and peak RSS,
plus the per-layer metrics when traced and the correctness verdict when
asked to check.  ``ready_at`` is the ``time.monotonic()`` reading when
set-up ended; on Linux that clock is shared by all processes, so the
parent turns it into the set-up time.  Exit code 3 means the checkout
under test is not the one imported.
"""

import time

_T0 = time.perf_counter()
import ratelab  # noqa: E402  (timed: this is the import cost users pay)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
from ratelab.errors import TruncationWarning  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, build_config  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def run_once(name: str, seed: int, size: dict, traced: bool, check: bool) -> dict:
    """Set up, run and (optionally) check one workload in this process."""
    workload = WORKLOADS[name]
    tracer = Tracer() if traced else None
    with warnings.catch_warnings(record=True) as caught, tracer or contextlib.nullcontext():
        warnings.simplefilter("always")
        cfg = build_config(name, seed, size)
        ready_at = time.monotonic()
        start = time.perf_counter()
        result, csv_text = workload.compute(cfg, size)
        run_s = time.perf_counter() - start
    out = {
        "ready_at": ready_at,
        "run_s": run_s,
        "sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        layers = layer_metrics(tracer)
        layers["import.ratelab_s"] = IMPORT_S
        layers["analytic.truncation_warnings"] = sum(
            issubclass(w.category, TruncationWarning) for w in caught
        )
        out["layers"] = layers
        out["absent"] = tracer.absent
    if check:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            problems, err = workload.check(cfg, size, result)
        out["problems"] = problems
        out["series_max_abs_err"] = err
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--check", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    module_file = Path(ratelab.__file__).resolve()
    if ROOT not in module_file.parents:
        print(f"ratelab imported from {module_file}, outside the checkout {ROOT}", file=sys.stderr)
        return 3
    out = run_once(args.workload, args.seed, WORKLOADS[args.workload].size,
                   bool(args.trace), bool(args.check))
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ratelab_file": str(module_file),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
