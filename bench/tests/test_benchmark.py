"""Tests of the benchmark itself.

Run from the root of the checkout:

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import ratelab.montecarlo  # noqa: E402
import ratelab.sweep  # noqa: E402
import worker  # noqa: E402
from tracer import HOOKS, Hook, Span, Tracer, layer_metrics, self_time, wrappable  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "ratio")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_of_each_workload(name):
    tiny = WORKLOADS[name].tiny
    plain = worker.run_once(name, seed=7, size=tiny, traced=False, check=True)
    traced = worker.run_once(name, seed=7, size=tiny, traced=True, check=False)
    assert plain["problems"] == []
    assert plain["series_max_abs_err"] > 0.0
    assert plain["run_s"] > 0.0 and plain["peak_rss_mb"] > 0.0
    # tracing must not change a byte of the output
    assert traced["sha256"] == plain["sha256"]
    assert traced["absent"] == []
    layers = dict(traced["layers"], **{"trace.overhead_s": 0.0})
    assert sorted(layers) == sorted(m["name"] for m in SPEC["per_layer"])
    assert all(v is not None for v in layers.values())
    if name == "mc_sweep":
        again = worker.run_once(name, seed=7, size=tiny, traced=True, check=False)["layers"]
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
        assert {k: again[k] for k in counts} == {k: layers[k] for k in counts}
        # one block, drawn again for each of 2 rho points x (2 modes + baselines)
        assert layers["channel.split_stream.calls"] == 2 * 3
        assert layers["channel.stream_unique_ratio"] == pytest.approx(1 / 6)
    if name == "oracle_sweep":
        assert layers["channel.power_gain_sf.calls"] > 1000
        assert layers["montecarlo.estimate_rates.calls"] == 0


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        Span(0, "a", None, 0.0, 10.0),
        Span(1, "b", 0, 1.0, 3.0),
        Span(2, "b", 0, 2.0, 5.0),   # overlaps span 1, as on another thread
        Span(3, "c", 2, 2.5, 4.5),   # grandchild: already inside span 2
        Span(4, "b", 0, 8.0, 9.0),
        Span(5, "b", 0, 9.5, 11.0),  # runs past its parent: clipped at 10
        Span(6, "b", 0, 3.0, 4.0),   # inside span 2's interval
    ]
    assert self_time(spans, "a") == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert self_time(spans, "b") == pytest.approx(2.0 + (3.0 - 2.0) + 1.0 + 1.5 + 1.0)
    assert self_time(spans, "c") == pytest.approx(2.0)
    assert self_time(spans, "missing") == 0.0


def test_self_time_sums_labelled_spans():
    spans = [Span(0, "q.x", None, 0.0, 2.0), Span(1, "q.y", None, 3.0, 4.0),
             Span(2, "leaf", 1, 3.0, 3.5), Span(3, "qq", None, 0.0, 9.0)]
    assert self_time(spans, "q") == pytest.approx(2.0 + 0.5)


def _bindings():
    return {(h.caller, h.name): getattr(sys.modules[h.caller], h.name) for h in HOOKS}


def test_wrappers_restored_after_tracing_even_on_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer() as t:
            wrapped = getattr(ratelab.sweep.run_sweep, "__wrapped__", None)
            assert wrapped is before[("ratelab.sweep", "run_sweep")]
            raise RuntimeError("workload failed")
    assert _bindings() == before
    assert all(before[k] is v for k, v in _bindings().items())
    assert not hasattr(ratelab.montecarlo.split_stream, "__wrapped__")
    assert t.absent == []


def test_only_public_or_imported_names_are_wrapped():
    assert wrappable(ratelab.montecarlo, "split_stream")  # imported from channel
    assert wrappable(ratelab.sweep, "run_sweep")  # listed in __all__
    assert not wrappable(ratelab.montecarlo, "_draw_block")  # private, defined there
    assert not wrappable(ratelab.montecarlo, "no_such_function")


def test_removed_name_reported_as_absent(monkeypatch):
    monkeypatch.delattr(ratelab.montecarlo, "split_stream")
    gone = Hook("ratelab.analytic", "ergodic_rate_quadrature_removed", "analytic.removed")
    t = Tracer(hooks=HOOKS + (gone,))
    with t:
        pass
    assert sorted(t.absent) == ["analytic.removed", "channel.split_stream"]
    m = layer_metrics(t)
    assert m["channel.split_stream.calls"] is None
    assert m["channel.stream_unique_ratio"] is None
    assert m["channel.sample_power_gains.calls"] == 0


def test_shared_span_name_absent_only_when_every_binding_is(monkeypatch):
    monkeypatch.delattr(ratelab.sweep, "render_calibration_csv")
    with Tracer() as t:
        pass
    assert t.absent == []


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_worker_refuses_a_ratelab_from_outside_the_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(worker, "ROOT", tmp_path)
    assert worker.main(["--workload", "mc_sweep", "--seed", "1"]) == 3
    assert capsys.readouterr().out == ""
