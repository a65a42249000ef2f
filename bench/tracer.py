"""In-memory span tracer that wraps ratelab's public functions from outside.

Each traced function is wrapped where its caller looks it up, e.g.
``ratelab.analytic.power_gain_sf`` rather than ``ratelab.channel``'s own
binding, so exactly the calls that module makes are seen.  A span records
(id, name, parent id, start, end); counters are kept next to the spans.
Nothing is changed inside the package, and :meth:`Tracer.restore` puts
every original binding back.
"""

import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# Metric names are fixed by BENCHMARK.json, so these lists live here rather
# than being read from the package, whose vocabularies may be refactored.
QUAD_SCHEMES = ("crs_noma_paper", "crs_noma_exact", "conventional", "crs_oma")
RATE_FUNCTIONS = ("crs_noma_rate", "conventional_noma_rate", "crs_oma_rate")


class Span(NamedTuple):
    id: int
    name: str
    parent: int | None
    start: float
    end: float


def _arg(args, kwargs, index, name, default=None):
    """Positional-or-keyword argument of a call, without binding the signature."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


@dataclass(frozen=True)
class Hook:
    """One binding to wrap: global ``name`` of module ``caller``.

    Spans are named ``span``, or ``span.<label(args, kwargs)>`` when a
    label is given.  ``amount(args, kwargs)`` returns a (counter, n) pair
    added to ``<span name>.<counter>`` on every call.
    """

    caller: str
    name: str
    span: str
    label: Callable | None = None
    amount: Callable | None = None


def _elements(args, kwargs):
    return "elements", int(np.size(_arg(args, kwargs, 0, "r").lambda_sr))


HOOKS = (
    # channel, as the Monte-Carlo engine and the oracle call it
    Hook("ratelab.montecarlo", "split_stream", "channel.split_stream"),
    Hook("ratelab.montecarlo", "sample_power_gains", "channel.sample_power_gains",
         amount=lambda a, k: ("draws", int(_arg(a, k, 2, "n")))),
    Hook("ratelab.analytic", "power_gain_sf", "channel.power_gain_sf",
         amount=lambda a, k: ("points", int(np.size(_arg(a, k, 1, "x"))))),
    Hook("ratelab.analytic", "power_gain_pdf", "channel.power_gain_pdf"),
    # rates, as the Monte-Carlo engine calls them
    *(Hook("ratelab.montecarlo", fn, f"rates.{fn}", amount=_elements) for fn in RATE_FUNCTIONS),
    # montecarlo and analytic, as sweep calls them
    Hook("ratelab.sweep", "estimate_rates", "montecarlo.estimate_rates",
         amount=lambda a, k: ("trials", int(_arg(a, k, 5, "trials", 10**6)))),
    Hook("ratelab.sweep", "ergodic_rate_quadrature_quantities", "analytic.quadrature",
         label=lambda a, k: _arg(a, k, 2, "scheme")),
    Hook("ratelab.sweep", "ergodic_rate_series", "analytic.series",
         label=lambda a, k: "literal" if _arg(a, k, 3, "literal", False) else "corrected"),
    # sweep entry points, as the benchmark calls them; both renderers are
    # the workload's CSV rendering stage
    Hook("ratelab.sweep", "parse_config", "sweep.parse_config"),
    Hook("ratelab.sweep", "run_sweep", "sweep.run_sweep"),
    Hook("ratelab.sweep", "calibrate_k", "sweep.calibrate_k"),
    Hook("ratelab.sweep", "render_csv", "sweep.render_csv"),
    Hook("ratelab.sweep", "render_calibration_csv", "sweep.render_csv"),
)


def wrappable(module, name: str) -> bool:
    """True when ``module.name`` is a function listed in the module's
    ``__all__`` or imported into it from another module."""
    fn = getattr(module, name, None)
    if not callable(fn):
        return False
    imported = getattr(fn, "__module__", module.__name__) != module.__name__
    return imported or name in getattr(module, "__all__", ())


class Tracer:
    """Collects spans and counters from the wrapped bindings.

    Use as a context manager, or call :meth:`install` and :meth:`restore`.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.streams: Counter = Counter()  # (seed, stream index) -> split_stream calls
        self.absent: list[str] = []  # span names whose binding does not exist
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, fn, hook: Hook):
        def traced(*args, **kwargs):
            name = hook.span if hook.label is None else f"{hook.span}.{hook.label(args, kwargs)}"
            with self._lock:
                self.counts[name + ".calls"] += 1
                if hook.amount is not None:
                    counter, n = hook.amount(args, kwargs)
                    self.counts[f"{name}.{counter}"] += n
                if hook.name == "split_stream":
                    self.streams[(int(_arg(args, kwargs, 0, "seed")),
                                  int(_arg(args, kwargs, 1, "stream_index")))] += 1
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            # A pool thread runs work for the span open in the installing
            # thread, which waits for it; that span is the cause.
            parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, parent, start, end))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every hook whose binding exists; record the others as absent."""
        self._local.stack = self._root_stack
        missing, wrapped = set(), set()
        for hook in self.hooks:
            module = importlib.import_module(hook.caller)
            if not wrappable(module, hook.name):
                missing.add(hook.span)
                continue
            fn = getattr(module, hook.name)
            self._originals.append((module, hook.name, fn))
            setattr(module, hook.name, self._wrap(fn, hook))
            wrapped.add(hook.span)
        self.absent = sorted(missing - wrapped)

    def restore(self):
        """Put back every original binding, last wrapped first."""
        while self._originals:
            module, name, fn = self._originals.pop()
            setattr(module, name, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is not None and start <= cur_end:
            cur_end = max(cur_end, end)
            continue
        if cur_end is not None:
            total += cur_end - cur_start
        cur_start, cur_end = start, end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _matches(span_name: str, name: str) -> bool:
    return span_name == name or span_name.startswith(name + ".")


def busy_time(spans, name: str) -> float:
    """Summed duration of the spans named ``name`` or ``name.*``."""
    return sum(s.end - s.start for s in spans if _matches(s.name, name))


def self_time(spans, name: str) -> float:
    """Summed duration of the spans named ``name`` or ``name.*``, each minus
    the part of its interval its child spans cover.  Children that ran on
    several threads may overlap; their union is subtracted once."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    total = 0.0
    for s in spans:
        if _matches(s.name, name):
            inside = [(max(a, s.start), min(b, s.end)) for a, b in children[s.id]]
            total += (s.end - s.start) - _covered([(a, b) for a, b in inside if b > a])
    return total


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced run; None marks a metric whose
    binding no longer exists."""
    spans, counts = tracer.spans, tracer.counts
    m = {}

    def calls_and_busy(name, *counters):
        for c in ("calls",) + counters:
            m[f"{name}.{c}"] = counts[f"{name}.{c}"]
        m[f"{name}.busy_s"] = busy_time(spans, name)

    calls_and_busy("channel.sample_power_gains", "draws")
    m["channel.split_stream.calls"] = counts["channel.split_stream.calls"]
    m["channel.stream_unique_ratio"] = (
        len(tracer.streams) / m["channel.split_stream.calls"] if m["channel.split_stream.calls"] else 0.0
    )
    for fn in RATE_FUNCTIONS:
        calls_and_busy(f"rates.{fn}", "elements")
    calls_and_busy("montecarlo.estimate_rates", "trials")
    m["montecarlo.estimate_rates.self_s"] = self_time(spans, "montecarlo.estimate_rates")
    busy = m["montecarlo.estimate_rates.busy_s"]
    m["montecarlo.trials_per_s"] = m["montecarlo.estimate_rates.trials"] / busy if busy else 0.0
    for scheme in QUAD_SCHEMES:
        calls_and_busy(f"analytic.quadrature.{scheme}")
    m["analytic.quadrature.self_s"] = self_time(spans, "analytic.quadrature")
    calls_and_busy("channel.power_gain_sf", "points")
    calls_and_busy("channel.power_gain_pdf")
    for variant in ("corrected", "literal"):
        calls_and_busy(f"analytic.series.{variant}")
    for stage in ("parse_config", "run_sweep", "render_csv", "calibrate_k"):
        m[f"sweep.{stage}.busy_s"] = busy_time(spans, f"sweep.{stage}")
    m["sweep.run_sweep.self_s"] = self_time(spans, "sweep.run_sweep")

    derived = {"channel.stream_unique_ratio": "channel.split_stream",
               "montecarlo.trials_per_s": "montecarlo.estimate_rates"}
    for key in m:
        source = derived.get(key, key)
        if any(_matches(source, gone) for gone in tracer.absent):
            m[key] = None
    return m
