"""Unified observability: trace spans, metrics, and the live stats plane.

The paper's methodology is observability-driven — its speedup,
load-balance, and memory-footprint evidence (Sections 3, Figures 6–9)
are continuous signals, not one-off reports.  This package is the
substrate that emits them while a job runs:

* :mod:`~repro.obs.metrics` — a thread-safe :class:`MetricsRegistry`
  of counters/gauges/histograms with Prometheus text exposition;
* :mod:`~repro.obs.trace` — a :class:`Tracer` recording structured
  span/event dicts into a ring buffer and an optional JSONL file, with
  a strict zero-allocation no-op path while disabled;
* :mod:`~repro.obs.runtime` — the process-wide
  :class:`Observability` plane the instrumented layers (level loop,
  compressed expander, threaded expander, job scheduler) read
  ambiently; disabled by default, enabled by ``repro serve
  --metrics/--trace`` or :func:`configure`;
* :mod:`~repro.obs.bridge` — declares every metric series once
  (:data:`~repro.obs.bridge.METRICS`) and folds finished
  :class:`~repro.core.clique_enumerator.EnumerationResult`\\ s and live
  scheduler state into the registry;
* :mod:`~repro.obs.http` — a stdlib ``GET /metrics`` scrape endpoint.

The layering rule: ``repro.obs`` imports nothing from the engine or
service layers (folding is duck-typed), so every layer above it may
instrument freely without cycles.

Quickstart::

    from repro import obs

    plane = obs.configure(metrics=True, trace=True)
    ...  # run enumerations / schedule jobs
    print(plane.registry.render())          # Prometheus text
    for rec in plane.tracer.records(20):    # newest spans
        print(rec["name"], rec.get("dur_s"))
"""

from repro.obs.bridge import fold_job, fold_result, sample_service
from repro.obs.http import MetricsExporter
from repro.obs.metrics import (
    CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.runtime import (
    Observability,
    configure,
    disable,
    get_observability,
    rss_bytes,
    set_observability,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsExporter",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "Observability",
    "configure",
    "disable",
    "get_observability",
    "set_observability",
    "rss_bytes",
    "fold_result",
    "fold_job",
    "sample_service",
]
