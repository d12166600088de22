"""repro.telemetry: metrics, traces, and exporters for all three planes.

The observability layer the paper's measurements imply: a process-local
:class:`MetricsRegistry` (counters, gauges, fixed-bucket histograms
with p50/p95/p99 summaries), one bounded span-trace layer
(:class:`Tracer`: causal span trees across the planes, with seeded
per-packet sampling on the data path), and the exporters
(:func:`json_snapshot` for ``--stats-out`` files, :func:`prometheus_text`
for scrape endpoints, :func:`dump_trace` for ``--trace-out``).

Telemetry is **off by default and zero-cost when off**: every
instrumented component (allocator, controller, table updater, switch,
pipeline, event loop) takes a ``telemetry=None`` parameter that
resolves to the process default -- an inert :class:`NullRegistry` --
at construction time.  Enable it for a whole process with::

    from repro import telemetry

    registry = telemetry.MetricsRegistry()
    telemetry.set_registry(registry)     # components built after this record
    ...run an experiment...
    print(telemetry.prometheus_text(registry))

or per component by passing ``telemetry=registry`` explicitly.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.registry import (
    LATENCY_BUCKETS_S,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    format_series,
)
from repro.telemetry.tracing import (
    AnyTracer,
    FlightDump,
    FlightRecorder,
    IdSource,
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanContext,
    Tracer,
    chrome_trace_events,
    context_of,
    dump_trace,
    find_spans,
    span_tree,
    spans_to_jsonl,
    validate_chrome_trace,
)
from repro.telemetry.export import dump_json, json_snapshot, prometheus_text

#: The process-default registry handed to components built with
#: ``telemetry=None``.  Inert unless :func:`set_registry` installs a
#: recording one.
_default_registry: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The current process-default registry (NullRegistry unless set)."""
    return _default_registry


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install *registry* as the process default; returns the previous.

    Passing None restores the inert default.  Only components
    constructed *after* the call pick the new registry up -- existing
    objects keep the one they resolved at construction time.
    """
    global _default_registry
    previous = _default_registry
    _default_registry = registry if registry is not None else NULL_REGISTRY
    return previous


def resolve(telemetry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Constructor helper: explicit registry, else the process default."""
    return telemetry if telemetry is not None else _default_registry


#: The process-default tracer handed to components built with
#: ``tracer=None``.  Inert unless :func:`set_tracer` installs a
#: recording one (the experiments CLI does this for ``--trace-out``).
_default_tracer: AnyTracer = NULL_TRACER


def get_tracer() -> AnyTracer:
    """The current process-default tracer (NullTracer unless set)."""
    return _default_tracer


def set_tracer(tracer: Optional[AnyTracer]) -> AnyTracer:
    """Install *tracer* as the process default; returns the previous.

    Passing None restores the inert default.  As with
    :func:`set_registry`, only components constructed *after* the call
    pick the new tracer up.
    """
    global _default_tracer
    previous = _default_tracer
    _default_tracer = tracer if tracer is not None else NULL_TRACER
    return previous


def resolve_tracer(tracer: Optional[AnyTracer]) -> AnyTracer:
    """Constructor helper: explicit tracer, else the process default."""
    return tracer if tracer is not None else _default_tracer


__all__ = [
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS",
    "AnyTracer",
    "Counter",
    "FlightDump",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "IdSource",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "SpanContext",
    "Tracer",
    "chrome_trace_events",
    "context_of",
    "dump_json",
    "dump_trace",
    "find_spans",
    "format_series",
    "get_registry",
    "get_tracer",
    "json_snapshot",
    "prometheus_text",
    "resolve",
    "resolve_tracer",
    "set_registry",
    "set_tracer",
    "span_tree",
    "spans_to_jsonl",
    "validate_chrome_trace",
]
