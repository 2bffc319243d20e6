"""Observability: structured tracing, metrics, and EXPLAIN ANALYZE.

The system-wide measurement substrate: :class:`Tracer` produces per-request
and per-batch span trees through every layer (compile → cache probe →
route → masks and kernels → BN elimination), and :class:`MetricsRegistry` is the
single accumulation point for counters, gauges, and log-bucketed latency
histograms.  ``repro.obs.names`` freezes the public metric names and bucket
boundaries.

Entry points: ``Themis.query(..., explain="analyze")`` and
``Themis.serve(trace=True)``.
"""

from . import names
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    format_seconds,
)

__all__ = [
    "names",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "format_seconds",
]
