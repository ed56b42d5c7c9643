"""Observability layer: span tracing, streaming metrics, attribution.

The cluster simulator's aggregates (:class:`ClusterMeasurement`) say
*what* a run cost; this package records *why*: per-query causal spans
(arrival, master-queue wait, dispatch, wake, merge, playback,
completion, plus fault events), counters/gauges/histograms sampled on
simulated-time boundaries, a deterministic run-id derived from the run's
full configuration fingerprint, and per-node per-phase energy
attribution that reconciles against the modeled total to <= 1e-9.

The default :data:`NULL_TRACER` is a no-op; every hook in the hot path
is behind an ``if tracer.enabled:`` branch, so the disabled path keeps
the batched-playback speedup the perf gates enforce.
"""

from repro.obs.export import (
    TraceFormatError,
    export_chrome,
    export_jsonl,
    load_trace,
    validate_trace,
    write_metrics,
    write_trace,
)
from repro.obs.fingerprint import (
    arrivals_digest,
    config_fingerprint,
    describe_policy,
    run_id_for,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import (
    RECONCILE_TOLERANCE,
    energy_attribution,
    render_attribution,
    render_span_stats,
    span_stats,
)
from repro.obs.tracer import (
    NULL_TRACER,
    Span,
    SpanTable,
    SpanTracer,
    TERMINAL_PHASES,
    Tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "RECONCILE_TOLERANCE",
    "Span",
    "SpanTable",
    "SpanTracer",
    "TERMINAL_PHASES",
    "TraceFormatError",
    "Tracer",
    "arrivals_digest",
    "config_fingerprint",
    "describe_policy",
    "energy_attribution",
    "export_chrome",
    "export_jsonl",
    "load_trace",
    "render_attribution",
    "render_span_stats",
    "run_id_for",
    "span_stats",
    "validate_trace",
    "write_metrics",
    "write_trace",
]
