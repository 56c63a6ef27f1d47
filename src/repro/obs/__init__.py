"""Observability layer: metrics, tracing, spans, analytics, ledger.

The simulator answers *how fast*; this package answers *why*.  The raw
layer (see ``docs/architecture.md`` § Observability):

* :mod:`repro.obs.metrics` — counters / gauges / histograms in a
  :class:`MetricsRegistry`, with picklable snapshots that merge
  deterministically across worker processes.
* :mod:`repro.obs.events` — typed, frozen event records (dispatch, ELM
  generation, BS skip, VC/RVC merges with rotation state, LWD stalls,
  B$ hits/misses, retire; and the serve request lifecycle) delivered
  through a pluggable :class:`TraceSink`.  :class:`EventWriter` is the
  one JSONL writer and :func:`read_events` the one strict reader.
* :class:`Instrumentation` — the bundle a simulation carries.  Pass
  one to :func:`repro.core.pipeline.simulate` (or set ``metrics`` /
  ``trace_sink`` on a :class:`repro.experiments.executor.SimExecutor`)
  to turn observation on; when absent, every hook in the hot path
  reduces to a single ``is None`` check.

And the analysis-and-ledger layer on top of it:

* :mod:`repro.obs.spans` — nestable host wall-clock spans attributing
  pipeline time to build / simulate / merge / report phases.
* :mod:`repro.obs.analyze` — offline trace analytics (timelines,
  distributions, bottleneck attribution); ``repro trace-report``.
* :mod:`repro.obs.chrometrace` — Chrome trace-event export (Perfetto).
* :mod:`repro.obs.bench` — the ``BENCH_<seq>.json`` performance ledger
  behind ``repro bench``.
* :mod:`repro.obs.telemetry` — serve-path request-lifecycle telemetry:
  the request log (trace IDs from HTTP ingress through the
  process-pool boundary), exact latency percentiles, the bounded
  on-disk metrics ring, and Prometheus text exposition.
* :mod:`repro.obs.servereport` — offline request-log analytics
  (per-phase percentiles, coalescing effectiveness, backpressure
  episodes, bottleneck verdict); ``repro serve-report``.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_metrics,
    hist_stats,
    log2_bucket,
)
from repro.obs.spans import SpanRecord, SpanRecorder, maybe_span, phase_table
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    NULL_SINK,
    EventWriter,
    ListSink,
    NullSink,
    SimEvent,
    TraceFormatError,
    TraceSink,
    read_events,
)
from repro.obs.telemetry import (
    LATENCY_PHASES,
    LATENCY_QUANTILES,
    LatencyRecorder,
    ServeTelemetry,
    exact_percentile,
    new_trace_id,
    render_prometheus,
    wants_prometheus,
)

__all__ = [
    "Counter",
    "EVENT_SCHEMA_VERSION",
    "EventWriter",
    "Gauge",
    "Histogram",
    "Instrumentation",
    "LATENCY_PHASES",
    "LATENCY_QUANTILES",
    "LatencyRecorder",
    "ListSink",
    "MetricsRegistry",
    "NULL_SINK",
    "NullSink",
    "ServeTelemetry",
    "SimEvent",
    "SpanRecord",
    "SpanRecorder",
    "TraceFormatError",
    "TraceSink",
    "exact_percentile",
    "format_metrics",
    "hist_stats",
    "log2_bucket",
    "maybe_span",
    "new_trace_id",
    "phase_table",
    "read_events",
    "render_prometheus",
    "wants_prometheus",
]


class Instrumentation:
    """Everything one simulation records into.

    Attributes:
        metrics: the registry counters/histograms go to.
        sink: structured-event consumer.
        tracing: precomputed "is the sink real" flag — the pipeline
            guards event assembly behind it so a metrics-only run never
            pays record construction.
        kernel: label stamped on every emitted event (set by the
            pipeline to the trace name).
        mechanism: skip-mechanism label stamped on every emitted event
            (set by the caller that knows the mechanism axis, e.g.
            :meth:`repro.experiments.executor.PointJob.run_instrumented`).
    """

    __slots__ = ("metrics", "sink", "tracing", "kernel", "mechanism")

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        sink: Optional[TraceSink] = None,
        kernel: str = "",
        mechanism: str = "save",
    ) -> None:
        self.metrics = MetricsRegistry() if metrics is None else metrics
        self.sink = NULL_SINK if sink is None else sink
        self.tracing = self.sink.enabled
        self.kernel = kernel
        self.mechanism = mechanism

    def emit(self, record_type: type[SimEvent], cycle: int, **fields: Any) -> None:
        """Build one stamped ``record_type`` record and forward it to the sink."""
        self.sink.emit(
            record_type(
                cycle=cycle, kernel=self.kernel, mechanism=self.mechanism, **fields
            )
        )

    def snapshot(self) -> dict[str, Any]:
        """The metrics snapshot (picklable plain dict)."""
        return self.metrics.snapshot()
