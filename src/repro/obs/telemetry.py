"""Request-lifecycle telemetry for the serving layer.

The simulator side of the observability stack (the per-cycle records
of :mod:`repro.obs.events`) answers "where do the *cycles* go"; this
module answers the same question for the *service*: where does a
request's wall time go between ``POST /v1/submit`` and the stored
payload?  Three pieces:

* **The request log** — the typed :mod:`repro.obs.events` serve
  records, written by the same :class:`~repro.obs.events.EventWriter`
  as the cycle trace.  Every request gets a trace ID at HTTP ingress;
  the service stamps it on :class:`Ingress` / :class:`Phase` /
  :class:`Sim` / :class:`Complete` records as the request moves through
  dedup, the bounded queue, micro-batch formation, the executor
  (worker-side spans carry the originating trace IDs across the
  process-pool boundary) and the result-store write.  HTTP access lines
  (:class:`Access`) ride the same stream.
* **The latency recorder** — exact p50/p95/p99 percentiles per phase
  and end-to-end, computed over a bounded window of the most recent
  samples and exported as ``serve.latency.<phase>.<q>_ms`` gauges on
  ``/metrics`` (JSON and Prometheus text exposition alike).
* **The metrics ring** — a bounded on-disk ring of periodic
  :class:`Snapshot` records (queue depth, oldest-request age, ``serve.*``
  counters) written by the service's sampler thread.  Retention is
  two-segment: the live segment plus one rotated ``.old`` segment, so
  disk usage is bounded at ~2x the configured capacity regardless of
  uptime.

Wall-clock reads are legitimate here (this *is* the wall-clock layer),
so the file sits on the ``no-wallclock`` rule's exclude list next to
``spans.py`` and ``bench.py``.
"""

from __future__ import annotations

import math
import re
import threading
import time
import uuid
from collections import deque
from typing import Any, Optional
from collections.abc import Sequence

from repro.obs.events import NULL_SINK, Phase, ServeEvent, TraceSink

__all__ = [
    "LATENCY_PHASES",
    "LATENCY_QUANTILES",
    "LatencyRecorder",
    "ServeTelemetry",
    "exact_percentile",
    "new_trace_id",
    "render_prometheus",
    "run_chunk_timed",
    "stamp",
    "wants_prometheus",
]

#: Request lifecycle phases with latency percentiles; ``e2e`` is
#: submit-to-finish.  serve-report and the Prometheus exposition both
#: read this tuple.
LATENCY_PHASES = ("queue_wait", "batch_form", "simulate", "store_write", "e2e")

#: Exact quantiles exported per phase.
LATENCY_QUANTILES = ("p50", "p95", "p99")


def new_trace_id() -> str:
    """A fresh request trace ID (16 hex chars, collision-safe enough)."""
    return uuid.uuid4().hex[:16]


def stamp(record_type: type[ServeEvent], **fields: Any) -> ServeEvent:
    """A ``record_type`` record stamped with the wall-clock ``ts``."""
    return record_type(ts=round(time.time(), 6), **fields)


# ---------------------------------------------------------------------------
# Exact latency percentiles
# ---------------------------------------------------------------------------


def exact_percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile over raw samples (no bucketing).

    Unlike :class:`repro.obs.metrics.Histogram` (whose log2 buckets
    trade resolution for bounded bins), latency SLOs need the exact
    sample value at the rank — a p99 of 130ms and 250ms land in the
    same log2 bucket but are different promises.
    """
    if not samples:
        return None
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


class LatencyRecorder:
    """Per-phase latency samples with exact percentile readout.

    Retention: the most recent ``max_samples`` observations per phase
    (a bounded deque) — percentiles describe recent behaviour, and
    memory stays bounded over unbounded uptime.  Thread-safe: the
    dispatcher records while HTTP threads read.
    """

    _QUANTILE_VALUES = {"p50": 0.50, "p95": 0.95, "p99": 0.99}

    def __init__(self, max_samples: int = 65536) -> None:
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.max_samples = max_samples
        self._lock = threading.Lock()
        self._samples: dict[str, deque] = {
            phase: deque(maxlen=max_samples) for phase in LATENCY_PHASES
        }

    def record(self, phase: str, wall_s: float) -> None:
        bucket = self._samples.get(phase)
        if bucket is None:
            raise ValueError(
                f"unknown latency phase {phase!r} (phases: {LATENCY_PHASES})"
            )
        with self._lock:
            bucket.append(float(wall_s))

    def count(self, phase: str) -> int:
        with self._lock:
            return len(self._samples.get(phase, ()))

    def percentiles(self, phase: str) -> Optional[dict[str, float]]:
        """``{"p50": ms, "p95": ms, "p99": ms}`` or ``None`` when empty."""
        with self._lock:
            samples = list(self._samples.get(phase, ()))
        if not samples:
            return None
        ordered = sorted(samples)
        out: dict[str, float] = {}
        for name in LATENCY_QUANTILES:
            value = exact_percentile(ordered, self._QUANTILE_VALUES[name])
            assert value is not None  # samples is non-empty
            out[name] = round(value * 1000.0, 3)
        return out

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Percentiles for every phase that has samples."""
        out: dict[str, dict[str, float]] = {}
        for phase in LATENCY_PHASES:
            pcts = self.percentiles(phase)
            if pcts is not None:
                out[phase] = pcts
        return out

    def update_gauges(self, metrics: Any) -> None:
        """Publish ``serve.latency.<phase>.<q>_ms`` gauges into a registry."""
        for phase, pcts in self.snapshot().items():
            for name, value in pcts.items():
                metrics.gauge(f"serve.latency.{phase}.{name}_ms").set(value)


# ---------------------------------------------------------------------------
# The bundle the service carries
# ---------------------------------------------------------------------------


class ServeTelemetry:
    """Request log + bounded metrics ring + latency recorder, as one unit.

    The default construction (no arguments) is the "off" configuration:
    the null sink as the log, no ring, but a live latency recorder —
    percentile gauges on ``/metrics`` cost a few floats per request and
    are always worth having.
    """

    def __init__(
        self,
        log: Optional[TraceSink] = None,
        ring: Optional[TraceSink] = None,
        latency: Optional[LatencyRecorder] = None,
    ) -> None:
        self.log = NULL_SINK if log is None else log
        self.ring = ring
        self.latency = latency if latency is not None else LatencyRecorder()

    @property
    def enabled(self) -> bool:
        """Whether any on-disk output (log or ring) is configured."""
        return self.log.enabled or self.ring is not None

    def emit(self, record_type: type[ServeEvent], **fields: Any) -> None:
        """Append one stamped record to the request log; a no-op when
        logging is off (no record is built)."""
        if self.log.enabled:
            self.log.emit(stamp(record_type, **fields))

    def record_phase(self, trace_id: str, phase: str, wall_s: float) -> None:
        """One lifecycle span: feed the recorder, append a log record."""
        wall_s = max(0.0, wall_s)
        self.latency.record(phase, wall_s)
        self.emit(Phase, trace_id=trace_id, phase=phase, wall_s=round(wall_s, 6))

    def close(self) -> None:
        self.log.close()
        if self.ring is not None:
            self.ring.close()

    def __enter__(self) -> ServeTelemetry:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker-side timed runners (imported lazily by SimExecutor.map_timed)
# ---------------------------------------------------------------------------


def run_chunk_timed(chunk: list) -> list:
    """Worker entry point: run (index, job) pairs with per-job wall spans.

    Returns ``[(index, (value, wall_s)), ...]``.  The span is measured
    *inside* the worker process, so a parallel service batch gets true
    per-point simulation time rather than pool round-trip time; the
    dispatcher joins the spans back to request trace IDs when it emits
    :class:`Sim` records.
    """
    results = []
    for index, job in chunk:
        start = time.perf_counter()
        value = job.run()
        results.append((index, (value, time.perf_counter() - start)))
    return results


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_PROM_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_BAD_CHARS.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def wants_prometheus(accept: Optional[str]) -> bool:
    """Content negotiation for ``/metrics``: text exposition iff the
    client asks for ``text/plain`` explicitly (``*/*`` and absent
    headers keep the JSON default — existing consumers parse JSON)."""
    return bool(accept) and "text/plain" in str(accept)


def render_prometheus(snapshot: dict[str, Any]) -> str:
    """A :meth:`MetricsRegistry.snapshot` as Prometheus text exposition.

    Counters render as ``counter``, gauges as ``gauge``, and the
    dict-of-bins histograms as cumulative ``_bucket{le=...}`` series
    plus ``_sum``/``_count`` — the standard histogram layout, with each
    bin's upper bound as its ``le`` label.
    """
    lines: list[str] = []
    for name in sorted(snapshot.get("counters", {})):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("gauges", {})):
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {snapshot['gauges'][name]}")
    for name in sorted(snapshot.get("histograms", {})):
        metric = _prom_name(name)
        hist = snapshot["histograms"][name]
        bins = hist.get("bins", {})
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for key in sorted(int(k) for k in bins):
            cumulative += bins[key] if key in bins else bins[str(key)]
            lines.append(f'{metric}_bucket{{le="{key}"}} {cumulative}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.get("count", 0)}')
        lines.append(f"{metric}_sum {hist.get('total', 0)}")
        lines.append(f"{metric}_count {hist.get('count', 0)}")
    return "\n".join(lines) + "\n"
