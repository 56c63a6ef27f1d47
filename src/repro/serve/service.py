"""The simulation service core: queue, dedup, micro-batching, drain.

A :class:`SimService` is the long-lived engine behind ``repro serve``.
Requests flow::

    submit ─► [store hit? ── serve cached]
              [in-flight twin? ── share its job]        (deduplication)
              [queue full? ── backpressure (retry later)]
              bounded queue ─► dispatcher thread
                              groups by batch_key       (micro-batching)
                              one SimExecutor.map per group
                              payloads ─► ResultStore ─► waiters

Identical concurrent requests (equal fingerprints) share one
:class:`Job` — the simulation runs once and every waiter gets the same
payload object.  Requests that differ only in their sparsity points
(equal :meth:`~repro.serve.schema.SimRequest.batch_key`) coalesce into
a single executor batch, with overlapping points simulated once.

The dispatcher is a single thread; parallelism lives below it, in the
:class:`~repro.experiments.executor.SimExecutor` worker pool — so the
service inherits the executor's determinism contract (results depend
only on the request, never on arrival order or worker count).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from repro.core.config import machine_label
from repro.experiments.executor import SimExecutor
from repro.obs import MetricsRegistry, log2_bucket
from repro.obs.events import Complete, Ingress, Sim, Snapshot
from repro.obs.telemetry import ServeTelemetry, new_trace_id, stamp
from repro.serve.schema import SERVE_SCHEMA_VERSION, SimRequest
from repro.serve.store import ResultStore

__all__ = [
    "Job",
    "QueueFull",
    "ServeConfig",
    "ServiceDraining",
    "SimService",
]


class QueueFull(RuntimeError):
    """Backpressure: the job queue is at capacity (HTTP 429)."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__("job queue is full")
        self.retry_after_s = retry_after_s


class ServiceDraining(RuntimeError):
    """The service is shutting down and accepts no new work (HTTP 503)."""


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of a :class:`SimService` / ``repro serve``."""

    host: str = "127.0.0.1"
    port: int = 8731
    #: Executor worker processes (``None``: ``REPRO_JOBS``, else serial).
    jobs: Optional[int] = None
    #: Result-store directory (``None``: the repo-level ``.serve_store``).
    store_dir: Optional[Union[str, Path]] = None
    #: Bounded queue capacity; submits beyond it get backpressure.
    queue_limit: int = 64
    #: ``Retry-After`` hint handed to backpressured clients.
    retry_after_s: float = 1.0
    #: Seconds :meth:`SimService.close` waits for in-flight work.
    drain_timeout_s: float = 60.0
    #: Cadence of the telemetry sampler thread (queue depth,
    #: oldest-request age, counters into the metrics ring).
    telemetry_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        if self.retry_after_s < 0:
            raise ValueError("retry_after_s must be non-negative")
        if self.telemetry_interval_s <= 0:
            raise ValueError("telemetry_interval_s must be positive")


@dataclass
class Job:
    """One in-flight unit of work, shared by every duplicate submitter."""

    key: str
    request: SimRequest
    state: str = "pending"  # pending | running | done | failed
    payload: Optional[dict[str, Any]] = None
    error: Optional[str] = None
    submitted_at: float = field(default_factory=time.monotonic)
    #: Request-log trace IDs: the submitting request's first, dedup
    #: joiners appended in arrival order.  Phase/complete telemetry is
    #: attributed to the primary (first) ID.
    trace_ids: list[str] = field(default_factory=list)
    #: Stamped when the dispatcher drains the job from the queue.
    dequeued_at: Optional[float] = None
    _event: threading.Event = field(default_factory=threading.Event)

    @property
    def trace_id(self) -> str:
        """The primary trace ID ('' for untraced programmatic jobs)."""
        return self.trace_ids[0] if self.trace_ids else ""

    def finish(self, payload: dict[str, Any]) -> None:
        self.payload = payload
        self.state = "done"
        self._event.set()

    def fail(self, error: str) -> None:
        self.error = error
        self.state = "failed"
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until done/failed; ``False`` on timeout."""
        return self._event.wait(timeout)


class SimService:
    """Queue + dedup + batching on top of a :class:`SimExecutor`.

    Args:
        config: service tuning (queue bound, retry hint, ...).
        store: result store (defaults to one at ``config.store_dir``).
        executor: simulation backend; defaults to a *persistent*
            executor sized by ``config.jobs`` so a parallel pool
            survives across micro-batches.
        metrics: registry for service-level metrics (created when
            omitted; rendered by ``/metrics``).
        telemetry: request-lifecycle telemetry bundle (request log +
            metrics ring + latency recorder).  The default records
            latency percentiles in memory but writes nothing to disk;
            pass a :class:`~repro.obs.telemetry.ServeTelemetry` with a
            live log/ring (``repro serve --request-log/--metrics-ring``)
            to persist the request stream.

    Call :meth:`start` before submitting and :meth:`close` when done
    (or use the service as a context manager).
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        store: Optional[ResultStore] = None,
        executor: Optional[SimExecutor] = None,
        metrics: Optional[MetricsRegistry] = None,
        telemetry: Optional[ServeTelemetry] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.store = store or ResultStore(self.config.store_dir)
        self.executor = executor or SimExecutor(
            jobs=self.config.jobs, persistent=True
        )
        self.metrics = metrics or MetricsRegistry()
        self.telemetry = telemetry or ServeTelemetry()
        self.started_at = time.time()
        self._cv = threading.Condition()
        self._queue: deque[Job] = deque()
        self._inflight: OrderedDict[str, Job] = OrderedDict()
        #: Recently failed jobs, kept so pollers see the error instead
        #: of "unknown" (bounded; oldest evicted first).
        self._failed: OrderedDict[str, Job] = OrderedDict()
        self._active = 0  # jobs drained from the queue, not yet finished
        self._paused = False
        self._draining = False
        self._stop = False
        self._thread: Optional[threading.Thread] = None
        self._sampler: Optional[threading.Thread] = None
        self._sampler_stop = threading.Event()

    # -- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the dispatcher thread is live."""
        return self._thread is not None

    def start(self) -> SimService:
        with self._cv:
            if self._thread is not None:
                raise RuntimeError("service already started")
            self._thread = threading.Thread(
                target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
            )
            self._thread.start()
            if self.telemetry.ring is not None:
                self._sampler = threading.Thread(
                    target=self._sampler_loop,
                    name="repro-serve-sampler",
                    daemon=True,
                )
                self._sampler.start()
        return self

    def __enter__(self) -> SimService:
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def pause(self) -> None:
        """Hold the dispatcher (tests use this to force wide batches)."""
        with self._cv:
            self._paused = True

    def resume(self) -> None:
        with self._cv:
            self._paused = False
            self._cv.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop accepting work; wait for the queue to empty.

        Returns ``True`` when everything in flight completed.
        """
        if timeout is None:
            timeout = self.config.drain_timeout_s
        deadline = time.monotonic() + timeout
        with self._cv:
            self._draining = True
            self._paused = False
            self._cv.notify_all()
            while self._queue or self._active:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cv.wait(min(remaining, 0.05))
        return True

    def close(self) -> bool:
        """Drain, stop the dispatcher, flush the store, free the pool."""
        drained = self.drain()
        with self._cv:
            self._stop = True
            self._cv.notify_all()
            thread = self._thread
            sampler = self._sampler
        self._sampler_stop.set()
        if sampler is not None:
            sampler.join(timeout=self.config.drain_timeout_s)
            with self._cv:
                self._sampler = None
        if thread is not None:
            thread.join(timeout=self.config.drain_timeout_s)
            with self._cv:
                self._thread = None
        # Anything still queued after a failed drain must not hang its
        # waiters forever.
        with self._cv:
            leftovers = list(self._queue)
            self._queue.clear()
        for job in leftovers:
            job.fail("service stopped before the job ran")
            with self._cv:
                self._inflight.pop(job.key, None)
        self.store.flush()
        self.executor.close()
        self.telemetry.close()
        return drained

    # -- submission -------------------------------------------------------

    def submit(
        self, request: SimRequest, trace_id: Optional[str] = None
    ) -> tuple[Job, str]:
        """Enqueue (or join, or short-circuit) one request.

        Returns ``(job, outcome)`` with outcome one of ``"accepted"``
        (queued fresh), ``"dedup"`` (joined an identical in-flight
        job) or ``"cached"`` (served from the result store — the job
        comes back already done).

        ``trace_id`` identifies the request in the telemetry stream
        (HTTP ingress passes the ID it minted and echoed to the
        client); one is generated for programmatic submitters.  Dedup
        joiners append their ID to the shared job's ``trace_ids``, so
        worker-side simulation spans list every owning request.

        Raises:
            QueueFull: the bounded queue is at capacity.
            ServiceDraining: the service is shutting down.
        """
        if trace_id is None:
            trace_id = new_trace_id()
        key = request.fingerprint()
        started = time.monotonic()
        self.metrics.counter("serve.requests").inc()
        with self._cv:
            twin = self._inflight.get(key)
            if twin is not None:
                self.metrics.counter("serve.dedup_hits").inc()
                twin.trace_ids.append(trace_id)
                self._log_ingress(trace_id, key, "dedup")
                return twin, "dedup"
        cached = self.store.get(key)
        if cached is not None:
            self.metrics.counter("serve.cache_hits").inc()
            job = Job(key=key, request=request)
            job.trace_ids.append(trace_id)
            job.finish(cached)
            wall = time.monotonic() - started
            self.telemetry.latency.record("e2e", wall)
            self._log_ingress(trace_id, key, "cached")
            self.telemetry.emit(
                Complete,
                trace_id=trace_id,
                key=key,
                status="cached",
                wall_s=round(wall, 6),
            )
            return job, "cached"
        with self._cv:
            # Re-check under the lock: the store probe dropped it.
            twin = self._inflight.get(key)
            if twin is not None:
                self.metrics.counter("serve.dedup_hits").inc()
                twin.trace_ids.append(trace_id)
                self._log_ingress(trace_id, key, "dedup")
                return twin, "dedup"
            if self._draining or self._stop:
                self._log_ingress(trace_id, key, "draining")
                raise ServiceDraining("service is draining")
            if len(self._queue) >= self.config.queue_limit:
                self.metrics.counter("serve.rejected").inc()
                self._log_ingress(trace_id, key, "rejected")
                raise QueueFull(self.config.retry_after_s)
            job = Job(key=key, request=request)
            job.trace_ids.append(trace_id)
            self._inflight[key] = job
            self._queue.append(job)
            self.metrics.gauge("serve.queue_depth").set(len(self._queue))
            self._cv.notify_all()
        self._log_ingress(trace_id, key, "accepted")
        return job, "accepted"

    def _log_ingress(self, trace_id: str, key: str, outcome: str) -> None:
        self.telemetry.emit(Ingress, trace_id=trace_id, key=key, outcome=outcome)

    def status(self, key: str) -> dict[str, Any]:
        """Poll view of one job key (in-flight, done-on-disk or unknown)."""
        with self._cv:
            job = self._inflight.get(key) or self._failed.get(key)
            if job is not None:
                return {"job": key, "status": job.state, "error": job.error}
        if self.store.get(key) is not None:
            return {"job": key, "status": "done", "error": None}
        return {"job": key, "status": "unknown", "error": None}

    def result(self, key: str) -> Optional[dict[str, Any]]:
        """The stored payload for a completed key, else ``None``."""
        return self.store.get(key)

    def wait(self, key: str, timeout: float) -> None:
        """Block until ``key``'s in-flight job ends or ``timeout`` passes
        (at once for a stored, failed or unknown key)."""
        with self._cv:
            job = self._inflight.get(key)
        if job is not None:
            job.wait(timeout)

    def metrics_snapshot(self) -> dict[str, Any]:
        """The metrics snapshot with latency-percentile gauges current.

        The envelope is exactly :meth:`MetricsRegistry.snapshot` — the
        JSON ``/metrics`` contract existing consumers parse — with the
        ``serve.latency.<phase>.<p50|p95|p99>_ms`` gauges refreshed
        from the recorder immediately before the snapshot is taken.
        """
        self.telemetry.latency.update_gauges(self.metrics)
        return self.metrics.snapshot()

    def health(self) -> dict[str, Any]:
        with self._cv:
            return {
                "status": "draining" if (self._draining or self._stop) else "ok",
                "queue_depth": len(self._queue),
                "active": self._active,
                "inflight": len(self._inflight),
                "uptime_s": round(time.time() - self.started_at, 3),
                "schema": SERVE_SCHEMA_VERSION,
            }

    # -- dispatch ---------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Run batches until stopped.  There is no linger: a batch is
        everything that queued while the previous batch ran."""
        while True:
            with self._cv:
                while not self._stop and (self._paused or not self._queue):
                    self._cv.wait(0.05)
                if self._stop and not self._queue:
                    return
                batch = list(self._queue)
                self._queue.clear()
                now = time.monotonic()
                for job in batch:
                    job.state = "running"
                    job.dequeued_at = now
                self._active += len(batch)
                self.metrics.gauge("serve.queue_depth").set(0)
            self._process(batch)

    def _process(self, batch: list[Job]) -> None:
        groups: OrderedDict[str, list[Job]] = OrderedDict()
        for job in batch:
            groups.setdefault(job.request.batch_key(), []).append(job)
        for jobs in groups.values():
            try:
                self._run_group(jobs)
            except Exception as error:  # noqa: BLE001 - service must survive
                self.metrics.counter("serve.failures").inc(len(jobs))
                now = time.monotonic()
                for job in jobs:
                    job.fail(f"{type(error).__name__}: {error}")
                    wall = max(0.0, now - job.submitted_at)
                    self.telemetry.latency.record("e2e", wall)
                    self.telemetry.emit(
                        Complete,
                        trace_id=job.trace_id,
                        key=job.key,
                        status="failed",
                        wall_s=round(wall, 6),
                    )
            finally:
                with self._cv:
                    for job in jobs:
                        self._inflight.pop(job.key, None)
                        if job.state == "failed":
                            self._failed[job.key] = job
                            while len(self._failed) > 128:
                                self._failed.popitem(last=False)
                    self._active -= len(jobs)
                    self._cv.notify_all()

    def _run_group(self, jobs: list[Job]) -> None:
        """Simulate one batch-key group as a single executor batch.

        All jobs in the group share kernel/machine/metric, so their
        union of sparsity points is deduplicated and simulated once;
        each request's payload is then assembled from the shared
        values.
        """
        order: OrderedDict[tuple[float, float], int] = OrderedDict()
        for job in jobs:
            for point in job.request.points:
                if point not in order:
                    order[point] = len(order)
        template = jobs[0].request.with_points(list(order))
        point_jobs = template.jobs()
        self.metrics.counter("serve.batches").inc()
        self.metrics.histogram("serve.batch_width", log2_bucket).record(
            len(point_jobs)
        )
        sim_start = time.monotonic()
        for job in jobs:
            trace = job.trace_id
            dequeued = job.dequeued_at if job.dequeued_at is not None else sim_start
            self.telemetry.record_phase(
                trace, "queue_wait", dequeued - job.submitted_at
            )
            # batch_form covers dequeue-to-simulation: group assembly
            # plus earlier groups of the same round simulating.
            self.telemetry.record_phase(trace, "batch_form", sim_start - dequeued)
        timed = hasattr(self.executor, "map_timed") and not getattr(
            self.executor, "instrumented", False
        )
        if timed:
            values, walls = self.executor.map_timed(point_jobs)
            map_wall = time.monotonic() - sim_start
        else:
            # Instrumented executors keep their own per-job metric
            # merging (and test fakes may only implement map); fall
            # back to plain map and attribute the batch wall evenly.
            values = self.executor.map(point_jobs)
            map_wall = time.monotonic() - sim_start
            walls = [map_wall / len(point_jobs)] * len(point_jobs)
        self.metrics.counter("serve.simulated_points").inc(len(point_jobs))
        for job in jobs:
            self.telemetry.record_phase(job.trace_id, "simulate", map_wall)
        if self.telemetry.log.enabled:
            # Worker-side spans, joined back to the requests that own
            # each point — the record that trace IDs survived the
            # process-pool boundary.
            owners = {
                point: [
                    trace
                    for j in jobs
                    if point in j.request.points
                    for trace in j.trace_ids
                ]
                for point in order
            }
            for point, index in order.items():
                self.telemetry.emit(
                    Sim,
                    trace_ids=owners[point],
                    point=list(point),
                    wall_s=round(walls[index], 6),
                    engine=template.series.engine,
                )
        label = machine_label(template.series.machine)
        for job in jobs:
            write_start = time.monotonic()
            payload = self._payload(job.request, job.key, order, values, label)
            self.store.put(job.key, payload)
            now = time.monotonic()
            self.telemetry.record_phase(
                job.trace_id, "store_write", now - write_start
            )
            self.metrics.histogram("serve.latency_ms", log2_bucket).record(
                max(0, int((now - job.submitted_at) * 1000))
            )
            wall = max(0.0, now - job.submitted_at)
            self.telemetry.latency.record("e2e", wall)
            self.telemetry.emit(
                Complete,
                trace_id=job.trace_id,
                key=job.key,
                status="done",
                wall_s=round(wall, 6),
            )
            job.finish(payload)

    # -- telemetry sampler ------------------------------------------------

    def _sampler_loop(self) -> None:
        """Snapshot queue state into the metrics ring on a fixed cadence."""
        while not self._sampler_stop.wait(self.config.telemetry_interval_s):
            self._sample_once()
        # One final sample on shutdown so the ring's last record
        # reflects the drained state.
        self._sample_once()

    def _sample_once(self) -> None:
        ring = self.telemetry.ring
        if ring is None:
            return
        now = time.monotonic()
        with self._cv:
            queue_depth = len(self._queue)
            active = self._active
            oldest = min(
                (job.submitted_at for job in self._queue), default=None
            )
        oldest_age_s = round(now - oldest, 6) if oldest is not None else 0.0
        self.metrics.gauge("serve.oldest_request_age_s").set(oldest_age_s)
        ring.emit(
            stamp(
                Snapshot,
                queue_depth=queue_depth,
                active=active,
                oldest_age_s=oldest_age_s,
                counters=self.metrics.snapshot()["counters"],
            )
        )

    @staticmethod
    def _payload(
        request: SimRequest,
        key: str,
        order: dict[tuple[float, float], int],
        values: list[float],
        label: str,
    ) -> dict[str, Any]:
        return {
            "schema": SERVE_SCHEMA_VERSION,
            "key": key,
            "kind": request.kind,
            "metric": request.series.metric,
            "engine": request.series.engine,
            "label": label,
            "points": [list(point) for point in request.points],
            "values": [values[order[point]] for point in request.points],
            "levels": list(request.levels) if request.levels is not None else None,
        }
