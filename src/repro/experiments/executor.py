"""Execution layer: fan independent grid-point simulations out to workers.

Every figure in the reproduction is assembled from hundreds of
*independent* cycle-level simulations — the paper's own methodology
(Sec. VI) is a 2D sparsity grid per kernel.  A :class:`SimExecutor`
turns a batch of picklable :class:`PointJob` work units into results,
either in-process (``jobs=1``, the default — tests and debugging stay
single-process) or across a :class:`concurrent.futures.ProcessPoolExecutor`.

Determinism is the contract: results always come back in job-index
order, regardless of worker completion order, and each job re-derives
its trace from a seeded config, so a parallel run is bit-identical to a
serial one.

Observability rides on the executor: give a :class:`SimExecutor` a
``metrics`` registry and every simulated point is instrumented with its
*own* per-job registry whose snapshot travels back with the result;
snapshots merge into the shared registry in job-index order on every
backend, so a ``--jobs 8`` run's metrics are bit-identical to a serial
run's.  A ``trace_sink`` forces in-process execution (event streams
interleave nondeterministically across processes and would be useless).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace
from typing import Any, Optional
from collections.abc import Iterable, Iterator, Sequence

from repro.core.config import MachineConfig
from repro.fsio import canonical
from repro.kernels.gemm import POINT_AXES
from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    SpanRecorder,
    TraceSink,
    maybe_span,
)

#: Environment fallback for the worker count (the CLI's ``--jobs``
#: takes precedence).
JOBS_ENV_VAR = "REPRO_JOBS"

#: Result metrics a job can request from its simulation.
METRIC_TIME_NS = "time_ns"
METRIC_NS_PER_FMA = "ns_per_fma"

#: Types that cross the process-pool boundary (in ``PointJob`` chunks
#: or their results).  Checked by ``repro check`` (process-boundary):
#: each must be a frozen dataclass — transitively, through its field
#: annotations — or be listed in :data:`POOL_PAYLOAD_PICKLABLE`.
POOL_PAYLOAD_TYPES = (
    "PointJob",
    "MachineConfig",
    "GemmKernelConfig",
    "NMKernelConfig",
    "IndexMACConfig",
)

#: Documented escape hatch: types that pickle safely without being
#: frozen dataclasses.  Keep a justification next to each entry.
POOL_PAYLOAD_PICKLABLE: tuple = ()


@dataclass(frozen=True)
class PointJob:
    """One grid-point simulation: a trace config on one machine.

    Frozen and built only from frozen dataclasses, so it pickles
    cleanly across process boundaries.  The trace is regenerated inside
    the worker from the seeded config — traces carry functional memory
    images and are much bigger than their configs.
    """

    # GemmKernelConfig, NMKernelConfig or IndexMACConfig — any frozen
    # config the kernel library has a trace generator for.
    config: Any
    machine: MachineConfig
    metric: str = METRIC_TIME_NS
    #: Engine tier ("exact", "fast", "analytic").  Fast tiers estimate
    #: from the seeded config directly — no trace, no instrumentation.
    engine: str = "exact"
    #: Skip mechanism ("save", "sparce", "indexmac") — resolved to a
    #: (config, machine) transform by :mod:`repro.rivals.mechanisms`
    #: just before simulation.  Rivals are exact-engine only.
    mechanism: str = "save"

    def canonical_series(self) -> dict[str, Any]:
        """Canonical form of this job minus its point axes.

        Jobs that differ only in their sparsity levels share a series.
        Every result key (serve fingerprint and batch key, sweep-store
        fingerprint, surface-cache key) is a fingerprint of this form,
        so every field of the job, its config and its machine is part
        of every key by construction.
        """
        return canonical(self, drop=POINT_AXES)

    def at(self, bs: float, nbs: float) -> PointJob:
        """The job of this series at one ``(bs, nbs)`` point."""
        point = dict(zip(POINT_AXES, (bs, nbs)))
        return replace(self, config=replace(self.config, **point))

    def _resolved(self) -> tuple[Any, MachineConfig]:
        """(config, machine) after applying the mechanism transform."""
        if self.mechanism == "save":
            return self.config, self.machine
        # Lazy for the same reason as the engine imports below: rivals
        # sits above the kernel layer in the import graph.
        from repro.rivals.mechanisms import resolve_mechanism

        return resolve_mechanism(
            self.mechanism, self.config, self.machine, self.engine
        )

    def run(self, obs: Optional[Instrumentation] = None) -> float:
        """Simulate this point in the current process."""
        config, machine = self._resolved()
        if self.engine != "exact":
            # Imported lazily to keep the exact path's import graph
            # unchanged (and repro.fastsim depends on this module's
            # importers, so a module-level import would cycle).
            from repro.fastsim import simulate_config

            result = simulate_config(config, machine, self.engine)
        else:
            # Imported here so workers pay the import once, not per job.
            from repro.core.pipeline import simulate
            from repro.kernels.library import trace_stream

            result = simulate(
                trace_stream(config), machine,
                keep_state=False, obs=obs,
            )
        return self.value(result)

    def value(self, result: Any) -> float:
        """This job's metric, read off its ``SimResult``."""
        if self.metric == METRIC_NS_PER_FMA:
            return result.time_ns / result.fma_count
        return result.time_ns

    def stack_key(self) -> Optional[tuple]:
        """Jobs with equal keys evaluate as one fast-tier stack.

        Fast and analytic jobs of the plain SAVE mechanism match when
        they differ at most in their sparsity levels and metric; every
        other job (exact engine, rival mechanisms) returns ``None`` and
        runs alone.
        """
        if self.engine == "exact" or self.mechanism != "save":
            return None
        from repro.fastsim import stack_key

        return (self.engine, self.machine, stack_key(self.config))

    def run_instrumented(
        self, sink: Optional[TraceSink] = None
    ) -> tuple[float, dict[str, Any]]:
        """Run with a fresh per-job registry; return (value, snapshot).

        A *fresh* registry per job is what makes cross-process merging
        deterministic: each job's snapshot is computed from zero in
        isolation, and the caller folds snapshots together in job-index
        order — identical float-addition grouping on every backend.
        """
        obs = Instrumentation(
            metrics=MetricsRegistry(), sink=sink, mechanism=self.mechanism
        )
        value = self.run(obs)
        return value, obs.snapshot()


#: Most points one stacked fast-tier call evaluates.  Past ~32 points a
#: stack runs no faster per point; its arrays (~37 kB per point for a
#: 4x6 mixed-precision tile at k_steps=24) would only raise peak memory.
STACK_POINTS = 32


def _stacks(jobs: Sequence[PointJob]) -> Iterator[list[PointJob]]:
    """Split jobs, in order, into runs that share a non-None stack key."""
    stack: list[PointJob] = []
    key: Optional[tuple] = None
    for job in jobs:
        job_key = job.stack_key()
        if stack and (
            job_key is None or job_key != key or len(stack) >= STACK_POINTS
        ):
            yield stack
            stack = []
        stack.append(job)
        key = job_key
    if stack:
        yield stack


def run_jobs(jobs: Sequence[PointJob]) -> list[float]:
    """Run jobs in order, evaluating fast-tier stacks as one call each.

    Consecutive fast or analytic jobs that differ only in sparsity (and
    metric) go to :func:`repro.fastsim.simulate_config` as one config
    stack of at most :data:`STACK_POINTS`; every other job runs alone.
    Values equal ``[job.run() for job in jobs]`` bit for bit.  Both the
    serial :meth:`SimExecutor.map` and the pool workers run through here.
    """
    values: list[float] = []
    for stack in _stacks(jobs):
        if len(stack) == 1:
            values.append(stack[0].run())
            continue
        from repro.fastsim import simulate_config

        head = stack[0]
        results = simulate_config(
            [job.config for job in stack], head.machine, head.engine
        )
        values.extend(job.value(result) for job, result in zip(stack, results))
    return values


def _run_chunk(chunk: list[tuple[int, PointJob]]) -> list[tuple[int, float]]:
    """Worker entry point: run one chunk of (index, job) pairs."""
    values = run_jobs([job for _, job in chunk])
    return [(index, value) for (index, _), value in zip(chunk, values)]


def _run_chunk_instrumented(
    chunk: list[tuple[int, PointJob]],
) -> list[tuple[int, tuple[float, dict[str, Any]]]]:
    """Worker entry point when metrics are collected."""
    return [(index, job.run_instrumented()) for index, job in chunk]


def merge_indexed(
    chunks: Iterable[Sequence[tuple[int, float]]], total: int
) -> list[float]:
    """Reassemble chunk results into job-index order.

    Chunks may arrive in *any* order (workers complete out of order);
    the output is always ``results[i] == value of job i``.
    """
    results: list[Optional[float]] = [None] * total
    seen = 0
    for chunk in chunks:
        for index, value in chunk:
            if not 0 <= index < total:
                raise ValueError(f"job index {index} outside batch of {total}")
            if results[index] is not None:
                raise ValueError(f"duplicate result for job index {index}")
            results[index] = value
            seen += 1
    if seen != total:
        missing = [i for i, v in enumerate(results) if v is None]
        raise ValueError(f"missing results for job indices {missing[:8]}")
    return results  # type: ignore[return-value]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit value, else ``REPRO_JOBS``, else serial."""
    if jobs is not None:
        return max(1, jobs)
    env = os.environ.get(JOBS_ENV_VAR, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return 1


class SimExecutor:
    """Runs batches of :class:`PointJob` serially or across processes.

    Args:
        jobs: worker processes; ``1`` (default) short-circuits to plain
            in-process execution with no pool, no pickling.
        chunksize: jobs per worker submission; defaults to an even
            split targeting ~4 chunks per worker (amortises process
            round-trips while keeping the pool load-balanced).
        metrics: shared registry that accumulates every job's metrics.
            Each job runs against a fresh private registry; snapshots
            are folded into this one in job-index order after the batch
            completes, so parallel and serial runs merge identically.
        trace_sink: event sink for per-cycle traces.  Tracing forces
            in-process execution — interleaved multi-process event
            streams would be nondeterministic and unusable.
        spans: host wall-clock :class:`repro.obs.SpanRecorder`; when
            set, every batch opens a ``simulate`` span (and metric
            merging a ``merge`` span) so runs attribute their time to
            phases.  Spans wrap whole batches, never per-cycle work.
        persistent: keep one worker pool alive across ``map`` calls
            instead of spinning one up per batch.  One-shot experiment
            runs amortise pool startup over a single large batch, so
            they keep the default; a long-lived service calling ``map``
            per micro-batch would otherwise pay process startup on
            every request.  Call :meth:`close` (or use the executor as
            a context manager) to shut the pool down.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        chunksize: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace_sink: Optional[TraceSink] = None,
        spans: Optional[SpanRecorder] = None,
        persistent: bool = False,
    ):
        self.jobs = resolve_jobs(jobs)
        if chunksize is not None and chunksize <= 0:
            raise ValueError("chunksize must be positive")
        self.chunksize = chunksize
        self.metrics = metrics
        self.trace_sink = trace_sink
        self.spans = spans
        self.persistent = persistent
        self._pool: Optional[ProcessPoolExecutor] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimExecutor(jobs={self.jobs}, chunksize={self.chunksize})"

    @property
    def instrumented(self) -> bool:
        return self.metrics is not None or self.trace_sink is not None

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def _chunks(
        self, indexed: list[tuple[int, PointJob]]
    ) -> list[list[tuple[int, PointJob]]]:
        size = self.chunksize
        if size is None:
            size = max(1, len(indexed) // (self.jobs * 4))
        return [indexed[i : i + size] for i in range(0, len(indexed), size)]

    def _run_chunks(self, fn, chunks):
        """Fan chunks out to workers; collect in completion order."""
        if self.persistent:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            futures = [self._pool.submit(fn, chunk) for chunk in chunks]
            return [future.result() for future in as_completed(futures)]
        workers = min(self.jobs, len(chunks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(fn, chunk) for chunk in chunks]
            return [future.result() for future in as_completed(futures)]

    def close(self) -> None:
        """Shut down the persistent pool (no-op otherwise)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> SimExecutor:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def map(self, jobs: Sequence[PointJob]) -> list[float]:
        """Run a batch; results are in job order on every backend."""
        if not jobs:
            return []
        with maybe_span(
            self.spans, "simulate", points=len(jobs), workers=self.jobs
        ):
            if self.instrumented:
                return self._map_instrumented(jobs)
            if not self.parallel or len(jobs) == 1:
                return run_jobs(jobs)
            indexed = list(enumerate(jobs))
            chunks = self._chunks(indexed)
            completed = self._run_chunks(_run_chunk, chunks)
            return merge_indexed(completed, len(jobs))

    def map_timed(
        self, jobs: Sequence[PointJob]
    ) -> tuple[list[float], list[float]]:
        """Like :meth:`map`, plus a per-job wall-clock span list.

        Spans are measured *inside* the worker around each ``job.run()``
        (see :func:`repro.obs.telemetry.run_chunk_timed`), so the serve
        layer's ``sim`` telemetry events report true simulation time for
        each point even when the batch crossed the process-pool
        boundary — not pool round-trip time.  Values come back in job
        order like every other path; ``walls[i]`` pairs with
        ``values[i]``.
        """
        # Lazy import: telemetry is the wall-clock layer, and this
        # module stays inside the no-wallclock determinism scope.
        from repro.obs.telemetry import run_chunk_timed

        if not jobs:
            return [], []
        with maybe_span(
            self.spans, "simulate", points=len(jobs), workers=self.jobs
        ):
            indexed = list(enumerate(jobs))
            if not self.parallel or len(jobs) == 1:
                completed = [run_chunk_timed(indexed)]
            else:
                completed = self._run_chunks(
                    run_chunk_timed, self._chunks(indexed)
                )
            pairs = merge_indexed(completed, len(jobs))
        return [value for value, _ in pairs], [wall for _, wall in pairs]

    def _map_instrumented(self, jobs: Sequence[PointJob]) -> list[float]:
        """Instrumented batch: collect per-job snapshots, merge in order.

        Serial and parallel paths build the *same* list of per-job
        snapshots and fold them identically — one ``merge_snapshot``
        per job, in job-index order — so the shared registry ends up
        bit-for-bit the same regardless of worker count.
        """
        if self.trace_sink is not None or not self.parallel or len(jobs) == 1:
            pairs = [job.run_instrumented(self.trace_sink) for job in jobs]
        else:
            indexed = list(enumerate(jobs))
            chunks = self._chunks(indexed)
            completed = self._run_chunks(_run_chunk_instrumented, chunks)
            pairs = merge_indexed(completed, len(jobs))
        if self.metrics is not None:
            with maybe_span(self.spans, "merge", snapshots=len(pairs)):
                for _, snapshot in pairs:
                    self.metrics.merge_snapshot(snapshot)
        return [value for value, _ in pairs]


#: Module default: serial execution (what every call site gets when no
#: executor is passed).
SERIAL_EXECUTOR = SimExecutor(jobs=1)


def default_executor(executor: Optional[SimExecutor]) -> SimExecutor:
    """Call-site helper: an explicit executor, or the serial default."""
    return executor if executor is not None else SERIAL_EXECUTOR


__all__ = [
    "JOBS_ENV_VAR",
    "METRIC_NS_PER_FMA",
    "METRIC_TIME_NS",
    "PointJob",
    "SERIAL_EXECUTOR",
    "STACK_POINTS",
    "SimExecutor",
    "default_executor",
    "merge_indexed",
    "resolve_jobs",
    "run_jobs",
]
