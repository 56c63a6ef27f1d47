"""Workload ``fast_sweep``: the million-point sweep path, then reads.

Each round writes two ``stream_sweep(engine="fast", k_steps=24)`` sweeps
(``resnet2_2_fwd`` on SAVE_2VPU and ``resnet3_2_bwd_input`` on
SAVE_1VPU) into a fresh store under the run's work directory.  Operand
replay and store writes dominate; the core engine does not run.  After
the writes, seeded small ``bs_range``/``nbs_range`` queries and one
``aggregate`` read the last round's store, so a segment-layout change
that speeds writes but slows reads shows on the same workload.
"""

from __future__ import annotations

import bisect
import itertools
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import repro.experiments.streamsweep as streamsweep
import repro.fastsim.engine as fastsim_engine
from repro.core.config import SAVE_1VPU, SAVE_2VPU
from repro.experiments.executor import SimExecutor
from repro.fastsim import TraceArrays, simulate_config
from repro.kernels.library import get_kernel
from repro.store import SweepStore, SweepWriter

from common import (
    Outcome,
    fast_rel_error,
    peak_rss_mb,
    percentile,
    windowed_percentile,
)
from tracer import Tracer

SWEEPS = (("resnet2_2_fwd", "SAVE_2VPU"), ("resnet3_2_bwd_input", "SAVE_1VPU"))
MACHINES = {"SAVE_2VPU": SAVE_2VPU, "SAVE_1VPU": SAVE_1VPU}
K_STEPS = 24
LEVELS = 60  # per axis: 3600 points per sweep, 7200 rows per store
QUERIES = 4000
#: Tail percentile, taken per window of the read phase: a 25 s run times
#: 5.5k-8k queries, so each of five windows leaves 11 or more beyond p99.
TAIL = 0.99
TAIL_WINDOWS = 5
#: Sampled rows per sweep re-simulated to check what the store holds.
CHECKED_ROWS = 8
#: Share of the run spent writing; the rest reads.
WRITE_SHARE = 0.6
#: Points per sweep compared against the exact engine in the traced run.
ERROR_SAMPLE = 6
TRACED_QUERIES = 400

#: The per-layer metrics this workload measures; the others are 0 here.
PER_LAYER = (
    "experiments.streamsweep_self_ms",
    "experiments.executor_self_ms",
    "fastsim.replay_ms_per_point",
    "fastsim.estimate_ms_per_point",
    "store.write_ms_per_segment",
    "store.segments_written",
    "store.bytes_on_disk",
    "store.rows_scanned_per_row_returned",
    "fast_rel_error_p50",
    "fast_rel_error_max",
    "bench.trace_overhead_frac",
)


@dataclass(frozen=True)
class Query:
    kernel: Optional[str]  # None scans both sweeps
    bs_range: tuple[float, float]
    nbs_range: tuple[float, float]


@dataclass(frozen=True)
class Inputs:
    levels: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]  # per sweep
    queries: tuple[Query, ...]
    seed: int

    @property
    def points_per_round(self) -> int:
        return sum(len(bs) * len(nbs) for bs, nbs in self.levels)


def _range(rng: random.Random) -> tuple[float, float]:
    width = rng.uniform(0.05, 0.2)
    low = rng.uniform(0.0, 0.95 - width)
    return (low, low + width)


def make_inputs(seed: int) -> Inputs:
    """Seeded sparsity levels inside [0, 0.95] and a seeded query list."""
    rng = random.Random(seed)

    def axis() -> tuple[float, ...]:
        return tuple(sorted(k / 1000 for k in rng.sample(range(951), LEVELS)))

    sweep_levels = tuple((axis(), axis()) for _ in SWEEPS)
    kernels = [kernel for kernel, _ in SWEEPS] + [None]
    query_list = tuple(
        Query(rng.choice(kernels), _range(rng), _range(rng)) for _ in range(QUERIES)
    )
    return Inputs(sweep_levels, query_list, seed)


def fast_value(kernel: str, machine: str, bs: float, nbs: float) -> float:
    """The ``ns_per_fma`` a sweep stores for one point, computed in-process."""
    config = get_kernel(kernel).config(
        broadcast_sparsity=bs, nonbroadcast_sparsity=nbs, k_steps=K_STEPS
    )
    result = simulate_config(config, MACHINES[machine], "fast")
    return result.time_ns / result.fma_count


def write_round(inputs: Inputs, store: Path) -> float:
    """Both sweeps into a fresh store; returns wall seconds."""
    start = time.perf_counter()
    for (kernel, machine), (bs, nbs) in zip(SWEEPS, inputs.levels):
        streamsweep.stream_sweep(
            kernel, MACHINES[machine], bs, nbs, store,
            engine="fast", k_steps=K_STEPS,
        )
    return time.perf_counter() - start


def verify_round(
    inputs: Inputs, store: Path, rng: random.Random, outcome: Outcome
) -> None:
    """Row count and grid equal the sweep's; sampled rows re-simulate equal."""
    reader = SweepStore(store)
    for (kernel, machine), (bs, nbs) in zip(SWEEPS, inputs.levels):
        rows = list(reader.query(kernel=kernel))
        got = sorted((row["bs"], row["nbs"]) for row in rows)
        want = sorted((b, n) for b in bs for n in nbs)
        if not outcome.check(
            got == want, f"{kernel}: store holds {len(rows)} rows, grid {len(want)}"
        ):
            continue
        for row in rng.sample(rows, min(CHECKED_ROWS, len(rows))):
            expected = fast_value(kernel, machine, row["bs"], row["nbs"])
            outcome.check(
                row["value"] == expected,
                f"{kernel} ({row['bs']}, {row['nbs']}): stored {row['value']}, "
                f"simulate_config gives {expected}",
            )


def _in_range(levels: tuple[float, ...], bounds: tuple[float, float]) -> int:
    return bisect.bisect_right(levels, bounds[1]) - bisect.bisect_left(
        levels, bounds[0]
    )


def expected_rows(inputs: Inputs, query: Query) -> tuple[int, int]:
    """(rows the query must return, rows its sweeps hold)."""
    returned = scanned = 0
    for (kernel, _), (bs, nbs) in zip(SWEEPS, inputs.levels):
        if query.kernel not in (None, kernel):
            continue
        returned += _in_range(bs, query.bs_range) * _in_range(nbs, query.nbs_range)
        scanned += len(bs) * len(nbs)
    return returned, scanned


class Reader:
    """Times queries against one store and checks their row counts."""

    def __init__(self, inputs: Inputs, store: Path, outcome: Outcome) -> None:
        self.inputs = inputs
        self.store = SweepStore(store)
        self.outcome = outcome
        self.latencies: list[float] = []
        self.scanned = 0
        self.returned = 0

    def aggregate(self) -> None:
        start = time.perf_counter()
        groups = self.store.aggregate(("kernel",), reduce="count")
        self.latencies.append(time.perf_counter() - start)
        got = {row["kernel"]: row["value"] for row in groups}
        want = {
            kernel: float(len(bs) * len(nbs))
            for (kernel, _), (bs, nbs) in zip(SWEEPS, self.inputs.levels)
        }
        self.outcome.check(got == want, f"aggregate counts {got}, want {want}")

    def query(self, query: Query, tracer: Tracer, ident: int) -> None:
        start = time.perf_counter()
        with tracer.span("store.query", ident):
            rows = list(
                self.store.query(
                    kernel=query.kernel,
                    bs_range=query.bs_range,
                    nbs_range=query.nbs_range,
                )
            )
        self.latencies.append(time.perf_counter() - start)
        returned, scanned = expected_rows(self.inputs, query)
        self.returned += len(rows)
        self.scanned += scanned
        self.outcome.check(
            len(rows) == returned,
            f"{query}: {len(rows)} rows, want {returned}",
        )


def warm_up(work: Path) -> None:
    """A 2x2 sweep and one query, so first-call costs land in set-up."""
    store = work / "warm-up"
    kernel, machine = SWEEPS[0]
    streamsweep.stream_sweep(
        kernel, MACHINES[machine], (0.1, 0.5), (0.2, 0.6), store,
        engine="fast", k_steps=K_STEPS,
    )
    list(SweepStore(store).query(kernel=kernel, bs_range=(0.0, 0.3)))
    shutil.rmtree(store)


def timed(inputs: Inputs, work: Path, seconds: float) -> tuple[dict, Outcome]:
    outcome = Outcome()
    rng = random.Random(inputs.seed)
    write_s = 0.0
    points = 0
    store: Optional[Path] = None
    for round_index in itertools.count():
        if store is not None:
            shutil.rmtree(store)
        store = work / f"round-{round_index}"
        try:
            write_s += write_round(inputs, store)
            points += inputs.points_per_round
        except Exception as error:  # noqa: BLE001 - counted as a failure
            outcome.fail(f"round {round_index}: {type(error).__name__}: {error}")
            break
        verify_round(inputs, store, rng, outcome)
        if write_s >= WRITE_SHARE * seconds:
            break
    reader = Reader(inputs, store, outcome)
    quiet = Tracer(record=False)
    reader.aggregate()
    start = time.perf_counter()
    for index in itertools.count():
        reader.query(inputs.queries[index % len(inputs.queries)], quiet, index)
        if time.perf_counter() - start >= (1.0 - WRITE_SHARE) * seconds:
            break
    if not points:
        raise RuntimeError("no sweep completed")
    return {
        "points_per_s": points / write_s,
        "latency_p50_ms": percentile(reader.latencies, 0.50) * 1000.0,
        "latency_tail_ms": (
            windowed_percentile(reader.latencies, TAIL, TAIL_WINDOWS) * 1000.0
        ),
        "peak_rss_mb": peak_rss_mb(),
    }, outcome


def _store_footprint(store: Path) -> tuple[int, int]:
    segments = sum(len(m["segments"]) for m in SweepStore(store).manifests())
    size = sum(path.stat().st_size for path in store.rglob("*") if path.is_file())
    return segments, size


def _pass(
    inputs: Inputs, store: Path, tracer: Tracer, outcome: Outcome
) -> tuple[float, Reader]:
    """One round and the first ``TRACED_QUERIES`` queries; wall seconds."""
    start = time.perf_counter()
    write_round(inputs, store)
    reader = Reader(inputs, store, outcome)
    for index, query in enumerate(inputs.queries[:TRACED_QUERIES]):
        reader.query(query, tracer, index)
    return time.perf_counter() - start, reader


def fast_errors(inputs: Inputs, rng: random.Random) -> list[float]:
    """Fast-vs-exact relative cycle error on sampled points of the sweeps."""
    return [
        fast_rel_error(
            get_kernel(kernel).config(
                broadcast_sparsity=rng.choice(bs),
                nonbroadcast_sparsity=rng.choice(nbs),
                k_steps=K_STEPS,
            ),
            MACHINES[machine],
        )
        for (kernel, machine), (bs, nbs) in zip(SWEEPS, inputs.levels)
        for _ in range(ERROR_SAMPLE)
    ]


def traced(inputs: Inputs, work: Path) -> tuple[dict, Outcome, Tracer]:
    outcome = Outcome()
    rng = random.Random(inputs.seed)
    untraced_wall, _ = _pass(inputs, work / "untraced", Tracer(record=False), outcome)
    verify_round(inputs, work / "untraced", rng, outcome)

    tracer = Tracer()
    store = work / "traced"
    with tracer:
        tracer.wrap(streamsweep, "stream_sweep", "experiments.stream_sweep")
        tracer.wrap(SimExecutor, "map", "experiments.executor.map")
        tracer.wrap(TraceArrays, "from_config", "fastsim.replay")
        tracer.wrap(fastsim_engine, "simulate_arrays", "fastsim.estimate")
        tracer.wrap(SweepWriter, "append_batch", "store.append_batch")
        tracer.wrap(SweepWriter, "flush", "store.flush")
        traced_wall, reader = _pass(inputs, store, tracer, outcome)
    verify_round(inputs, store, rng, outcome)

    points = inputs.points_per_round
    segments, size = _store_footprint(store)
    store_spans = ("store.append_batch", "store.flush")
    write_ns = sum(
        span.duration_ns
        for span in tracer.spans
        if span.name in store_spans
        and (span.parent is None or span.parent.name not in store_spans)
    )
    errors = fast_errors(inputs, rng)
    metrics = {
        "experiments.streamsweep_self_ms": tracer.self_ms("experiments.stream_sweep"),
        "experiments.executor_self_ms": tracer.self_ms("experiments.executor.map"),
        "fastsim.replay_ms_per_point": tracer.total_ms("fastsim.replay") / points,
        "fastsim.estimate_ms_per_point": tracer.total_ms("fastsim.estimate") / points,
        "store.write_ms_per_segment": write_ns / 1e6 / segments,
        "store.segments_written": segments,
        "store.bytes_on_disk": size,
        "store.rows_scanned_per_row_returned": reader.scanned / reader.returned,
        "fast_rel_error_p50": statistics.median(errors),
        "fast_rel_error_max": max(errors),
        "bench.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    return metrics, outcome, tracer


class Workload:
    def __init__(self, seed: int, work: Path) -> None:
        self.inputs = make_inputs(seed)
        self.work = work
        warm_up(work)

    def timed(self, seconds: float) -> tuple[dict, Outcome]:
        return timed(self.inputs, self.work, seconds)

    def traced(self) -> tuple[dict, Outcome, Tracer]:
        return traced(self.inputs, self.work)

    def close(self) -> None:
        pass
