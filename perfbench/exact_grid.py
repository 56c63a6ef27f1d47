"""Workload ``exact_grid``: figure regeneration on the exact engine.

Serial :meth:`SimExecutor.map` of exact-engine :class:`PointJob` s at
``k_steps=24`` (the depth the fast tier is calibrated at), over five
library kernels on the paper's three machines and a seeded sparsity
grid.  ``repro.core`` does nearly all the work; neither the service nor
the sweep store runs.

Every sparsity level lies on a fixed 9-level lattice, which is what lets
a committed reference (``reference/exact_grid.json``, written by
``make_reference.py``) hold the digest of every point any seed can ask
for; the seed decides which lattice cells each kernel and machine run.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro.core.pipeline as pipeline
from repro.core.config import BASELINE_2VPU, SAVE_1VPU, SAVE_2VPU
from repro.experiments.executor import PointJob, SimExecutor
from repro.fastsim import simulate_config
from repro.kernels.library import get_kernel, trace_stream

from common import Outcome, peak_rss_mb, percentile
from tracer import Tracer

KERNELS = (
    "resnet2_2_fwd",  # mixed BF16 (the kernel's default precision)
    "resnet3_2_bwd_weights",
    "resnet3_2_bwd_input",
    "explicit_wide",
    "embedded_tall",
)
MACHINES = {
    "SAVE_2VPU": SAVE_2VPU,
    "SAVE_1VPU": SAVE_1VPU,
    "BASELINE_2VPU": BASELINE_2VPU,
}
SAVE_MACHINES = ("SAVE_2VPU", "SAVE_1VPU")
K_STEPS = 24
#: Tail percentile: a 25 s run times 300-470 points, 15 or more beyond p95.
TAIL = 0.95
#: Sparsity levels any seed can draw, on both axes.
LATTICE = (0.05, 0.10, 0.15, 0.40, 0.45, 0.50, 0.80, 0.85, 0.90)
#: Lattice cells per (kernel, machine) pair: 9 x 15 = 135 points.
CELLS = len(LATTICE)
REFERENCE = Path(__file__).resolve().parent / "reference" / "exact_grid.json"

#: ``SimResult`` statistics covered by the per-point digest.
STAT_FIELDS = (
    "cycles",
    "uop_count",
    "fma_count",
    "vpu_ops",
    "vpu_lane_slots",
    "effectual_lanes",
    "pass_through_lanes",
    "skipped_fmas",
    "stall_rob_cycles",
    "stall_rs_cycles",
    "mgu_processed",
    "l1_port_accesses",
    "b_cache_hit_rate",
    "b_cache_reads_saved",
    "mean_cw",
    "prf_peak_base",
    "prf_peak_copies",
)

#: Per-layer simulated statistics: metric name -> ``SimResult`` field.
SIM_STATS = {
    "core.sim_cycles": "cycles",
    "core.uops": "uop_count",
    "core.vpu_ops": "vpu_ops",
    "core.effectual_lanes": "effectual_lanes",
    "core.pass_through_lanes": "pass_through_lanes",
    "core.skipped_fmas": "skipped_fmas",
    "core.mgu_processed": "mgu_processed",
    "core.stall_rob_cycles": "stall_rob_cycles",
    "core.stall_rs_cycles": "stall_rs_cycles",
    "memory.l1_port_accesses": "l1_port_accesses",
    "memory.bcache_reads_saved": "b_cache_reads_saved",
}

#: The per-layer metrics this workload measures; the others are 0 here.
PER_LAYER = (
    "kernels.trace_ms_per_point",
    "core.simulate_ms_per_point",
    "core.self_ms_per_point",
    "core.host_ns_per_sim_cycle",
    *SIM_STATS,
    "experiments.executor_self_ms",
    "fast_rel_error_p50",
    "fast_rel_error_max",
    "bench.trace_overhead_frac",
)


@dataclass(frozen=True)
class Point:
    kernel: str
    machine: str
    bs: float
    nbs: float

    @property
    def key(self) -> str:
        return f"{self.kernel}|{self.machine}|{self.bs:.2f}|{self.nbs:.2f}"

    def job(self) -> PointJob:
        config = get_kernel(self.kernel).config(
            broadcast_sparsity=self.bs,
            nonbroadcast_sparsity=self.nbs,
            k_steps=K_STEPS,
        )
        return PointJob(config=config, machine=MACHINES[self.machine])


def grid(bs_levels: list[float], nbs_levels: list[float]) -> list[Point]:
    return [
        Point(kernel, machine, bs, nbs)
        for kernel in KERNELS
        for machine in MACHINES
        for bs in bs_levels
        for nbs in nbs_levels
    ]


def make_inputs(seed: int) -> list[Point]:
    """The seeded grid, in a balanced seeded order.

    Each (kernel, machine) pair gets its own Latin-hypercube sample of
    the lattice: every level appears once per axis, and the seed decides
    how broadcast and non-broadcast levels pair up.  The cost of a grid
    therefore barely depends on the seed.  Points are ordered in rounds
    that visit every pair once, so any prefix of the order holds the
    pairs in equal shares.
    """
    rng = random.Random(seed)
    pairs = [(kernel, machine) for kernel in KERNELS for machine in MACHINES]
    samples = {}
    for pair in pairs:
        bs_levels = list(LATTICE)
        nbs_levels = list(LATTICE)
        rng.shuffle(bs_levels)
        rng.shuffle(nbs_levels)
        samples[pair] = list(zip(bs_levels, nbs_levels))[:CELLS]
    points = []
    for round_index in range(CELLS):
        rng.shuffle(pairs)
        points += [Point(*pair, *samples[pair][round_index]) for pair in pairs]
    return points


def digest(result: Any) -> str:
    stats = [getattr(result, field) for field in STAT_FIELDS]
    return hashlib.sha256(json.dumps(stats).encode()).hexdigest()[:16]


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())["digests"]


class Runner:
    """Runs points one ``map`` call each, keeping every ``SimResult``."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.executor = SimExecutor(jobs=1)
        self.jobs: dict[Point, PointJob] = {}
        self._results: list[Any] = []

    def watch(self, tracer: Tracer) -> None:
        """Install the wrappers (spans only if the tracer records)."""
        tracer.wrap(SimExecutor, "map", "experiments.executor.map")
        tracer.wrap(
            pipeline, "simulate", "core.simulate", on_result=self._results.append
        )

    def run(self, point: Point, tracer: Tracer, ident: Any) -> tuple[float, Any]:
        """Simulate one point; returns (latency seconds, record)."""
        job = self.jobs.get(point)
        if job is None:
            job = self.jobs[point] = point.job()
        start = time.perf_counter()
        with tracer.span("bench.point", ident):
            [value] = self.executor.map([job])
        latency = time.perf_counter() - start
        return latency, (point, value, self._results.pop())

    def verify(self, records: list[tuple], outcome: Outcome) -> None:
        for point, value, result in records:
            expected = self.reference.get(point.key)
            if expected is None:
                outcome.fail(f"{point.key}: no reference digest")
            elif digest(result) != expected:
                outcome.fail(f"{point.key}: statistics digest differs")
            else:
                outcome.check(
                    value == result.time_ns,
                    f"{point.key}: map returned {value}, result has "
                    f"{result.time_ns}",
                )

    def run_points(
        self, points: list[Point], tracer: Tracer, outcome: Outcome
    ) -> tuple[float, list[tuple]]:
        """One pass over ``points``; returns (wall seconds, records)."""
        records = []
        start = time.perf_counter()
        for index, point in enumerate(points):
            try:
                records.append(self.run(point, tracer, index)[1])
            except Exception as error:  # noqa: BLE001 - counted as a failure
                outcome.fail(f"{point.key}: {type(error).__name__}: {error}")
        return time.perf_counter() - start, records


def warm_up(runner: Runner) -> None:
    """One cheap point, so lazy imports and first-call costs land in set-up."""
    with Tracer(record=False) as tracer:
        runner.watch(tracer)
        runner.run(Point(KERNELS[2], "BASELINE_2VPU", 0.5, 0.5), tracer, None)


def timed(
    points: list[Point], runner: Runner, seconds: float
) -> tuple[dict, Outcome]:
    """Loop over the grid until ``seconds`` pass; time each point."""
    outcome = Outcome()
    latencies: list[float] = []
    records: list[tuple] = []
    with Tracer(record=False) as tracer:
        runner.watch(tracer)
        start = time.perf_counter()
        index = 0
        while True:
            point = points[index % len(points)]
            try:
                latency, record = runner.run(point, tracer, index)
                latencies.append(latency)
                records.append(record)
            except Exception as error:  # noqa: BLE001 - counted as a failure
                outcome.fail(f"{point.key}: {type(error).__name__}: {error}")
            index += 1
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
    runner.verify(records, outcome)
    if not latencies:
        raise RuntimeError("no point completed")
    return {
        "points_per_s": len(latencies) / elapsed,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_tail_ms": percentile(latencies, TAIL) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    }, outcome


def fast_errors(records: list[tuple]) -> list[float]:
    """Fast-vs-exact relative cycle error on the SAVE-machine points."""
    errors = []
    for point, exact_ns, _ in records:
        if point.machine not in SAVE_MACHINES:
            continue  # baseline machines are exact by construction
        job = point.job()
        fast_ns = simulate_config(job.config, job.machine, "fast").time_ns
        errors.append(abs(fast_ns - exact_ns) / exact_ns)
    return errors


def traced(points: list[Point], runner: Runner) -> tuple[dict, Outcome, Tracer]:
    """One untraced and one traced pass over the grid, then the trace drain."""
    outcome = Outcome()
    with Tracer(record=False) as quiet:
        runner.watch(quiet)
        untraced_wall, records = runner.run_points(points, quiet, outcome)
    runner.verify(records, outcome)

    tracer = Tracer()
    with tracer:
        runner.watch(tracer)
        traced_wall, records = runner.run_points(points, tracer, outcome)
    runner.verify(records, outcome)
    results = [result for _, _, result in records]

    # Trace generation alone: drain each point's µop stream.
    for index, point in enumerate(points):
        with tracer.span("kernels.trace", index):
            for _ in trace_stream(runner.jobs[point].config).iter_uops():
                pass

    count = len(records)
    simulate_ms = tracer.total_ms("core.simulate")
    trace_ms = tracer.total_ms("kernels.trace")
    cycles = sum(result.cycles for result in results)
    errors = fast_errors(records)
    metrics = {
        "kernels.trace_ms_per_point": trace_ms / count,
        "core.simulate_ms_per_point": simulate_ms / count,
        "core.self_ms_per_point": (simulate_ms - trace_ms) / count,
        "core.host_ns_per_sim_cycle": simulate_ms * 1e6 / cycles,
        "experiments.executor_self_ms": tracer.self_ms("experiments.executor.map"),
        "fast_rel_error_p50": statistics.median(errors),
        "fast_rel_error_max": max(errors),
        "bench.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
    }
    for name, field in SIM_STATS.items():
        metrics[name] = sum(getattr(result, field) for result in results)
    return metrics, outcome, tracer


class Workload:
    def __init__(self, seed: int, work: Path) -> None:
        self.points = make_inputs(seed)
        self.runner = Runner(load_reference())
        warm_up(self.runner)

    def timed(self, seconds: float) -> tuple[dict, Outcome]:
        return timed(self.points, self.runner, seconds)

    def traced(self) -> tuple[dict, Outcome, Tracer]:
        return traced(self.points, self.runner)

    def close(self) -> None:
        pass
