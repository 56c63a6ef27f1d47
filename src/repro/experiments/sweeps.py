"""Shared kernel-sweep machinery for the kernel-level figures (15-19).

A sweep runs one named kernel at a grid of sparsity levels under several
machine configurations and reports speedups over the paper's baseline
(two 512-bit VPUs at 1.7 GHz, no SAVE).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional
from collections.abc import Sequence

from repro.core.config import BASELINE_2VPU, MachineConfig
from repro.core.pipeline import simulate
from repro.experiments.executor import PointJob, SimExecutor, default_executor
from repro.kernels.library import KernelSpec, trace_stream
from repro.kernels.tiling import Precision
from repro.obs import maybe_span

#: Default sparsity grid for quick sweeps (the paper uses 10% steps;
#: pass ``full_grid=True`` to experiment runners for that resolution).
QUICK_LEVELS: tuple[float, ...] = (0.0, 0.3, 0.6, 0.9)
PAPER_SWEEP_LEVELS: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(10))


def kernel_time_ns(
    spec: KernelSpec,
    machine: MachineConfig,
    bs: float,
    nbs: float,
    precision: Optional[Precision] = None,
    k_steps: int = 24,
    seed: int = 0,
) -> float:
    """Simulated execution time of one kernel configuration."""
    trace = trace_stream(
        spec.config(
            broadcast_sparsity=bs,
            nonbroadcast_sparsity=nbs,
            precision=precision,
            k_steps=k_steps,
            seed=seed,
        )
    )
    return simulate(trace, machine, keep_state=False).time_ns


@dataclass
class SweepResult:
    """Speedups over the baseline for one machine configuration."""

    label: str
    #: (bs, nbs) → speedup.
    speedups: dict[tuple[float, float], float]

    def series(self, bs: float) -> list[float]:
        """Speedups along the NBS axis at fixed BS (a Fig. 15/17 line)."""
        return [v for (b, _n), v in sorted(self.speedups.items()) if b == bs]


def sweep_kernel(
    spec: KernelSpec,
    machines: dict[str, MachineConfig],
    bs_levels: Sequence[float],
    nbs_levels: Sequence[float],
    precision: Optional[Precision] = None,
    k_steps: int = 24,
    baseline: MachineConfig = BASELINE_2VPU,
    seed: int = 0,
    executor: Optional[SimExecutor] = None,
    engine: str = "exact",
    mechanism: str = "save",
) -> dict[str, SweepResult]:
    """Sweep one kernel over the sparsity grid under each machine.

    The baseline time is measured once at dense inputs (its time is
    sparsity-independent) and every (machine, bs, nbs) point's speedup
    is relative to it — matching the figures' y-axes.  ``mechanism``
    applies to the machine points only: the baseline is the shared
    dense reference every mechanism's speedup is measured against (the
    fair-comparison policy, docs/methodology.md).

    Every point of the (machine, bs, nbs) product — plus the baseline
    point — is an independent simulation; the whole sweep goes to the
    executor as one batch.  Results return in job order, so a parallel
    sweep's speedup dicts are identical to a serial one's.  ``engine``
    selects the tier for every point, baseline included, so speedup
    ratios never mix tiers.
    """
    base = spec.config(precision=precision, k_steps=k_steps, seed=seed)
    series = [
        PointJob(config=base, machine=machine, engine=engine, mechanism=mechanism)
        for machine in machines.values()
    ]
    points = [(bs, nbs) for bs in bs_levels for nbs in nbs_levels]
    jobs = [PointJob(config=base, machine=baseline, engine=engine)]
    for job in series:
        jobs.extend(job.at(bs, nbs) for bs, nbs in points)
    runner = default_executor(executor)
    times = runner.map(jobs)
    base_time, point_times = times[0], times[1:]
    with maybe_span(runner.spans, "sweep.assemble", kernel=spec.name):
        results: dict[str, SweepResult] = {}
        for m_index, label in enumerate(machines):
            speedups: dict[tuple[float, float], float] = {}
            for p_index, (bs, nbs) in enumerate(points):
                time = point_times[m_index * len(points) + p_index]
                speedups[(round(bs, 2), round(nbs, 2))] = base_time / time
            results[label] = SweepResult(label, speedups)
    return results
