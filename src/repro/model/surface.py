"""2D sparsity surfaces — the paper's sampling methodology (Sec. VI).

"For each layer, we simulate SAVE with both weight and activation
sparsities of 0%-90% at 10% intervals ... The result is a 2D surface of
execution times ... we linearly map the profiled weight and activation
sparsities to the 2D surface" — we do exactly this: the detailed
pipeline simulates a kernel's steady-state inner loop at grid points of
(broadcasted, non-broadcasted) sparsity, and whole-network estimators
interpolate bilinearly.

Because each grid point is a full cycle-level simulation, the points
live in the columnar sweep store (:mod:`repro.store`): one sweep per
series (kernel config, full machine, engine), holding each point once.
A surface reads the points of its grid from the sweep and simulates
only the missing ones, so grids of one series share their points.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional
from collections.abc import Sequence

import numpy as np

from repro.core.config import MachineConfig, machine_label
from repro.core.pipeline import simulate
from repro.experiments.executor import (
    METRIC_NS_PER_FMA,
    PointJob,
    SimExecutor,
    default_executor,
)
from repro.kernels.gemm import GemmKernelConfig
from repro.kernels.library import trace_stream
from repro.kernels.tiling import Precision, RegisterTile
from repro.obs import maybe_span
from repro.store import SweepStore, SweepWriter

#: The paper's grid: 0%-90% at 10% intervals.
PAPER_LEVELS = tuple(round(0.1 * i, 1) for i in range(10))

#: Coarse grid for quick runs (tests, default benchmarks).
COARSE_LEVELS = (0.0, 0.3, 0.6, 0.9)


def point_config(
    tile: RegisterTile,
    precision: Precision,
    bs: float,
    nbs: float,
    k_steps: int = 24,
    seed: int = 0,
) -> GemmKernelConfig:
    """The trace config of one surface grid point."""
    return GemmKernelConfig(
        name="surface",
        tile=tile,
        k_steps=k_steps,
        precision=precision,
        broadcast_sparsity=bs,
        nonbroadcast_sparsity=nbs,
        seed=seed,
    )


def surface_series(
    tile: RegisterTile,
    precision: Precision,
    machine: MachineConfig,
    k_steps: int = 24,
    seed: int = 0,
    engine: str = "exact",
) -> PointJob:
    """The job every grid point of one surface shares (at ``(0, 0)``)."""
    return PointJob(
        config=point_config(tile, precision, 0.0, 0.0, k_steps, seed),
        machine=machine,
        metric=METRIC_NS_PER_FMA,
        engine=engine,
    )


def simulate_point(
    tile: RegisterTile,
    precision: Precision,
    machine: MachineConfig,
    bs: float,
    nbs: float,
    k_steps: int = 24,
    seed: int = 0,
) -> float:
    """One grid point: steady-state nanoseconds per VFMA instruction."""
    trace = trace_stream(point_config(tile, precision, bs, nbs, k_steps, seed))
    result = simulate(trace, machine, keep_state=False)
    return result.time_ns / result.fma_count


@dataclass
class SparsitySurface:
    """Execution time over the (BS, NBS) grid for one kernel/machine."""

    levels: Sequence[float]
    #: ns per VFMA, indexed ``[bs_index, nbs_index]``.
    ns_per_fma: np.ndarray
    label: str = ""
    #: Engine tier that produced every point ("exact", "fast",
    #: "analytic") — surfaces never mix tiers.
    engine: str = "exact"

    def __post_init__(self) -> None:
        self.ns_per_fma = np.asarray(self.ns_per_fma, dtype=float)
        n = len(self.levels)
        if self.ns_per_fma.shape != (n, n):
            raise ValueError("surface shape must match the grid")

    def interpolate(self, bs: float, nbs: float) -> float:
        """Bilinear interpolation, clamped to the grid's range."""
        return float(_bilinear(self.levels, self.ns_per_fma, bs, nbs))

    @classmethod
    def build(
        cls,
        tile: RegisterTile,
        precision: Precision,
        machine: MachineConfig,
        store_root: Path,
        levels: Sequence[float] = COARSE_LEVELS,
        k_steps: int = 24,
        seed: int = 0,
        executor: Optional[SimExecutor] = None,
        engine: str = "exact",
    ) -> SparsitySurface:
        """The surface over ``levels``², read from and filled into a store.

        The grid's points are read from the series' sweep under
        ``store_root`` without a lock.  If any are missing, the sweep's
        writer is opened (which takes its lock), the points are checked
        again against what it holds, and only those still missing go to
        the executor as one batch and are appended.  Two processes
        missing the same points thus simulate them once, and a grid
        reuses the points another grid of the same series stored.
        Results come back in job order, so the surface is identical
        whichever backend ran it.  ``engine`` selects the tier for
        *every* point and is recorded on the surface.
        """
        n = len(levels)
        series = surface_series(tile, precision, machine, k_steps, seed, engine)
        label = machine_label(machine)
        points = [(float(bs), float(nbs)) for bs in levels for nbs in levels]
        values = SweepStore(store_root).points(series)
        if any(point not in values for point in points):
            runner = default_executor(executor)
            with SweepWriter(store_root, series) as writer:
                values = dict(writer.stored)
                missing = [p for p in dict.fromkeys(points) if p not in values]
                with maybe_span(runner.spans, "surface.build", machine=label, grid=n * n):
                    fresh = runner.map([series.at(bs, nbs) for bs, nbs in missing])
                writer.append_batch(
                    [bs for bs, _ in missing], [nbs for _, nbs in missing], fresh
                )
                values.update(zip(missing, fresh))
        grid = np.array([values[point] for point in points]).reshape(n, n)
        return cls(levels=levels, ns_per_fma=grid, label=label, engine=engine)


def _bilinear(levels: Sequence[float], grid: np.ndarray, x: float, y: float) -> float:
    levels = np.asarray(levels, dtype=float)
    if len(levels) == 1:
        return float(grid[0, 0])
    x = float(np.clip(x, levels[0], levels[-1]))
    y = float(np.clip(y, levels[0], levels[-1]))
    xi = int(np.searchsorted(levels, x) - 1)
    yi = int(np.searchsorted(levels, y) - 1)
    xi = max(0, min(xi, len(levels) - 2))
    yi = max(0, min(yi, len(levels) - 2))
    x0, x1 = levels[xi], levels[xi + 1]
    y0, y1 = levels[yi], levels[yi + 1]
    tx = 0.0 if x1 == x0 else (x - x0) / (x1 - x0)
    ty = 0.0 if y1 == y0 else (y - y0) / (y1 - y0)
    v00, v01 = grid[xi, yi], grid[xi, yi + 1]
    v10, v11 = grid[xi + 1, yi], grid[xi + 1, yi + 1]
    return (
        v00 * (1 - tx) * (1 - ty)
        + v01 * (1 - tx) * ty
        + v10 * tx * (1 - ty)
        + v11 * tx * ty
    )
