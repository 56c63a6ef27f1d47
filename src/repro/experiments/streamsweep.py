"""Out-of-core sparsity sweeps: bounded memory at any grid size.

:func:`stream_sweep` is the scale path to the ROADMAP's million-point
target: it walks the (BS, NBS) product lazily, simulates in fixed-size
batches through the :class:`repro.experiments.executor.SimExecutor`,
and appends each batch straight into the columnar sweep store
(:class:`repro.store.SweepWriter`).  On a fresh sweep peak memory is
O(batch + segment), independent of grid size — the property the CI
streaming-smoke job and the ``sweep_throughput`` bench workload pin
down.  A sweep is a growing set of points: a rerun reads what the sweep
holds and simulates only the missing points, so an interrupted sweep
resumes where it stopped.  Resuming holds the stored points in memory
(roughly 200 bytes each).

Results are byte-identical to the batched in-memory paths
(``sweep_kernel``, ``SparsitySurface.build``) for the same grid: the
jobs, their order within the sweep, and the executor semantics are the
same — only the result's resting place differs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Union
from collections.abc import Iterator, Sequence

from repro.core.config import MachineConfig
from repro.experiments.executor import (
    METRIC_NS_PER_FMA,
    PointJob,
    SimExecutor,
    default_executor,
)
from repro.kernels.library import KernelSpec, get_kernel
from repro.kernels.tiling import Precision
from repro.obs import maybe_span
from repro.store import (
    DEFAULT_SEGMENT_ROWS,
    SweepStore,
    SweepWriter,
    sweep_fingerprint,
    sweep_meta,
)

__all__ = ["stream_sweep", "DEFAULT_BATCH_POINTS"]

#: Points simulated per executor batch.  Large enough to amortise
#: executor dispatch, small enough that the in-flight job list and its
#: results stay trivially resident.
DEFAULT_BATCH_POINTS = 2048


def _grid(
    bs_levels: Sequence[float], nbs_levels: Sequence[float]
) -> Iterator[tuple[float, float]]:
    """Lazy row-major (bs, nbs) product — never materializes the grid."""
    for bs in bs_levels:
        for nbs in nbs_levels:
            yield (float(bs), float(nbs))


def stream_sweep(
    kernel: Union[str, KernelSpec],
    machine: MachineConfig,
    bs_levels: Sequence[float],
    nbs_levels: Sequence[float],
    store_root: Union[str, Path],
    engine: str = "fast",
    mechanism: str = "save",
    metric: str = METRIC_NS_PER_FMA,
    precision: Optional[Precision] = None,
    k_steps: int = 24,
    seed: int = 0,
    executor: Optional[SimExecutor] = None,
    batch_points: int = DEFAULT_BATCH_POINTS,
    segment_rows: int = DEFAULT_SEGMENT_ROWS,
) -> dict[str, Any]:
    """Sweep one kernel/machine over a sparsity grid into the store.

    Args:
        kernel: library kernel name or spec.
        machine: the machine configuration to sweep under.
        bs_levels / nbs_levels: sparsity axes (repeats are dropped); the
            sweep covers their full product, batch by batch.
        store_root: sweep-store root directory.
        engine: simulation tier for every point (``fast`` is the tier
            that makes six-figure grids practical).
        mechanism: skip mechanism for every point; rivals require
            ``engine="exact"`` (validated up front, before any store
            directory is created).
        metric: per-point value recorded (``ns_per_fma`` or ``time_ns``).

    Points the sweep already holds are not simulated again.  Returns a
    summary dict: the sweep's fingerprint, its manifest meta columns
    (kernel, machine label, engine, ...), the grid's ``points`` and how
    many of them were ``simulated`` by this call.
    """
    if batch_points <= 0:
        raise ValueError("batch_points must be positive")
    spec = get_kernel(kernel)
    series = PointJob(
        config=spec.config(precision=precision, k_steps=k_steps, seed=seed),
        machine=machine,
        metric=metric,
        engine=engine,
        mechanism=mechanism,
    )
    if mechanism != "save":
        # Fail before the store directory exists: validates the name,
        # the engine pairing, and the config/mechanism compatibility.
        from repro.rivals.mechanisms import resolve_mechanism

        resolve_mechanism(mechanism, series.config, machine, engine)
    bs_levels = list(dict.fromkeys(float(bs) for bs in bs_levels))
    nbs_levels = list(dict.fromkeys(float(nbs) for nbs in nbs_levels))
    summary = {
        "fingerprint": sweep_fingerprint(series),
        **sweep_meta(series),
        "points": len(bs_levels) * len(nbs_levels),
        "simulated": 0,
    }
    stored = SweepStore(store_root).points(series)
    if all(point in stored for point in _grid(bs_levels, nbs_levels)):
        return summary
    del stored  # the writer re-reads the points under the sweep's lock
    runner = default_executor(executor)
    with SweepWriter(store_root, series, segment_rows=segment_rows) as writer:
        points = (p for p in _grid(bs_levels, nbs_levels) if p not in writer.stored)
        with maybe_span(runner.spans, "streamsweep.run", kernel=spec.name):
            while True:
                batch: list[tuple[float, float]] = []
                for point in points:
                    batch.append(point)
                    if len(batch) >= batch_points:
                        break
                if not batch:
                    break
                values = runner.map([series.at(bs, nbs) for bs, nbs in batch])
                writer.append_batch(
                    [bs for bs, _ in batch],
                    [nbs for _, nbs in batch],
                    values,
                )
                summary["simulated"] += len(batch)
    return summary
