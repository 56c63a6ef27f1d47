"""2D sparsity surfaces — the paper's sampling methodology (Sec. VI).

"For each layer, we simulate SAVE with both weight and activation
sparsities of 0%-90% at 10% intervals ... The result is a 2D surface of
execution times ... we linearly map the profiled weight and activation
sparsities to the 2D surface" — we do exactly this: the detailed
pipeline simulates a kernel's steady-state inner loop at grid points of
(broadcasted, non-broadcasted) sparsity, and whole-network estimators
interpolate bilinearly.

Because each grid point is a full cycle-level simulation, surfaces are
memoised in a :class:`SurfaceStore` (JSON on disk), keyed by the
canonical series of the surface's jobs (kernel config, full machine,
engine) and its grid.
"""

from __future__ import annotations

import json
from collections import OrderedDict
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
from repro.fsio import FileLock, atomic_write_text, canonical_fingerprint
from repro.kernels.gemm import GemmKernelConfig
from repro.kernels.library import trace_stream
from repro.kernels.tiling import Precision, RegisterTile
from repro.obs import maybe_span

#: Bump when the kernel generator's layout/µop stream changes, so
#: stale cached surfaces are never reused.
TRACE_GENERATOR_VERSION = 2

#: Code/schema version of the on-disk surface cache.  It is part of
#: every disk key *and* stamped inside each entry, so entries written
#: by an older build are invalidated (left orphaned, rebuilt under a
#: new key) instead of silently reused.  Bump on any change to the
#: simulator, the surface payload layout, or the key recipe.
#: v2: keyed by the canonical series (every machine field), not by
#: the machine's display label.
SURFACE_SCHEMA_VERSION = 2

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

    def to_json(self) -> dict:
        return {
            "levels": list(self.levels),
            "ns_per_fma": self.ns_per_fma.tolist(),
            "label": self.label,
            "engine": self.engine,
        }

    @classmethod
    def from_json(cls, payload: dict) -> SparsitySurface:
        return cls(
            levels=payload["levels"],
            ns_per_fma=np.array(payload["ns_per_fma"]),
            label=payload.get("label", ""),
            engine=payload.get("engine", "exact"),
        )

    @classmethod
    def build(
        cls,
        tile: RegisterTile,
        precision: Precision,
        machine: MachineConfig,
        levels: Sequence[float] = COARSE_LEVELS,
        k_steps: int = 24,
        seed: int = 0,
        executor: Optional[SimExecutor] = None,
        engine: str = "exact",
        store_root: Optional[Path] = None,
        store_overwrite: bool = False,
    ) -> SparsitySurface:
        """Simulate the full grid (the expensive path; memoise it).

        All ``n × n`` grid points are independent simulations; they go
        to the executor as one batch, so a parallel executor fills the
        whole surface concurrently.  Results come back in job order, so
        the surface is identical whichever backend ran it.  ``engine``
        selects the tier for *every* point and is recorded on the
        surface.

        With ``store_root`` set, the grid values are also appended to
        the columnar sweep store (kernel ``"surface"``, metric
        ``ns_per_fma``) so the surface stays queryable via
        ``repro query`` alongside streamed sweeps.
        """
        n = len(levels)
        runner = default_executor(executor)
        series = surface_series(tile, precision, machine, k_steps, seed, engine)
        label = machine_label(machine)
        points = [(bs, nbs) for bs in levels for nbs in levels]
        with maybe_span(runner.spans, "surface.build", machine=label, grid=n * n):
            flat = runner.map([series.at(bs, nbs) for bs, nbs in points])
            values = np.array(flat).reshape(n, n)
        if store_root is not None:
            from repro.store import SweepWriter

            with SweepWriter(store_root, series, overwrite=store_overwrite) as writer:
                writer.append_batch(
                    [bs for bs, _ in points], [nbs for _, nbs in points], flat
                )
        return cls(levels=levels, ns_per_fma=values, label=label, engine=engine)


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


class SurfaceStore:
    """Disk-backed memoisation of sparsity surfaces.

    Args:
        directory: cache directory (defaults to the repo-level
            ``.surface_cache``).
        executor: used to fill missing surfaces' grid points; a
            parallel :class:`SimExecutor` builds each surface as one
            concurrent batch.  ``None`` means serial.
        memo_size: capacity of the in-memory LRU memo.  Repeated
            ``get()`` calls in one process hit the memo instead of
            re-reading and re-parsing the JSON cache file; least
            recently used surfaces are evicted beyond this size.
    """

    def __init__(
        self,
        directory: Optional[Path] = None,
        executor: Optional[SimExecutor] = None,
        memo_size: int = 256,
    ) -> None:
        if directory is None:
            directory = Path(__file__).resolve().parents[3] / ".surface_cache"
        if memo_size <= 0:
            raise ValueError("memo_size must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.executor = executor
        self.memo_size = memo_size
        self._memory: OrderedDict[str, SparsitySurface] = OrderedDict()

    def _memo_put(self, key: str, surface: SparsitySurface) -> None:
        memory = self._memory
        memory[key] = surface
        memory.move_to_end(key)
        while len(memory) > self.memo_size:
            memory.popitem(last=False)

    @staticmethod
    def _key(series: PointJob, levels: Sequence[float]) -> str:
        return canonical_fingerprint(
            {
                "schema": SURFACE_SCHEMA_VERSION,
                "generator": TRACE_GENERATOR_VERSION,
                "series": series.canonical_series(),
                "levels": list(levels),
            }
        )

    def get(
        self,
        tile: RegisterTile,
        precision: Precision,
        machine: MachineConfig,
        levels: Sequence[float] = COARSE_LEVELS,
        k_steps: int = 24,
        executor: Optional[SimExecutor] = None,
        engine: str = "exact",
    ) -> SparsitySurface:
        """Fetch (memory → disk → simulate) a surface.

        A miss simulates every grid point in one executor batch and
        publishes the disk entry with one atomic replace.  The
        build-and-write runs under a per-entry advisory
        :class:`repro.fsio.FileLock`, so two processes missing on the
        same key simulate it once: the second blocks, then reads the
        first's result from disk.  The key is the canonical series
        (kernel config, every machine field, ``engine``) plus the grid,
        so surfaces of different machines or tiers never collide.
        """
        key = self._key(
            surface_series(tile, precision, machine, k_steps, engine=engine),
            levels,
        )
        memo = self._memory.get(key)
        if memo is not None:
            self._memory.move_to_end(key)
            return memo
        path = self.directory / f"{key}.json"
        surface = self._read_entry(path)
        if surface is None:
            with FileLock(path.with_suffix(".lock")):
                # Double-checked under the lock: a concurrent builder
                # may have published the entry while we waited.
                surface = self._read_entry(path)
                if surface is None:
                    surface = SparsitySurface.build(
                        tile,
                        precision,
                        machine,
                        levels=levels,
                        k_steps=k_steps,
                        executor=executor if executor is not None else self.executor,
                        engine=engine,
                    )
                    atomic_write_text(
                        path,
                        json.dumps(
                            {
                                "schema": SURFACE_SCHEMA_VERSION,
                                "surface": surface.to_json(),
                            }
                        ),
                    )
        self._memo_put(key, surface)
        return surface

    @staticmethod
    def _read_entry(path: Path) -> Optional[SparsitySurface]:
        """Load one disk entry; ``None`` on miss, stale schema or damage.

        Unreadable entries (pre-envelope format, torn or truncated
        JSON, schema mismatch) are treated as misses and rebuilt rather
        than raising — the cache must never be able to wedge a run.
        """
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != SURFACE_SCHEMA_VERSION
        ):
            return None
        try:
            return SparsitySurface.from_json(payload["surface"])
        except (KeyError, TypeError, ValueError):
            return None
