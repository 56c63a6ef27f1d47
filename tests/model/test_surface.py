"""Tests for sparsity surfaces, interpolation and their sweep store."""

import threading

import numpy as np
import pytest

from repro.core.config import BASELINE_2VPU, SAVE_2VPU
from repro.experiments.executor import SimExecutor
from repro.fsio import FileLock
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.model.surface import (
    COARSE_LEVELS,
    PAPER_LEVELS,
    SparsitySurface,
    machine_label,
    simulate_point,
    surface_series,
)
from repro.store import SweepStore, sweep_fingerprint

TILE = RegisterTile(2, 2, BroadcastPattern.EXPLICIT)


class TestGrids:
    def test_paper_levels(self):
        assert PAPER_LEVELS == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def test_coarse_levels_subset_range(self):
        assert COARSE_LEVELS[0] == 0.0 and COARSE_LEVELS[-1] == 0.9


class TestInterpolation:
    def surface(self):
        levels = (0.0, 0.5)
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        return SparsitySurface(levels=levels, ns_per_fma=grid)

    def test_exact_grid_points(self):
        surface = self.surface()
        assert surface.interpolate(0.0, 0.0) == 1.0
        assert surface.interpolate(0.0, 0.5) == 2.0
        assert surface.interpolate(0.5, 0.0) == 3.0
        assert surface.interpolate(0.5, 0.5) == 4.0

    def test_midpoint(self):
        assert self.surface().interpolate(0.25, 0.25) == pytest.approx(2.5)

    def test_clamps_outside_grid(self):
        surface = self.surface()
        assert surface.interpolate(0.9, 0.9) == 4.0
        assert surface.interpolate(-1.0, 0.0) == 1.0

    def test_single_point_grid(self):
        surface = SparsitySurface(levels=(0.0,), ns_per_fma=np.array([[7.0]]))
        assert surface.interpolate(0.5, 0.9) == 7.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SparsitySurface(levels=(0.0, 0.5), ns_per_fma=np.zeros((3, 3)))


class TestSimulatedSurfaces:
    def test_simulate_point_positive(self):
        value = simulate_point(TILE, Precision.FP32, BASELINE_2VPU, 0.0, 0.0, k_steps=4)
        assert value > 0

    def test_save_surface_monotone_in_bs(self, tmp_path):
        surface = SparsitySurface.build(
            TILE, Precision.FP32, SAVE_2VPU, tmp_path, levels=(0.0, 0.9), k_steps=8
        )
        assert surface.ns_per_fma[1, 0] <= surface.ns_per_fma[0, 0] * 1.05

    def test_build_shape(self, tmp_path):
        surface = SparsitySurface.build(
            TILE, Precision.FP32, SAVE_2VPU, tmp_path, levels=(0.0, 0.9), k_steps=4
        )
        assert surface.ns_per_fma.shape == (2, 2)
        assert surface.label == machine_label(SAVE_2VPU)


class CountingExecutor(SimExecutor):
    """A serial executor that counts the jobs it runs."""

    def __init__(self):
        super().__init__(jobs=1)
        self.jobs_run = 0

    def map(self, jobs):
        self.jobs_run += len(jobs)
        return super().map(jobs)


def build(root, machine=SAVE_2VPU, levels=(0.0, 0.9), k_steps=4, executor=None):
    return SparsitySurface.build(
        TILE, Precision.FP32, machine, root, levels=levels, k_steps=k_steps,
        executor=executor,
    )


class TestSurfaceStore:
    """A surface's points live in its series' sweep of the store."""

    def test_roundtrip_and_disk_hit(self, tmp_path):
        s1 = build(tmp_path)
        # A second build must read the stored points, not re-simulate.
        counting = CountingExecutor()
        s2 = build(tmp_path, executor=counting)
        assert counting.jobs_run == 0
        assert np.array_equal(s1.ns_per_fma, s2.ns_per_fma)
        assert len(SweepStore(tmp_path).describe()) == 1

    def test_distinct_keys(self, tmp_path):
        build(tmp_path)
        build(tmp_path, machine=BASELINE_2VPU, levels=(0.0,))
        assert len(SweepStore(tmp_path).describe()) == 2

    def test_machine_variant_gets_its_own_surface(self, tmp_path):
        # The two machines share a display label; the sweep key must
        # still tell them apart.
        variant = SAVE_2VPU.with_core(issue_width=4)
        assert machine_label(variant) == machine_label(SAVE_2VPU)
        build(tmp_path, levels=(0.0, 0.5), k_steps=8)
        counting = CountingExecutor()
        stored = build(tmp_path, variant, (0.0, 0.5), 8, executor=counting)
        assert counting.jobs_run == 4  # nothing reused from SAVE_2VPU
        fresh = build(tmp_path / "fresh", variant, (0.0, 0.5), 8)
        assert np.array_equal(stored.ns_per_fma, fresh.ns_per_fma)
        assert len(SweepStore(tmp_path).describe()) == 2

    def test_memory_cache(self, tmp_path):
        # An estimator loads each (machine, tile) surface once and keeps
        # it in memory; there is no process-wide memo.
        from repro.model.estimator import TWO_VPUS, NetworkEstimator
        from repro.model.networks import VGG16

        estimator = NetworkEstimator(VGG16, store=tmp_path, levels=(0.0,), k_steps=4)
        a = estimator._surface(TWO_VPUS, TILE)
        b = estimator._surface(TWO_VPUS, TILE)
        assert a is b
        other = NetworkEstimator(VGG16, store=tmp_path, levels=(0.0,), k_steps=4)
        assert other._surface(TWO_VPUS, TILE) is not a

    def test_grids_of_one_series_share_points(self, tmp_path):
        coarse = build(tmp_path, levels=COARSE_LEVELS)
        counting = CountingExecutor()
        sub = build(tmp_path, levels=(0.0, 0.9), executor=counting)
        assert counting.jobs_run == 0
        assert np.array_equal(sub.ns_per_fma, coarse.ns_per_fma[::3, ::3])
        # A finer grid simulates only the points the sweep lacks.
        build(tmp_path, levels=(0.0, 0.45, 0.9), executor=counting)
        assert counting.jobs_run == 9 - 4
        (sweep,) = SweepStore(tmp_path).describe()
        assert sweep["rows"] == 16 + 5


class TestMachineLabel:
    def test_baseline_label(self):
        assert machine_label(BASELINE_2VPU) == "baseline-2vpu@1.7"

    def test_save_label_mentions_features(self):
        label = machine_label(SAVE_2VPU)
        assert "rvc" in label and "lwd" in label and "2vpu@1.7" in label


class TestSurfaceStoreDurability:
    """Atomic segment writes and the sweep's advisory lock."""

    def test_no_temp_files_left_behind(self, tmp_path):
        build(tmp_path)
        (sweep_dir,) = tmp_path.iterdir()
        names = sorted(p.name for p in sweep_dir.iterdir())
        assert names == ["manifest.json", "manifest.json.lock", "seg-000000.npz"]

    def test_waiting_builder_reuses_winners_entry(self, tmp_path):
        """A builder blocked on the sweep's lock must not re-simulate."""
        series = surface_series(TILE, Precision.FP32, SAVE_2VPU, k_steps=4)
        sweep_dir = tmp_path / sweep_fingerprint(series)
        sweep_dir.mkdir()
        lock = FileLock(sweep_dir / "manifest.json.lock").acquire()
        waiter_executor = CountingExecutor()
        done = []

        def waiter():
            done.append(build(tmp_path, executor=waiter_executor))

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            thread.join(timeout=0.3)
            assert thread.is_alive()  # blocked on the advisory lock
            # The "winner" publishes its build while holding the lock.
            winner = build(tmp_path / "winner")
            (winner_dir,) = (tmp_path / "winner").iterdir()
            for path in winner_dir.iterdir():
                if path.suffix != ".lock":
                    (sweep_dir / path.name).write_bytes(path.read_bytes())
        finally:
            lock.release()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert waiter_executor.jobs_run == 0
        assert np.array_equal(done[0].ns_per_fma, winner.ns_per_fma)
