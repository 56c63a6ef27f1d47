"""Tests for sparsity surfaces, interpolation and the disk store."""

import json
import threading

import numpy as np
import pytest

from repro.core.config import BASELINE_2VPU, SAVE_2VPU
from repro.fsio import FileLock
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.model.surface import (
    COARSE_LEVELS,
    PAPER_LEVELS,
    SURFACE_SCHEMA_VERSION,
    SparsitySurface,
    SurfaceStore,
    machine_label,
    simulate_point,
)

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

    def test_json_roundtrip(self):
        surface = self.surface()
        clone = SparsitySurface.from_json(surface.to_json())
        assert np.array_equal(clone.ns_per_fma, surface.ns_per_fma)
        assert clone.interpolate(0.25, 0.25) == surface.interpolate(0.25, 0.25)


class TestSimulatedSurfaces:
    def test_simulate_point_positive(self):
        value = simulate_point(TILE, Precision.FP32, BASELINE_2VPU, 0.0, 0.0, k_steps=4)
        assert value > 0

    def test_save_surface_monotone_in_bs(self):
        surface = SparsitySurface.build(
            TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=8
        )
        assert surface.ns_per_fma[1, 0] <= surface.ns_per_fma[0, 0] * 1.05

    def test_build_shape(self):
        surface = SparsitySurface.build(
            TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=4
        )
        assert surface.ns_per_fma.shape == (2, 2)
        assert surface.label == machine_label(SAVE_2VPU)


class TestSurfaceStore:
    def test_roundtrip_and_disk_hit(self, tmp_path):
        store = SurfaceStore(tmp_path)
        s1 = store.get(TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=4)
        # Fresh store instance: must load from disk, not re-simulate.
        store2 = SurfaceStore(tmp_path)
        s2 = store2.get(TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=4)
        assert np.array_equal(s1.ns_per_fma, s2.ns_per_fma)
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_distinct_keys(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.get(TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=4)
        store.get(TILE, Precision.FP32, BASELINE_2VPU, levels=(0.0,), k_steps=4)
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_machine_variant_gets_its_own_surface(self, tmp_path):
        # The two machines share a display label; the cache key must
        # still tell them apart.
        variant = SAVE_2VPU.with_core(issue_width=4)
        assert machine_label(variant) == machine_label(SAVE_2VPU)
        store = SurfaceStore(tmp_path)
        kwargs = dict(levels=(0.0, 0.5), k_steps=8)
        store.get(TILE, Precision.FP32, SAVE_2VPU, **kwargs)
        cached = store.get(TILE, Precision.FP32, variant, **kwargs)
        fresh = SparsitySurface.build(TILE, Precision.FP32, variant, **kwargs)
        assert np.array_equal(cached.ns_per_fma, fresh.ns_per_fma)

    def test_memory_cache(self, tmp_path):
        store = SurfaceStore(tmp_path)
        a = store.get(TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=4)
        b = store.get(TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=4)
        assert a is b


class TestMachineLabel:
    def test_baseline_label(self):
        assert machine_label(BASELINE_2VPU) == "baseline-2vpu@1.7"

    def test_save_label_mentions_features(self):
        label = machine_label(SAVE_2VPU)
        assert "rvc" in label and "lwd" in label and "2vpu@1.7" in label


class TestSurfaceStoreDurability:
    """Atomic writes, advisory locking, schema-version invalidation."""

    def entry_path(self, tmp_path):
        store = SurfaceStore(tmp_path)
        store.get(TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=4)
        (path,) = tmp_path.glob("*.json")
        return path

    def test_entries_carry_schema_envelope(self, tmp_path):
        payload = json.loads(self.entry_path(tmp_path).read_text())
        assert payload["schema"] == SURFACE_SCHEMA_VERSION
        assert "surface" in payload

    def test_stale_schema_entry_is_rebuilt(self, tmp_path):
        path = self.entry_path(tmp_path)
        envelope = json.loads(path.read_text())
        envelope["schema"] = SURFACE_SCHEMA_VERSION - 1
        path.write_text(json.dumps(envelope))
        fresh = SurfaceStore(tmp_path)
        surface = fresh.get(
            TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=4
        )
        assert surface.ns_per_fma.shape == (2, 2)
        assert json.loads(path.read_text())["schema"] == SURFACE_SCHEMA_VERSION

    def test_torn_entry_is_rebuilt_not_fatal(self, tmp_path):
        path = self.entry_path(tmp_path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        surface = SurfaceStore(tmp_path).get(
            TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=4
        )
        assert surface.ns_per_fma.shape == (2, 2)
        # The damaged file was replaced by a valid envelope.
        assert json.loads(path.read_text())["schema"] == SURFACE_SCHEMA_VERSION

    def test_no_temp_files_left_behind(self, tmp_path):
        self.entry_path(tmp_path)
        stray = [p.name for p in tmp_path.iterdir()
                 if p.suffix not in (".json", ".lock")]
        assert stray == []

    def test_waiting_builder_reuses_winners_entry(self, tmp_path, monkeypatch):
        """A second process blocked on the lock must not re-simulate."""
        first = SurfaceStore(tmp_path)
        surface = first.get(
            TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=4
        )
        (path,) = tmp_path.glob("*.json")
        envelope = path.read_text()
        path.unlink()

        def forbidden_build(*args, **kwargs):
            raise AssertionError("waiter must read the winner's entry")

        monkeypatch.setattr(SparsitySurface, "build", forbidden_build)
        second = SurfaceStore(tmp_path)
        lock = FileLock(path.with_suffix(".lock")).acquire()
        done = []

        def waiter():
            got = second.get(
                TILE, Precision.FP32, SAVE_2VPU, levels=(0.0, 0.9), k_steps=4
            )
            done.append(got)

        thread = threading.Thread(target=waiter)
        thread.start()
        try:
            thread.join(timeout=0.3)
            assert thread.is_alive()  # blocked on the advisory lock
            path.write_text(envelope)  # the "winner" publishes its build
        finally:
            lock.release()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert np.array_equal(done[0].ns_per_fma, surface.ns_per_fma)
