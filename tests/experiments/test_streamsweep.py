"""Out-of-core streaming sweeps and their store-backed twins.

The acceptance contract: a streamed sweep's stored rows are identical
to direct per-point simulation, invariant under batch size; a rerun
simulates only the points the sweep lacks; and a surface's stored
points are its grid, row for row.
"""

import numpy as np
import pytest

from repro.core.config import BASELINE_2VPU, SAVE_2VPU
from repro.experiments.executor import SimExecutor
from repro.experiments.streamsweep import stream_sweep
from repro.fastsim import simulate_config
from repro.kernels.library import get_kernel
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.model.surface import SparsitySurface, machine_label
from repro.store import SweepStore

LEVELS = (0.0, 0.4, 0.8)


class TestStreamSweep:
    def test_rows_match_direct_simulation(self, tmp_path):
        spec = get_kernel("resnet2_2_fwd")
        summary = stream_sweep(
            "resnet2_2_fwd",
            SAVE_2VPU,
            LEVELS,
            LEVELS,
            tmp_path,
            engine="fast",
            metric="time_ns",
            k_steps=6,
        )
        assert summary["points"] == len(LEVELS) ** 2
        rows = list(SweepStore(tmp_path).query())
        assert len(rows) == len(LEVELS) ** 2
        for row in rows:
            config = spec.config(
                broadcast_sparsity=row["bs"],
                nonbroadcast_sparsity=row["nbs"],
                k_steps=6,
                seed=0,
            )
            expected = simulate_config(config, SAVE_2VPU, "fast").time_ns
            assert row["value"] == pytest.approx(expected)

    def test_machine_variants_are_separate_sweeps(self, tmp_path):
        # Same display label, different machines: two sweeps, each
        # holding its own machine's values.
        variant = SAVE_2VPU.with_core(issue_width=4)
        spec = get_kernel("resnet2_2_fwd")
        fingerprints = {}
        for machine in (SAVE_2VPU, variant):
            summary = stream_sweep(
                spec, machine, LEVELS, LEVELS, tmp_path,
                engine="fast", metric="time_ns", k_steps=6,
            )
            fingerprints[machine] = summary["fingerprint"]
        assert len(set(fingerprints.values())) == 2
        store = SweepStore(tmp_path)
        for machine, fingerprint in fingerprints.items():
            rows = list(store.query(fingerprint=fingerprint))
            assert len(rows) == len(LEVELS) ** 2
            for row in rows:
                config = spec.config(
                    broadcast_sparsity=row["bs"],
                    nonbroadcast_sparsity=row["nbs"],
                    k_steps=6,
                )
                expected = simulate_config(config, machine, "fast").time_ns
                assert row["value"] == expected

    def test_batch_size_does_not_change_rows(self, tmp_path):
        kwargs = dict(engine="fast", metric="time_ns", k_steps=6)
        stream_sweep(
            "resnet2_2_fwd", SAVE_2VPU, LEVELS, LEVELS, tmp_path / "small",
            batch_points=2, segment_rows=3, **kwargs,
        )
        stream_sweep(
            "resnet2_2_fwd", SAVE_2VPU, LEVELS, LEVELS, tmp_path / "large",
            batch_points=1000, **kwargs,
        )
        small = list(SweepStore(tmp_path / "small").query())
        large = list(SweepStore(tmp_path / "large").query())
        assert small == large

    def test_row_major_grid_order(self, tmp_path):
        stream_sweep(
            "resnet2_2_fwd", SAVE_2VPU, (0.0, 0.5), (0.0, 0.5), tmp_path,
            engine="analytic", k_steps=4,
        )
        rows = list(SweepStore(tmp_path).query())
        assert [(r["bs"], r["nbs"]) for r in rows] == [
            (0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5),
        ]

    def test_summary_identity(self, tmp_path):
        summary = stream_sweep(
            "resnet2_2_fwd", BASELINE_2VPU, (0.0,), (0.0,), tmp_path,
            engine="analytic", k_steps=4,
        )
        assert summary["kernel"] == "resnet2_2_fwd"
        assert summary["machine"] == machine_label(BASELINE_2VPU)
        assert summary["engine"] == "analytic"
        described = SweepStore(tmp_path).describe()
        assert described[0]["fingerprint"] == summary["fingerprint"]

    def test_rejects_nonpositive_batch(self, tmp_path):
        with pytest.raises(ValueError, match="batch_points"):
            stream_sweep(
                "resnet2_2_fwd", SAVE_2VPU, (0.0,), (0.0,), tmp_path,
                batch_points=0,
            )


class CountingExecutor(SimExecutor):
    """A serial executor that counts the jobs it runs."""

    def __init__(self, fail_after=None):
        super().__init__(jobs=1)
        self.jobs_run = 0
        self.fail_after = fail_after

    def map(self, jobs):
        if self.fail_after is not None and self.jobs_run >= self.fail_after:
            raise RuntimeError("interrupted")
        self.jobs_run += len(jobs)
        return super().map(jobs)


class TestResume:
    KWARGS = dict(engine="fast", metric="time_ns", k_steps=6)

    def test_interrupted_sweep_reruns_only_missing_points(self, tmp_path):
        interrupted = CountingExecutor(fail_after=4)
        with pytest.raises(RuntimeError, match="interrupted"):
            stream_sweep(
                "resnet2_2_fwd", SAVE_2VPU, LEVELS, LEVELS, tmp_path,
                executor=interrupted, batch_points=2, **self.KWARGS,
            )
        assert SweepStore(tmp_path).count() == 4
        rerun = CountingExecutor()
        summary = stream_sweep(
            "resnet2_2_fwd", SAVE_2VPU, LEVELS, LEVELS, tmp_path,
            executor=rerun, batch_points=2, **self.KWARGS,
        )
        assert rerun.jobs_run == summary["simulated"] == len(LEVELS) ** 2 - 4
        fresh = tmp_path / "fresh"
        stream_sweep(
            "resnet2_2_fwd", SAVE_2VPU, LEVELS, LEVELS, fresh, **self.KWARGS
        )
        resumed = {(r["bs"], r["nbs"]): r["value"] for r in SweepStore(tmp_path).query()}
        direct = {(r["bs"], r["nbs"]): r["value"] for r in SweepStore(fresh).query()}
        assert resumed == direct
        (sweep,) = SweepStore(tmp_path).describe()
        assert sweep["complete"]

    def test_complete_sweep_rerun_maps_nothing(self, tmp_path):
        stream_sweep("resnet2_2_fwd", SAVE_2VPU, LEVELS, LEVELS, tmp_path, **self.KWARGS)
        files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        rerun = CountingExecutor()
        summary = stream_sweep(
            "resnet2_2_fwd", SAVE_2VPU, LEVELS, LEVELS, tmp_path,
            executor=rerun, **self.KWARGS,
        )
        assert rerun.jobs_run == summary["simulated"] == 0
        assert summary["points"] == len(LEVELS) ** 2
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files

    def test_repeated_levels_are_swept_once(self, tmp_path):
        summary = stream_sweep(
            "resnet2_2_fwd", SAVE_2VPU, (0.0, 0.4, 0.0), (0.4, 0.4), tmp_path,
            **self.KWARGS,
        )
        assert summary["points"] == summary["simulated"] == 2
        assert SweepStore(tmp_path).count() == 2


class TestSurfaceStoreMirror:
    def test_store_rows_equal_legacy_surface_json(self, tmp_path):
        # The acceptance grid: the paper's 10%-step levels.  The points
        # SparsitySurface.build stores must be its grid, row for row.
        levels = tuple(round(0.1 * i, 1) for i in range(10))
        tile = RegisterTile(2, 2, BroadcastPattern.EXPLICIT)
        surface = SparsitySurface.build(
            tile,
            Precision.FP32,
            SAVE_2VPU,
            tmp_path,
            levels=levels,
            k_steps=6,
            engine="fast",
        )
        rows = list(SweepStore(tmp_path).query(kernel="surface"))
        assert len(rows) == len(levels) ** 2
        for index, row in enumerate(rows):
            i, j = divmod(index, len(levels))
            assert row["bs"] == levels[i]
            assert row["nbs"] == levels[j]
            assert row["value"] == surface.ns_per_fma[i][j]
        assert rows[0]["machine"] == surface.label
        assert rows[0]["engine"] == surface.engine

    def test_streamed_sweep_equals_surface_grid(self, tmp_path):
        # Same grid, same machine, same tier: the out-of-core path and
        # the in-memory surface must agree point for point.  The
        # explicit_wide library kernel shares the surface config's
        # tile/precision; only the trace's display name differs.
        levels = (0.0, 0.3, 0.6)
        tile = get_kernel("explicit_wide").tile
        surface = SparsitySurface.build(
            tile, Precision.FP32, SAVE_2VPU, tmp_path / "surfaces",
            levels=levels, k_steps=6, engine="fast",
        )
        stream_sweep(
            "explicit_wide", SAVE_2VPU, levels, levels, tmp_path,
            engine="fast", k_steps=6,
        )
        values = np.array(
            [r["value"] for r in SweepStore(tmp_path).query()]
        ).reshape(len(levels), len(levels))
        np.testing.assert_allclose(values, surface.ns_per_fma)
