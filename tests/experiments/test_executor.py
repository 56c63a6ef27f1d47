"""Tests for the execution layer: determinism and ordering.

The contract under test: a parallel run is *indistinguishable* from a
serial run — same speedup dicts, same surfaces, results always in job
order no matter how workers interleave.
"""

import numpy as np
import pytest

from repro.core.config import SAVE_1VPU, SAVE_2VPU
from repro.experiments import executor as executor_mod
from repro.experiments.executor import (
    JOBS_ENV_VAR,
    METRIC_NS_PER_FMA,
    PointJob,
    SimExecutor,
    merge_indexed,
    resolve_jobs,
)
from repro.experiments.sweeps import sweep_kernel
from repro.kernels.library import get_kernel
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.model.surface import (
    SparsitySurface,
    point_config,
    simulate_point,
)

TILE = RegisterTile(2, 2, BroadcastPattern.EXPLICIT)


class TestMergeIndexed:
    def test_out_of_order_chunks_restore_job_order(self):
        # Chunks complete in reverse and interleaved order.
        chunks = [[(3, 30.0)], [(0, 0.0), (2, 20.0)], [(1, 10.0)]]
        assert merge_indexed(chunks, 4) == [0.0, 10.0, 20.0, 30.0]

    def test_missing_result_raises(self):
        with pytest.raises(ValueError, match="missing"):
            merge_indexed([[(0, 1.0)]], 2)

    def test_duplicate_result_raises(self):
        with pytest.raises(ValueError, match="duplicate"):
            merge_indexed([[(0, 1.0)], [(0, 2.0)]], 1)

    def test_out_of_range_index_raises(self):
        with pytest.raises(ValueError, match="outside"):
            merge_indexed([[(5, 1.0)]], 2)


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "8")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "4")
        assert resolve_jobs(None) == 4

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "lots")
        with pytest.raises(ValueError):
            resolve_jobs(None)

    def test_floor_of_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1


def _jobs(n, machine=SAVE_2VPU, k_steps=4):
    return [
        PointJob(
            config=point_config(TILE, Precision.FP32, 0.0, 0.3 * (i % 3), k_steps, i),
            machine=machine,
            metric=METRIC_NS_PER_FMA,
        )
        for i in range(n)
    ]


class TestSimExecutor:
    def test_empty_batch(self):
        assert SimExecutor(jobs=2).map([]) == []

    def test_serial_never_touches_a_pool(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("jobs=1 must stay in-process")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", explode)
        results = SimExecutor(jobs=1).map(_jobs(3))
        assert len(results) == 3 and all(v > 0 for v in results)

    def test_single_job_short_circuits(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("a one-job batch must stay in-process")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", explode)
        assert len(SimExecutor(jobs=4).map(_jobs(1))) == 1

    def test_parallel_matches_serial_exactly(self):
        jobs = _jobs(5)
        serial = SimExecutor(jobs=1).map(jobs)
        parallel = SimExecutor(jobs=2, chunksize=2).map(jobs)
        assert parallel == serial

    def test_fast_engine_parallel_matches_serial(self):
        # The fast tier reads only the seeded config and the committed
        # calibration table, so worker processes must reproduce the
        # serial results bit for bit.
        from dataclasses import replace

        jobs = [replace(job, engine="fast") for job in _jobs(5)]
        serial = SimExecutor(jobs=1).map(jobs)
        parallel = SimExecutor(jobs=2, chunksize=2).map(jobs)
        assert parallel == serial
        assert all(value > 0 for value in serial)

    def test_point_job_matches_simulate_point(self):
        job = _jobs(1)[0]
        expected = simulate_point(
            TILE, Precision.FP32, SAVE_2VPU,
            job.config.broadcast_sparsity, job.config.nonbroadcast_sparsity,
            k_steps=job.config.k_steps, seed=job.config.seed,
        )
        assert job.run() == expected

    def test_chunksize_validation(self):
        with pytest.raises(ValueError):
            SimExecutor(jobs=2, chunksize=0)


class TestSweepDeterminism:
    def test_parallel_sweep_identical_to_serial(self):
        spec = get_kernel("explicit_wide")
        machines = {"2vpu": SAVE_2VPU, "1vpu": SAVE_1VPU}
        kwargs = dict(bs_levels=(0.0, 0.6), nbs_levels=(0.0, 0.6), k_steps=4)
        serial = sweep_kernel(spec, machines, **kwargs)
        parallel = sweep_kernel(
            spec, machines, executor=SimExecutor(jobs=2), **kwargs
        )
        for label in machines:
            assert parallel[label].speedups == serial[label].speedups

    def test_parallel_surface_identical_to_serial(self, tmp_path):
        serial = SparsitySurface.build(
            TILE, Precision.FP32, SAVE_2VPU, tmp_path / "serial",
            levels=(0.0, 0.9), k_steps=4,
        )
        parallel = SparsitySurface.build(
            TILE, Precision.FP32, SAVE_2VPU, tmp_path / "parallel",
            levels=(0.0, 0.9), k_steps=4, executor=SimExecutor(jobs=2),
        )
        assert np.array_equal(parallel.ns_per_fma, serial.ns_per_fma)


class TestExecutorMetrics:
    def _run(self, jobs, **executor_kwargs):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        values = SimExecutor(jobs=jobs, metrics=registry, **executor_kwargs).map(
            _jobs(6)
        )
        return values, registry.snapshot()

    def test_parallel_metrics_identical_to_serial(self):
        import json

        serial_values, serial_snap = self._run(jobs=1)
        parallel_values, parallel_snap = self._run(jobs=2, chunksize=2)
        assert parallel_values == serial_values
        assert json.dumps(parallel_snap, sort_keys=True) == json.dumps(
            serial_snap, sort_keys=True
        )

    def test_metrics_populated(self):
        _, snap = self._run(jobs=1)
        assert snap["counters"]["sim_runs"] == 6
        assert snap["histograms"]["cw_occupancy"]["count"] > 0

    def test_uninstrumented_values_unchanged(self):
        values, _ = self._run(jobs=1)
        assert SimExecutor(jobs=1).map(_jobs(6)) == values

    def test_trace_sink_forces_in_process(self, monkeypatch):
        from repro.obs import ListSink

        def explode(*args, **kwargs):
            raise AssertionError("tracing must not use a process pool")

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", explode)
        sink = ListSink()
        values = SimExecutor(jobs=4, trace_sink=sink).map(_jobs(3))
        assert len(values) == 3
        assert sink.events  # events flowed through the shared sink


class TestExecutorSpans:
    def test_map_records_simulate_span(self):
        from repro.obs import SpanRecorder

        spans = SpanRecorder()
        SimExecutor(jobs=1, spans=spans).map(_jobs(3))
        simulate_spans = [r for r in spans.records if r.name == "simulate"]
        assert len(simulate_spans) == 1
        assert simulate_spans[0].attrs == {"points": 3, "workers": 1}

    def test_instrumented_map_records_merge_span(self):
        from repro.obs import MetricsRegistry, SpanRecorder

        spans = SpanRecorder()
        registry = MetricsRegistry()
        SimExecutor(jobs=1, metrics=registry, spans=spans).map(_jobs(2))
        names = [r.name for r in spans.records]
        assert "simulate" in names and "merge" in names
        merge = spans.records[names.index("merge")]
        assert merge.parent == names.index("simulate")

    def test_default_is_unprofiled(self):
        executor = SimExecutor(jobs=1)
        assert executor.spans is None
        assert executor.map(_jobs(1))

    def test_surface_build_records_span(self, tmp_path):
        from repro.obs import SpanRecorder

        spans = SpanRecorder()
        executor = SimExecutor(jobs=1, spans=spans)
        SparsitySurface.build(
            TILE, Precision.FP32, SAVE_2VPU, tmp_path,
            levels=(0.0, 0.9), k_steps=4, executor=executor,
        )
        build_spans = [r for r in spans.records if r.name == "surface.build"]
        assert len(build_spans) == 1
        assert build_spans[0].attrs["grid"] == 4
        # The executor's simulate span nests inside the build span.
        names = [r.name for r in spans.records]
        simulate_idx = names.index("simulate")
        assert spans.records[simulate_idx].parent == spans.records.index(
            build_spans[0]
        )


class TestPersistentPool:
    """The long-lived-service mode: one pool reused across batches."""

    def test_persistent_parallel_matches_serial(self):
        jobs = _jobs(5)
        serial = SimExecutor(jobs=1).map(jobs)
        with SimExecutor(jobs=2, chunksize=2, persistent=True) as executor:
            assert executor.map(jobs) == serial

    def test_pool_survives_across_batches(self):
        with SimExecutor(jobs=2, chunksize=1, persistent=True) as executor:
            first = executor.map(_jobs(3))
            pool = executor._pool
            assert pool is not None
            second = executor.map(_jobs(3))
            assert executor._pool is pool  # same pool, not a fresh one
            assert second == first
        assert executor._pool is None  # context exit closed it

    def test_close_is_idempotent_and_safe_when_serial(self):
        executor = SimExecutor(jobs=1, persistent=True)
        executor.map(_jobs(1))
        executor.close()
        executor.close()


def _interleaved_jobs():
    """Fast, analytic and exact jobs of two kernels on two machines, in
    runs that stack, runs cut by a key change, and lone jobs."""
    fwd, bwd = get_kernel("resnet2_2_fwd"), get_kernel("resnet3_2_bwd_input")

    def job(spec, machine, bs, nbs, engine="fast", metric=METRIC_NS_PER_FMA):
        config = spec.config(
            broadcast_sparsity=bs, nonbroadcast_sparsity=nbs, k_steps=6
        )
        return PointJob(config, machine, metric=metric, engine=engine)

    levels = (0.0, 0.25, 0.6, 1.0)
    jobs = []
    for bs in levels:
        jobs += [job(fwd, SAVE_2VPU, bs, nbs) for nbs in levels]
        jobs.append(job(bwd, SAVE_1VPU, bs, 1.0 - bs))
        jobs.append(job(fwd, SAVE_1VPU, 1.0 - bs, bs, metric="time_ns"))
        jobs += [job(bwd, SAVE_1VPU, bs, nbs, engine="analytic") for nbs in levels]
    jobs.append(job(fwd, SAVE_2VPU, 0.5, 0.5, engine="exact"))
    jobs += [
        job(bwd, SAVE_2VPU, (i % 7) / 7, (i % 5) / 5)
        for i in range(executor_mod.STACK_POINTS + 6)
    ]
    return jobs


class TestFastStacks:
    def test_stacks_split_on_key_changes_and_size(self):
        jobs = _interleaved_jobs()
        stacks = list(executor_mod._stacks(jobs))
        assert [job for stack in stacks for job in stack] == jobs
        for stack in stacks:
            keys = {job.stack_key() for job in stack}
            assert len(keys) == 1
            assert len(stack) == 1 or None not in keys
            assert len(stack) <= executor_mod.STACK_POINTS
        assert [len(stack) for stack in stacks[-2:]] == [
            executor_mod.STACK_POINTS, 6,
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_interleaved_map_equals_per_job_runs(self, workers):
        jobs = _interleaved_jobs()
        expected = [job.run() for job in jobs]
        assert SimExecutor(jobs=workers).map(jobs) == expected
