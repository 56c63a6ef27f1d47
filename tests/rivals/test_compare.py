"""Tests for the comparison harness: experiment, charts, determinism."""

import pytest

from repro.core.config import SAVE_2VPU
from repro.experiments.charts import compare_charts
from repro.experiments.context import RunContext
from repro.experiments.executor import PointJob, SimExecutor
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.rivals import compare_mechanisms
from repro.kernels.library import get_kernel
from repro.rivals.mechanisms import MECHANISMS, MechanismError
from repro.store import SweepStore

LEVELS = (0.0, 0.9)


@pytest.fixture(scope="module")
def result():
    return compare_mechanisms(levels=LEVELS, k_steps=6)


class TestCompareMechanisms:
    def test_covers_every_mechanism_and_point(self, result):
        assert result["mechanisms"] == list(MECHANISMS)
        for mechanism in MECHANISMS:
            grid = result["speedups"][mechanism]
            assert set(grid) == {
                (bs, nbs) for bs in LEVELS for nbs in LEVELS
            }
            assert all(value > 0 for value in grid.values())

    def test_shared_dense_baseline(self, result):
        assert result["base_time_ns"] > 0
        for mechanism in MECHANISMS:
            times = result["times"][mechanism]
            assert len(times) == len(LEVELS) ** 2

    def test_pattern_metadata(self, result):
        assert result["kernel"] == "nm24_fwd"
        assert result["pattern"] == "2:4"
        assert result["effective_bs_floor"] == pytest.approx(0.5)

    def test_empty_mechanisms_rejected(self):
        with pytest.raises(ValueError, match="mechanisms"):
            compare_mechanisms(mechanisms=(), levels=LEVELS, k_steps=6)

    def test_bad_pairing_fails_before_simulating(self):
        # An unstructured kernel cannot run indexmac; the harness must
        # reject it up front rather than after the grid has simulated.
        with pytest.raises(MechanismError, match="structured"):
            compare_mechanisms(
                kernel="resnet2_2_fwd",
                mechanisms=("indexmac",),
                levels=LEVELS,
                k_steps=6,
            )

    def test_unstructured_kernel_fine_for_save_and_sparce(self):
        result = compare_mechanisms(
            kernel="resnet2_2_fwd",
            mechanisms=("save", "sparce"),
            levels=(0.0,),
            k_steps=4,
        )
        assert result["pattern"] is None
        assert set(result["speedups"]) == {"save", "sparce"}


class TestDeterminism:
    @pytest.mark.parametrize("kernel", ["nm24_fwd", "nm48_bwd_input"])
    def test_parallel_equals_serial_per_mechanism(self, kernel):
        """Bit-for-bit parallel == serial for every mechanism/kernel."""
        spec = get_kernel(kernel)
        jobs = [
            PointJob(
                config=spec.config(
                    broadcast_sparsity=0.6,
                    nonbroadcast_sparsity=0.4,
                    k_steps=6,
                    seed=1,
                ),
                machine=SAVE_2VPU,
                engine="exact",
                mechanism=mechanism,
            )
            for mechanism in MECHANISMS
        ]
        serial = SimExecutor(jobs=1).map(jobs)
        parallel = SimExecutor(jobs=2).map(jobs)
        assert serial == parallel

    def test_same_seed_same_result(self):
        first = compare_mechanisms(levels=LEVELS, k_steps=6, seed=3)
        second = compare_mechanisms(levels=LEVELS, k_steps=6, seed=3)
        assert first == second

    def test_parallel_harness_matches_serial(self, result):
        parallel = compare_mechanisms(
            levels=LEVELS, k_steps=6, executor=SimExecutor(jobs=2)
        )
        assert parallel == result


class TestStoreRecording:
    def test_one_sweep_per_mechanism(self, tmp_path, result):
        compare_mechanisms(
            levels=LEVELS, k_steps=6, store_root=tmp_path / "store"
        )
        store = SweepStore(tmp_path / "store")
        sweeps = store.describe()
        assert len(sweeps) == len(MECHANISMS)
        by_mechanism = {meta["mechanism"] for meta in sweeps}
        assert by_mechanism == set(MECHANISMS)
        rows = list(store.query(kernel="nm24_fwd"))
        assert len(rows) == len(MECHANISMS) * len(LEVELS) ** 2

    def test_rerun_reads_the_store_and_simulates_only_the_baseline(
        self, tmp_path, result
    ):
        class Counting(SimExecutor):
            def __init__(self):
                super().__init__(jobs=1)
                self.batches = []

            def map(self, jobs):
                self.batches.append(len(jobs))
                return super().map(jobs)

        first, second = Counting(), Counting()
        root = tmp_path / "store"
        stored = compare_mechanisms(
            levels=LEVELS, k_steps=6, executor=first, store_root=root
        )
        assert first.batches == [1 + len(MECHANISMS) * len(LEVELS) ** 2]
        rerun = compare_mechanisms(
            levels=LEVELS, k_steps=6, executor=second, store_root=root
        )
        assert second.batches == [1]
        assert rerun == stored == result
        store = SweepStore(root)
        assert len(store.describe()) == len(MECHANISMS)
        assert store.count() == len(MECHANISMS) * len(LEVELS) ** 2


class TestExperimentAndCharts:
    def test_registered(self):
        assert "rivals" in EXPERIMENTS

    def test_report_renders(self):
        report = run_experiment(
            "rivals", RunContext(levels=LEVELS, k_steps=6)
        )
        text = report.render()
        assert "Skip-mechanism comparison" in text
        for mechanism in MECHANISMS:
            assert mechanism in text
        assert len(report.rows) == len(MECHANISMS) * len(LEVELS) ** 2

    def test_charts_render_every_mechanism(self, result):
        figure = compare_charts(result)
        for mechanism in MECHANISMS:
            assert f"{mechanism} speedup" in figure
        assert "BS=90%" in figure
