"""Fast sanity tests of the experiment runners (tiny grids).

Deep shape checks live in ``benchmarks/``; these confirm every runner
produces a well-formed report quickly.
"""

import pytest

from repro.experiments import (
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    scaling,
    table1,
    table2,
    table3,
)
from repro.experiments.context import RunContext
from repro.experiments.executor import SimExecutor
from repro.experiments.sweeps import sweep_kernel
from repro.core.config import SAVE_2VPU
from repro.kernels.library import get_kernel

TINY = (0.0, 0.9)


class TestStaticRunners:
    def test_table1(self):
        report = table1.run()
        assert report.data["cores"] == 28

    def test_table2_sizes_exact(self):
        data = table2.run().data
        assert data["temp_fp32_bytes"] == 56
        assert data["b_data_bytes"] == 2260

    def test_table3_marks(self):
        data = table3.run().data
        assert data["dense ResNet-50"].count("X") == 2
        assert data["dense VGG16"].count("X") == 4

    def test_fig12_series_lengths(self):
        data = fig12.run().data
        assert len(data["dense VGG16"]) == 13
        assert len(data["dense ResNet-50"]) == 53

    def test_fig13_curves(self):
        data = fig13.run().data
        assert len(data["resnet50"]) == 103


class TestSweepRunners:
    def test_fig15_tiny(self):
        report = fig15.run(RunContext(levels=TINY, k_steps=4))
        assert len(report.data["2vpu"]) == 4

    def test_fig17_tiny(self):
        report = fig17.run(RunContext(levels=TINY, k_steps=4))
        assert set(report.data) == {"No B$", "B$ w/ masks", "B$ w/ data"}

    def test_fig18_tiny(self):
        report = fig18.run(RunContext(levels=TINY, k_steps=4))
        for panel in report.data.values():
            assert set(panel) == {"VC", "RVC", "VC+LWD", "RVC+LWD", "HC"}

    def test_fig19_tiny(self):
        report = fig19.run(RunContext(levels=TINY, k_steps=4))
        assert len(report.data["w/ MP technique"]) == 2

    def test_fig16_tiny(self, tmp_path):
        report = fig16.run(RunContext(store=tmp_path, k_steps=4))
        assert report.data["n_kernels"] > 60


class CountingExecutor(SimExecutor):
    """A serial executor that counts the jobs it runs."""

    def __init__(self):
        super().__init__(jobs=1)
        self.jobs_run = 0

    def map(self, jobs):
        self.jobs_run += len(jobs)
        return super().map(jobs)


class TestSurfacePointReuse:
    def test_figures_share_one_store(self, tmp_path):
        # fig14's coarse grids hold every point fig16 and scaling read
        # (same tiles, machines, precisions and k_steps, at levels
        # (0, 0.9) of (0, 0.3, 0.6, 0.9)), so only fig14 simulates.
        simulated = {}
        reports = {}
        for name, runner in (("fig14", fig14), ("fig16", fig16), ("scaling", scaling)):
            counting = CountingExecutor()
            ctx = RunContext(store=tmp_path, k_steps=2, samples=1, executor=counting)
            reports[name] = runner.run(ctx).render()
            simulated[name] = counting.jobs_run
        assert simulated["fig14"] > 0
        assert simulated["fig16"] == simulated["scaling"] == 0
        files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        counting = CountingExecutor()
        again = fig14.run(
            RunContext(store=tmp_path, k_steps=2, samples=1, executor=counting)
        )
        assert counting.jobs_run == 0
        assert again.render() == reports["fig14"]
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == files


class TestSweepHelper:
    def test_sweep_speedups_positive(self):
        spec = get_kernel("explicit_wide")
        results = sweep_kernel(
            spec, {"save": SAVE_2VPU}, bs_levels=(0.0,), nbs_levels=(0.0, 0.9), k_steps=4
        )
        sweep = results["save"]
        assert all(value > 0 for value in sweep.speedups.values())

    def test_series_extraction(self):
        spec = get_kernel("explicit_wide")
        results = sweep_kernel(
            spec, {"save": SAVE_2VPU}, bs_levels=(0.0,), nbs_levels=(0.0, 0.9), k_steps=4
        )
        assert len(results["save"].series(0.0)) == 2
