"""Tests for the DVFS switching-overhead check."""

import pytest

from repro.kernels.conv import Phase
from repro.kernels.tiling import Precision
from repro.model.dvfs import DvfsModel
from repro.model.estimator import ONE_VPU, TWO_VPUS, KernelEstimate, NetworkEstimator
from repro.model.networks import RESNET50_PRUNED


def estimate(t2, t1, name="k"):
    return KernelEstimate(
        layer_name=name,
        phase=Phase.FORWARD,
        category="forward",
        times_ns={"baseline": max(t2, t1) * 1.5, TWO_VPUS: t2, ONE_VPU: t1},
    )


class TestSchedule:
    def test_picks_faster_config(self):
        model = DvfsModel()
        choices, total, transitions = model.schedule(
            [estimate(10.0, 20.0), estimate(30.0, 5.0)]
        )
        assert choices == [TWO_VPUS, ONE_VPU]
        assert total == 15.0
        assert transitions == 1

    def test_no_transitions_when_stable(self):
        model = DvfsModel()
        _c, _t, transitions = model.schedule([estimate(1.0, 2.0)] * 5)
        assert transitions == 0

    def test_alternating_maximises_transitions(self):
        model = DvfsModel()
        stream = [estimate(1.0, 2.0), estimate(2.0, 1.0)] * 3
        _c, _t, transitions = model.schedule(stream)
        assert transitions == 5

    def test_overhead_fraction(self):
        model = DvfsModel(transition_ns=100.0)
        stream = [estimate(1000.0, 2000.0), estimate(2000.0, 1000.0)]
        assert model.overhead_fraction(stream) == pytest.approx(100.0 / 2000.0)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            DvfsModel().overhead_fraction([])


class TestPaperClaim:
    def test_overhead_negligible_for_resnet_training(self, tmp_path):
        # Paper: ~10 us transitions vs tens-of-milliseconds kernels ->
        # neglecting the overhead is justified.
        estimator = NetworkEstimator(
            RESNET50_PRUNED,
            Precision.FP32,
            store=tmp_path,
            levels=(0.0, 0.45, 0.9),
            k_steps=8,
        )
        estimates = estimator.step_estimates(80, training=True)
        model = DvfsModel()
        assert model.overhead_fraction(estimates) < 0.02
        assert model.is_negligible(estimates)
