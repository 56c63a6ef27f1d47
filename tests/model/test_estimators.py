"""Tests for the whole-network estimators (Fig. 14 machinery).

These use tiny grids and short kernels via a tmp-dir sweep store, so
they validate the plumbing and orderings rather than absolute numbers.
"""

import pytest

from repro.kernels.conv import Phase
from repro.kernels.tiling import Precision
from repro.model.estimator import (
    BASELINE,
    DYNAMIC,
    ONE_VPU,
    STATIC,
    TWO_VPUS,
    NetworkEstimator,
)
from repro.model.inference import evaluate_inference
from repro.model.networks import GNMT, RESNET50_PRUNED, VGG16
from repro.model.training import evaluate_training, sampled_steps

LEVELS = (0.0, 0.45, 0.9)
K_STEPS = 8


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return tmp_path_factory.mktemp("surfaces")


@pytest.fixture(scope="module")
def vgg_inference(store):
    return evaluate_inference(
        VGG16, Precision.FP32, store=store, levels=LEVELS, k_steps=K_STEPS
    )


class TestSampledSteps:
    def test_covers_run(self):
        steps = sampled_steps(100, 5)
        assert steps[0] == 0 and steps[-1] == 100

    def test_single_sample_midpoint(self):
        assert sampled_steps(100, 1) == [50]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sampled_steps(100, 0)


class TestInferenceEvaluation:
    def test_configs_present(self, vgg_inference):
        assert set(vgg_inference.configs) == {BASELINE, TWO_VPUS, ONE_VPU, DYNAMIC}

    def test_baseline_normalised_to_one(self, vgg_inference):
        assert vgg_inference.configs[BASELINE].normalized(
            vgg_inference.baseline_ns
        ) == pytest.approx(1.0)

    def test_save_beats_baseline(self, vgg_inference):
        assert vgg_inference.speedup(TWO_VPUS) > 1.1
        assert vgg_inference.speedup(DYNAMIC) > 1.1

    def test_dynamic_at_least_best_fixed(self, vgg_inference):
        best_fixed = max(
            vgg_inference.speedup(TWO_VPUS), vgg_inference.speedup(ONE_VPU)
        )
        assert vgg_inference.speedup(DYNAMIC) >= best_fixed - 1e-9

    def test_first_layer_separated(self, vgg_inference):
        breakdown = vgg_inference.configs[BASELINE].breakdown_ns
        assert "1st layer" in breakdown
        assert "forward" in breakdown

    def test_first_layer_gains_nothing(self, vgg_inference):
        # No activation sparsity and dense weights: the 1st layer's
        # 2-VPU SAVE time matches the baseline's.
        base = vgg_inference.configs[BASELINE].breakdown_ns["1st layer"]
        save = vgg_inference.configs[TWO_VPUS].breakdown_ns["1st layer"]
        assert save == pytest.approx(base, rel=0.05)

    def test_rows_structure(self, vgg_inference):
        rows = vgg_inference.rows()
        assert len(rows) == 4
        labels = [row[0] for row in rows]
        assert labels[0] == BASELINE


class TestTrainingEvaluation:
    @pytest.fixture(scope="class")
    def resnet_training(self, store):
        return evaluate_training(
            RESNET50_PRUNED,
            Precision.FP32,
            store=store,
            levels=LEVELS,
            k_steps=K_STEPS,
            samples=3,
        )

    def test_static_present(self, resnet_training):
        assert STATIC in resnet_training.configs

    def test_dynamic_at_least_static(self, resnet_training):
        assert (
            resnet_training.speedup(DYNAMIC) >= resnet_training.speedup(STATIC) - 1e-9
        )

    def test_static_at_least_best_fixed(self, resnet_training):
        best_fixed = max(
            resnet_training.speedup(TWO_VPUS), resnet_training.speedup(ONE_VPU)
        )
        assert resnet_training.speedup(STATIC) >= best_fixed - 1e-9

    def test_phase_breakdown(self, resnet_training):
        breakdown = resnet_training.configs[BASELINE].breakdown_ns
        assert {"forward", "backward input", "backward weight", "1st layer"} <= set(
            breakdown
        )

    def test_training_beats_baseline(self, resnet_training):
        assert resnet_training.speedup(DYNAMIC) > 1.05


class TestEstimatorPhases:
    def test_first_conv_skips_backward_input(self, store):
        estimator = NetworkEstimator(
            VGG16, store=store, levels=LEVELS, k_steps=K_STEPS
        )
        assert Phase.BACKWARD_INPUT not in estimator.phases_for(0, training=True)
        assert Phase.BACKWARD_INPUT in estimator.phases_for(1, training=True)

    def test_inference_only_forward(self, store):
        estimator = NetworkEstimator(
            VGG16, store=store, levels=LEVELS, k_steps=K_STEPS
        )
        assert estimator.phases_for(3, training=False) == [Phase.FORWARD]

    def test_lstm_merged_backward(self, store):
        estimator = NetworkEstimator(
            GNMT, store=store, levels=LEVELS, k_steps=K_STEPS
        )
        phases = estimator.phases_for(0, training=True)
        assert len(phases) == 3

    def test_mixed_precision_halves_fma_count(self, store):
        fp32 = NetworkEstimator(VGG16, Precision.FP32, store=store)
        mixed = NetworkEstimator(VGG16, Precision.MIXED, store=store)
        assert mixed.macs_per_fma == 2 * fp32.macs_per_fma


class TestGnmtMemoryBound:
    def test_gnmt_capped_below_cnn(self, store):
        gnmt = evaluate_inference(
            GNMT, Precision.FP32, store=store, levels=LEVELS, k_steps=K_STEPS
        )
        resnet = evaluate_inference(
            RESNET50_PRUNED, Precision.FP32, store=store, levels=LEVELS, k_steps=K_STEPS
        )
        # GNMT's memory boundedness caps it below pruned ResNet-50
        # despite 90% weight sparsity (paper Sec. VII-A).
        assert gnmt.speedup(DYNAMIC) <= resnet.speedup(DYNAMIC) + 0.15
