"""Tests for the closed-form bottleneck model, including cross-validation
against the cycle-level simulator."""

import math

import pytest

from repro.core.config import BASELINE_2VPU, SAVE_1VPU, SAVE_2VPU, CoalescingScheme
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.model.analytic import (
    expected_max_binomial,
    predicted_speedup,
    predicted_time_per_fma_ns,
    step_bottlenecks,
)
from repro.model.surface import simulate_point

EXPLICIT = RegisterTile(4, 6, BroadcastPattern.EXPLICIT)
EMBEDDED = RegisterTile(28, 1, BroadcastPattern.EMBEDDED)


class TestExpectedMaxBinomial:
    def test_degenerate_cases(self):
        assert expected_max_binomial(0, 0.5) == 0.0
        assert expected_max_binomial(5, 0.0) == 0.0

    def test_certain_success(self):
        # d=1: every slot sees exactly m.
        assert expected_max_binomial(7, 1.0) == pytest.approx(7.0)

    def test_max_at_least_mean(self):
        mean = 10 * 0.4
        assert expected_max_binomial(10, 0.4) >= mean

    def test_max_at_most_m(self):
        assert expected_max_binomial(10, 0.4) <= 10

    def test_monotone_in_d(self):
        values = [expected_max_binomial(10, d) for d in (0.1, 0.4, 0.7, 1.0)]
        assert values == sorted(values)

    def test_single_slot_is_mean(self):
        assert expected_max_binomial(10, 0.3, slots=1) == pytest.approx(3.0, abs=1e-9)


class TestBottlenecks:
    def test_dense_baseline_vpu_bound(self):
        bn = step_bottlenecks(EXPLICIT, BASELINE_2VPU)
        assert bn.binding == "vpu"
        assert bn.vpu == pytest.approx(24 / 2)

    def test_high_sparsity_not_vpu_bound(self):
        bn = step_bottlenecks(EXPLICIT, SAVE_2VPU, bs=0.9, nbs=0.9)
        assert bn.binding != "vpu"

    def test_frontend_count(self):
        bn = step_bottlenecks(EXPLICIT, BASELINE_2VPU)
        # 24 FMAs + 6 loads + 4 broadcasts + 2 scalar = 36 µops / 5.
        assert bn.frontend == pytest.approx(36 / 5)

    def test_embedded_l1_relief_from_b_cache(self):
        with_b = step_bottlenecks(EMBEDDED, SAVE_2VPU)
        without_b = step_bottlenecks(EMBEDDED, BASELINE_2VPU)
        assert with_b.l1 < without_b.l1

    def test_rvc_packs_better_than_vc(self):
        vc = SAVE_2VPU.with_save(coalescing=CoalescingScheme.VERTICAL)
        rvc = SAVE_2VPU
        assert (
            step_bottlenecks(EMBEDDED, rvc, nbs=0.5).vpu
            < step_bottlenecks(EMBEDDED, vc, nbs=0.5).vpu
        )

    def test_hc_is_perfect_packing(self):
        hc = SAVE_2VPU.with_save(coalescing=CoalescingScheme.HORIZONTAL)
        bn = step_bottlenecks(EMBEDDED, hc, nbs=0.5)
        assert bn.vpu == pytest.approx(28 * 0.5 / 2, rel=0.01)

    def test_mixed_square_law_without_technique(self):
        off = SAVE_2VPU.with_save(mixed_precision_technique=False)
        bn = step_bottlenecks(EXPLICIT, off, Precision.MIXED, nbs=0.5)
        d_al = 1 - (1 - 0.5) ** 2  # 0.75 of ALs stay effectual
        assert bn.vpu >= 24 * 0.70 / 2 * 0.9

    def test_mixed_technique_helps(self):
        on = step_bottlenecks(EXPLICIT, SAVE_2VPU, Precision.MIXED, nbs=0.5)
        off = step_bottlenecks(
            EXPLICIT,
            SAVE_2VPU.with_save(mixed_precision_technique=False),
            Precision.MIXED,
            nbs=0.5,
        )
        assert on.vpu <= off.vpu


class TestPredictedSpeedup:
    def test_dense_near_one(self):
        assert predicted_speedup(EXPLICIT, BASELINE_2VPU, SAVE_2VPU) == pytest.approx(
            1.0, abs=0.05
        )

    def test_speedup_grows_with_sparsity(self):
        low = predicted_speedup(EXPLICIT, BASELINE_2VPU, SAVE_2VPU, bs=0.2)
        high = predicted_speedup(EXPLICIT, BASELINE_2VPU, SAVE_2VPU, bs=0.8)
        assert high > low > 1.0

    def test_one_vpu_dense_slowdown(self):
        speedup = predicted_speedup(EXPLICIT, BASELINE_2VPU, SAVE_1VPU)
        assert 0.55 < speedup < 0.85

    def test_one_vpu_overtakes_at_high_sparsity(self):
        two = predicted_speedup(EXPLICIT, BASELINE_2VPU, SAVE_2VPU, bs=0.9, nbs=0.9)
        one = predicted_speedup(EXPLICIT, BASELINE_2VPU, SAVE_1VPU, bs=0.9, nbs=0.9)
        assert one > two


class TestCrossValidation:
    """The closed-form model must track the simulator within tolerance."""

    @pytest.mark.parametrize("bs,nbs", [(0.0, 0.0), (0.4, 0.0), (0.0, 0.6), (0.6, 0.6)])
    def test_explicit_kernel_fp32(self, bs, nbs):
        simulated = simulate_point(
            EXPLICIT, Precision.FP32, SAVE_2VPU, bs, nbs, k_steps=16
        )
        predicted = predicted_time_per_fma_ns(EXPLICIT, SAVE_2VPU, Precision.FP32, bs, nbs)
        assert predicted == pytest.approx(simulated, rel=0.45)

    def test_baseline_explicit(self):
        simulated = simulate_point(
            EXPLICIT, Precision.FP32, BASELINE_2VPU, 0.0, 0.0, k_steps=16
        )
        predicted = predicted_time_per_fma_ns(EXPLICIT, BASELINE_2VPU)
        assert predicted == pytest.approx(simulated, rel=0.25)

    def test_ordering_matches_simulator(self):
        # VC vs RVC ordering on the CW~1 kernel, both worlds.
        vc_cfg = SAVE_2VPU.with_save(
            coalescing=CoalescingScheme.VERTICAL, lane_wise_dependence=False
        )
        sim_vc = simulate_point(EMBEDDED, Precision.FP32, vc_cfg, 0.0, 0.5, k_steps=16)
        sim_rvc = simulate_point(EMBEDDED, Precision.FP32, SAVE_2VPU, 0.0, 0.5, k_steps=16)
        ana_vc = predicted_time_per_fma_ns(EMBEDDED, vc_cfg, nbs=0.5)
        ana_rvc = predicted_time_per_fma_ns(EMBEDDED, SAVE_2VPU, nbs=0.5)
        assert (sim_vc > sim_rvc) == (ana_vc > ana_rvc)


class TestPredictedSurface:
    def test_shape_and_label(self):
        from repro.model.analytic import predicted_surface

        surface = predicted_surface(EXPLICIT, SAVE_2VPU, levels=(0.0, 0.5, 0.9))
        assert surface.ns_per_fma.shape == (3, 3)
        assert surface.label == "analytic"

    def test_monotone_nonincreasing_under_save(self):
        from repro.model.analytic import predicted_surface

        surface = predicted_surface(EXPLICIT, SAVE_2VPU, levels=(0.0, 0.3, 0.6, 0.9))
        grid = surface.ns_per_fma
        # Time never grows with more broadcast sparsity.
        assert (grid[1:, :] <= grid[:-1, :] + 1e-12).all()

    def test_correlates_with_simulated_surface(self, tmp_path):
        import numpy as np

        from repro.model.analytic import predicted_surface
        from repro.model.surface import SparsitySurface

        levels = (0.0, 0.45, 0.9)
        analytic = predicted_surface(EXPLICIT, SAVE_2VPU, levels=levels)
        simulated = SparsitySurface.build(
            EXPLICIT, Precision.FP32, SAVE_2VPU, tmp_path, levels=levels, k_steps=12
        )
        a = analytic.ns_per_fma.ravel()
        s = simulated.ns_per_fma.ravel()
        corr = np.corrcoef(a, s)[0, 1]
        assert corr > 0.8
