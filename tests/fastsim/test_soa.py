"""TraceArrays: RNG replay, µop accounting and the counter contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BASELINE_2VPU, SAVE_2VPU
from repro.core.pipeline import simulate
from repro.fastsim import TraceArrays, simulate_config
from repro.kernels.gemm import generate_gemm_trace
from repro.kernels.library import get_kernel
from repro.kernels.trace import count_uops

K_STEPS = 4


def _config(name, bs=0.5, nbs=0.5, **overrides):
    return get_kernel(name).config(
        broadcast_sparsity=bs,
        nonbroadcast_sparsity=nbs,
        k_steps=overrides.pop("k_steps", K_STEPS),
        seed=overrides.pop("seed", 0),
        **overrides,
    )


KERNELS = ("resnet2_2_fwd", "resnet3_2_bwd_input", "resnet3_2_bwd_weights")


class TestConstruction:
    @pytest.mark.parametrize("name", KERNELS)
    def test_from_config_matches_from_trace(self, name):
        config = _config(name)
        from_config = TraceArrays.from_config(config)
        from_trace = TraceArrays.from_trace(generate_gemm_trace(config))
        np.testing.assert_array_equal(from_config.a_nz, from_trace.a_nz)
        np.testing.assert_array_equal(from_config.b_nz, from_trace.b_nz)
        np.testing.assert_array_equal(
            from_config.effectual, from_trace.effectual
        )
        np.testing.assert_array_equal(
            from_config.ml_count, from_trace.ml_count
        )
        np.testing.assert_array_equal(
            from_config.broadcast_nonzero, from_trace.broadcast_nonzero
        )

    def test_shapes(self):
        config = _config("resnet2_2_fwd")  # 4x6 explicit mixed
        arrays = TraceArrays.from_config(config)
        assert arrays.effectual.shape == (K_STEPS, 4, 6, 16)
        assert arrays.ml_count.shape == arrays.effectual.shape
        assert arrays.mixed
        assert arrays.k_depth == 2 * K_STEPS
        assert arrays.a_nz.shape == (4, arrays.k_depth)

    def test_mixed_ml_count_range(self):
        arrays = TraceArrays.from_config(_config("resnet2_2_fwd"))
        assert int(arrays.ml_count.max()) <= 2
        # effectual is exactly "any multiplicand pair alive".
        np.testing.assert_array_equal(arrays.effectual, arrays.ml_count > 0)

    def test_dense_point_has_no_sparsity_structure(self):
        arrays = TraceArrays.from_config(_config("resnet2_2_fwd", 0.0, 0.0))
        assert arrays.skipped_fmas == 0
        assert arrays.pass_through_lanes == 0
        assert bool(arrays.effectual.all())


#: Sparsity levels: the ends give zero masks of size 0 and of the whole
#: matrix; a small pool makes points of one stack share their A draws.
_LEVELS = st.one_of(
    st.sampled_from((0.0, 1.0, 0.5)), st.floats(0.0, 1.0, allow_nan=False)
)


class TestStackedConstruction:
    @settings(max_examples=30)
    @given(
        name=st.sampled_from(KERNELS + ("explicit_wide", "embedded_tall")),
        k_steps=st.integers(1, 5),
        seed=st.integers(0, 2**16),
        points=st.lists(st.tuples(_LEVELS, _LEVELS), min_size=1, max_size=6),
    )
    def test_stack_equals_per_point_traces(self, name, k_steps, seed, points):
        configs = [
            _config(name, bs, nbs, k_steps=k_steps, seed=seed) for bs, nbs in points
        ]
        stacked = TraceArrays.from_config(configs)
        assert stacked.stacked and stacked.points == len(configs)
        for index, config in enumerate(configs):
            single = TraceArrays.from_trace(generate_gemm_trace(config))
            for field in (
                "a_nz", "b_nz", "effectual", "ml_count", "broadcast_nonzero"
            ):
                np.testing.assert_array_equal(
                    getattr(stacked, field)[index], getattr(single, field)
                )
            assert stacked.skipped_fmas[index] == single.skipped_fmas
            assert stacked.effectual_lanes[index] == single.effectual_lanes
            assert stacked.pass_through_lanes[index] == single.pass_through_lanes

    def test_one_config_has_no_point_axis(self):
        single = TraceArrays.from_config(_config("resnet2_2_fwd"))
        stack = TraceArrays.from_config([_config("resnet2_2_fwd")])
        assert not single.stacked and stack.stacked
        np.testing.assert_array_equal(stack.effectual[0], single.effectual)
        assert isinstance(single.skipped_fmas, int)

    def test_stack_must_differ_only_in_sparsity(self):
        with pytest.raises(ValueError, match="sparsity"):
            TraceArrays.from_config(
                [_config("resnet2_2_fwd"), _config("resnet2_2_fwd", seed=1)]
            )
        with pytest.raises(ValueError, match="at least one"):
            TraceArrays.from_config([])

    def test_stacked_results_equal_one_config_results(self):
        configs = [
            _config("resnet3_2_bwd_input", bs, nbs)
            for bs in (0.0, 0.4) for nbs in (0.0, 0.7, 1.0)
        ]
        for engine in ("fast", "analytic"):
            assert simulate_config(configs, SAVE_2VPU, engine) == [
                simulate_config(config, SAVE_2VPU, engine) for config in configs
            ]


class TestUopAccounting:
    @pytest.mark.parametrize("name", KERNELS)
    def test_uop_count_matches_generated_trace(self, name):
        config = _config(name)
        trace = generate_gemm_trace(config)
        arrays = TraceArrays.from_config(config)
        assert arrays.uop_count == len(trace.materialize())
        assert arrays.fma_count == count_uops(trace.materialize()).fmas

    def test_write_mask_kmovs_counted(self):
        base = _config("resnet3_2_bwd_input")
        masked = _config("resnet3_2_bwd_input", use_write_masks=True)
        delta = (
            TraceArrays.from_config(masked).uop_count
            - TraceArrays.from_config(base).uop_count
        )
        assert delta == K_STEPS * base.tile.col_vectors


class TestCounterContract:
    """The fast tier's static counters equal the exact pipeline's."""

    @pytest.mark.parametrize("name", KERNELS)
    def test_save_counters_bit_for_bit(self, name):
        config = _config(name)
        exact = simulate(generate_gemm_trace(config), SAVE_2VPU)
        fast = simulate_config(config, SAVE_2VPU, "fast")
        assert fast.uop_count == exact.uop_count
        assert fast.fma_count == exact.fma_count
        assert fast.skipped_fmas == exact.skipped_fmas
        assert fast.effectual_lanes == exact.effectual_lanes
        assert fast.pass_through_lanes == exact.pass_through_lanes

    def test_baseline_counters_zero(self):
        config = _config("resnet3_2_bwd_input")
        exact = simulate(generate_gemm_trace(config), BASELINE_2VPU)
        fast = simulate_config(config, BASELINE_2VPU, "fast")
        assert (exact.effectual_lanes, exact.pass_through_lanes,
                exact.skipped_fmas) == (0, 0, 0)
        assert (fast.effectual_lanes, fast.pass_through_lanes,
                fast.skipped_fmas) == (0, 0, 0)
