"""Whole-network inference estimation (Fig. 14a/14b).

Inference runs at the sparsity reached at the *end* of training
(Sec. VI: "To compute the execution time of inference, we simulate with
the sparsity obtained at the end of training").  The *static* VPU
policy does not apply — its switching interval is much coarser than one
inference — so the bars are baseline / 2 VPUs / 1 VPU / dynamic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional
from collections.abc import Sequence

from repro.experiments.executor import SimExecutor
from repro.kernels.tiling import Precision
from repro.model.estimator import (
    NetworkEstimator,
    NetworkEvaluation,
    aggregate,
)
from repro.model.multicore import MulticoreSplit
from repro.model.networks import NetworkModel
from repro.model.surface import COARSE_LEVELS


def evaluate_inference(
    network: NetworkModel,
    precision: Precision = Precision.FP32,
    store: Optional[Path] = None,
    levels: Sequence[float] = COARSE_LEVELS,
    k_steps: int = 24,
    split: Optional[MulticoreSplit] = None,
    engine: str = "exact",
    executor: Optional[SimExecutor] = None,
) -> NetworkEvaluation:
    """Fig. 14a/b bars for one network × precision."""
    estimator = NetworkEstimator(
        network,
        precision=precision,
        store=store,
        levels=levels,
        k_steps=k_steps,
        split=split,
        engine=engine,
        executor=executor,
    )
    final_step = network.total_steps
    estimates = estimator.step_estimates(final_step, training=False)
    configs = aggregate([estimates], include_static=False)
    return NetworkEvaluation(
        network=network.name,
        precision=precision,
        mode="inference",
        configs=configs,
    )
