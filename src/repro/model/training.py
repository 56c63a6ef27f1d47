"""End-to-end training estimation (Fig. 14c/14d).

Full training in a cycle-level simulator is infeasible, so — like the
paper — we sample training steps, map each (layer, step) pair's
profiled sparsity onto the kernels' 2D execution-time surfaces, sum the
layers per step, and average the sampled steps ("we take the average of
all the epochs as SAVE's mean network execution time during training").

The *static* policy chooses the better VPU count once per sampled step
(epoch); *dynamic* chooses per kernel.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional
from collections.abc import Sequence

import numpy as np

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


def sampled_steps(total_steps: int, samples: int) -> list[float]:
    """Evenly spaced training steps covering the whole run."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    if samples == 1:
        return [total_steps / 2]
    return list(np.linspace(0, total_steps, samples))


def evaluate_training(
    network: NetworkModel,
    precision: Precision = Precision.FP32,
    store: Optional[Path] = None,
    levels: Sequence[float] = COARSE_LEVELS,
    k_steps: int = 24,
    samples: int = 8,
    split: Optional[MulticoreSplit] = None,
    engine: str = "exact",
    executor: Optional[SimExecutor] = None,
) -> NetworkEvaluation:
    """Fig. 14c/d bars for one network × precision."""
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
    estimates_per_step = [
        estimator.step_estimates(step, training=True)
        for step in sampled_steps(network.total_steps, samples)
    ]
    configs = aggregate(estimates_per_step, include_static=True)
    return NetworkEvaluation(
        network=network.name,
        precision=precision,
        mode="training",
        configs=configs,
    )
