#!/usr/bin/env python3
"""Estimate SAVE's benefit on pruned ResNet-50 training, epoch by epoch.

Reproduces the Fig. 14c methodology for one network: at sampled epochs,
per layer and phase, map the profiled sparsity (activation profile +
Zhu-Gupta pruning schedule) onto the simulated kernel surfaces, apply
the 28-core roofline, and report how the speedup evolves as pruning
ramps from 0% (epoch 32) to 80% (epoch 60).

Run:  python examples/pruned_resnet_training.py
"""

from repro.kernels.tiling import Precision
from repro.model.estimator import BASELINE, DYNAMIC, NetworkEstimator
from repro.model.networks import RESNET50_PRUNED


def main() -> None:
    # Surfaces come from (and fill) the repo-level sweep store.
    estimator = NetworkEstimator(RESNET50_PRUNED, precision=Precision.MIXED, k_steps=16)
    network = RESNET50_PRUNED
    print(f"{network.name}: {network.n_layers} conv layers, "
          f"pruning epochs {network.pruning.start_step}-{network.pruning.end_step} "
          f"to {network.pruning.target_sparsity:.0%}")
    print(f"{'epoch':>6} {'weight sparsity':>16} {'epoch speedup':>14}")

    for epoch in (0, 32, 40, 48, 60, 80, 102):
        estimates = estimator.step_estimates(epoch, training=True)
        baseline = sum(est.times_ns[BASELINE] for est in estimates)
        dynamic = sum(est.dynamic_time() for est in estimates)
        sparsity = network.weight_sparsity_at(epoch)
        print(f"{epoch:>6} {sparsity:>15.0%} {baseline / dynamic:>13.2f}x")

    # Which phase benefits most at the end of training?
    estimates = estimator.step_estimates(102, training=True)
    by_phase = {}
    for est in estimates:
        base, dyn = by_phase.get(est.category, (0.0, 0.0))
        by_phase[est.category] = (
            base + est.times_ns[BASELINE],
            dyn + est.dynamic_time(),
        )
    print("\nper-phase speedup at the final epoch:")
    for category, (base, dyn) in sorted(by_phase.items()):
        print(f"  {category:16s} {base / dyn:.2f}x")


if __name__ == "__main__":
    main()
