"""Shared machinery for the whole-network estimators (Fig. 14).

For each (layer, phase, training step), the estimator:

1. derives the (broadcasted, non-broadcasted) sparsity from Table III's
   operand mapping and the network's profiles,
2. looks up the per-VFMA steady-state time on the kernel's simulated
   2D sparsity surface (bilinear interpolation — the paper's Sec. VI
   methodology),
3. scales by the layer's GEMM volume split across 28 cores, and
4. applies the roofline memory cap (traffic is sparsity-independent).

Configurations follow Fig. 14: the 2-VPU baseline, SAVE with 2 VPUs at
1.7 GHz, SAVE with 1 VPU at 2.1 GHz, the per-epoch *static* best and
the per-kernel *dynamic* best.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional
from collections.abc import Sequence

from repro.core.config import BASELINE_2VPU, SAVE_1VPU, SAVE_2VPU, MachineConfig
from repro.experiments.executor import SimExecutor
from repro.kernels.conv import Phase
from repro.kernels.lstm import LstmShape
from repro.kernels.tiling import Precision, RegisterTile
from repro.model.multicore import MulticoreSplit
from repro.model.networks import NetworkModel
from repro.model.phases import kernel_tile_for_phase, phase_sparsity
from repro.model.roofline import layer_traffic_bytes
from repro.model.surface import COARSE_LEVELS, SparsitySurface
from repro.store import DEFAULT_STORE_ROOT

#: Configuration labels in Fig. 14's bar order.
BASELINE = "baseline"
TWO_VPUS = "2 VPUs"
ONE_VPU = "1 VPU"
STATIC = "static"
DYNAMIC = "dynamic"

MACHINES: dict[str, MachineConfig] = {
    BASELINE: BASELINE_2VPU,
    TWO_VPUS: SAVE_2VPU,
    ONE_VPU: SAVE_1VPU,
}


@dataclass
class KernelEstimate:
    """One (layer, phase) GEMM's time under each machine configuration."""

    layer_name: str
    phase: Phase
    category: str
    #: config label → nanoseconds (baseline / 2 VPUs / 1 VPU).
    times_ns: dict[str, float]

    def dynamic_time(self) -> float:
        """Per-kernel best of the SAVE configurations."""
        return min(self.times_ns[TWO_VPUS], self.times_ns[ONE_VPU])


@dataclass
class ConfigResult:
    """Aggregated time of one configuration over a whole network."""

    label: str
    total_ns: float
    breakdown_ns: dict[str, float]

    def normalized(self, baseline_ns: float) -> float:
        """Execution time normalised to the baseline (Fig. 14 y-axis)."""
        return self.total_ns / baseline_ns

    def speedup(self, baseline_ns: float) -> float:
        return baseline_ns / self.total_ns


@dataclass
class NetworkEvaluation:
    """Fig. 14 bars for one network × precision."""

    network: str
    precision: Precision
    mode: str  # "inference" | "training"
    configs: dict[str, ConfigResult]

    @property
    def baseline_ns(self) -> float:
        return self.configs[BASELINE].total_ns

    def speedup(self, label: str) -> float:
        return self.configs[label].speedup(self.baseline_ns)

    def rows(self) -> list[tuple[str, float, float]]:
        """(config, normalised time, speedup) rows for reports."""
        base = self.baseline_ns
        return [
            (label, result.normalized(base), result.speedup(base))
            for label, result in self.configs.items()
        ]


class NetworkEstimator:
    """Computes per-kernel and whole-network times for one network.

    Surfaces come from the sweep store at ``store`` (default: the
    repo-level store), filled through ``executor`` where points are
    missing; each one is loaded once per estimator.
    """

    def __init__(
        self,
        network: NetworkModel,
        precision: Precision = Precision.FP32,
        store: Optional[Path] = None,
        levels: Sequence[float] = COARSE_LEVELS,
        k_steps: int = 24,
        split: Optional[MulticoreSplit] = None,
        cnn_batch: int = 28,
        lstm_batch: int = 84,
        engine: str = "exact",
        executor: Optional[SimExecutor] = None,
    ) -> None:
        self.network = network
        self.precision = precision
        self.store = store if store is not None else DEFAULT_STORE_ROOT
        self.executor = executor
        self.levels = levels
        self.k_steps = k_steps
        self.split = split if split is not None else MulticoreSplit()
        self.cnn_batch = cnn_batch
        self.lstm_batch = lstm_batch
        self.engine = engine
        self.element_bytes = 2 if precision == Precision.MIXED else 4
        self.macs_per_fma = 32 if precision == Precision.MIXED else 16
        self._surfaces: dict[tuple[str, RegisterTile], SparsitySurface] = {}

    # ------------------------------------------------------------------

    def _surface(self, label: str, tile: RegisterTile) -> SparsitySurface:
        surface = self._surfaces.get((label, tile))
        if surface is None:
            machine = MACHINES[label]
            # Baseline time is sparsity-independent: a single-point grid.
            levels = self.levels if machine.save.enabled else (0.0,)
            surface = SparsitySurface.build(
                tile, self.precision, machine, self.store, levels=levels,
                k_steps=self.k_steps, executor=self.executor, engine=self.engine,
            )
            self._surfaces[(label, tile)] = surface
        return surface

    def _batch(self, layer) -> int:
        return self.lstm_batch if isinstance(layer, LstmShape) else self.cnn_batch

    def kernel_estimate(
        self, layer_index: int, phase: Phase, step: float
    ) -> KernelEstimate:
        """Time one (layer, phase) GEMM under every machine config."""
        layer = self.network.layers[layer_index]
        lstm = isinstance(layer, LstmShape)
        batch = self._batch(layer)
        bs, nbs = phase_sparsity(self.network, layer_index, phase, step)
        macs = layer.macs(phase, batch=batch)
        fmas = macs / self.macs_per_fma
        traffic = layer_traffic_bytes(layer, phase, batch, self.element_bytes)
        tile = kernel_tile_for_phase(phase, lstm=lstm)

        times: dict[str, float] = {}
        for label in MACHINES:
            ns_per_fma = self._surface(label, tile).interpolate(bs, nbs)
            times[label] = self.split.layer_time_ns(fmas, ns_per_fma, traffic)
        category = self._category(layer_index, phase, lstm)
        return KernelEstimate(layer.name, phase, category, times)

    def _category(self, layer_index: int, phase: Phase, lstm: bool) -> str:
        if not lstm and layer_index == 0:
            return "1st layer"
        if lstm:
            return "forward" if phase == Phase.FORWARD else "backward"
        if phase == Phase.FORWARD:
            return "forward"
        if phase == Phase.BACKWARD_INPUT:
            return "backward input"
        return "backward weight"

    # ------------------------------------------------------------------

    def phases_for(self, layer_index: int, training: bool) -> list[Phase]:
        """Phases executed for one layer (Sec. VI conventions).

        The first conv layer never back-propagates input; LSTMs run a
        merged backward pass (modeled as its two constituent GEMMs).
        """
        if not training:
            return [Phase.FORWARD]
        layer = self.network.layers[layer_index]
        if isinstance(layer, LstmShape):
            return [Phase.FORWARD, Phase.BACKWARD_INPUT, Phase.BACKWARD_WEIGHT]
        phases = [Phase.FORWARD, Phase.BACKWARD_WEIGHT]
        if layer_index > 0:
            phases.insert(1, Phase.BACKWARD_INPUT)
        return phases

    def step_estimates(self, step: float, training: bool) -> list[KernelEstimate]:
        """All kernel estimates of one training step (or inference run)."""
        estimates: list[KernelEstimate] = []
        for layer_index in range(self.network.n_layers):
            for phase in self.phases_for(layer_index, training):
                estimates.append(self.kernel_estimate(layer_index, phase, step))
        return estimates


def aggregate(
    estimates_per_step: list[list[KernelEstimate]],
    include_static: bool,
) -> dict[str, ConfigResult]:
    """Aggregate sampled steps into Fig. 14's configuration bars."""
    labels = [BASELINE, TWO_VPUS, ONE_VPU]
    if include_static:
        labels.append(STATIC)
    labels.append(DYNAMIC)

    totals = {label: 0.0 for label in labels}
    breakdowns: dict[str, dict[str, float]] = {label: {} for label in labels}

    def add(label: str, category: str, value: float) -> None:
        totals[label] += value
        breakdowns[label][category] = breakdowns[label].get(category, 0.0) + value

    n_steps = len(estimates_per_step)
    for estimates in estimates_per_step:
        # Fixed configurations.
        for label in (BASELINE, TWO_VPUS, ONE_VPU):
            for est in estimates:
                add(label, est.category, est.times_ns[label] / n_steps)
        # Static: whole-step best VPU count.
        if include_static:
            step_total = {
                label: sum(est.times_ns[label] for est in estimates)
                for label in (TWO_VPUS, ONE_VPU)
            }
            chosen = TWO_VPUS if step_total[TWO_VPUS] <= step_total[ONE_VPU] else ONE_VPU
            for est in estimates:
                add(STATIC, est.category, est.times_ns[chosen] / n_steps)
        # Dynamic: per-kernel best.
        for est in estimates:
            add(DYNAMIC, est.category, est.dynamic_time() / n_steps)

    return {
        label: ConfigResult(label, totals[label], breakdowns[label])
        for label in labels
    }
