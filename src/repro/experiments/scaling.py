"""Extension experiment: multicore scaling and memory saturation.

Sweeps the active core count for one compute-bound conv layer and one
LSTM cell (both under SAVE at realistic sparsity) and reports layer
time and parallel efficiency.  The conv layer scales; the LSTM cell
saturates the shared DRAM early — the structural reason GNMT's speedups
cap below the CNNs' (Sec. VII-A).
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import SAVE_2VPU
from repro.experiments.context import RunContext
from repro.experiments.report import ExperimentReport
from repro.kernels.conv import ConvShape, Phase
from repro.kernels.lstm import LstmShape
from repro.kernels.tiling import Precision
from repro.model.multicore import MulticoreSplit
from repro.model.phases import kernel_tile_for_phase
from repro.model.roofline import layer_traffic_bytes
from repro.model.surface import SparsitySurface
from repro.store import DEFAULT_STORE_ROOT

CONV = ConvShape("conv3_2", 128, 128, 28, 28, kernel=3, stride=1, padding=1)
LSTM = LstmShape("gnmt_cell", hidden=1024, input_size=1024, seq_len=30)

CORE_COUNTS = (1, 4, 8, 14, 28)


def _layer_times(layer, lstm: bool, cores: int, surface: SparsitySurface):
    """(compute time, memory time) for a weak-scaled layer."""
    bs, nbs = (0.2, 0.9) if lstm else (0.5, 0.0)
    ns_per_fma = surface.interpolate(bs, nbs)
    batch = 3 * cores if lstm else cores
    fmas = layer.macs(Phase.FORWARD, batch=batch) / 16
    traffic = layer_traffic_bytes(layer, Phase.FORWARD, batch)
    split = MulticoreSplit(cores=cores)
    return (
        split.compute_time_ns(fmas, ns_per_fma),
        split.memory_time_ns(traffic),
    )


def run(ctx: Optional[RunContext] = None) -> ExperimentReport:
    """Render the core-count scaling table."""
    ctx = ctx if ctx is not None else RunContext()
    store = ctx.store if ctx.store is not None else DEFAULT_STORE_ROOT
    k_steps = ctx.resolve_k_steps(16)
    rows: list[tuple] = []
    data: dict[str, dict[int, float]] = {"conv": {}, "lstm": {}}
    for label, layer, lstm in (("conv", CONV, False), ("lstm", LSTM, True)):
        surface = SparsitySurface.build(
            kernel_tile_for_phase(Phase.FORWARD, lstm=lstm), Precision.FP32,
            SAVE_2VPU, store, levels=(0.0, 0.9), k_steps=k_steps,
            executor=ctx.executor, engine=ctx.engine,
        )
        for cores in CORE_COUNTS:
            compute, memory = _layer_times(layer, lstm, cores, surface)
            time = max(compute, memory)
            bound_frac = memory / time
            data[label][cores] = bound_frac
            rows.append(
                (
                    label,
                    cores,
                    f"{time / 1e3:.0f}us",
                    f"{compute / 1e3:.0f}us",
                    f"{memory / 1e3:.0f}us",
                    f"{bound_frac:.0%}",
                )
            )
    return ExperimentReport(
        experiment="scaling",
        title="Weak scaling across cores: conv vs LSTM (extension)",
        headers=("Layer", "Cores", "Time", "Compute", "Memory", "Mem-bound"),
        rows=rows,
        notes=[
            "weak scaling (one sample per core for conv, three sequences "
            "per core for LSTM), SAVE 2 VPUs at realistic sparsity: the "
            "conv layer stays compute bound at 28 cores while the "
            "pruned LSTM cell runs at the shared-DRAM floor — the "
            "structural reason GNMT speedups cap early (Sec. VII-A)",
        ],
        data=data,
    )
