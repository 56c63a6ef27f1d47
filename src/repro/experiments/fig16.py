"""Fig. 16: histogram of per-kernel speedup caps.

The speedup *cap* of a kernel is its speedup when sparsity is high
enough that the VPUs are no longer the bottleneck — the paper measures
it per studied kernel and histograms the caps for FP32 / mixed
precision with 2 or 1 VPUs.

We enumerate the distinct GEMM kernels of the evaluated networks
(unique layer-shape × phase combinations, conv and LSTM), evaluate each
at 90%/90% sparsity through the surface + roofline machinery, and
bucket the caps.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional
from collections.abc import Callable

from repro.core.config import BASELINE_2VPU, SAVE_1VPU, SAVE_2VPU, MachineConfig
from repro.experiments.context import RunContext
from repro.experiments.report import ExperimentReport
from repro.kernels.conv import Phase
from repro.kernels.lstm import LstmShape
from repro.kernels.tiling import Precision, RegisterTile
from repro.model.multicore import MulticoreSplit
from repro.model.networks import GNMT, RESNET50_DENSE, VGG16
from repro.model.phases import kernel_tile_for_phase
from repro.model.roofline import layer_traffic_bytes
from repro.model.surface import SparsitySurface
from repro.store import DEFAULT_STORE_ROOT

BUCKETS = ((1.0, 1.2), (1.2, 1.4), (1.4, 1.6), (1.6, 1.8), (1.8, 2.0), (2.0, 99.0))
BUCKET_LABELS = ("1.0-1.2x", "1.2-1.4x", "1.4-1.6x", "1.6-1.8x", "1.8-2.0x", ">2.0x")

CONFIGS: dict[str, MachineConfig] = {"2 VPUs": SAVE_2VPU, "1 VPU": SAVE_1VPU}
MACHINES: dict[str, MachineConfig] = {"baseline": BASELINE_2VPU, **CONFIGS}

#: The saturating sparsity a cap is measured at, on both axes.
HIGH = 0.9


def studied_kernels() -> list[tuple[object, Phase, bool]]:
    """Distinct (layer, phase) kernels across the evaluated networks."""
    kernels: list[tuple[object, Phase, bool]] = []
    seen = set()
    for network in (VGG16, RESNET50_DENSE, GNMT):
        for index, layer in enumerate(network.layers):
            lstm = isinstance(layer, LstmShape)
            phases = (
                (Phase.FORWARD, Phase.BACKWARD_INPUT)
                if lstm
                else (Phase.FORWARD, Phase.BACKWARD_INPUT, Phase.BACKWARD_WEIGHT)
            )
            for phase in phases:
                if phase == Phase.BACKWARD_INPUT and index == 0 and not lstm:
                    continue
                geometry = layer.gemm(phase)
                key = (phase, lstm, geometry.m, geometry.n, geometry.k)
                if key in seen:
                    continue
                seen.add(key)
                kernels.append((layer, phase, lstm))
    return kernels


def _surface_loader(
    precision: Precision, store: Path, k_steps: int, ctx: RunContext
) -> Callable[[str, RegisterTile], SparsitySurface]:
    """``load(machine name, tile)``: one precision's surfaces, each built once."""
    surfaces: dict[tuple[str, RegisterTile], SparsitySurface] = {}

    def load(name: str, tile: RegisterTile) -> SparsitySurface:
        if (name, tile) not in surfaces:
            machine = MACHINES[name]
            # The baseline is sparsity-independent: a single-point grid.
            levels = (0.0, HIGH) if machine.save.enabled else (0.0,)
            surfaces[(name, tile)] = SparsitySurface.build(
                tile, precision, machine, store, levels=levels,
                k_steps=k_steps, executor=ctx.executor, engine=ctx.engine,
            )
        return surfaces[(name, tile)]

    return load


def _cap(
    layer,
    phase: Phase,
    lstm: bool,
    precision: Precision,
    label: str,
    surface: Callable[[str, RegisterTile], SparsitySurface],
    split: MulticoreSplit,
    high: float = HIGH,
) -> float:
    """Speedup at saturating sparsity for one kernel on machine ``label``."""
    tile = kernel_tile_for_phase(phase, lstm=lstm)
    batch = 84 if lstm else 28
    element_bytes = 2 if precision == Precision.MIXED else 4
    macs_per_fma = 32 if precision == Precision.MIXED else 16
    fmas = layer.macs(phase, batch=batch) / macs_per_fma
    traffic = layer_traffic_bytes(layer, phase, batch, element_bytes)

    base_time = split.layer_time_ns(
        fmas, surface("baseline", tile).interpolate(0, 0), traffic
    )
    save_time = split.layer_time_ns(
        fmas, surface(label, tile).interpolate(high, high), traffic
    )
    return base_time / save_time


def run(ctx: Optional[RunContext] = None) -> ExperimentReport:
    """Render the Fig. 16 speedup-cap histograms."""
    ctx = ctx if ctx is not None else RunContext()
    store = ctx.store if ctx.store is not None else DEFAULT_STORE_ROOT
    k_steps = ctx.resolve_k_steps(16)
    split = MulticoreSplit()
    kernels = studied_kernels()
    rows = []
    data: dict[str, dict[str, list[int]]] = {}
    geomeans = {}
    for precision in (Precision.FP32, Precision.MIXED):
        surface = _surface_loader(precision, store, k_steps, ctx)
        for label in CONFIGS:
            conv_counts = [0] * len(BUCKETS)
            lstm_counts = [0] * len(BUCKETS)
            caps = []
            for layer, phase, lstm in kernels:
                cap = _cap(layer, phase, lstm, precision, label, surface, split)
                caps.append(cap)
                for b, (low, highb) in enumerate(BUCKETS):
                    if low <= cap < highb or (b == 0 and cap < low):
                        (lstm_counts if lstm else conv_counts)[b] += 1
                        break
            panel = f"{precision.value.upper()} {label}"
            data[panel] = {"conv": conv_counts, "lstm": lstm_counts}
            geomean = float(
                __import__("numpy").exp(
                    __import__("numpy").mean(__import__("numpy").log(caps))
                )
            )
            geomeans[panel] = geomean
            for b, bucket_label in enumerate(BUCKET_LABELS):
                rows.append(
                    (panel, bucket_label, conv_counts[b], lstm_counts[b])
                )
    return ExperimentReport(
        experiment="fig16",
        title="Histograms of per-kernel speedup caps",
        headers=("Panel", "Cap range", "# conv kernels", "# LSTM kernels"),
        rows=rows,
        notes=[
            f"{len(kernels)} distinct kernels studied (paper: 93)",
            "geomean caps: "
            + ", ".join(f"{k}={v:.2f}x" for k, v in geomeans.items())
            + " (paper: FP32 1.39x/1.62x, MP 1.48x/1.77x for 2/1 VPUs)",
        ],
        data={"histograms": data, "geomeans": geomeans, "n_kernels": len(kernels)},
    )
