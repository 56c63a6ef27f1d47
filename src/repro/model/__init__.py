"""The paper's evaluation methodology (Sec. VI) on top of the pipeline.

* :mod:`repro.model.networks` — the layer zoo: VGG16 (13 convs),
  ResNet-50 (53 convs), GNMT (8 LSTM layers), each bound to its
  activation-sparsity profile and pruning schedule.
* :mod:`repro.model.phases` — Table III: which tensor feeds each GEMM
  operand's sparsity per phase, and the register tiling each phase's
  DNNL kernel uses.
* :mod:`repro.model.surface` — 2D (BS × NBS) execution-time surfaces
  from the detailed pipeline, with bilinear interpolation — exactly the
  paper's sampling methodology.
* :mod:`repro.model.roofline` — per-layer memory-boundedness caps from
  layer footprints and the DRAM/L3 bandwidth share of 28 cores.
* :mod:`repro.model.multicore` — work and bandwidth partitioning across
  the 28-core machine.
* :mod:`repro.model.inference` / :mod:`repro.model.training` — the
  whole-network estimators behind Fig. 14.
* :mod:`repro.model.analytic` — closed-form speedup *caps* (front-end /
  memory / latency bounds) used for the Fig. 16 histograms.
"""

from repro.model.energy import EnergyBreakdown, EnergyModel, EnergyParams
from repro.model.networks import (
    GNMT,
    RESNET50_DENSE,
    RESNET50_PRUNED,
    VGG16,
    NetworkModel,
)
from repro.model.phases import kernel_tile_for_phase, phase_sparsity
from repro.model.surface import SparsitySurface
from repro.model.roofline import layer_memory_time_ns
from repro.model.multicore import MulticoreSplit

__all__ = [
    "EnergyBreakdown",
    "EnergyModel",
    "EnergyParams",
    "GNMT",
    "MulticoreSplit",
    "NetworkModel",
    "RESNET50_DENSE",
    "RESNET50_PRUNED",
    "SparsitySurface",
    "VGG16",
    "kernel_tile_for_phase",
    "layer_memory_time_ns",
    "phase_sparsity",
]
