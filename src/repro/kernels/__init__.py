"""GEMM kernel substrate — the stand-in for Intel DNNL's JIT kernels.

* :mod:`repro.kernels.tiling` — register-tile geometry and the derived
  scheduling quantities (dependence distance, effective combination
  window).
* :mod:`repro.kernels.gemm` — µop-trace generation for register-tiled
  GEMM inner loops in the *explicit* and *embedded* broadcast patterns,
  FP32 and mixed precision, with optional write masks.
* :mod:`repro.kernels.trace` — the :class:`KernelTrace` container tying
  a trace to its functional memory image and statistics.
* :mod:`repro.kernels.stream` — the chunked :class:`TraceStream`
  contract and the restartable generator-backed stream the producers
  return (the memory-flat path the out-of-core sweeps ride on).
* :mod:`repro.kernels.conv` / :mod:`repro.kernels.lstm` — layer-shape →
  GEMM lowering for convolutions and LSTM cells.
* :mod:`repro.kernels.library` — the named kernels the paper's figures
  study (ResNet2_2, ResNet3_2, ResNet4_1a, ResNet5_1a, ...).
"""

from repro.kernels.conv import ConvShape, Phase
from repro.kernels.gemm import (
    TRACE_GENERATOR_VERSION,
    GemmKernelConfig,
    generate_gemm_stream,
    generate_gemm_trace,
)
from repro.kernels.library import (
    KERNEL_LIBRARY,
    KernelSpec,
    generate_trace,
    get_kernel,
    trace_stream,
)
from repro.kernels.lstm import LstmShape
from repro.kernels.stream import GeneratorTraceStream, TraceStream, ensure_stream
from repro.kernels.stream import stream_uops
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.kernels.trace import DEFAULT_CHUNK, KernelTrace, TraceStats, count_uops

__all__ = [
    "BroadcastPattern",
    "ConvShape",
    "DEFAULT_CHUNK",
    "GemmKernelConfig",
    "GeneratorTraceStream",
    "KERNEL_LIBRARY",
    "KernelSpec",
    "KernelTrace",
    "LstmShape",
    "Phase",
    "Precision",
    "RegisterTile",
    "TRACE_GENERATOR_VERSION",
    "TraceStats",
    "TraceStream",
    "count_uops",
    "ensure_stream",
    "generate_gemm_stream",
    "generate_gemm_trace",
    "generate_trace",
    "get_kernel",
    "stream_uops",
    "trace_stream",
]
