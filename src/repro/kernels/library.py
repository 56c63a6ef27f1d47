"""The named kernels the paper's kernel-level figures study.

Each entry fixes the register tiling (which determines the effective
combination window and dependence distance — the quantities Figs. 15,
17, 18 and 19 turn on) and the broadcast pattern, while sparsity levels
and precision are supplied per experiment.

Tile choices follow the paper's stated properties:

* ``resnet3_2_bwd_input`` (Fig. 18a) — "uses 28 accumulators … each
  non-broadcasted multiplicand is reused 28 times, so the effective CW
  size is around 1 … common among kernels with the embedded broadcast
  pattern": 28 rows × 1 column vector, embedded.
* ``resnet5_1a_bwd_input`` (Fig. 18b) — "21 accumulators … each
  non-broadcasted multiplicand is reused 7 times, so the effective CW
  size is approximately 3": 7 rows × 3 column vectors, embedded.
* ``resnet3_2_bwd_weights`` (Fig. 17) — an embedded-broadcast kernel
  (the pattern whose L1 bandwidth the B$ relieves): 14 × 2.
* ``resnet2_2_fwd`` (Fig. 15) — a forward kernel in the explicit
  broadcast pattern: 4 × 6 (24 accumulators).
* ``resnet4_1a_bwd_input`` (Fig. 19) — mixed-precision
  backward-input kernel: 28 × 1, embedded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union
from collections.abc import Callable

from repro.kernels.gemm import GemmKernelConfig
from repro.kernels.stream import GeneratorTraceStream
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.kernels.trace import KernelTrace


class UnknownKernelError(KeyError):
    """An unknown kernel name; the message lists every registered one."""


@dataclass(frozen=True)
class KernelSpec:
    """A library entry: tiling plus provenance."""

    name: str
    tile: RegisterTile
    default_precision: Precision
    description: str
    paper_figure: str

    def config(
        self,
        broadcast_sparsity: float = 0.0,
        nonbroadcast_sparsity: float = 0.0,
        precision: Optional[Precision] = None,
        k_steps: int = 64,
        use_write_masks: bool = False,
        seed: int = 0,
    ) -> GemmKernelConfig:
        """Instantiate a trace config for this kernel."""
        return GemmKernelConfig(
            name=self.name,
            tile=self.tile,
            k_steps=k_steps,
            precision=precision if precision is not None else self.default_precision,
            broadcast_sparsity=broadcast_sparsity,
            nonbroadcast_sparsity=nonbroadcast_sparsity,
            use_write_masks=use_write_masks,
            seed=seed,
        )


@dataclass(frozen=True)
class NMKernelSpec(KernelSpec):
    """A library entry whose configs are N:M structured-sparse.

    ``config()`` has the same signature as the base class (sparsity
    levels, precision, k_steps, seed), so every sweep producer written
    against :class:`KernelSpec` drives structured kernels unchanged —
    the returned config is an
    :class:`repro.rivals.nm.NMKernelConfig`, whose broadcast sparsity
    is realised on the pattern lattice.
    """

    pattern: str = "2:4"

    def config(
        self,
        broadcast_sparsity: float = 0.0,
        nonbroadcast_sparsity: float = 0.0,
        precision: Optional[Precision] = None,
        k_steps: int = 64,
        use_write_masks: bool = False,
        seed: int = 0,
    ):
        from repro.rivals.nm import NMKernelConfig

        return NMKernelConfig(
            name=self.name,
            tile=self.tile,
            k_steps=k_steps,
            pattern=self.pattern,
            precision=precision if precision is not None else self.default_precision,
            broadcast_sparsity=broadcast_sparsity,
            nonbroadcast_sparsity=nonbroadcast_sparsity,
            use_write_masks=use_write_masks,
            seed=seed,
        )


KERNEL_LIBRARY: dict[str, KernelSpec] = {
    spec.name: spec
    for spec in [
        KernelSpec(
            name="resnet2_2_fwd",
            tile=RegisterTile(4, 6, BroadcastPattern.EXPLICIT),
            default_precision=Precision.MIXED,
            description="ResNet2_2 forward propagation (Fig. 15 kernel)",
            paper_figure="Fig. 15",
        ),
        KernelSpec(
            name="resnet3_2_bwd_weights",
            tile=RegisterTile(14, 2, BroadcastPattern.EMBEDDED),
            default_precision=Precision.FP32,
            description="ResNet3_2 back-propagation of weights (Fig. 17 kernel)",
            paper_figure="Fig. 17",
        ),
        KernelSpec(
            name="resnet3_2_bwd_input",
            tile=RegisterTile(28, 1, BroadcastPattern.EMBEDDED),
            default_precision=Precision.FP32,
            description=(
                "ResNet3_2 back-propagation of input: 28 accumulators, "
                "effective CW ~1 (Fig. 18a kernel)"
            ),
            paper_figure="Fig. 18a",
        ),
        KernelSpec(
            name="resnet5_1a_bwd_input",
            tile=RegisterTile(7, 3, BroadcastPattern.EMBEDDED),
            default_precision=Precision.FP32,
            description=(
                "ResNet5_1a back-propagation of input: 21 accumulators, "
                "effective CW ~3 (Fig. 18b kernel)"
            ),
            paper_figure="Fig. 18b",
        ),
        KernelSpec(
            name="resnet4_1a_bwd_input",
            tile=RegisterTile(28, 1, BroadcastPattern.EMBEDDED),
            default_precision=Precision.MIXED,
            description=(
                "ResNet4_1a mixed-precision back-propagation of input "
                "(Fig. 19 kernel)"
            ),
            paper_figure="Fig. 19",
        ),
        KernelSpec(
            name="explicit_wide",
            tile=RegisterTile(4, 6, BroadcastPattern.EXPLICIT),
            default_precision=Precision.FP32,
            description="Generic wide explicit-broadcast forward kernel",
            paper_figure="-",
        ),
        KernelSpec(
            name="embedded_tall",
            tile=RegisterTile(28, 1, BroadcastPattern.EMBEDDED),
            default_precision=Precision.FP32,
            description="Generic tall embedded-broadcast kernel",
            paper_figure="-",
        ),
        NMKernelSpec(
            name="nm24_fwd",
            tile=RegisterTile(4, 6, BroadcastPattern.EXPLICIT),
            default_precision=Precision.FP32,
            description=(
                "2:4 structured-sparse forward kernel (explicit "
                "broadcast) — the rival-mechanism comparison kernel"
            ),
            paper_figure="-",
            pattern="2:4",
        ),
        NMKernelSpec(
            name="nm48_bwd_input",
            tile=RegisterTile(28, 1, BroadcastPattern.EMBEDDED),
            default_precision=Precision.FP32,
            description=(
                "4:8 structured-sparse tall backward-input kernel "
                "(embedded broadcast)"
            ),
            paper_figure="-",
            pattern="4:8",
        ),
    ]
}


def get_kernel(spec: Union[str, KernelSpec]) -> KernelSpec:
    """The single name→kernel lookup every consumer goes through.

    Accepts a name (looked up in :data:`KERNEL_LIBRARY`) or an already
    resolved :class:`KernelSpec` (returned as-is, so call sites can be
    written once against "spec-ish" inputs).  Raises
    :class:`UnknownKernelError` (a ``KeyError``) listing the available
    names on an unknown name, ``TypeError`` on any other type.
    """
    if isinstance(spec, KernelSpec):
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"kernel spec must be a name or KernelSpec, got {type(spec).__name__}"
        )
    try:
        return KERNEL_LIBRARY[spec]
    except KeyError:
        names = ", ".join(sorted(KERNEL_LIBRARY))
        raise UnknownKernelError(
            f"unknown kernel {spec!r}; available: {names}"
        ) from None


def trace_stream(config: object) -> GeneratorTraceStream:
    """Config → chunked trace stream, dispatched on the config type.

    The single config→generator registry: every consumer (CLI, serve,
    sweeps, surfaces, the executor) resolves its generator here instead
    of hard-wiring ``generate_*`` imports per kernel family.
    """
    factories = _stream_factories()
    factory = factories.get(type(config))
    if factory is None:
        known = ", ".join(sorted(t.__name__ for t in factories))
        raise TypeError(
            f"no trace generator registered for {type(config).__name__}; "
            f"known config types: {known}"
        )
    return factory(config)


def generate_trace(config: object) -> KernelTrace:
    """Config → materialized trace, through the same registry."""
    return trace_stream(config).to_trace()


@functools.lru_cache(maxsize=None)
def _stream_factories() -> dict[type, Callable[..., GeneratorTraceStream]]:
    """Config type → stream generator, built on first use.

    Not at import time: the rival generators import the kernels package,
    so importing them from here while it loads is a cycle.
    """
    from repro.kernels.gemm import generate_gemm_stream
    from repro.kernels.sparsetrain import SparseTrainConfig, generate_sparsetrain_stream
    from repro.rivals.indexmac import IndexMACConfig, generate_indexmac_stream
    from repro.rivals.nm import NMKernelConfig, generate_nm_stream

    return {
        GemmKernelConfig: generate_gemm_stream,
        SparseTrainConfig: generate_sparsetrain_stream,
        NMKernelConfig: generate_nm_stream,
        IndexMACConfig: generate_indexmac_stream,
    }
