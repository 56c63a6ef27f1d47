"""Structure-of-arrays view of a GEMM inner-loop kernel.

The exact pipeline walks a list of µop *objects*; everything the fast
engine needs from that stream is a handful of dense numpy tensors:

* the non-zero masks of the two input matrices (``a_nz``, ``b_nz``),
* the per-(step, row, column-vector, lane) **effectual tensor** — the
  vectorised Effectual Lane Mask of every VFMA in the trace, computed
  with exactly the semantics of :func:`repro.core.save.elm.compute_elm`
  (a lane is effectual iff both multiplicand elements are non-zero;
  mixed precision is per accumulator lane over its two multiplicand
  pairs),
* per-µop-class counts (loads, broadcasts, kmovs, FMAs, scalar
  overhead) for front-end accounting.

:meth:`TraceArrays.from_config` rebuilds the matrices by replaying the
trace builder's seeded RNG calls, so the arrays match a generated trace
bit-for-bit *without* materialising a single µop object — that is where
the fast tier's per-point speedup comes from.  Given a stack of configs
that differ only in their sparsity levels it returns the arrays of every
point along a leading **point axis**, replaying the draws the points
share once (see :meth:`TraceArrays.from_config`), so a sweep chunk is
one array program rather than one replay per point.
:meth:`TraceArrays.from_trace` reads the same matrices out of an
already-built :class:`repro.kernels.trace.KernelTrace`, and
:meth:`TraceArrays.from_stream` appends chunk-by-chunk from any
:class:`repro.kernels.stream.TraceStream` — decoding the µops against
the stream's memory image — so the structure-of-arrays can be built
without a materialized µop list in memory.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.isa.datatypes import BF16_LANES, FP32_LANES
from repro.isa.uops import UopKind
from repro.kernels.gemm import POINT_AXES, GemmKernelConfig
from repro.kernels.stream import TraceStream
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.kernels.trace import DEFAULT_CHUNK, KernelTrace
from repro.sparsity.generators import nonzero_values, zero_mask

__all__ = ["TraceArrays", "stack_key"]

#: FMA provenance tag written by the GEMM generators:
#: ``k{step}r{row}c{col_vector}``.
_FMA_TAG = re.compile(r"k(\d+)r(\d+)c(\d+)")


@dataclass(frozen=True)
class TraceArrays:
    """Dense-array equivalent of one generated kernel trace, or a stack.

    ``effectual`` has shape ``(k_steps, rows, col_vectors, 16)`` and is
    True where the VFMA of reduction step ``k`` on accumulator
    ``(row, j)`` does real work in accumulator lane ``l``.
    ``ml_count`` is the per-lane effectual multiplicand-lane count —
    identical to ``effectual`` for FP32, and in ``{0, 1, 2}`` for mixed
    precision (two reduction levels per accumulator lane).

    A *stack* of points that share everything but their sparsity levels
    puts a leading point axis of length ``P`` on every array field
    (``effectual`` becomes ``(P, k_steps, rows, col_vectors, 16)``).
    The per-point counters (:attr:`skipped_fmas`,
    :attr:`effectual_lanes`, :attr:`pass_through_lanes`) are then
    ``(P,)`` arrays; everything else is shared by the stack.
    """

    name: str
    tile: RegisterTile
    k_steps: int
    precision: Precision
    use_write_masks: bool
    scalar_overhead_per_step: int
    a_nz: np.ndarray  # bool ([P,] rows, k_depth)
    b_nz: np.ndarray  # bool ([P,] k_depth, col_vectors * 16)
    effectual: np.ndarray  # bool ([P,] k_steps, rows, col_vectors, 16)
    ml_count: np.ndarray  # int8, same shape as ``effectual``
    broadcast_nonzero: np.ndarray  # bool ([P,] k_steps, rows)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_config(
        cls, config: Union[GemmKernelConfig, Sequence[GemmKernelConfig]]
    ) -> TraceArrays:
        """Build the arrays straight from a seeded trace config.

        Replays the exact RNG call sequence of
        :class:`repro.kernels.gemm._GemmTraceBuilder` (one generator,
        A first, then B), so the non-zero structure is identical to the
        trace the exact engine would simulate.

        A sequence of configs that differ only in their sparsity levels
        (equal :func:`stack_key`) builds a stack with a leading point
        axis, in input order.  The draws a point shares with every other
        point of its broadcast sparsity — A's values, signs and zero
        positions, then B's values and signs — are replayed once per
        distinct ``broadcast_sparsity``; each point then restores the
        generator state after them and draws only B's zero positions.
        That is the same stream the trace builder consumes, so every
        point is bit-identical to its own one-config replay.  (Zero sets
        of different sizes are separate ``choice`` draws, not prefixes
        of one permutation, so they cannot be shared.)

        Only the masks are kept: non-zero magnitudes are at least 0.25,
        so BF16 rounding of mixed-precision operands never creates a
        zero and the masks need no values.
        """
        stacked = isinstance(config, Sequence)
        configs = list(config) if stacked else [config]
        if not configs:
            raise ValueError("from_config needs at least one config")
        first = configs[0]
        key = stack_key(first)
        if any(stack_key(other) != key for other in configs[1:]):
            raise ValueError(
                "a config stack may differ only in its sparsity levels"
            )
        tile = first.tile
        a_shape = (tile.rows, first.k_depth)
        b_shape = (first.k_depth, tile.col_vectors * FP32_LANES)
        a_nz = np.empty((len(configs), *a_shape), dtype=bool)
        b_nz = np.empty((len(configs), *b_shape), dtype=bool)
        replays: dict[float, tuple[np.ndarray, np.random.Generator, dict]] = {}
        for point, point_config in enumerate(configs):
            bs = point_config.broadcast_sparsity
            if bs in replays:
                a_row, rng, state = replays[bs]
                rng.bit_generator.state = state
            else:
                rng = np.random.default_rng(first.seed)
                nonzero_values(a_shape, rng)
                a_row = ~zero_mask(a_shape, bs, rng)
                nonzero_values(b_shape, rng)
                replays[bs] = (a_row, rng, rng.bit_generator.state)
            a_nz[point] = a_row
            np.logical_not(
                zero_mask(b_shape, point_config.nonbroadcast_sparsity, rng),
                out=b_nz[point],
            )
        if not stacked:
            a_nz, b_nz = a_nz[0], b_nz[0]
        return cls._from_masks(first, a_nz, b_nz)

    @classmethod
    def from_trace(cls, trace: KernelTrace) -> TraceArrays:
        """Build the arrays from an already-generated trace's metadata."""
        meta = trace.meta
        config = GemmKernelConfig(
            name=trace.name,
            tile=meta["tile"],
            k_steps=meta["k_steps"],
            precision=meta["precision"],
            broadcast_sparsity=meta["broadcast_sparsity"],
            nonbroadcast_sparsity=meta["nonbroadcast_sparsity"],
            use_write_masks=meta.get("use_write_masks", False),
            scalar_overhead_per_step=meta.get("scalar_overhead_per_step", 2),
        )
        # Exact-zero operand test — same sparsity-detection semantics as
        # the hardware model (generators guarantee zeros are exact).
        return cls._from_masks(
            config,
            np.asarray(meta["a_matrix"]) != 0,
            np.asarray(meta["b_matrix"]) != 0,
        )

    @classmethod
    def from_stream(
        cls, stream: TraceStream, chunk: int = DEFAULT_CHUNK
    ) -> TraceArrays:
        """Append into the structure-of-arrays chunk-by-chunk.

        Decodes the µop stream itself (not the generator's metadata
        matrices): VLOAD/VBCAST µops establish the register→address map,
        and each VFMA's ``k{step}r{row}c{j}`` tag plus its operand
        addresses — resolved against the stream's memory image — yield
        one ``(step, row, col_vector)`` slice of the effectual tensor.
        Only one chunk of µops is resident at a time, so arbitrarily
        long traces build in O(arrays) memory.
        """
        meta = stream.meta
        tile: RegisterTile = meta["tile"]
        k = int(meta["k_steps"])
        precision: Precision = meta["precision"]
        mixed = precision == Precision.MIXED
        rows, cv = tile.rows, tile.col_vectors
        k_depth = k * (2 if mixed else 1)
        elem_bytes = 2 if mixed else 4
        lanes = BF16_LANES if mixed else FP32_LANES

        a_nz = np.zeros((rows, k_depth), dtype=bool)
        b_nz = np.zeros((k_depth, cv * FP32_LANES), dtype=bool)
        effectual = np.zeros((k, rows, cv, FP32_LANES), dtype=bool)
        ml_count = np.zeros((k, rows, cv, FP32_LANES), dtype=np.int8)
        broadcast_nonzero = np.zeros((k, rows), dtype=bool)

        memory = stream.memory
        reg_addr: dict[int, int] = {}
        for block in stream.iter_uops(chunk):
            for uop in block:
                kind = uop.kind
                if kind in (UopKind.VLOAD, UopKind.VBCAST):
                    reg_addr[uop.dst] = uop.src_a.addr
                    continue
                if not uop.is_fma():
                    continue
                tag = _FMA_TAG.fullmatch(uop.tag or "")
                if tag is None:
                    raise ValueError(
                        f"FMA µop without a k/r/c provenance tag: {uop.tag!r}"
                    )
                k_i, r_i, j_i = (int(g) for g in tag.groups())
                mem_op = uop.memory_operand()
                a_addr = mem_op.addr if mem_op is not None else reg_addr[uop.src_a.reg]
                b_vec = memory.read_vector(reg_addr[uop.src_b.reg], lanes, elem_bytes)
                cols = slice(j_i * FP32_LANES, (j_i + 1) * FP32_LANES)
                if mixed:
                    a_pair = np.array(
                        [memory.read(a_addr), memory.read(a_addr + elem_bytes)]
                    )
                    a_live = a_pair != 0
                    even_nz = b_vec[0::2] != 0
                    odd_nz = b_vec[1::2] != 0
                    a_nz[r_i, 2 * k_i] = a_live[0]
                    a_nz[r_i, 2 * k_i + 1] = a_live[1]
                    b_nz[2 * k_i, cols] = even_nz
                    b_nz[2 * k_i + 1, cols] = odd_nz
                    ml = (a_live[0] & even_nz).astype(np.int8)
                    ml += (a_live[1] & odd_nz).astype(np.int8)
                    ml_count[k_i, r_i, j_i] = ml
                    effectual[k_i, r_i, j_i] = ml > 0
                    broadcast_nonzero[k_i, r_i] = bool(a_live.any())
                else:
                    a_live = memory.read(a_addr) != 0
                    vec_nz = b_vec != 0
                    a_nz[r_i, k_i] = a_live
                    b_nz[k_i, cols] = vec_nz
                    eff = a_live & vec_nz
                    effectual[k_i, r_i, j_i] = eff
                    ml_count[k_i, r_i, j_i] = eff.astype(np.int8)
                    broadcast_nonzero[k_i, r_i] = a_live
        return cls(
            name=stream.name,
            tile=tile,
            k_steps=k,
            precision=precision,
            use_write_masks=bool(meta.get("use_write_masks", False)),
            scalar_overhead_per_step=int(meta.get("scalar_overhead_per_step", 2)),
            a_nz=a_nz,
            b_nz=b_nz,
            effectual=effectual,
            ml_count=ml_count,
            broadcast_nonzero=broadcast_nonzero,
        )

    @classmethod
    def _from_masks(
        cls, config: GemmKernelConfig, a_nz: np.ndarray, b_nz: np.ndarray
    ) -> TraceArrays:
        """Effectual structure from operand masks with any leading axes."""
        tile = config.tile
        rows, cv = tile.rows, tile.col_vectors
        k = config.k_steps
        lead = a_nz.shape[:-2]
        # C order, so the outer products below come out C-contiguous too.
        a_steps = np.ascontiguousarray(np.swapaxes(a_nz, -1, -2))  # [..., k_depth, r]
        if config.precision == Precision.MIXED:
            # ELM semantics per accumulator lane over pairs p in (0, 1):
            # pair p effectual iff A[r, 2k+p] != 0 and B[2k+p, j*16+l] != 0.
            a_pair = a_steps.reshape(*lead, k, 2, rows)  # [..., k, p, r]
            b_pair = b_nz.reshape(*lead, k, 2, cv, FP32_LANES)  # [..., k, p, j, l]
            even, odd = (
                a_pair[..., p, :, None, None] & b_pair[..., p, None, :, :]
                for p in (0, 1)
            )  # each [..., k, r, j, l]
            ml_count = even.view(np.int8) + odd.view(np.int8)
            effectual = even | odd
            broadcast_nonzero = a_pair.any(axis=-2)  # [..., k, r]
        else:
            b_steps = b_nz.reshape(*lead, k, cv, FP32_LANES)  # [..., k, j, l]
            effectual = a_steps[..., :, None, None] & b_steps[..., None, :, :]
            ml_count = effectual.view(np.int8)
            broadcast_nonzero = a_steps
        return cls(
            name=config.name,
            tile=tile,
            k_steps=k,
            precision=config.precision,
            use_write_masks=config.use_write_masks,
            scalar_overhead_per_step=config.scalar_overhead_per_step,
            a_nz=a_nz,
            b_nz=b_nz,
            effectual=effectual,
            ml_count=ml_count,
            broadcast_nonzero=broadcast_nonzero,
        )

    # -- derived structure -------------------------------------------------

    @property
    def stacked(self) -> bool:
        """True when the arrays carry a leading point axis."""
        return self.a_nz.ndim == 3

    @property
    def points(self) -> int:
        """Points described: the stack length, or 1."""
        return self.a_nz.shape[0] if self.stacked else 1

    @property
    def mixed(self) -> bool:
        return self.precision == Precision.MIXED

    @property
    def element_bytes(self) -> int:
        return 2 if self.mixed else 4

    @property
    def k_depth(self) -> int:
        return self.k_steps * (2 if self.mixed else 1)

    @property
    def accumulators(self) -> int:
        return self.tile.accumulators

    @property
    def fma_count(self) -> int:
        """VFMAs in the trace (one per step per accumulator)."""
        return self.k_steps * self.accumulators

    @property
    def loads_per_step(self) -> int:
        return self.tile.col_vectors

    @property
    def broadcasts_per_step(self) -> int:
        """Broadcast *reads* per step (µops for explicit, operands for
        embedded — every embedded VFMA carries one)."""
        if self.tile.pattern == BroadcastPattern.EXPLICIT:
            return self.tile.rows
        return self.tile.rows * self.tile.col_vectors

    @property
    def uops_per_step(self) -> int:
        """Allocated µops per reduction step."""
        count = (
            self.scalar_overhead_per_step
            + self.loads_per_step
            + self.accumulators
        )
        if self.tile.pattern == BroadcastPattern.EXPLICIT:
            count += self.tile.rows  # VBCAST µops
        if self.use_write_masks:
            count += self.tile.col_vectors  # KMOVs
        return count

    @property
    def uop_count(self) -> int:
        """Total µops: VZEROs + K steps + accumulator VSTOREs."""
        return 2 * self.accumulators + self.k_steps * self.uops_per_step

    @property
    def live_fmas(self) -> np.ndarray:
        """bool ``([P,] k_steps, rows, col_vectors)``: VFMAs with any
        effectual lane (the 16 lane bytes read as two 64-bit words)."""
        words = np.ascontiguousarray(self.effectual).view(np.uint64)
        return (words[..., 0] | words[..., 1]) != 0

    @property
    def skipped_fmas(self) -> Union[int, np.ndarray]:
        """VFMAs whose whole ELM is zero (BS-skippable)."""
        return self.fma_count - self._per_point_sum(self.live_fmas)

    @property
    def effectual_lanes(self) -> Union[int, np.ndarray]:
        """Total effectual multiplicand work items across the trace."""
        return self._per_point_sum(self.ml_count)

    @property
    def effectual_lane_count(self) -> Union[int, np.ndarray]:
        """Effectual accumulator lanes (at least one live multiplicand)."""
        return self._per_point_sum(self.effectual)

    @property
    def pass_through_lanes(self) -> Union[int, np.ndarray]:
        """Accumulator lanes that pass through with no VPU work."""
        return self.fma_count * FP32_LANES - self.effectual_lane_count

    def _per_point_sum(self, counts: np.ndarray) -> Union[int, np.ndarray]:
        """Sum of one point's counts as an int; a stack's as ``(P,)`` int64."""
        if not self.stacked:
            return int(counts.sum(dtype=np.int64))
        return counts.reshape(self.points, -1).sum(axis=-1, dtype=np.int64)


def stack_key(config: GemmKernelConfig) -> tuple:
    """Everything about a config except its two sparsity levels.

    Configs with equal keys can share one :meth:`TraceArrays.from_config`
    stack: same config type, kernel, tile, depth, precision and seed.
    """
    config_type = type(config)
    return (config_type,) + tuple(
        getattr(config, name) for name in _stack_fields(config_type)
    )


@functools.lru_cache(maxsize=None)
def _stack_fields(config_type: type) -> tuple[str, ...]:
    return tuple(
        field.name
        for field in dataclasses.fields(config_type)
        if field.name not in POINT_AXES
    )
