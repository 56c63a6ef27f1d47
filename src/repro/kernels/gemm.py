"""Register-tiled GEMM µop-trace generation.

Generates the steady-state inner loop of a DNNL-style AVX-512 GEMM
microkernel over a C tile of ``rows × col_vectors`` accumulators
(Sec. II of the paper, Fig. 1), in either broadcast pattern:

* **explicit** (row-major schedule): per reduction step, load the
  ``col_vectors`` B vectors, then per row broadcast one A scalar into a
  register (``VBCAST``) and fuse it with every B vector.
* **embedded** (column-major schedule): per reduction step, per B
  vector, load it and issue one VFMA per row with an *embedded
  broadcast memory operand* reading A — the pattern whose L1-D
  bandwidth pressure motivates the broadcast cache (Sec. IV-A).

Mixed precision packs two reduction levels per step: A pairs are
broadcast with 32-bit granularity (m32bcst) and B vectors hold 32 BF16
lanes in VNNI-interleaved layout.

The generated trace carries real data (with the requested broadcasted /
non-broadcasted sparsity), so functional execution produces the actual
GEMM result — the transparency tests depend on this.

Production is **streaming-first**: :func:`generate_gemm_stream` returns
a restartable :class:`repro.kernels.stream.GeneratorTraceStream` whose
memory image and regions exist up front while µops are generated
chunk-by-chunk on demand; :func:`generate_gemm_trace` materializes the
same stream into a legacy :class:`KernelTrace` (bit-identical µop
order).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

import numpy as np

from repro.isa.datatypes import BF16_LANES, FP32_LANES, bf16_round
from repro.isa.registers import Memory
from repro.isa.uops import MemOperand, RegOperand, Uop, kmov, scalar_op, vbcast, vfma
from repro.isa.uops import vdpbf16, vload, vstore, vzero
from repro.kernels.stream import GeneratorTraceStream
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.kernels.trace import KernelTrace
from repro.memory.address import make_regions
from repro.sparsity.generators import sparse_matrix

#: Bump when the generator's layout or µop stream changes: it is part of
#: every cached result's identity (sweep fingerprints, the fast tier's
#: calibration fingerprint), so stale results are never reused.
TRACE_GENERATOR_VERSION = 2

#: The point axes: the config fields a sparsity sweep varies.  Every
#: other field of a config (and of the job around it) names the series
#: a point belongs to, so result keys and fast-tier stacks ignore these
#: two and nothing else.
POINT_AXES = ("broadcast_sparsity", "nonbroadcast_sparsity")


@dataclass(frozen=True)
class GemmKernelConfig:
    """Parameters for one generated GEMM inner-loop trace.

    Args:
        name: kernel label (used in experiment output).
        tile: register-tile geometry and broadcast pattern.
        k_steps: reduction steps (mixed precision consumes two
            reduction levels per step).
        precision: FP32 or mixed (BF16×BF16→FP32).
        broadcast_sparsity: element sparsity of the broadcasted A.
        nonbroadcast_sparsity: element sparsity of the non-broadcasted B.
        use_write_masks: predicate VFMAs with the non-zero pattern of
            their B vector (models dropped-weight masking).
        scalar_overhead_per_step: loop-control µops per reduction step.
        seed: RNG seed for the sparse data.
    """

    name: str
    tile: RegisterTile
    k_steps: int
    precision: Precision = Precision.FP32
    broadcast_sparsity: float = 0.0
    nonbroadcast_sparsity: float = 0.0
    use_write_masks: bool = False
    scalar_overhead_per_step: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k_steps <= 0:
            raise ValueError("k_steps must be positive")
        for level in (self.broadcast_sparsity, self.nonbroadcast_sparsity):
            if not 0.0 <= level <= 1.0:
                raise ValueError("sparsity levels must be in [0, 1]")

    @property
    def k_depth(self) -> int:
        """Reduction levels covered (2 per step for mixed precision)."""
        return self.k_steps * (2 if self.precision == Precision.MIXED else 1)


class _GemmTraceBuilder:
    """Stateful builder for one kernel trace.

    Construction fixes the data layout and writes the functional memory
    image (the only RNG-consuming phase); :meth:`iter_uops` then
    *generates* the µop stream lazily and deterministically, so one
    builder can feed any number of streaming passes.

    ``matrices`` lets a caller supply pre-built (A, B) operand matrices
    — the structured-sparsity generators in :mod:`repro.rivals.nm`
    prune their own data and reuse this builder's layout and emission —
    in which case the builder consumes no RNG at all.
    """

    def __init__(
        self,
        config: GemmKernelConfig,
        matrices: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> None:
        self.config = config
        self.tile = config.tile
        self.mixed = config.precision == Precision.MIXED
        self.element_bytes = 2 if self.mixed else 4
        self.memory = Memory()

        rows, cv = self.tile.rows, self.tile.col_vectors
        k_depth = config.k_depth
        if matrices is None:
            rng = np.random.default_rng(config.seed)
            self.a = sparse_matrix((rows, k_depth), config.broadcast_sparsity, rng)
            self.b = sparse_matrix(
                (k_depth, cv * FP32_LANES), config.nonbroadcast_sparsity, rng
            )
        else:
            self.a, self.b = matrices
            if self.a.shape != (rows, k_depth) or self.b.shape != (
                k_depth,
                cv * FP32_LANES,
            ):
                raise ValueError("supplied operand matrices do not match the tile")
        if self.mixed:
            self.a = bf16_round(self.a)
            self.b = bf16_round(self.b)

        # Pad each A row to an odd number of cache lines so the rows of
        # tall tiles spread across every direct-mapped B$ slot instead
        # of aliasing (the padding a tuned GEMM's packing buffer uses).
        row_bytes = k_depth * self.element_bytes
        row_lines = max(1, -(-row_bytes // 64))
        if row_lines % 2 == 0:
            row_lines += 1
        self.a_row_stride = row_lines * 64
        a_bytes = rows * self.a_row_stride
        b_bytes = self.b.size * self.element_bytes
        c_bytes = rows * cv * FP32_LANES * 4
        self.regions = make_regions(("A", a_bytes), ("B", b_bytes), ("C", c_bytes))
        self._write_matrices()

        n_acc = self.tile.accumulators
        self.acc_reg = lambda i, j: i * cv + j
        if self.tile.pattern == BroadcastPattern.EXPLICIT:
            self.b_reg = lambda j: n_acc + j
            self.a_regs = (n_acc + cv, n_acc + cv + 1)
        else:
            self.b_rot = (n_acc, n_acc + 1)

    # ------------------------------------------------------------------
    # Data layout
    # ------------------------------------------------------------------

    def a_addr(self, row: int, k_level: int) -> int:
        """Byte address of A[row, k_level] (row-major, padded rows)."""
        addr = (
            self.regions["A"].base
            + row * self.a_row_stride
            + k_level * self.element_bytes
        )
        if addr >= self.regions["A"].end:
            raise IndexError("A element outside its region")
        return addr

    def b_vector_addr(self, k_step: int, j: int) -> int:
        """Byte address of the packed B vector for (step, column block)."""
        vec_index = k_step * self.tile.col_vectors + j
        return self.regions["B"].base + vec_index * 64

    def c_addr(self, row: int, j: int) -> int:
        """Byte address of the C tile vector for (row, column block)."""
        index = (row * self.tile.col_vectors + j) * FP32_LANES
        return self.regions["C"].element_address(index, 4)

    def _write_matrices(self) -> None:
        memory = self.memory
        rows, cv = self.tile.rows, self.tile.col_vectors
        for row in range(rows):
            for k_level in range(self.config.k_depth):
                memory.write(self.a_addr(row, k_level), self.a[row, k_level])
        for k_step in range(self.config.k_steps):
            for j in range(cv):
                memory.write_vector(
                    self.b_vector_addr(k_step, j),
                    self._packed_b_vector(k_step, j),
                    self.element_bytes,
                )

    def _packed_b_vector(self, k_step: int, j: int) -> np.ndarray:
        """B vector in register layout for one (step, column block).

        FP32: B[k, j*16 : (j+1)*16].  Mixed: VNNI interleave — lane
        ``2g + p`` holds B[2*k + p, j*16 + g].
        """
        cols = slice(j * FP32_LANES, (j + 1) * FP32_LANES)
        if not self.mixed:
            return self.b[k_step, cols]
        even = self.b[2 * k_step, cols]
        odd = self.b[2 * k_step + 1, cols]
        packed = np.empty(BF16_LANES, dtype=np.float32)
        packed[0::2] = even
        packed[1::2] = odd
        return packed

    # ------------------------------------------------------------------
    # µop emission
    # ------------------------------------------------------------------

    def _write_mask_bits(self, k_step: int, j: int) -> int:
        """Non-zero pattern of the packed B vector, per accumulator lane."""
        packed = self._packed_b_vector(k_step, j)
        bits = 0
        for lane in range(FP32_LANES):
            if self.mixed:
                alive = packed[2 * lane] != 0 or packed[2 * lane + 1] != 0
            else:
                alive = packed[lane] != 0
            if alive:
                bits |= 1 << lane
        return bits

    def _fma(self, accum: int, a_operand, b_operand, wmask, tag) -> Uop:
        if self.mixed:
            return vdpbf16(accum, a_operand, b_operand, wmask=wmask, tag=tag)
        return vfma(accum, a_operand, b_operand, wmask=wmask, tag=tag)

    def _emit_step_explicit(self, k_step: int) -> Iterator[Uop]:
        tile, cfg = self.tile, self.config
        for j in range(tile.col_vectors):
            yield vload(self.b_reg(j), self.b_vector_addr(k_step, j), bf16=self.mixed)
            if cfg.use_write_masks:
                yield kmov(1 + j % 7, self._write_mask_bits(k_step, j))
        for row in range(tile.rows):
            a_reg = self.a_regs[row % 2]
            level = k_step * (2 if self.mixed else 1)
            yield vbcast(a_reg, self.a_addr(row, level), bf16=self.mixed)
            for j in range(tile.col_vectors):
                wmask = (1 + j % 7) if cfg.use_write_masks else None
                yield self._fma(
                    self.acc_reg(row, j),
                    RegOperand(a_reg),
                    RegOperand(self.b_reg(j)),
                    wmask,
                    tag=f"k{k_step}r{row}c{j}",
                )

    def _emit_step_embedded(self, k_step: int) -> Iterator[Uop]:
        tile, cfg = self.tile, self.config
        for j in range(tile.col_vectors):
            b_reg = self.b_rot[(k_step * tile.col_vectors + j) % 2]
            yield vload(b_reg, self.b_vector_addr(k_step, j), bf16=self.mixed)
            if cfg.use_write_masks:
                yield kmov(1 + j % 7, self._write_mask_bits(k_step, j))
            level = k_step * (2 if self.mixed else 1)
            for row in range(tile.rows):
                wmask = (1 + j % 7) if cfg.use_write_masks else None
                operand = MemOperand(
                    self.a_addr(row, level), broadcast=True, bf16=self.mixed
                )
                yield self._fma(
                    self.acc_reg(row, j),
                    operand,
                    RegOperand(b_reg),
                    wmask,
                    tag=f"k{k_step}r{row}c{j}",
                )

    def iter_uops(self) -> Iterator[Uop]:
        """Generate the full µop stream in program order, lazily."""
        tile, cfg = self.tile, self.config
        for accum in range(tile.accumulators):
            yield vzero(accum)
        for k_step in range(cfg.k_steps):
            for _ in range(cfg.scalar_overhead_per_step):
                yield scalar_op(tag=f"loop-k{k_step}")
            if tile.pattern == BroadcastPattern.EXPLICIT:
                yield from self._emit_step_explicit(k_step)
            else:
                yield from self._emit_step_embedded(k_step)
        for row in range(tile.rows):
            for j in range(tile.col_vectors):
                yield vstore(self.acc_reg(row, j), self.c_addr(row, j))

    def trace_meta(self) -> dict[str, object]:
        """Generator metadata shared by the stream and the trace."""
        tile, cfg = self.tile, self.config
        return {
            "tile": tile,
            "k_steps": cfg.k_steps,
            "precision": cfg.precision,
            "broadcast_sparsity": cfg.broadcast_sparsity,
            "nonbroadcast_sparsity": cfg.nonbroadcast_sparsity,
            "use_write_masks": cfg.use_write_masks,
            "scalar_overhead_per_step": cfg.scalar_overhead_per_step,
            "c_rows": tile.rows,
            "c_cols": tile.col_vectors * FP32_LANES,
            "a_matrix": self.a,
            "b_matrix": self.b,
        }

    def stream(self) -> GeneratorTraceStream:
        """A restartable chunked stream over this builder's µops."""
        return GeneratorTraceStream(
            name=self.config.name,
            uop_source=self.iter_uops,
            memory=self.memory,
            regions=self.regions,
            meta=self.trace_meta(),
        )

    def build(self) -> KernelTrace:
        """Materialize the whole trace (the legacy, list-backed path)."""
        return self.stream().to_trace()


def generate_gemm_stream(config: GemmKernelConfig) -> GeneratorTraceStream:
    """A chunked µop stream for one GEMM inner-loop kernel.

    The memory image and regions are built eagerly (they are O(tile));
    µops are generated on demand, chunk by chunk, every time the stream
    is iterated.
    """
    return _GemmTraceBuilder(config).stream()


def generate_gemm_trace(config: GemmKernelConfig) -> KernelTrace:
    """Generate the materialized µop trace for one GEMM inner-loop kernel."""
    return _GemmTraceBuilder(config).build()


def expected_c_matrix(trace: KernelTrace) -> np.ndarray:
    """Mathematically expected C tile (float64 accumulation).

    Used to sanity-check the functional semantics against plain linear
    algebra; bit-exactness is *not* expected (accumulation order and
    precision differ), closeness is.
    """
    a = np.asarray(trace.meta["a_matrix"], dtype=np.float64)
    b = np.asarray(trace.meta["b_matrix"], dtype=np.float64)
    return (a @ b).astype(np.float32)
