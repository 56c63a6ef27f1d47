"""Bound-and-bottleneck fast engine over :class:`TraceArrays`.

Instead of stepping a cycle loop, the fast tier computes four
whole-trace occupancy bounds directly from the structure-of-arrays
representation and predicts cycles from them:

* **front-end** — total allocated µops over the 5-wide alloc width;
* **VPU** — issue-slot demand after SAVE's coalescing.  For vertical
  and rotate-vertical schemes this uses a *rolling-window* occupancy:
  combination is limited to µops co-resident in the RS, so per-slot
  entry counts are maximised over windows of ``rs_entries //
  uops_per_step`` reduction steps, with rotation applied per logical
  accumulator register exactly as in the exact scheduler;
* **L1 bandwidth** — vector loads plus broadcast traffic through the
  configured B$ design over the L1 read ports;
* **dependence chain** — the longest serialized accumulator chain
  (lane-wise or vector-wise, matching the machine's dependence model)
  times the VFMA latency.

The raw estimate is ``max(bounds)``; the calibrated estimate is a
per-kernel-class linear blend of the bounds fitted against the exact
model (see :mod:`repro.fastsim.calibration`).  The analytic tier reuses
:func:`repro.model.analytic.predicted_time_per_fma_ns` — the paper's
closed-form steady-state model — and is documented looser.

Every bound reduces over the trailing trace axes only, so arrays built
from a config stack (a leading point axis) get all their points' bounds
from one reduction each; one config is the same code with no point
axis.  Counts stay integers until the final division, so each point's
bounds equal its one-config evaluation bit for bit.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.config import CoalescingScheme, MachineConfig, machine_label
from repro.core.pipeline import SimResult
from repro.core.save.rotate import rotation_offset, slot_for_lane
from repro.fastsim.soa import TraceArrays
from repro.isa.datatypes import FP32_LANES
from repro.kernels.gemm import GemmKernelConfig
from repro.kernels.stream import TraceStream
from repro.kernels.tiling import BroadcastPattern
from repro.kernels.trace import DEFAULT_CHUNK, KernelTrace
from repro.memory.broadcast_cache import BroadcastCacheKind

__all__ = [
    "ENGINES",
    "ENGINE_ANALYTIC",
    "ENGINE_EXACT",
    "ENGINE_FAST",
    "FASTSIM_MODEL_VERSION",
    "FEATURE_NAMES",
    "BoundBreakdown",
    "bounds",
    "class_key",
    "features",
    "simulate_arrays",
    "simulate_config",
    "simulate_stream",
    "simulate_trace",
    "validate_engine",
]

ENGINE_EXACT = "exact"
ENGINE_FAST = "fast"
ENGINE_ANALYTIC = "analytic"
ENGINES = (ENGINE_EXACT, ENGINE_FAST, ENGINE_ANALYTIC)

#: Bump when the bound model or feature vector changes shape/meaning —
#: invalidates committed calibration artifacts.
FASTSIM_MODEL_VERSION = 1

#: Calibration feature vector, in order.
FEATURE_NAMES = ("const", "frontend", "vpu", "l1", "chain", "bound_max")

#: Uncalibrated ramp-up allowance (alloc fill + first-load latency).
_STARTUP_CYCLES = 30.0


def validate_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return engine


def class_key(tile, precision, machine: MachineConfig) -> str:
    """Calibration class of a (kernel shape, machine) pair.

    Sparsity levels and ``k_steps`` deliberately stay *out* of the key:
    one set of per-class weights must interpolate across the whole
    sparsity grid and transfer across reduction depths.
    """
    return (
        f"{tile.rows}x{tile.col_vectors}"
        f":{tile.pattern.value}:{precision.value}"
        f"|{machine_label(machine)}"
    )


@dataclass(frozen=True)
class BoundBreakdown:
    """The four whole-trace occupancy bounds, in cycles."""

    frontend: float
    vpu: float
    l1: float
    chain: float

    @property
    def bound_max(self) -> float:
        return max(self.frontend, self.vpu, self.l1, self.chain)

    @property
    def bottleneck(self) -> str:
        pairs = [
            ("frontend", self.frontend),
            ("vpu", self.vpu),
            ("l1", self.l1),
            ("chain", self.chain),
        ]
        return max(pairs, key=lambda pair: pair[1])[0]


def _frontend_bound(arrays: TraceArrays, machine: MachineConfig) -> float:
    return arrays.uop_count / machine.core.issue_width


@functools.lru_cache(maxsize=64)
def _slot_order(accumulators: int, rotation_states: Optional[int]) -> np.ndarray:
    """Gather order over flattened ``(register, lane)`` counts that puts
    each register's lanes in temp-slot order: lane l of a register with
    rotation offset o occupies slot (l + o) % 16, so slot s holds lane
    (s - o) % 16.  Without rotation every offset is 0."""
    slots = np.arange(FP32_LANES)
    order = np.empty((accumulators, FP32_LANES), dtype=np.intp)
    for reg in range(accumulators):
        offset = 0 if rotation_states is None else rotation_offset(reg, rotation_states)
        order[reg] = reg * FP32_LANES + (slots - offset) % FP32_LANES
        assert slot_for_lane(int(order[reg, 0]) % FP32_LANES, offset) == 0
    order = order.ravel()
    order.flags.writeable = False
    return order


def _vpu_bound(arrays: TraceArrays, machine: MachineConfig) -> np.ndarray:
    core, save = machine.core, machine.save
    if not save.enabled:
        return np.float64(arrays.fma_count / core.num_vpus)
    if save.coalescing == CoalescingScheme.NAIVE:
        # No cross-instruction combining: every non-BS-skipped VFMA is
        # a whole VPU op.
        return np.asarray(arrays.fma_count - arrays.skipped_fmas) / core.num_vpus
    mp_chains = arrays.mixed and save.mixed_precision_technique
    if save.coalescing == CoalescingScheme.HORIZONTAL:
        # Perfect compression across all 16 slots.
        if mp_chains:
            totals = arrays.ml_count.sum(axis=-4, dtype=np.int16)
            entries = ((totals + 1) >> 1).sum(axis=(-3, -2, -1), dtype=np.int64)
        else:
            entries = np.asarray(arrays.effectual_lane_count)
        return entries / (FP32_LANES * core.num_vpus)
    # Vertical / rotate-vertical: per temp-slot demand, maximised over
    # RS-co-residency windows.  Entries in different windows can never
    # combine, so their slot demands add.
    window = max(1, min(arrays.k_steps, core.rs_entries // arrays.uops_per_step))
    counts = _window_sums(arrays.ml_count if mp_chains else arrays.effectual, window)
    if mp_chains:
        # ML chains drain two reduction levels per slot entry.
        counts = (counts + 1) >> 1
    rotation = (
        save.rotation_states
        if save.coalescing == CoalescingScheme.ROTATE_VERTICAL
        else None
    )
    # Accumulator registers are allocated row-major by the trace
    # builder, so (r, j) accumulates into register r * col_vectors + j.
    by_slot = counts[..., _slot_order(arrays.accumulators, rotation)]
    per_slot = by_slot.reshape(*counts.shape[:-1], -1, FP32_LANES).sum(
        axis=-2, dtype=np.int32
    )
    total = counts.sum(axis=-1, dtype=np.int32)
    # A VPU op consumes at most one entry per slot per cycle, and at
    # most 16 entries total — whichever is tighter.
    cycles = np.maximum(per_slot.max(axis=-1), total / FP32_LANES)
    return cycles.sum(axis=-1) / core.num_vpus


def _window_sums(lanes: np.ndarray, window: int) -> np.ndarray:
    """int16 ``[..., windows, register * 16 + lane]`` sums of ``[..., k,
    r, j, lane]`` counts over consecutive ``window``-step windows (the
    last may be short)."""
    steps = lanes.reshape(*lanes.shape[:-4], lanes.shape[-4], -1)  # [..., k, lane]
    k = steps.shape[-2]
    full = k - k % window
    parts = []
    if full:
        blocks = steps[..., :full, :].reshape(
            *steps.shape[:-2], full // window, window, steps.shape[-1]
        )
        parts.append(blocks.sum(axis=-2, dtype=np.int16))
    if full < k:
        parts.append(steps[..., full:, :].sum(axis=-2, dtype=np.int16, keepdims=True))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-2)


def _l1_bound(arrays: TraceArrays, machine: MachineConfig) -> np.ndarray:
    save = machine.save
    loads = arrays.k_steps * arrays.loads_per_step
    reads_per_broadcast = (
        1
        if arrays.tile.pattern == BroadcastPattern.EXPLICIT
        else arrays.tile.col_vectors
    )
    total_broadcasts = arrays.k_steps * arrays.tile.rows * reads_per_broadcast
    kind = save.broadcast_cache if save.enabled else BroadcastCacheKind.NONE
    elements_per_line = 64 // arrays.element_bytes
    lines_per_row = -(-arrays.k_depth // elements_per_line)
    if kind == BroadcastCacheKind.DATA:
        # Each broadcast row is read from L1 once per resident line;
        # every further broadcast hits the B$.
        broadcast_l1 = arrays.tile.rows * lines_per_row
    elif kind == BroadcastCacheKind.MASK:
        # Mask hits only elide *zero* broadcasts; non-zero ones still
        # read the L1.
        nonzero = np.count_nonzero(arrays.broadcast_nonzero, axis=(-2, -1))
        broadcast_l1 = (
            arrays.tile.rows * lines_per_row
            + np.asarray(nonzero, dtype=np.int64) * reads_per_broadcast
        )
    else:
        broadcast_l1 = total_broadcasts
    return np.asarray(loads + broadcast_l1) / machine.hierarchy.l1_read_ports


def _chain_bound(arrays: TraceArrays, machine: MachineConfig) -> np.ndarray:
    save = machine.save
    latency = machine.fma_latency(arrays.mixed)
    lanes = (-3, -2, -1)
    if not save.enabled:
        return np.float64(arrays.k_steps * latency)
    if arrays.mixed and save.mixed_precision_technique:
        totals = arrays.ml_count.sum(axis=-4, dtype=np.int16)
        depth = ((totals + 1) >> 1).max(axis=lanes, initial=0)
    elif save.coalescing == CoalescingScheme.NAIVE or not save.lane_wise_dependence:
        # Vector-wise dependence: every non-skipped step serializes the
        # whole accumulator.
        depth = arrays.live_fmas.sum(axis=-3, dtype=np.int16).max(axis=(-2, -1))
    else:
        # Lane-wise dependence: only effectual steps of the *same lane*
        # serialize.
        depth = arrays.effectual.sum(axis=-4, dtype=np.int16).max(axis=lanes)
    return depth.astype(np.float64) * latency


def _per_point_list(values, points: int) -> list:
    """A per-point column as a list: ``(P,)`` arrays element-wise, and a
    scalar (one point, or a value the stack shares) repeated."""
    if isinstance(values, np.ndarray) and values.ndim:
        return values.tolist()
    if isinstance(values, (np.ndarray, np.generic)):
        values = values.item()
    return [values] * points


def _point_bounds(arrays: TraceArrays, machine: MachineConfig) -> list[BoundBreakdown]:
    """One :class:`BoundBreakdown` per point, each bound one reduction."""
    columns = [
        _per_point_list(bound(arrays, machine), arrays.points)
        for bound in (_frontend_bound, _vpu_bound, _l1_bound, _chain_bound)
    ]
    return [BoundBreakdown(*point) for point in zip(*columns)]


def bounds(
    arrays: TraceArrays, machine: MachineConfig
) -> Union[BoundBreakdown, list[BoundBreakdown]]:
    """All four occupancy bounds for one trace/machine pair.

    A stack returns one :class:`BoundBreakdown` per point, in stack
    order.
    """
    breakdowns = _point_bounds(arrays, machine)
    return breakdowns if arrays.stacked else breakdowns[0]


def features(breakdown: BoundBreakdown) -> np.ndarray:
    """Calibration feature vector (order matches ``FEATURE_NAMES``)."""
    return np.array(
        [
            1.0,
            breakdown.frontend,
            breakdown.vpu,
            breakdown.l1,
            breakdown.chain,
            breakdown.bound_max,
        ],
        dtype=np.float64,
    )


def predict_cycles(
    breakdown: BoundBreakdown, weights: np.ndarray | None
) -> float:
    """Cycles from bounds: calibrated blend, or raw max when unfitted.

    One point's 1-D dot product: a batched ``features @ weights``
    matrix product may associate the sum differently and move the last
    bit, which can flip ``round(cycles)``.
    """
    if weights is None:
        return breakdown.bound_max + _STARTUP_CYCLES
    return max(1.0, float(features(breakdown) @ np.asarray(weights)))


# ---------------------------------------------------------------------------
# SimResult assembly
# ---------------------------------------------------------------------------


def _static_counters(
    arrays: TraceArrays, machine: MachineConfig
) -> list[tuple[int, int, int]]:
    """Per point (effectual_lanes, pass_through_lanes, skipped_fmas),
    matching the exact pipeline's counter semantics for this machine."""
    if not machine.save.enabled:
        return [(0, 0, 0)] * arrays.points
    lane_count = arrays.effectual_lane_count
    if arrays.mixed and machine.save.mixed_precision_technique:
        effectual = arrays.effectual_lanes  # ML count per chain append
    else:
        effectual = lane_count
    pass_through = arrays.fma_count * FP32_LANES - lane_count
    columns = (effectual, pass_through, arrays.skipped_fmas)
    return list(zip(*(_per_point_list(column, arrays.points) for column in columns)))


def _assemble(
    arrays: TraceArrays,
    machine: MachineConfig,
    engine: str,
    cycles: list[float],
    breakdowns: list[BoundBreakdown],
) -> list[SimResult]:
    """One :class:`SimResult` per point from its cycles and bounds."""
    num_vpus = machine.core.num_vpus
    ports = machine.hierarchy.l1_read_ports
    freq_ghz = machine.core.freq_ghz
    save = machine.save.enabled
    fma_count = arrays.fma_count
    uop_count = arrays.uop_count
    return [
        SimResult(
            name=arrays.name,
            cycles=max(1, int(round(point_cycles))),
            freq_ghz=freq_ghz,
            uop_count=uop_count,
            fma_count=fma_count,
            vpu_ops=int(round(breakdown.vpu * num_vpus)),
            vpu_lane_slots=effectual if save else fma_count * FP32_LANES,
            effectual_lanes=effectual,
            pass_through_lanes=pass_through,
            skipped_fmas=skipped,
            stall_rob_cycles=0,
            stall_rs_cycles=0,
            mgu_processed=fma_count if save else 0,
            l1_port_accesses=int(round(breakdown.l1 * ports)),
            b_cache_hit_rate=0.0,
            b_cache_reads_saved=0,
            engine=engine,
        )
        for point_cycles, breakdown, (effectual, pass_through, skipped) in zip(
            cycles, breakdowns, _static_counters(arrays, machine)
        )
    ]


def simulate_arrays(
    arrays: TraceArrays,
    machine: MachineConfig,
    engine: str = ENGINE_FAST,
    *,
    config: Union[GemmKernelConfig, Sequence[GemmKernelConfig], None] = None,
) -> Union[SimResult, list[SimResult]]:
    """Estimate one point, or every point of a stack, from its arrays.

    ``config`` is the config (or config stack) the arrays were built
    from; the analytic tier reads its nominal sparsity levels, and
    falls back to the levels measured from the masks without it.  A
    stack returns one :class:`SimResult` per point, in stack order.
    """
    validate_engine(engine)
    if engine == ENGINE_EXACT:
        raise ValueError("the exact engine needs a µop trace; use repro.core")
    breakdowns = _point_bounds(arrays, machine)
    if engine == ENGINE_ANALYTIC:
        from repro.model.analytic import predicted_time_per_fma_ns

        if config is None:
            levels = zip(_sparsity(arrays.a_nz), _sparsity(arrays.b_nz))
        else:
            configs = config if isinstance(config, Sequence) else [config]
            levels = (
                (c.broadcast_sparsity, c.nonbroadcast_sparsity) for c in configs
            )
        cycles = [
            predicted_time_per_fma_ns(arrays.tile, machine, arrays.precision, bs, nbs)
            * arrays.fma_count
            * machine.core.freq_ghz
            for bs, nbs in levels
        ]
    else:
        from repro.fastsim.calibration import weights_for

        weights = weights_for(class_key(arrays.tile, arrays.precision, machine))
        cycles = [predict_cycles(breakdown, weights) for breakdown in breakdowns]
    results = _assemble(arrays, machine, engine, cycles, breakdowns)
    return results if arrays.stacked else results[0]


def _sparsity(nonzero: np.ndarray) -> list[float]:
    """Measured zero fraction of each point's operand mask."""
    size = nonzero.shape[-2] * nonzero.shape[-1]
    counts = np.count_nonzero(nonzero, axis=(-2, -1))
    return [1.0 - count / size for count in np.reshape(counts, -1).tolist()]


def simulate_config(
    config: Union[GemmKernelConfig, Sequence[GemmKernelConfig]],
    machine: MachineConfig,
    engine: str = ENGINE_FAST,
) -> Union[SimResult, list[SimResult]]:
    """Estimate seeded kernel configs without building a µop trace.

    One config returns one :class:`SimResult`; a stack of configs that
    differ only in sparsity (see :meth:`TraceArrays.from_config`)
    returns one per config, each bit-identical to its one-config call.
    """
    return simulate_arrays(
        TraceArrays.from_config(config), machine, engine, config=config
    )


def simulate_trace(
    trace: KernelTrace,
    machine: MachineConfig,
    engine: str = ENGINE_FAST,
) -> SimResult:
    """Estimate one already-generated trace (same arrays as the config).

    Accepts any :class:`repro.kernels.stream.TraceStream` as well — the
    arrays come from the generator metadata, which both traces and
    streams carry up front.
    """
    return simulate_arrays(TraceArrays.from_trace(trace), machine, engine)


def simulate_stream(
    stream: TraceStream,
    machine: MachineConfig,
    engine: str = ENGINE_FAST,
    chunk: int = DEFAULT_CHUNK,
) -> SimResult:
    """Estimate a chunked trace stream by decoding its µops incrementally.

    Unlike :func:`simulate_trace` (which shortcuts through the
    generator metadata), this path builds the structure-of-arrays by
    walking the µop stream chunk-by-chunk
    (:meth:`TraceArrays.from_stream`) — the route for producers whose
    matrices are not carried in metadata.
    """
    return simulate_arrays(TraceArrays.from_stream(stream, chunk), machine, engine)
