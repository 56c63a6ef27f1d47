"""The cycle-level out-of-order pipeline with the SAVE engine.

One :class:`PipelineSimulator` runs one µop trace (usually a GEMM
inner-loop from :mod:`repro.kernels.gemm`) on one machine configuration
and produces both timing and architectural state.

Modeled per Table I / Secs. III-V:

* 5-wide allocation/rename into a 224-entry ROB and 97-entry RS,
* a load/store unit with 2 L1-D read ports, 1 store port, and SAVE's
  4-port broadcast cache,
* 1 or 2 fully-pipelined 512-bit VPUs (FP32 VFMA latency 4, mixed 6),
* SAVE: MGUs matching the issue width, BS instruction skipping,
  vertical / rotate-vertical coalescing with per-slot oldest-first
  selection, lane-wise or vector-wise accumulator dependences,
  16-lane horizontal compression (comparison point, +6 cycles), and
  the mixed-precision accumulator-chain ML compression with
  partial-result forwarding.

The pipeline *functionally executes* the trace in its own schedule;
per-lane program order within each accumulator chain is preserved by
construction, so the final state matches the in-order reference
bit-for-bit — the paper's software-transparency property, which the
test suite checks on every configuration.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.config import CoalescingScheme, MachineConfig
from repro.core.dynuop import (
    ROLE_A,
    ROLE_ACC,
    ROLE_B,
    ROLE_MASK,
    ROLE_STORE,
    DynUop,
)
from repro.core.lsu import LoadStoreUnit, MemRequest
from repro.core.prf import PrfTracker
from repro.core.save.elm import MguStage
from repro.core.save.mixed import ChainLane, ChainManager
from repro.core.save.rotate import (
    rotation_offset,
    rotation_state_name,
    slot_for_lane,
)
from repro.core.save.window import (
    BaselineScheduler,
    HorizontalScheduler,
    SlotScheduler,
)
from repro.core.vpu import (
    TempOp,
    TempOpKind,
    compute_chain_slots,
    compute_lanes,
    compute_whole,
)
from repro.isa.datatypes import FP32_LANES, FULL_LANE_MASK, lanes_of, popcount
from repro.isa.registers import ArchState
from repro.isa.uops import RegOperand, Uop, UopKind
from repro.kernels.stream import TraceStream
from repro.kernels.trace import DEFAULT_CHUNK, KernelTrace
from repro.memory.broadcast_cache import BroadcastCache, BroadcastCacheKind
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import Instrumentation
from repro.obs.metrics import log2_bucket


@dataclass
class SimResult:
    """Outcome of one pipeline run."""

    name: str
    cycles: int
    freq_ghz: float
    uop_count: int
    fma_count: int
    vpu_ops: int
    vpu_lane_slots: int
    effectual_lanes: int
    pass_through_lanes: int
    skipped_fmas: int
    stall_rob_cycles: int
    stall_rs_cycles: int
    mgu_processed: int
    l1_port_accesses: int
    b_cache_hit_rate: float
    b_cache_reads_saved: int
    #: Mean combination-window size over busy cycles (SAVE only).
    mean_cw: float = 0.0
    #: Peak base physical-register occupancy (32 + in-flight dests).
    prf_peak_base: int = 32
    #: Peak live rotated-copy count (Sec. IV-B register overhead).
    prf_peak_copies: int = 0
    #: Metrics snapshot (``repro.obs``), present only when the run was
    #: instrumented: per-stage wait histograms, CW-occupancy and
    #: lane-utilisation distributions, structure peaks, event counters.
    metrics: Optional[dict] = None
    final_state: Optional[ArchState] = None
    #: Which engine tier produced this result ("exact", "fast",
    #: "analytic").  Carried everywhere so tiers never mix silently.
    engine: str = "exact"
    #: Which skip mechanism the run modeled ("save", "sparce",
    #: "indexmac").  Stamped by callers that apply the mechanism axis
    #: (:class:`repro.experiments.executor.PointJob`); a bare
    #: ``simulate`` call describes the machine it was given.
    mechanism: str = "save"

    @property
    def prf_rotation_overhead(self) -> float:
        """Rotation's extra register demand over the base occupancy."""
        return self.prf_peak_copies / self.prf_peak_base if self.prf_peak_base else 0.0

    @property
    def time_ns(self) -> float:
        """Wall-clock execution time."""
        return self.cycles / self.freq_ghz

    @property
    def fmas_per_cycle(self) -> float:
        """Retired VFMA throughput."""
        return self.fma_count / self.cycles if self.cycles else 0.0

    @property
    def lane_utilisation(self) -> float:
        """Mean occupied temp slots per issued VPU op (max 16)."""
        if not self.vpu_ops:
            return 0.0
        return self.vpu_lane_slots / (self.vpu_ops * FP32_LANES)

    def speedup_over(self, other: SimResult) -> float:
        """Wall-clock speedup of this run relative to ``other``."""
        return other.time_ns / self.time_ns


#: µop kinds that never occupy a reservation station.
_NO_RS = (UopKind.VZERO, UopKind.KMOV)


class PipelineSimulator:
    """Runs one trace (or chunked trace stream) on one machine configuration.

    Accepts anything satisfying the :class:`repro.kernels.stream.TraceStream`
    contract — a materialized :class:`KernelTrace` or a generator-backed
    stream.  µops are pulled chunk-by-chunk into a small allocation
    buffer, so the simulator never holds more than one chunk of
    unallocated µops plus the in-flight ROB window, regardless of trace
    length (the out-of-core sweep contract).
    """

    def __init__(
        self,
        trace: Union[KernelTrace, TraceStream],
        config: MachineConfig,
        warm_level: Optional[str] = "l2",
        keep_state: bool = True,
        max_cycles: int = 5_000_000,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.keep_state = keep_state
        self.max_cycles = max_cycles
        # Observability: ``None`` (the default) keeps every hook to one
        # pointer comparison; ``_tracing`` additionally gates event
        # assembly so metrics-only runs never build event dicts.
        self.obs = obs
        self._tracing = obs is not None and obs.tracing
        if obs is not None and not obs.kernel:
            obs.kernel = trace.name

        self.init_state = trace.fresh_state()
        memory = self.init_state.memory

        save = config.save
        if save.enabled and save.broadcast_cache != BroadcastCacheKind.NONE:
            self.bcache: Optional[BroadcastCache] = BroadcastCache(
                save.broadcast_cache,
                memory.read,
                entries=save.broadcast_cache_entries,
                ports=save.broadcast_cache_ports,
            )
        else:
            self.bcache = None
        self.hierarchy = MemoryHierarchy(
            config.hierarchy,
            sharing_cores=config.sharing_cores,
            freq_ghz=config.core.freq_ghz,
            broadcast_cache=self.bcache,
        )
        if warm_level:
            self._warm_caches(warm_level)
        self.lsu = LoadStoreUnit(
            memory,
            self.hierarchy,
            self.bcache,
            l1_read_ports=config.hierarchy.l1_read_ports,
            store_ports=config.core.store_ports,
            obs=obs,
        )

        # Schedulers.
        self.save_enabled = save.enabled
        self.lwd = save.enabled and save.lane_wise_dependence
        self.mp_technique = save.enabled and save.mixed_precision_technique
        self.scheme = save.coalescing if save.enabled else None
        # Scheme predicates as plain bools: enum comparisons in the
        # per-lane dispatch path are measurable hot-loop cost.
        self._naive = self.scheme == CoalescingScheme.NAIVE
        self._horizontal = self.scheme == CoalescingScheme.HORIZONTAL
        self.baseline_sched = BaselineScheduler()
        self.slot_sched = SlotScheduler(FP32_LANES)
        self.horizontal_sched = HorizontalScheduler()
        self.mgu = MguStage(save.mgu_count)
        self.chains = ChainManager()

        # Dynamic state.  ``_rob`` holds only un-retired µops (the ROB
        # window); ``_pending`` holds the current chunk of not-yet-
        # allocated µops pulled from the stream.  The invariant
        # "``_pending`` empty ⟹ stream exhausted" is maintained by
        # refilling eagerly, so emptiness tests are exact progress tests.
        self._rob: deque[DynUop] = deque()
        self._chunks = trace.iter_uops(DEFAULT_CHUNK)
        self._pending: deque[Uop] = deque()
        self._exhausted = False
        self.alloc_ptr = 0
        self.retire_ptr = 0
        self.rob_count = 0
        self.rs_count = 0
        self.reg_producer: dict[int, DynUop] = {}
        self.kreg_producer: dict[int, DynUop] = {}
        self._scalar_queue: deque[DynUop] = deque()
        self._vpu_events: dict[int, list[TempOp]] = {}
        self._load_events: dict[int, list[MemRequest]] = {}
        self._scalar_events: dict[int, list[DynUop]] = {}
        #: Completions awaiting wake-up: ``(µop, lanes)``.  A non-zero
        #: lane word reports those lanes done; 0 the whole µop.
        self._worklist: deque[tuple[DynUop, int]] = deque()

        # Stats.
        self.cycle = 0
        self.vpu_ops = 0
        self.vpu_lane_slots = 0
        self.effectual_lanes = 0
        self.pass_through_lanes = 0
        self.skipped_fmas = 0
        self.stall_rob_cycles = 0
        self.stall_rs_cycles = 0
        # Counted at pull time (chunk by chunk); equals the whole-trace
        # FMA count once the stream is drained — which it is by the time
        # ``_result`` reads it.
        self.fma_count = 0
        self._refill()
        # Combination-window gauge: VFMAs currently active in the RS
        # with unscheduled lanes (Sec. III: "the CW is often 24-28").
        self._cw_size = 0
        self._cw_samples = 0
        self._cw_sum = 0
        self.prf = PrfTracker()

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    def _refill(self) -> None:
        """Pull the next chunk(s) until µops are pending or the stream ends."""
        pending = self._pending
        while not pending and not self._exhausted:
            try:
                chunk = next(self._chunks)
            except StopIteration:
                self._exhausted = True
                return
            pending.extend(chunk)
            self.fma_count += sum(1 for u in chunk if u.is_fma())

    def _warm_caches(self, level: str) -> None:
        """Pre-fill the input matrices (A, B) into the hierarchy.

        Models the paper's warm-up (previous operation's output resident)
        plus the software prefetch/blocking that keeps a tuned GEMM's
        streaming inputs out of DRAM; the C output stays cold.
        """
        addrs: list[int] = []
        for name in ("A", "B"):
            region = self.trace.regions.get(name)
            if region is None:
                continue
            addrs.extend(range(region.base, region.end, 64))
        self.hierarchy.warm(addrs, level=level)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        """Simulate to completion and return the results.

        The loop body is guarded so idle stages (empty MGU queue, empty
        scalar/memory queues, fully-allocated trace) cost one truthiness
        check instead of a call — most cycles of a memory-bound stretch
        touch none of them.
        """
        cycle = 0
        save_enabled = self.save_enabled
        mgu = self.mgu
        lsu = self.lsu
        worklist = self._worklist
        scalar_queue = self._scalar_queue
        load_events = self._load_events
        max_cycles = self.max_cycles
        pending = self._pending
        # "Work remains" ⟺ µops pending allocation (pending empty ⟹
        # stream exhausted, the ``_refill`` invariant) or in flight in
        # the ROB — the streaming equivalent of ``retire_ptr < total``.
        while pending or self.retire_ptr < self.alloc_ptr:
            self.cycle = cycle
            self._process_completions(cycle)
            if worklist:
                self._drain_worklist()
            self._retire()
            if save_enabled and len(mgu):
                for dyn in mgu.step():
                    self._activate(dyn)
                if worklist:
                    self._drain_worklist()
            self._schedule(cycle)
            if scalar_queue:
                self._issue_scalars(cycle)
            if lsu.pending():
                for complete_cycle, request in lsu.service(cycle):
                    load_events.setdefault(complete_cycle, []).append(request)
            if pending:
                self._allocate(cycle)
            cycle += 1
            if cycle > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {self.max_cycles} cycles "
                    f"(retired {self.retire_ptr}/{self.alloc_ptr} allocated)"
                )
        return self._result(cycle)

    def _result(self, cycles: int) -> SimResult:
        bc_stats = self.bcache.stats if self.bcache is not None else None
        metrics = None
        if self.obs is not None:
            self._record_structure_metrics(cycles)
            metrics = self.obs.metrics.snapshot()
        return SimResult(
            name=self.trace.name,
            cycles=cycles,
            freq_ghz=self.config.core.freq_ghz,
            # The stream is fully drained by result time, so the number
            # of allocations *is* the trace length.
            uop_count=self.alloc_ptr,
            fma_count=self.fma_count,
            vpu_ops=self.vpu_ops,
            vpu_lane_slots=self.vpu_lane_slots,
            effectual_lanes=self.effectual_lanes,
            pass_through_lanes=self.pass_through_lanes,
            skipped_fmas=self.skipped_fmas,
            stall_rob_cycles=self.stall_rob_cycles,
            stall_rs_cycles=self.stall_rs_cycles,
            mgu_processed=self.mgu.processed,
            l1_port_accesses=self.lsu.stats.l1_port_accesses,
            b_cache_hit_rate=bc_stats.hit_rate if bc_stats else 0.0,
            b_cache_reads_saved=bc_stats.l1_reads_saved if bc_stats else 0,
            mean_cw=self._cw_sum / self._cw_samples if self._cw_samples else 0.0,
            prf_peak_base=self.prf.peak_base,
            prf_peak_copies=self.prf.peak_copies,
            metrics=metrics,
            final_state=self.final_state() if self.keep_state else None,
        )

    def _record_structure_metrics(self, cycles: int) -> None:
        """End-of-run structure peaks and totals (metrics enabled only)."""
        m = self.obs.metrics
        m.counter("sim_cycles").inc(cycles)
        m.counter("sim_runs").inc()
        m.gauge("mgu_peak_queue").set_max(self.mgu.peak_queue)
        m.gauge("slot_sched_peak_pending").set_max(self.slot_sched.peak_pending)
        m.gauge("horizontal_sched_peak_pending").set_max(
            self.horizontal_sched.peak_pending
        )
        m.gauge("prf_peak_copies").set_max(self.prf.peak_copies)
        m.counter("effectual_lanes").inc(self.effectual_lanes)
        m.counter("pass_through_lanes").inc(self.pass_through_lanes)
        m.counter("stall_rob_cycles").inc(self.stall_rob_cycles)
        m.counter("stall_rs_cycles").inc(self.stall_rs_cycles)
        if self.chains.created:
            m.counter("chains_created").inc(self.chains.created)
            m.counter("chain_mls_appended").inc(self.chains.mls_appended)

    def final_state(self) -> ArchState:
        """Reconstruct the architectural state after the trace."""
        state = ArchState(self.init_state.memory)
        for reg in range(32):
            producer = self.reg_producer.get(reg)
            if producer is not None and producer.out is not None:
                state.write_vreg(reg, producer.out)
            else:
                state.write_vreg(reg, self.init_state.read_vreg(reg))
        for kreg in range(8):
            producer = self.kreg_producer.get(kreg)
            if producer is not None:
                state.write_kreg(kreg, producer.uop.imm)
            else:
                state.write_kreg(kreg, self.init_state.read_kreg(kreg))
        return state

    # ------------------------------------------------------------------
    # Allocation / rename
    # ------------------------------------------------------------------

    def _allocate(self, cycle: int) -> None:
        budget = self.config.core.issue_width
        pending = self._pending
        while budget > 0 and pending:
            if self.rob_count >= self.config.core.rob_entries:
                self.stall_rob_cycles += 1
                return
            uop = pending[0]
            if uop.kind not in _NO_RS and self.rs_count >= self.config.core.rs_entries:
                self.stall_rs_cycles += 1
                return
            pending.popleft()
            dyn = DynUop(uop, self.alloc_ptr)
            dyn.alloc_cycle = cycle
            self._rob.append(dyn)
            self.alloc_ptr += 1
            self.rob_count += 1
            budget -= 1
            if not pending:
                self._refill()
            if self._tracing:
                self.obs.emit(
                    cycle, "dispatch", seq=dyn.seq, kind=uop.kind.name.lower()
                )
            self._rename(dyn)
            self.prf.on_rename(dyn)

    def _rename(self, dyn: DynUop) -> None:
        uop = dyn.uop
        kind = uop.kind
        if kind == UopKind.VZERO:
            dyn.set_output(np.zeros(FP32_LANES, dtype=np.float32))
            self.reg_producer[uop.dst] = dyn
            return
        if kind == UopKind.KMOV:
            dyn.completed = True
            self.kreg_producer[uop.dst] = dyn
            return
        self.rs_count += 1
        if kind == UopKind.SCALAR:
            self._scalar_queue.append(dyn)
            return
        if kind in (UopKind.VLOAD, UopKind.VBCAST):
            self.reg_producer[uop.dst] = dyn
            self.lsu.enqueue(MemRequest(dyn, uop.src_a, "load", dyn.alloc_cycle))
            return
        if kind == UopKind.VSTORE:
            source: RegOperand = uop.src_a
            producer = self.reg_producer.get(source.reg)
            dyn.a_src = producer
            if producer is None:
                dyn.out = self.init_state.read_vreg(source.reg)
                self.lsu.enqueue(MemRequest(dyn, uop.src_b, "store", dyn.alloc_cycle))
            elif producer.completed:
                self.lsu.enqueue(MemRequest(dyn, uop.src_b, "store", dyn.alloc_cycle))
            else:
                producer.consumers.append((dyn, ROLE_STORE))
            return
        # VFMA / VDPBF16.
        self._rename_fma(dyn)

    def _rename_fma(self, dyn: DynUop) -> None:
        uop = dyn.uop
        if self.save_enabled and self.scheme == CoalescingScheme.ROTATE_VERTICAL:
            dyn.rotation = rotation_offset(uop.accum, self.config.save.rotation_states)

        producer = self.reg_producer.get(uop.accum)
        dyn.acc_src = producer
        if producer is None:
            dyn.acc_init = self.init_state.read_vreg(uop.accum)
        elif not producer.completed or self.mp_technique:
            # MP technique also needs append-ordering notifications.
            producer.consumers.append((dyn, ROLE_ACC))

        for operand, role in ((uop.src_a, ROLE_A), (uop.src_b, ROLE_B)):
            if isinstance(operand, RegOperand):
                src = self.reg_producer.get(operand.reg)
                if src is None:
                    value = self.init_state.read_vreg(operand.reg)
                    self._set_mult_value(dyn, role, value)
                elif src.completed:
                    self._set_mult_value(dyn, role, src.out, src.value_words())
                else:
                    src.consumers.append((dyn, role))
            else:
                self.lsu.enqueue(MemRequest(dyn, operand, role, dyn.alloc_cycle))

        if uop.wmask is not None:
            kproducer = self.kreg_producer.get(uop.wmask)
            if kproducer is None:
                dyn.mask_bits = self.init_state.read_kreg(uop.wmask)
            elif kproducer.completed:
                dyn.mask_bits = kproducer.uop.imm
            else:
                kproducer.consumers.append((dyn, ROLE_MASK))

        self.reg_producer[uop.dst] = dyn
        self._check_fma_progress(dyn)

    @staticmethod
    def _set_mult_value(
        dyn: DynUop, role: str, value: np.ndarray, words: Optional[list[int]] = None
    ) -> None:
        if role == ROLE_A:
            dyn.a_value, dyn.a_words = np.asarray(value, dtype=np.float32), words
        else:
            dyn.b_value, dyn.b_words = np.asarray(value, dtype=np.float32), words

    # ------------------------------------------------------------------
    # Readiness plumbing
    # ------------------------------------------------------------------

    def _check_fma_progress(self, dyn: DynUop) -> None:
        """Advance an FMA whose inputs may have just become ready."""
        if not dyn.multiplicands_ready():
            return
        if not self.save_enabled:
            if (
                not dyn.baseline_queued
                and dyn.acc_fully_available()
            ):
                dyn.baseline_queued = True
                self.baseline_sched.insert(dyn.seq, dyn)
            return
        if dyn.elm is None and not dyn.mgu_queued:
            dyn.mgu_queued = True
            self.mgu.enqueue(dyn)

    def _activate(self, dyn: DynUop) -> None:
        """ELM ready: the µop enters the combination window."""
        dyn.active = True
        dyn.activate_cycle = self.cycle
        if self.obs is not None:
            self._note_activation(dyn)
        if dyn.elm == 0:
            self.skipped_fmas += 1
        if self.scheme == CoalescingScheme.NAIVE:
            # Strawman: no cross-instruction combining.  BS-skipped µops
            # pass through; anything else issues as a whole VFMA.
            if dyn.elm == 0:
                self._dispatch(dyn, FULL_LANE_MASK)
            else:
                self._try_queue_naive(dyn)
            return
        if dyn.mixed and self.mp_technique:
            self._try_append_chain(dyn)
            return
        self._dispatch(dyn, FULL_LANE_MASK)

    def _try_queue_naive(self, dyn: DynUop) -> None:
        """Queue a whole VFMA in the strawman scheme (vector-wise deps)."""
        if dyn.baseline_queued or not dyn.active or not dyn.elm:
            return
        if not dyn.acc_fully_available():
            return
        dyn.baseline_queued = True
        effectual = popcount(dyn.elm)
        self.effectual_lanes += effectual
        self.pass_through_lanes += FP32_LANES - effectual
        self._cw_enter(dyn)
        self.baseline_sched.insert(dyn.seq, dyn)

    def _dispatch(self, dyn: DynUop, lanes: int) -> None:
        """Dispatch the ``lanes`` word of ``dyn`` that can go now.

        Effectual lanes queue for a VPU slot; ineffectual (or masked)
        lanes pass the accumulator value through with no VPU work.
        Lanes already dispatched, and lanes whose accumulator input
        is not ready, are left for a later call.
        """
        if not dyn.active or (self._naive and dyn.elm):
            # Strawman: non-skipped µops issue whole, never lane-wise.
            return
        mixed_mp = dyn.mixed and self.mp_technique
        lanes &= ~dyn.lanes_dispatched_mask
        if mixed_mp:
            # Effectual lanes go through the accumulator chain.
            lanes &= ~dyn.elm
        if not lanes:
            return
        if self.lwd or mixed_mp:
            # LWD lane-order stall: a lane whose accumulator input lane
            # has not completed yet waits.
            blocked = lanes & ~dyn.acc_lanes()
            if blocked:
                lanes ^= blocked
                if self.obs is not None:
                    self.obs.metrics.counter("lwd_stalls").inc(popcount(blocked))
                    if self._tracing:
                        for lane in lanes_of(blocked):
                            self.obs.emit(self.cycle, "lwd_stall", seq=dyn.seq, lane=lane)
                if not lanes:
                    return
        elif not dyn.acc_fully_available():
            return

        dyn.lanes_dispatched_mask |= lanes
        effectual = 0 if mixed_mp else lanes & dyn.elm
        if effectual:
            count = popcount(effectual)
            self.effectual_lanes += count
            dyn.queued_lanes += count
            self._cw_enter(dyn)
            seq = dyn.seq
            if self._horizontal:
                insert = self.horizontal_sched.insert
                for lane in lanes_of(effectual):
                    insert(seq, (dyn, lane))
            else:
                insert = self.slot_sched.insert
                rotation = dyn.rotation
                for lane in lanes_of(effectual):
                    insert((lane + rotation) % FP32_LANES, seq, (dyn, lane))
        through = lanes ^ effectual
        if through:
            self.pass_through_lanes += popcount(through)
            self._finish_lanes(dyn, through, dyn.acc_vector())
        self._maybe_free_rs(dyn)

    def _maybe_free_rs(self, dyn: DynUop) -> None:
        if not dyn.rs_freed and dyn.lanes_dispatched_mask == FULL_LANE_MASK:
            dyn.rs_freed = True
            self.rs_count -= 1

    def _finish_lanes(self, dyn: DynUop, lanes: int, values: np.ndarray) -> None:
        """Write back ``lanes`` of ``dyn`` and queue their wake-ups."""
        completed = dyn.write_lanes(lanes, values)
        self._worklist.append((dyn, lanes))
        if completed:
            self._worklist.append((dyn, 0))

    def _cw_enter(self, dyn: DynUop) -> None:
        if not dyn.in_cw:
            dyn.in_cw = True
            self._cw_size += 1

    def _cw_leave(self, dyn: DynUop) -> None:
        if dyn.in_cw:
            dyn.in_cw = False
            self._cw_size -= 1

    # ------------------------------------------------------------------
    # Mixed-precision accumulator chains
    # ------------------------------------------------------------------

    def _chain_root_of(self, dyn: DynUop) -> DynUop:
        if dyn.chain_root is not None:
            return dyn.chain_root
        prev = dyn.acc_src
        if prev is not None and prev.is_fma and prev.mixed:
            dyn.chain_root = self._chain_root_of(prev)
        else:
            dyn.chain_root = dyn
        return dyn.chain_root

    def _try_append_chain(self, dyn: DynUop) -> None:
        """Append an active µop's MLs to its accumulator chain.

        Appending must follow program order within a chain, so a µop
        waits for its chain predecessor to have appended first.
        """
        if dyn.appended or not dyn.active:
            return
        prev = dyn.acc_src
        if prev is not None and prev.is_fma and prev.mixed and not prev.appended:
            return
        dyn.appended = True
        root = self._chain_root_of(dyn)
        # Lanes with an effectual ML append to the chain; the rest pass
        # through.
        effectual = dyn.elm
        if effectual:
            dyn.lanes_dispatched_mask |= effectual
            self._cw_enter(dyn)
            mls = popcount(dyn.ml0) + popcount(dyn.ml1)
            self.effectual_lanes += mls
            self.chains.mls_appended += mls
            self._maybe_free_rs(dyn)
        self._dispatch(dyn, FULL_LANE_MASK)
        root_lanes = root.acc_lanes()
        for lane in lanes_of(effectual):
            bit = 1 << lane
            chain = self.chains.lane(
                root, lane, slot_for_lane(lane, root.rotation)
            )
            if dyn.ml0 & bit:
                chain.append(dyn, 0)
            if dyn.ml1 & bit:
                chain.append(dyn, 1)
            if self._tracing:
                self.obs.emit(
                    self.cycle,
                    "chain_append",
                    seq=dyn.seq,
                    root=root.seq,
                    lane=lane,
                    mls=[p for p, word in enumerate((dyn.ml0, dyn.ml1)) if word & bit],
                )
            if chain.acc_value is None and root_lanes & bit:
                chain.acc_value = root.acc_vector().item(lane)
            self._enqueue_chain_if_ready(chain)
        # Unblock chain successors waiting on append order.
        for consumer, role in dyn.consumers:
            if role == ROLE_ACC and consumer.is_fma and consumer.mixed:
                self._try_append_chain(consumer)

    def _enqueue_chain_if_ready(self, chain: ChainLane) -> None:
        if chain.ready() and not chain.enqueued:
            chain.enqueued = True
            if self.scheme == CoalescingScheme.HORIZONTAL:
                self.horizontal_sched.insert(chain.head_seq(), chain)
            else:
                self.slot_sched.insert(chain.slot, chain.head_seq(), chain)

    # ------------------------------------------------------------------
    # Scheduling and VPU issue
    # ------------------------------------------------------------------

    def _schedule(self, cycle: int) -> None:
        num_vpus = self.config.core.num_vpus
        if self.save_enabled and self._cw_size > 0:
            self._cw_samples += 1
            self._cw_sum += self._cw_size
            if self.obs is not None:
                self.obs.metrics.histogram("cw_occupancy").record(self._cw_size)
        if not self.save_enabled or self.scheme == CoalescingScheme.NAIVE:
            if not self.baseline_sched.pending():
                return
            for _ in range(num_vpus):
                dyn = self.baseline_sched.pop_oldest()
                if dyn is None:
                    return
                dyn.rs_freed = True
                self.rs_count -= 1
                self._cw_leave(dyn)
                dyn.lanes_dispatched_mask = FULL_LANE_MASK
                op = TempOp(
                    TempOpKind.WHOLE,
                    cycle,
                    self.config.fma_latency(dyn.mixed),
                    whole=dyn,
                )
                self._issue(op)
            return

        if self.scheme == CoalescingScheme.HORIZONTAL:
            if not self.horizontal_sched.pending():
                return
            for _ in range(num_vpus):
                op = TempOp(TempOpKind.LANES, cycle, 0)
                for _ in range(FP32_LANES):
                    entry = self.horizontal_sched.pop_oldest()
                    if entry is None:
                        break
                    self._assemble(op, entry)
                if op.is_empty():
                    return
                op.latency = self._op_latency(op)
                self._issue(op)
            return

        # (Rotate-)vertical coalescing: per-slot oldest-first selection.
        if not self.slot_sched.pending():
            return
        ops = [TempOp(TempOpKind.LANES, cycle, 0) for _ in range(num_vpus)]
        any_filled = False
        pop_oldest = self.slot_sched.pop_oldest
        for slot in range(FP32_LANES):
            for op in ops:
                item = pop_oldest(slot)
                if item is None:
                    break
                any_filled = True
                self._assemble(op, item)
        if not any_filled:
            return
        for op in ops:
            if op.is_empty():
                continue
            op.latency = self._op_latency(op)
            self._issue(op)

    def _assemble(self, op: TempOp, item) -> None:
        """Add one selected ``(µop, lane)`` or chain lane to ``op``."""
        if isinstance(item, ChainLane):
            item.enqueued = False
            item.busy = True
            op.kind = TempOpKind.CHAIN
            op.chain_entries.append((item, item.take(2), item.acc_value))
        else:
            op.lane_entries.append(item)
            self._cw_pop_lane(item[0])

    def _op_latency(self, op: TempOp) -> int:
        if op.chain_entries:
            return self.config.fma_latency(True)
        return self.config.fma_latency(op.lane_entries[0][0].mixed)

    def _cw_pop_lane(self, dyn: DynUop) -> None:
        dyn.queued_lanes -= 1
        if dyn.queued_lanes == 0:
            self._cw_leave(dyn)

    def _issue(self, op: TempOp) -> None:
        self.vpu_ops += 1
        self.vpu_lane_slots += op.lane_count()
        if self.obs is not None:
            self._note_issue(op)
        self._vpu_events.setdefault(op.complete_cycle, []).append(op)

    # ------------------------------------------------------------------
    # Observability hooks (reached only when instrumentation is on)
    # ------------------------------------------------------------------

    def _note_activation(self, dyn: DynUop) -> None:
        """ELM generated: record the distribution and SAVE skip events."""
        m = self.obs.metrics
        m.histogram("elm_wait_cycles", log2_bucket).record(
            dyn.activate_cycle - dyn.alloc_cycle
        )
        m.histogram("elm_popcount").record(bin(dyn.elm).count("1"))
        if dyn.elm == 0:
            m.counter("bs_skips").inc()
        if self._tracing:
            self.obs.emit(self.cycle, "elm", seq=dyn.seq, elm=dyn.elm)
            if dyn.elm == 0:
                self.obs.emit(self.cycle, "bs_skip", seq=dyn.seq)

    def _note_issue(self, op: TempOp) -> None:
        """VPU op issued: lane-occupancy distribution plus merge detail."""
        m = self.obs.metrics
        m.histogram("lanes_per_op").record(op.lane_count())
        m.counter(f"vpu_ops_{op.kind.name.lower()}").inc()
        if not self._tracing:
            return
        cycle = op.issue_cycle
        self.obs.emit(cycle, "issue", **op.describe())
        if op.kind == TempOpKind.WHOLE:
            return
        scheme = self.scheme.name.lower() if self.scheme is not None else "baseline"
        entries = []
        for dyn, lane in op.lane_entries:
            entries.append(
                {
                    "seq": dyn.seq,
                    "lane": lane,
                    "slot": slot_for_lane(lane, dyn.rotation),
                    "rstate": rotation_state_name(dyn.rotation),
                }
            )
        for chain, mls, _acc in op.chain_entries:
            entries.append(
                {
                    "root": chain.root.seq,
                    "lane": chain.lane,
                    "slot": chain.slot,
                    "mls": [[dyn.seq, p] for dyn, p in mls],
                }
            )
        self.obs.emit(cycle, "merge", scheme=scheme, entries=entries)

    def _note_retire(self, dyn: DynUop) -> None:
        """Per-stage cycle attribution, recorded once at retirement."""
        m = self.obs.metrics
        if dyn.is_fma:
            if dyn.activate_cycle >= 0:
                m.histogram("cw_residency_cycles", log2_bucket).record(
                    (dyn.complete_cycle if dyn.complete_cycle >= 0 else self.cycle)
                    - dyn.activate_cycle
                )
            if dyn.complete_cycle >= 0:
                m.histogram("retire_wait_cycles", log2_bucket).record(
                    self.cycle - dyn.complete_cycle
                )
        if self._tracing:
            self.obs.emit(self.cycle, "retire", seq=dyn.seq)

    def _issue_scalars(self, cycle: int) -> None:
        for _ in range(min(self.config.core.scalar_ports, len(self._scalar_queue))):
            dyn = self._scalar_queue.popleft()
            self._scalar_events.setdefault(cycle + 1, []).append(dyn)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _process_completions(self, cycle: int) -> None:
        if self._load_events:
            for request in self._load_events.pop(cycle, ()):
                self._complete_memory(request)
        if self._vpu_events:
            for op in self._vpu_events.pop(cycle, ()):
                self._complete_vpu_op(op)
        if self._scalar_events:
            for dyn in self._scalar_events.pop(cycle, ()):
                dyn.completed = True
                self.rs_count -= 1
                dyn.rs_freed = True

    def _complete_memory(self, request: MemRequest) -> None:
        dyn = request.dyn
        if request.role == "store":
            dyn.completed = True
            self.rs_count -= 1
            dyn.rs_freed = True
            return
        if request.role == "load":
            value = self.lsu.resolve_value(request.operand)
            self.rs_count -= 1
            dyn.rs_freed = True
            dyn.set_output(value)
            self._worklist.append((dyn, 0))
            return
        # Embedded memory operand of an FMA.
        value = self.lsu.resolve_value(request.operand)
        self._set_mult_value(dyn, request.role, value)
        self._check_fma_progress(dyn)

    def _complete_vpu_op(self, op: TempOp) -> None:
        """Write back one op's results, one lane word per µop.

        Wake-ups leave in the order of each µop's *last* lane in the op,
        as a lane-at-a-time engine would: that order decides, e.g., the
        order of same-cycle stores in the store queue.
        """
        if op.kind == TempOpKind.WHOLE:
            dyn = op.whole
            dyn.set_output(compute_whole(dyn))
            self._worklist.append((dyn, 0))
            return
        if op.lane_entries:
            for dyn, lanes in self._wake_up_order(op.lane_entries):
                self._finish_lanes(dyn, lanes, compute_lanes(dyn))
        if not op.chain_entries:
            return
        # CHAIN: mixed-precision ML slots.
        after_first, after_second = compute_chain_slots(op.chain_entries)
        done = []
        for index, (chain, mls, _acc) in enumerate(op.chain_entries):
            lane = chain.lane
            partials = (after_first[index], after_second[index])
            for position, (dyn, p) in enumerate(mls):
                if p or not dyn.ml1 >> lane & 1:
                    # The µop's last ML in this lane: write back.
                    dyn.out[lane] = partials[position]
                    done.append((dyn, lane))
            chain.acc_value = partials[len(mls) - 1]
            chain.busy = False
            self._enqueue_chain_if_ready(chain)
        for dyn, lanes in self._wake_up_order(done):
            self._worklist.append((dyn, lanes))
            if dyn.lanes_done(lanes):
                self._cw_leave(dyn)
                self._worklist.append((dyn, 0))

    def _wake_up_order(
        self, entries: list[tuple[DynUop, int]]
    ) -> list[tuple[DynUop, int]]:
        """Group one op's ``(µop, lane)`` completions into lane words.

        Words are ordered by each µop's last entry.  Under horizontal
        compression each entry stays its own word: that queue breaks
        same-``seq`` ties by insertion order, so lanes wake up in entry
        order.
        """
        if self._horizontal:
            return [(dyn, 1 << lane) for dyn, lane in entries]
        words: dict[DynUop, int] = {}
        for dyn, lane in reversed(entries):
            words[dyn] = words.get(dyn, 0) | 1 << lane
        return list(reversed(words.items()))

    # ------------------------------------------------------------------
    # Wake-up
    # ------------------------------------------------------------------

    def _drain_worklist(self) -> None:
        worklist = self._worklist
        while worklist:
            dyn, lanes = worklist.popleft()
            if lanes:
                self._on_lane_completion(dyn, lanes)
            else:
                self._on_full_completion(dyn)

    def _on_lane_completion(self, producer: DynUop, lanes: int) -> None:
        for consumer, role in producer.consumers:
            if role != ROLE_ACC:
                continue
            if consumer.mixed and self.mp_technique:
                self._chain_acc_arrival(consumer, lanes)
                self._dispatch(consumer, lanes)
            elif self.lwd and consumer.active:
                self._dispatch(consumer, lanes)

    def _chain_acc_arrival(self, consumer: DynUop, lanes: int) -> None:
        """Accumulator input ``lanes`` of a chain root became available."""
        if not consumer.appended:
            return
        root = self._chain_root_of(consumer)
        if root is not consumer:
            return
        for lane in lanes_of(lanes):
            chain = self.chains.existing_lane(root, lane)
            if chain is not None and chain.acc_value is None:
                chain.acc_value = root.acc_vector().item(lane)
                self._enqueue_chain_if_ready(chain)

    def _on_full_completion(self, producer: DynUop) -> None:
        producer.complete_cycle = self.cycle
        for consumer, role in producer.consumers:
            if role in (ROLE_A, ROLE_B):
                self._set_mult_value(consumer, role, producer.out, producer.value_words())
                self._check_fma_progress(consumer)
            elif role == ROLE_MASK:
                consumer.mask_bits = producer.uop.imm
                self._check_fma_progress(consumer)
            elif role == ROLE_STORE:
                self.lsu.enqueue(
                    MemRequest(consumer, consumer.uop.src_b, "store", self.cycle)
                )
            elif role == ROLE_ACC:
                if not self.save_enabled:
                    self._check_fma_progress(consumer)
                elif self.scheme == CoalescingScheme.NAIVE:
                    if consumer.active:
                        if consumer.elm == 0:
                            self._dispatch(consumer, FULL_LANE_MASK)
                        else:
                            self._try_queue_naive(consumer)
                elif consumer.mixed and self.mp_technique:
                    if consumer.appended:
                        self._chain_acc_arrival(consumer, FULL_LANE_MASK)
                        self._dispatch(consumer, FULL_LANE_MASK)
                elif consumer.active:
                    self._dispatch(consumer, FULL_LANE_MASK)

    # ------------------------------------------------------------------
    # Retire
    # ------------------------------------------------------------------

    def _retire(self) -> None:
        budget = self.config.core.issue_width
        obs = self.obs
        rob = self._rob
        while budget > 0 and rob and rob[0].completed:
            dyn = rob.popleft()
            self.prf.on_retire(dyn)
            if obs is not None:
                self._note_retire(dyn)
            self.retire_ptr += 1
            self.rob_count -= 1
            budget -= 1


def simulate(
    trace: Union[KernelTrace, TraceStream],
    config: MachineConfig,
    warm_level: Optional[str] = "l2",
    keep_state: bool = True,
    obs: Optional[Instrumentation] = None,
    engine: str = "exact",
) -> SimResult:
    """Convenience wrapper: run one trace on one configuration.

    Pass an :class:`repro.obs.Instrumentation` as ``obs`` to collect
    metrics and (if its sink is real) structured trace events; the
    returned :attr:`SimResult.metrics` then holds the snapshot.

    ``engine`` selects the tier: ``"exact"`` (this module's cycle-level
    pipeline, the default), or ``"fast"``/``"analytic"`` which delegate
    to :mod:`repro.fastsim`'s estimators (no µop execution, no
    ``final_state``/``metrics``); results carry an ``engine`` tag.
    """
    if engine != "exact":
        # Imported lazily: repro.fastsim depends on modules that import
        # this one, so a module-level import would be a cycle.
        from repro.fastsim import simulate_trace

        return simulate_trace(trace, config, engine)
    return PipelineSimulator(
        trace, config, warm_level=warm_level, keep_state=keep_state, obs=obs
    ).run()
