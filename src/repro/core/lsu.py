"""Load/store unit: port-limited access to the B$ and the L1-D.

Per cycle the LSU serves:

* up to ``broadcast_cache_ports`` broadcast requests through the B$
  (when SAVE's B$ is enabled) — a B$ hit that still needs data from the
  L1-D (mask design, non-zero element) falls through to the L1 queue,
* up to ``l1_read_ports`` requests from the L1 queue (vector loads,
  broadcasts without a B$, and B$ fall-throughs),
* up to ``store_ports`` stores.

Values are resolved from the functional memory at service time, so the
pipeline's operands carry real data (feeding the MGUs and the
transparency checks).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.dynuop import DynUop
from repro.isa.datatypes import BF16_LANES, FP32_LANES
from repro.isa.registers import Memory
from repro.isa.uops import MemOperand
from repro.memory.broadcast_cache import BroadcastCache, BroadcastCacheKind
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import Instrumentation
from repro.obs.events import BcacheHit, BcacheMiss


@dataclass
class MemRequest:
    """One outstanding memory access."""

    dyn: DynUop
    operand: MemOperand
    role: str  # "a" | "b" | "load" | "store"
    enqueue_cycle: int

    @property
    def is_broadcast(self) -> bool:
        return self.operand.broadcast


@dataclass
class LsuStats:
    """Counters for LSU behaviour."""

    broadcast_requests: int = 0
    vector_loads: int = 0
    stores: int = 0
    l1_port_accesses: int = 0
    b_cache_serviced: int = 0


class LoadStoreUnit:
    """Port-limited memory pipeline front."""

    def __init__(
        self,
        memory: Memory,
        hierarchy: MemoryHierarchy,
        broadcast_cache: Optional[BroadcastCache],
        l1_read_ports: int = 2,
        store_ports: int = 1,
        obs: Optional[Instrumentation] = None,
    ) -> None:
        self.memory = memory
        self.hierarchy = hierarchy
        self.broadcast_cache = broadcast_cache
        self.l1_read_ports = l1_read_ports
        self.store_ports = store_ports
        self.obs = obs
        self._broadcast_queue: deque[MemRequest] = deque()
        self._l1_queue: deque[MemRequest] = deque()
        self._store_queue: deque[MemRequest] = deque()
        self.stats = LsuStats()

    # ------------------------------------------------------------------

    def enqueue(self, request: MemRequest) -> None:
        """Accept a request from allocation (loads) or issue (stores)."""
        if request.role == "store":
            self.stats.stores += 1
            self._store_queue.append(request)
        elif request.is_broadcast and self._has_b_cache():
            self.stats.broadcast_requests += 1
            self._broadcast_queue.append(request)
        else:
            if request.is_broadcast:
                self.stats.broadcast_requests += 1
            else:
                self.stats.vector_loads += 1
            self._l1_queue.append(request)

    def _has_b_cache(self) -> bool:
        return (
            self.broadcast_cache is not None
            and self.broadcast_cache.kind != BroadcastCacheKind.NONE
        )

    # ------------------------------------------------------------------
    # Value materialisation
    # ------------------------------------------------------------------

    def resolve_value(self, operand: MemOperand) -> np.ndarray:
        """Read the operand's vector value from functional memory."""
        if operand.broadcast:
            if operand.bf16:
                pair = [self.memory.read(operand.addr), self.memory.read(operand.addr + 2)]
                return np.tile(np.array(pair, dtype=np.float32), FP32_LANES)
            return np.full(FP32_LANES, self.memory.read(operand.addr), dtype=np.float32)
        lanes = BF16_LANES if operand.bf16 else FP32_LANES
        return self.memory.read_vector(operand.addr, lanes, operand.element_bytes)

    def _write_store(self, request: MemRequest) -> None:
        value = request.dyn.a_src.out if request.dyn.a_src is not None else request.dyn.out
        stride = request.operand.element_bytes
        self.memory.write_vector(request.operand.addr, value, stride)

    # ------------------------------------------------------------------
    # Per-cycle service
    # ------------------------------------------------------------------

    def service(self, cycle: int) -> list[tuple[int, MemRequest]]:
        """Serve this cycle's requests.

        Returns ``(completion_cycle, request)`` pairs; the pipeline
        delivers values to consumers at the completion cycle.
        """
        completions: list[tuple[int, MemRequest]] = []
        l1_ports_left = self.l1_read_ports
        obs = self.obs
        if obs is not None:
            obs.metrics.gauge("lsu_peak_pending").set_max(self.pending())

        # Broadcast path through the B$.
        if self._has_b_cache():
            b_ports_left = self.broadcast_cache.ports
            while self._broadcast_queue and b_ports_left > 0:
                request = self._broadcast_queue[0]
                result = self.broadcast_cache.access(request.operand.addr)
                b_ports_left -= 1
                self._broadcast_queue.popleft()
                if obs is not None:
                    obs.metrics.counter(
                        "bcache_hits" if result.hit else "bcache_misses"
                    ).inc()
                    if obs.tracing:
                        obs.emit(
                            BcacheHit if result.hit else BcacheMiss,
                            cycle,
                            addr=request.operand.addr,
                            zero=result.value_is_zero,
                            l1_access=result.l1_access,
                        )
                if result.l1_access:
                    if l1_ports_left > 0:
                        l1_ports_left -= 1
                        self.stats.l1_port_accesses += 1
                        latency = self.hierarchy.access(request.operand.addr)
                        completions.append((cycle + latency, request))
                    else:
                        # Defer the data fetch to the L1 queue.
                        self._l1_queue.append(request)
                else:
                    self.stats.b_cache_serviced += 1
                    latency = self.hierarchy.config.l1_latency
                    completions.append((cycle + latency, request))

        # L1 read path.
        while self._l1_queue and l1_ports_left > 0:
            request = self._l1_queue.popleft()
            l1_ports_left -= 1
            self.stats.l1_port_accesses += 1
            latency = self.hierarchy.access(request.operand.addr)
            completions.append((cycle + latency, request))

        # Store path.
        store_ports_left = self.store_ports
        while self._store_queue and store_ports_left > 0:
            request = self._store_queue.popleft()
            store_ports_left -= 1
            self.hierarchy.access(request.operand.addr, is_write=True)
            self._write_store(request)
            completions.append((cycle + 1, request))
        return completions

    def pending(self) -> int:
        """Outstanding requests across all queues."""
        return (
            len(self._broadcast_queue) + len(self._l1_queue) + len(self._store_queue)
        )
