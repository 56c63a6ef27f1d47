"""Mixed-precision accumulator-chain compression (Sec. V).

For VDPBF16-style µops, two BF16 multiplicand lanes (MLs) map to one
FP32 accumulator lane (AL).  Plain vertical coalescing can only skip an
AL when *both* its MLs are ineffectual, exploiting just the square of
the sparsity.  SAVE instead horizontally compresses effectual MLs from
VFMAs *sharing an accumulator*: each VPU AL slot processes up to two
MLs drawn in program order from the accumulator chain, preserving the
accumulation order (Fig. 10b) and therefore FP determinism.

:class:`ChainLane` tracks one (accumulator chain, AL lane) pair: the
FIFO of pending effectual MLs, the forwarded partial accumulator value,
and the busy state that serialises chain ops (the partial result of one
VPU op is forwarded as the accumulation base of the next, Fig. 11).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.dynuop import DynUop

#: One pending multiplicand-lane: (owning µop, ML index within the AL).
MlRef = tuple[DynUop, int]


class ChainLane:
    """Pending-ML queue and forwarding state for one (chain, lane)."""

    def __init__(self, root: DynUop, lane: int, slot: int) -> None:
        self.root = root
        self.lane = lane
        self.slot = slot
        self.queue: deque[MlRef] = deque()
        #: Forwarded partial accumulator; None until the chain's initial
        #: accumulator value is available.
        self.acc_value: Optional[float] = None
        self.busy = False
        #: True while the chain lane sits in a scheduler queue.
        self.enqueued = False

    def append(self, dyn: DynUop, ml_index: int) -> None:
        """Append one effectual ML (must be called in program order)."""
        self.queue.append((dyn, ml_index))

    def ready(self) -> bool:
        """Can a VPU op be issued for this chain lane this cycle?"""
        return bool(self.queue) and not self.busy and self.acc_value is not None

    def head_seq(self) -> int:
        """Program-order priority of the oldest pending ML."""
        return self.queue[0][0].seq

    def take(self, max_mls: int = 2) -> list[MlRef]:
        """Dequeue up to ``max_mls`` MLs for one VPU AL slot."""
        return [self.queue.popleft() for _ in range(min(max_mls, len(self.queue)))]


class ChainManager:
    """All live accumulator chains of a mixed-precision kernel."""

    def __init__(self) -> None:
        self._chains: dict[tuple[int, int], ChainLane] = {}
        #: Chain-lane records ever created (observability).
        self.created = 0
        #: Effectual MLs appended across all chain lanes (observability).
        self.mls_appended = 0

    def lane(self, root: DynUop, lane: int, slot: int) -> ChainLane:
        """Get or create the chain-lane record."""
        key = (root.seq, lane)
        chain = self._chains.get(key)
        if chain is None:
            chain = ChainLane(root, lane, slot)
            self._chains[key] = chain
            self.created += 1
        return chain

    def existing_lane(self, root: DynUop, lane: int) -> Optional[ChainLane]:
        """Look up a chain-lane without creating it."""
        return self._chains.get((root.seq, lane))
