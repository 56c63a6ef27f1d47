"""Effectual Lane Mask generation (Sec. III, Fig. 4).

A VFMA's lane is effectual iff both multiplicand elements are non-zero
and the write-mask bit (if any) is set.  For mixed-precision VFMAs the
mask is per *accumulator lane*: an AL is effectual iff at least one of
its two multiplicand-lane pairs is effectual (Sec. V).

MGUs are simple and replicated to match the issue width, so their
throughput is never the bottleneck — but we model the per-cycle budget
anyway so the claim is checkable (and ablatable).
"""

from __future__ import annotations

from collections import deque

from repro.core.dynuop import DynUop
from repro.isa.datatypes import nonzero_words


def compute_elm(dyn: DynUop) -> tuple[int, int, int]:
    """Compute the ELM and, for mixed precision, the two ML words.

    Requires the µop's multiplicands and write mask to be resolved.

    Returns:
        ``(elm, ml0, ml1)`` lane words.  ``ml<p>`` has bit ``l`` set iff
        multiplicand lane ``p`` of accumulator lane ``l`` is effectual
        (both multiplicands non-zero, write mask set); an accumulator
        lane is effectual iff either ML is.  FP32 µops have one ML per
        lane: ``ml0 == elm`` and ``ml1 == 0``.
    """
    if not dyn.multiplicands_ready():
        raise RuntimeError("ELM requested before multiplicands resolved")
    a = nonzero_words(dyn.a_value) if dyn.a_words is None else dyn.a_words
    b = nonzero_words(dyn.b_value) if dyn.b_words is None else dyn.b_words
    wm = dyn.write_mask()
    ml0 = a[0] & b[0] & wm
    if not dyn.mixed:
        return ml0, ml0, 0
    ml1 = a[1] & b[1] & wm
    return ml0 | ml1, ml0, ml1


class MguStage:
    """FIFO of VFMAs awaiting ELM generation, with a per-cycle budget."""

    def __init__(self, mgus_per_cycle: int) -> None:
        if mgus_per_cycle <= 0:
            raise ValueError("mgus_per_cycle must be positive")
        self.mgus_per_cycle = mgus_per_cycle
        self._queue: deque[DynUop] = deque()
        self.processed = 0
        #: Peak backlog of VFMAs awaiting ELM generation (observability
        #: check of the paper's "MGUs are never the bottleneck" claim).
        self.peak_queue = 0

    def enqueue(self, dyn: DynUop) -> None:
        """Queue a VFMA whose multiplicands just became ready."""
        self._queue.append(dyn)
        if len(self._queue) > self.peak_queue:
            self.peak_queue = len(self._queue)

    def step(self) -> list[DynUop]:
        """Process up to the per-cycle budget; returns activated µops."""
        activated: list[DynUop] = []
        for _ in range(min(self.mgus_per_cycle, len(self._queue))):
            dyn = self._queue.popleft()
            dyn.elm, dyn.ml0, dyn.ml1 = compute_elm(dyn)
            self.processed += 1
            activated.append(dyn)
        return activated

    def __len__(self) -> int:
        return len(self._queue)
