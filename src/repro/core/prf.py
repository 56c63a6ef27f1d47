"""Physical-register-file occupancy tracking (Sec. IV-B accounting).

Rotate-vertical coalescing keeps differently-rotated copies of
non-broadcasted multiplicands.  The paper bounds the cost with two
optimisations (single copy of broadcasted values; accumulators share
R-states) and claims the residue is small: "less than 25% additional
registers" for a typical explicit-broadcast kernel and "less than 5%"
for embedded broadcast — so the PRF need not grow.

:class:`PrfTracker` measures both quantities during simulation:

* **base occupancy** — committed architectural registers (32) plus
  in-flight renamed destinations (allocated at rename, freed at
  retirement of the *superseding* writer, the standard scheme —
  approximated here as freed at the writer's own retirement, which
  over-counts by at most the architectural register count and is
  conservative for the paper's claim),
* **rotation copies** — live (source value, R-state ≠ 0) pairs among
  in-flight VFMAs whose non-broadcasted multiplicand is a register.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Optional

from repro.core.dynuop import DynUop
from repro.isa.registers import NUM_VREGS
from repro.isa.uops import RegOperand


class PrfTracker:
    """Tracks base and rotation-copy register pressure."""

    def __init__(self) -> None:
        self._in_flight_dests = 0
        self._copy_refs: dict[tuple[int, int], int] = defaultdict(int)
        self._live_copies = 0
        self.peak_base = NUM_VREGS
        self.peak_copies = 0
        #: (source id, rotation) key per dyn seq, for release at retire.
        self._dyn_copy_key: dict[int, tuple[int, int]] = {}
        self._dyn_has_dest: dict[int, bool] = {}

    # ------------------------------------------------------------------

    @staticmethod
    def _source_id(dyn: DynUop) -> Optional[int]:
        """Identity of the non-broadcasted multiplicand's value.

        The generated kernels put the non-broadcasted vector in the B
        operand; a register operand's value identity is its producer's
        sequence number (or the architectural register for live-ins).
        """
        operand = dyn.uop.src_b
        if not isinstance(operand, RegOperand):
            return None
        if dyn.b_src is not None:
            return dyn.b_src.seq
        return -1 - operand.reg  # live-in value

    def on_rename(self, dyn: DynUop) -> None:
        """Account a µop at rename time."""
        has_dest = dyn.uop.dst is not None and dyn.uop.kind.name != "KMOV"
        self._dyn_has_dest[dyn.seq] = has_dest
        if has_dest:
            self._in_flight_dests += 1
            self.peak_base = max(self.peak_base, NUM_VREGS + self._in_flight_dests)
        if dyn.is_fma and dyn.rotation != 0:
            source = self._source_id(dyn)
            if source is not None:
                key = (source, dyn.rotation)
                self._dyn_copy_key[dyn.seq] = key
                if self._copy_refs[key] == 0:
                    self._live_copies += 1
                    self.peak_copies = max(self.peak_copies, self._live_copies)
                self._copy_refs[key] += 1

    def on_retire(self, dyn: DynUop) -> None:
        """Release a µop's register resources at retirement."""
        if self._dyn_has_dest.pop(dyn.seq, False):
            self._in_flight_dests -= 1
        key = self._dyn_copy_key.pop(dyn.seq, None)
        if key is not None:
            self._copy_refs[key] -= 1
            if self._copy_refs[key] == 0:
                self._live_copies -= 1
