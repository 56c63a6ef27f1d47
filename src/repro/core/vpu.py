"""VPU operations: temp assembly records and result computation.

A :class:`TempOp` is one issued VPU operation — either a whole VFMA
(baseline), a set of coalesced ``(µop, lane)`` entries (SAVE vertical /
rotate-vertical / horizontal), or a mixed-precision chain op processing
up to two MLs per accumulator-lane slot.

Results are float32 array expressions over a lane set — a whole VFMA,
the effectual lanes of one µop in one op, the chain slots of one op —
with the same two roundings as :func:`repro.isa.semantics.mac` (a
float32 multiply, then a float32 add), so SAVE schedules that preserve
per-lane program order produce bit-identical architectural results.
"""

from __future__ import annotations

from enum import Enum, auto

import numpy as np

from repro.core.dynuop import DynUop
from repro.core.save.mixed import ChainLane, MlRef
from repro.isa.datatypes import FP32_LANES, FULL_LANE_MASK, lane_select


class TempOpKind(Enum):
    """What an issued VPU operation carries."""

    WHOLE = auto()  # baseline: one complete VFMA
    LANES = auto()  # coalesced single lanes from multiple VFMAs
    CHAIN = auto()  # mixed-precision chain slots (ML pairs)


class TempOp:
    """One VPU operation in flight.

    A plain ``__slots__`` class (not a dataclass): the scheduler builds
    one per VPU per busy cycle, so construction cost is hot-loop cost.
    """

    __slots__ = ("kind", "issue_cycle", "latency", "whole", "lane_entries",
                 "chain_entries")

    def __init__(
        self,
        kind: TempOpKind,
        issue_cycle: int,
        latency: int,
        whole: DynUop = None,
    ) -> None:
        self.kind = kind
        self.issue_cycle = issue_cycle
        self.latency = latency
        #: WHOLE: the µop.
        self.whole = whole
        #: LANES: (µop, lane) pairs.
        self.lane_entries: list[tuple[DynUop, int]] = []
        #: CHAIN: (chain lane, MLs taken, acc base at issue) triples.
        self.chain_entries: list[tuple[ChainLane, list[MlRef], float]] = []

    @property
    def complete_cycle(self) -> int:
        return self.issue_cycle + self.latency

    def is_empty(self) -> bool:
        """True if nothing was assembled into this op."""
        return self.whole is None and not self.lane_entries and not self.chain_entries

    def lane_count(self) -> int:
        """Occupied temp slots (VPU lane utilisation accounting)."""
        if self.kind == TempOpKind.WHOLE:
            return FP32_LANES
        if self.kind == TempOpKind.LANES:
            return len(self.lane_entries)
        return len(self.chain_entries)

    def uop_count(self) -> int:
        """Distinct µops contributing to this op (coalescing degree)."""
        if self.kind == TempOpKind.WHOLE:
            return 1
        if self.kind == TempOpKind.LANES:
            return len({dyn.seq for dyn, _lane in self.lane_entries})
        return len(
            {dyn.seq for _chain, mls, _acc in self.chain_entries for dyn, _p in mls}
        )


def products(dyn: DynUop) -> np.ndarray:
    """The µop's float32 products ``a * b``, computed once."""
    if dyn.prod is None:
        dyn.prod = dyn.a_value * dyn.b_value
    return dyn.prod


def compute_whole(dyn: DynUop) -> np.ndarray:
    """Architectural result of a whole VFMA (baseline issue)."""
    acc = dyn.acc_vector()
    prod = dyn.a_value * dyn.b_value
    if dyn.mixed:
        out = acc + prod[0::2] + prod[1::2]
    else:
        out = acc + prod
    wm = dyn.write_mask()
    if wm != FULL_LANE_MASK:
        out = np.where(lane_select(wm), out, acc)
    return out


def compute_lanes(dyn: DynUop) -> np.ndarray:
    """Effectual-lane results of one µop, as one 16-lane vector.

    FP32: one MAC per lane.  Mixed without the MP technique: the µop's
    own effectual MLs, chained in order — skipping ineffectual MLs is
    exact because their product is a true zero.  Only lanes whose
    accumulator input is available are meaningful.
    """
    acc = dyn.acc_vector()
    prod = products(dyn)
    if not dyn.mixed:
        return acc + prod
    value = np.where(lane_select(dyn.ml0), acc + prod[0::2], acc)
    return np.where(lane_select(dyn.ml1), value + prod[1::2], value)


def compute_chain_slots(
    entries: list[tuple[ChainLane, list[MlRef], float]],
) -> tuple[list[float], list[float]]:
    """Process the chain slots of one op (Fig. 11 semantics).

    Each entry is ``(chain lane, one or two (µop, p) MLs in program
    order, accumulation base)``.  Returns, per entry, the partial after
    its first ML and after its second: the last one is forwarded to the
    next chain op, and each is written back if its ML is its µop's last
    in the lane (Sec. V-B).
    """
    bases = [acc_base for _chain, _mls, acc_base in entries]
    first = [_product(chain, mls[0]) for chain, mls, _acc in entries]
    second = [
        _product(chain, mls[1]) if len(mls) > 1 else 0.0 for chain, mls, _acc in entries
    ]
    after_first = np.array(bases, dtype=np.float32) + np.array(first, dtype=np.float32)
    after_second = after_first + np.array(second, dtype=np.float32)
    return after_first.tolist(), after_second.tolist()


def _product(chain: ChainLane, ml: MlRef) -> float:
    dyn, p = ml
    return products(dyn).item(2 * chain.lane + p)
