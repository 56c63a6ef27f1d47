"""Dynamic µop state for the out-of-order pipeline.

A :class:`DynUop` wraps one trace µop with everything the pipeline
tracks at run time: renamed source producers, resolved operand values,
the Effectual Lane Mask, per-lane completion, and consumer links for
wake-up.  Values are carried so the pipeline *functionally executes*
the trace in its own (SAVE-reordered) schedule — which is what the
software-transparency property tests compare against the in-order
reference.

Lane sets are lane words (:mod:`repro.isa.datatypes`), the form in
which the MGUs produce ELMs: the ELM, the two mixed-precision ML words
and the dispatched and done sets are ints, so dispatch and completion
are and/or/popcount.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.isa.datatypes import FP32_LANES, FULL_LANE_MASK, lane_select, nonzero_words
from repro.isa.uops import Uop, UopKind

#: Consumer roles for wake-up routing.
ROLE_A = "a"
ROLE_B = "b"
ROLE_ACC = "acc"
ROLE_MASK = "mask"
ROLE_STORE = "store"

class DynUop:
    """One in-flight µop."""

    __slots__ = (
        "uop",
        "seq",
        "is_fma",
        "mixed",
        # Source producers (DynUop) or immediate values.
        "acc_src",
        "acc_init",
        "a_src",
        "a_value",
        "a_words",
        "b_src",
        "b_value",
        "b_words",
        "mask_bits",
        # SAVE state.
        "elm",
        "ml0",
        "ml1",
        "prod",
        "rotation",
        "active",
        "appended",
        "mgu_queued",
        "baseline_queued",
        "chain_root",
        "queued_lanes",
        "in_cw",
        # Per-lane progress.
        "out",
        "out_words",
        "lanes_done_mask",
        "lanes_dispatched_mask",
        # Bookkeeping.
        "consumers",
        "completed",
        "rs_freed",
        "alloc_cycle",
        "activate_cycle",
        "complete_cycle",
    )

    def __init__(self, uop: Uop, seq: int) -> None:
        self.uop = uop
        self.seq = seq
        self.is_fma = uop.is_fma()
        self.mixed = uop.kind == UopKind.VDPBF16

        self.acc_src: Optional["DynUop"] = None
        self.acc_init: Optional[np.ndarray] = None
        self.a_src: Optional["DynUop"] = None
        self.a_value: Optional[np.ndarray] = None
        #: :func:`nonzero_words` of the values (None: not yet computed).
        self.a_words: Optional[list[int]] = None
        self.b_src: Optional["DynUop"] = None
        self.b_value: Optional[np.ndarray] = None
        self.b_words: Optional[list[int]] = None
        self.mask_bits: Optional[int] = None

        self.elm: Optional[int] = None
        #: Effectual ML words (mixed): bit ``l`` of ``ml<p>`` is set iff
        #: multiplicand lane ``p`` of accumulator lane ``l`` is effectual.
        #: FP32 µops have ``ml0 == elm`` and ``ml1 == 0``.
        self.ml0 = 0
        self.ml1 = 0
        #: Float32 products ``a * b`` (computed on first use).
        self.prod: Optional[np.ndarray] = None
        self.rotation = 0
        self.active = False  # operands + ELM ready, participates in CW
        self.appended = False  # mixed technique: MLs appended to chain
        self.mgu_queued = False
        self.baseline_queued = False
        self.chain_root: Optional["DynUop"] = None
        #: Effectual lanes currently sitting in scheduler queues
        #: (combination-window gauge bookkeeping).
        self.queued_lanes = 0
        self.in_cw = False

        #: Lane results; FMAs fill it lane word by lane word.
        self.out: Optional[np.ndarray] = (
            np.zeros(FP32_LANES, dtype=np.float32) if self.is_fma else None
        )
        #: :func:`nonzero_words` of the completed ``out`` (for consumers).
        self.out_words: Optional[list[int]] = None
        self.lanes_done_mask = 0
        self.lanes_dispatched_mask = 0

        self.consumers: list[tuple["DynUop", str]] = []
        self.completed = False
        self.rs_freed = False
        self.alloc_cycle = -1
        #: Cycle the ELM became ready (µop entered the CW); -1 if never.
        self.activate_cycle = -1
        self.complete_cycle = -1

    # ------------------------------------------------------------------
    # Operand readiness
    # ------------------------------------------------------------------

    def multiplicands_ready(self) -> bool:
        """A, B and write mask resolved (prerequisite for the MGU)."""
        return (
            self.a_value is not None
            and self.b_value is not None
            and (self.uop.wmask is None or self.mask_bits is not None)
        )

    def acc_lanes(self) -> int:
        """Lane word of accumulator input lanes that are available."""
        return FULL_LANE_MASK if self.acc_src is None else self.acc_src.lanes_done_mask

    def acc_fully_available(self) -> bool:
        """Vector-wise accumulator availability."""
        return self.acc_src is None or self.acc_src.completed

    def acc_vector(self) -> np.ndarray:
        """Accumulator input vector (valid in the :meth:`acc_lanes` lanes)."""
        return self.acc_init if self.acc_src is None else self.acc_src.out

    def value_words(self) -> list[int]:
        """:func:`nonzero_words` of the completed output, computed once."""
        if self.out_words is None:
            self.out_words = nonzero_words(self.out)
        return self.out_words

    # ------------------------------------------------------------------
    # Lane progress
    # ------------------------------------------------------------------

    def write_lanes(self, lanes: int, values: np.ndarray) -> bool:
        """Record ``values`` in the ``lanes`` word; True if the µop just completed."""
        if lanes & (lanes - 1):
            np.putmask(self.out, lane_select(lanes), values)
        else:
            lane = lanes.bit_length() - 1
            self.out[lane] = values[lane]
        return self.lanes_done(lanes)

    def lanes_done(self, lanes: int) -> bool:
        """Mark ``lanes`` done; True if the µop just completed."""
        self.lanes_done_mask |= lanes
        if self.lanes_done_mask == FULL_LANE_MASK and not self.completed:
            self.completed = True
            return True
        return False

    def set_output(self, value: np.ndarray) -> None:
        """Whole-vector completion (loads, baseline FMAs, ...)."""
        self.out = np.asarray(value, dtype=np.float32).copy()
        self.lanes_done_mask = FULL_LANE_MASK
        self.lanes_dispatched_mask = FULL_LANE_MASK
        self.completed = True

    def write_mask(self) -> int:
        """Effective write mask bits (all-ones when unmasked)."""
        if self.uop.wmask is None:
            return FULL_LANE_MASK
        return self.mask_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DynUop #{self.seq} {self.uop.kind.name} done={self.completed}>"
