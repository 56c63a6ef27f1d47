"""Tests for ELM generation, rotation states, and scheduler structures."""

import numpy as np
import pytest

from repro.core.dynuop import DynUop
from repro.core.save.elm import MguStage, compute_elm
from repro.core.save.rotate import rotation_offset, slot_for_lane
from repro.core.save.window import (
    BaselineScheduler,
    HorizontalScheduler,
    SlotScheduler,
)
from repro.isa.uops import RegOperand, vdpbf16, vfma


def fma_dyn(a, b, mask_bits=None, mixed=False, wmask=None):
    uop = (vdpbf16 if mixed else vfma)(0, RegOperand(1), RegOperand(2), wmask=wmask)
    dyn = DynUop(uop, 0)
    dyn.a_value = np.asarray(a, dtype=np.float32)
    dyn.b_value = np.asarray(b, dtype=np.float32)
    if mask_bits is not None:
        dyn.mask_bits = mask_bits
    return dyn


class TestComputeElm:
    def test_dense_all_effectual(self):
        dyn = fma_dyn(np.ones(16), np.ones(16))
        elm, ml0, ml1 = compute_elm(dyn)
        assert elm == ml0 == 0xFFFF and ml1 == 0

    def test_zero_in_a_kills_lane(self):
        a = np.ones(16)
        a[3] = 0
        dyn = fma_dyn(a, np.ones(16))
        elm, _, _ = compute_elm(dyn)
        assert not elm & (1 << 3)
        assert elm & (1 << 2)

    def test_zero_in_b_kills_lane(self):
        b = np.ones(16)
        b[7] = 0
        elm, _, _ = compute_elm(fma_dyn(np.ones(16), b))
        assert not elm & (1 << 7)

    def test_broadcast_zero_is_all_ineffectual(self):
        elm, _, _ = compute_elm(fma_dyn(np.zeros(16), np.ones(16)))
        assert elm == 0

    def test_write_mask_clears_lanes(self):
        dyn = fma_dyn(np.ones(16), np.ones(16), mask_bits=0x00FF, wmask=1)
        elm, _, _ = compute_elm(dyn)
        assert elm == 0x00FF

    def test_requires_operands(self):
        uop = vfma(0, RegOperand(1), RegOperand(2))
        with pytest.raises(RuntimeError):
            compute_elm(DynUop(uop, 0))

    def test_mixed_al_effectual_if_any_ml(self):
        a = np.ones(32)
        b = np.ones(32)
        b[0] = 0  # AL 0 ML 0 dead, ML 1 alive
        b[2] = b[3] = 0  # AL 1 both dead
        elm, ml0, ml1 = compute_elm(fma_dyn(a, b, mixed=True))
        assert elm & 1
        assert not elm & 2
        assert (ml0 & 1, ml1 & 1) == (0, 1)  # AL 0: ML 1 only
        assert (ml0 & 2, ml1 & 2) == (0, 0)  # AL 1: none
        assert (ml0 & 4, ml1 & 4) == (4, 4)  # AL 2: both
        assert elm == ml0 | ml1

    def test_mixed_write_mask_empties_ml_list(self):
        dyn = fma_dyn(np.ones(32), np.ones(32), mask_bits=0xFFFE, wmask=1, mixed=True)
        elm, ml0, ml1 = compute_elm(dyn)
        assert not (ml0 | ml1) & 1
        assert not elm & 1


class TestMguStage:
    def test_budget_limits_throughput(self):
        mgu = MguStage(2)
        dyns = [fma_dyn(np.ones(16), np.ones(16)) for _ in range(5)]
        for dyn in dyns:
            mgu.enqueue(dyn)
        assert len(mgu.step()) == 2
        assert len(mgu.step()) == 2
        assert len(mgu.step()) == 1
        assert mgu.processed == 5

    def test_step_sets_elm(self):
        mgu = MguStage(4)
        dyn = fma_dyn(np.ones(16), np.ones(16))
        mgu.enqueue(dyn)
        mgu.step()
        assert dyn.elm == 0xFFFF

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            MguStage(0)


class TestRotation:
    def test_three_states(self):
        offsets = {rotation_offset(reg) for reg in range(6)}
        assert offsets == {-1, 0, 1}

    def test_keyed_on_accumulator_mod3(self):
        assert rotation_offset(0) == rotation_offset(3) == rotation_offset(27)
        assert rotation_offset(1) == rotation_offset(4)

    def test_disabled(self):
        assert rotation_offset(5, rotation_states=1) == 0

    def test_invalid_states(self):
        with pytest.raises(ValueError):
            rotation_offset(0, rotation_states=2)

    def test_slot_wraps(self):
        assert slot_for_lane(15, 1) == 0
        assert slot_for_lane(0, -1) == 15
        assert slot_for_lane(5, 0) == 5

    def test_rotation_breaks_conflicts(self):
        # Three µops with accumulators 0, 1, 2 sharing one effectual
        # lane map to three distinct slots.
        lane = 4
        slots = {slot_for_lane(lane, rotation_offset(reg)) for reg in (0, 1, 2)}
        assert len(slots) == 3


class TestSchedulers:
    def test_slot_scheduler_oldest_first(self):
        sched = SlotScheduler()
        sched.insert(0, seq=5, item="young")
        sched.insert(0, seq=2, item="old")
        assert sched.pop_oldest(0) == "old"
        assert sched.pop_oldest(0) == "young"
        assert sched.pop_oldest(0) is None

    def test_slot_scheduler_isolated_slots(self):
        sched = SlotScheduler()
        sched.insert(0, 1, "a")
        assert sched.pop_oldest(1) is None
        assert sched.pending() == 1

    def test_slot_occupancy(self):
        sched = SlotScheduler(slots=4)
        sched.insert(0, 1, "a")
        sched.insert(0, 2, "b")
        sched.insert(3, 3, "c")
        assert sched.slot_occupancy() == [2, 0, 0, 1]

    def test_slot_scheduler_fifo_ties(self):
        sched = SlotScheduler()
        sched.insert(0, 1, "first")
        sched.insert(0, 1, "second")
        assert sched.pop_oldest(0) == "first"

    def test_horizontal_scheduler_global_order(self):
        sched = HorizontalScheduler()
        sched.insert(9, "b")
        sched.insert(1, "a")
        assert sched.pop_oldest() == "a"
        assert sched.pending() == 1

    def test_baseline_scheduler(self):
        sched = BaselineScheduler()
        sched.insert(3, "c")
        sched.insert(1, "a")
        assert sched.pop_oldest() == "a"
        assert sched.pop_oldest() == "c"
        assert sched.pop_oldest() is None

    def test_rejects_bad_slots(self):
        with pytest.raises(ValueError):
            SlotScheduler(slots=0)
