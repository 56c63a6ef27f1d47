"""Property-based tests (hypothesis) on core data structures."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynuop import DynUop
from repro.core.save.mixed import ChainLane
from repro.core.save.rotate import rotation_offset, slot_for_lane
from repro.core.save.window import HorizontalScheduler, SlotScheduler
from repro.isa.uops import RegOperand, vfma
from repro.model.analytic import expected_max_binomial
from repro.model.surface import SparsitySurface


class TestSlotSchedulerProperties:
    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 15)), max_size=60))
    def test_pops_in_seq_order_per_slot(self, items):
        sched = SlotScheduler()
        for seq, slot in items:
            sched.insert(slot, seq, (seq, slot))
        for slot in range(16):
            popped = []
            while True:
                item = sched.pop_oldest(slot)
                if item is None:
                    break
                popped.append(item[0])
            assert popped == sorted(popped)

    @given(st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 15)), max_size=60))
    def test_conservation(self, items):
        sched = SlotScheduler()
        for seq, slot in items:
            sched.insert(slot, seq, (seq, slot))
        assert sched.pending() == len(items)
        total = 0
        for slot in range(16):
            while sched.pop_oldest(slot) is not None:
                total += 1
        assert total == len(items)
        assert sched.pending() == 0

    @given(st.lists(st.integers(0, 10_000), max_size=80))
    def test_horizontal_global_order(self, seqs):
        sched = HorizontalScheduler()
        for seq in seqs:
            sched.insert(seq, seq)
        popped = []
        while True:
            item = sched.pop_oldest()
            if item is None:
                break
            popped.append(item)
        assert popped == sorted(seqs)


class TestRotationProperties:
    @given(st.integers(0, 31), st.integers(0, 15))
    def test_rotation_is_bijective_on_lanes(self, reg, lane):
        offset = rotation_offset(reg)
        slots = {slot_for_lane(l, offset) for l in range(16)}
        assert slots == set(range(16))

    @given(st.integers(0, 31))
    def test_producer_consumer_share_state(self, reg):
        # Same accumulator register => same rotation, always.
        assert rotation_offset(reg) == rotation_offset(reg)
        assert rotation_offset(reg) in (-1, 0, 1)

    @given(st.integers(0, 15), st.integers(-1, 1))
    def test_slot_roundtrip(self, lane, offset):
        slot = slot_for_lane(lane, offset)
        assert slot_for_lane(slot, -offset) == lane


class TestChainLaneProperties:
    def make_dyn(self, seq):
        dyn = DynUop(vfma(0, RegOperand(1), RegOperand(2)), seq)
        return dyn

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=20))
    def test_fifo_order_preserved(self, mls):
        chain = ChainLane(self.make_dyn(0), lane=3, slot=3)
        dyns = [self.make_dyn(i) for i in range(len(mls))]
        for dyn, p in zip(dyns, mls):
            chain.append(dyn, p)
        taken = []
        while chain.queue:
            taken.extend(chain.take(2))
        assert [d.seq for d, _p in taken] == sorted(d.seq for d in dyns)

    @given(st.integers(1, 10))
    def test_take_never_exceeds_two(self, n):
        chain = ChainLane(self.make_dyn(0), lane=0, slot=0)
        for i in range(n):
            chain.append(self.make_dyn(i), 0)
        assert len(chain.take(2)) <= 2

    def test_not_ready_without_acc(self):
        chain = ChainLane(self.make_dyn(0), lane=0, slot=0)
        chain.append(self.make_dyn(1), 0)
        assert not chain.ready()
        chain.acc_value = np.float32(0.0)
        assert chain.ready()
        chain.busy = True
        assert not chain.ready()


class TestDynUopProperties:
    @given(st.integers(0, 0xFFFF))
    def test_lane_done_mask_accumulates(self, mask):
        dyn = DynUop(vfma(0, RegOperand(1), RegOperand(2)), 0)
        dyn.acc_init = np.zeros(16, dtype=np.float32)
        lanes = [l for l in range(16) if mask & (1 << l)]
        for lane in lanes:
            dyn.write_lanes(1 << lane, np.arange(16, dtype=np.float32))
        assert dyn.lanes_done_mask == mask
        assert dyn.completed == (mask == 0xFFFF)
        if lanes:
            assert [float(dyn.out[lane]) for lane in lanes] == lanes

    @given(st.integers(1, 0xFFFF))
    def test_word_write_touches_only_its_lanes(self, mask):
        dyn = DynUop(vfma(0, RegOperand(1), RegOperand(2)), 0)
        dyn.write_lanes(mask, np.arange(1, 17, dtype=np.float32))
        expected = [lane + 1.0 if mask >> lane & 1 else 0.0 for lane in range(16)]
        assert dyn.out.tolist() == expected

    def test_completion_fires_exactly_once(self):
        dyn = DynUop(vfma(0, RegOperand(1), RegOperand(2)), 0)
        transitions = 0
        for lane in range(16):
            if dyn.write_lanes(1 << lane, np.ones(16, dtype=np.float32)):
                transitions += 1
        assert transitions == 1


class TestExpectedMaxBinomialProperties:
    @given(st.integers(1, 20), st.floats(0.01, 1.0))
    def test_bounds(self, m, d):
        value = expected_max_binomial(m, d)
        assert m * d - 1e-9 <= value <= m + 1e-9

    @given(st.integers(1, 15), st.floats(0.05, 0.95))
    def test_monotone_in_slots(self, m, d):
        few = expected_max_binomial(m, d, slots=2)
        many = expected_max_binomial(m, d, slots=16)
        assert many >= few - 1e-9


class TestSurfaceInterpolationProperties:
    @given(
        st.lists(st.floats(0.1, 100.0), min_size=4, max_size=4),
        st.floats(0.0, 0.9),
        st.floats(0.0, 0.9),
    )
    def test_within_corner_bounds(self, corners, x, y):
        grid = np.array(corners).reshape(2, 2)
        surface = SparsitySurface(levels=(0.0, 0.9), ns_per_fma=grid)
        value = surface.interpolate(x, y)
        assert min(corners) - 1e-9 <= value <= max(corners) + 1e-9

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_clamping_never_extrapolates(self, x, y):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        surface = SparsitySurface(levels=(0.0, 0.9), ns_per_fma=grid)
        assert 1.0 <= surface.interpolate(x, y) <= 4.0
