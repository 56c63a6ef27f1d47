"""Architectural register and memory state for the modeled ISA.

The modeled machine has the AVX-512 architectural register set that the
paper's GEMM kernels use: 32 vector registers (``zmm0``–``zmm31``) and
8 mask registers (``k0``–``k7``).  Memory is a flat element-addressable
store; addresses are byte addresses and values are FP32 (4 bytes) or BF16
(2 bytes, represented as BF16-exact ``float32``).
"""

from __future__ import annotations

from typing import Optional
from collections.abc import Iterable

import numpy as np

from repro.isa.datatypes import BF16_LANES, FP32_LANES, bf16_round

#: Number of architectural vector registers (AVX-512).
NUM_VREGS = 32

#: Number of architectural mask registers (AVX-512).
NUM_MASK_REGS = 8


class Memory:
    """Flat, element-granular memory.

    Values are stored per element address.  FP32 elements occupy 4 bytes
    and BF16 elements 2 bytes; the kernel generators always use aligned,
    non-overlapping element addresses so a simple ``dict`` suffices.
    Unwritten locations read as zero, which conveniently models
    zero-initialised accumulator buffers.
    """

    def __init__(self) -> None:
        self._data: dict[int, float] = {}

    def read(self, addr: int) -> np.float32:
        """Read one element at byte address ``addr``."""
        return np.float32(self._data.get(addr, 0.0))

    def write(self, addr: int, value: float) -> None:
        """Write one element at byte address ``addr``."""
        self._data[addr] = float(np.float32(value))

    def read_vector(self, addr: int, lanes: int, stride: int) -> np.ndarray:
        """Read ``lanes`` consecutive elements starting at ``addr``.

        Args:
            addr: byte address of lane 0.
            lanes: number of elements.
            stride: bytes between consecutive elements (4 for FP32,
                2 for BF16).
        """
        return np.array(
            [self._data.get(addr + i * stride, 0.0) for i in range(lanes)],
            dtype=np.float32,
        )

    def write_vector(self, addr: int, values: np.ndarray, stride: int) -> None:
        """Write a vector of elements starting at byte address ``addr``."""
        for i, value in enumerate(np.asarray(values, dtype=np.float32)):
            self._data[addr + i * stride] = float(value)

    def write_array(
        self, addr: int, values: Iterable[float], stride: int, bf16: bool = False
    ) -> None:
        """Bulk-initialise memory from an iterable of values.

        Args:
            addr: byte address of the first element.
            values: element values (row-major).
            stride: bytes per element.
            bf16: if True, round every value to BF16 before storing.
        """
        arr = np.asarray(list(values), dtype=np.float32)
        if bf16:
            arr = bf16_round(arr)
        for i, value in enumerate(arr):
            self._data[addr + i * stride] = float(value)

    def copy(self) -> Memory:
        """An independent copy of the image (values are already float32-exact)."""
        clone = Memory()
        clone._data = dict(self._data)
        return clone

    def snapshot(self) -> dict[int, float]:
        """Return a copy of the backing store (for state comparison)."""
        return dict(self._data)

    def __len__(self) -> int:
        return len(self._data)


class ArchState:
    """Architectural state: vector registers, mask registers, memory.

    Vector registers always hold 16 FP32 lanes.  A register holding BF16
    data conceptually holds 32 BF16 lanes; the BF16 view is materialised
    by the µop semantics (see :mod:`repro.isa.semantics`), while the
    register file itself stores the raw 32-lane BF16 payload as a 32-wide
    ``float32`` array when written by a BF16 producer.  To keep the model
    simple, each register slot stores a numpy array of whatever width its
    last producer wrote (16 for FP32, 32 for BF16 payloads).
    """

    def __init__(self, memory: Optional[Memory] = None) -> None:
        self.vregs: dict[int, np.ndarray] = {
            i: np.zeros(FP32_LANES, dtype=np.float32) for i in range(NUM_VREGS)
        }
        self.kregs: dict[int, int] = {i: (1 << FP32_LANES) - 1 for i in range(NUM_MASK_REGS)}
        self.memory = memory if memory is not None else Memory()

    def read_vreg(self, reg: int) -> np.ndarray:
        """Return a copy of vector register ``reg``."""
        return self.vregs[reg].copy()

    def write_vreg(self, reg: int, value: np.ndarray) -> None:
        """Overwrite vector register ``reg``."""
        arr = np.asarray(value, dtype=np.float32)
        if arr.shape[0] not in (FP32_LANES, BF16_LANES):
            raise ValueError(f"vector register width must be 16 or 32, got {arr.shape[0]}")
        self.vregs[reg] = arr.copy()

    def read_kreg(self, reg: int) -> int:
        """Return mask register ``reg`` as an integer bitmask."""
        return self.kregs[reg]

    def write_kreg(self, reg: int, value: int) -> None:
        """Overwrite mask register ``reg``."""
        self.kregs[reg] = int(value)

    def registers_snapshot(self) -> dict[int, np.ndarray]:
        """Return a copy of all vector registers (for state comparison)."""
        return {reg: val.copy() for reg, val in self.vregs.items()}
