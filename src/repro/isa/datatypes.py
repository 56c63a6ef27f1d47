"""Floating-point data types used by the modeled vector ISA.

The ISA operates on 512-bit vectors holding either 16 FP32 lanes or
32 BF16 lanes.  BF16 values are represented in Python as ``numpy.float32``
values whose low 16 mantissa bits are zero, i.e. values that are exactly
representable in BF16.  :func:`bf16_round` performs IEEE-style
round-to-nearest-even truncation from FP32 to BF16 and is used both when
generating BF16 operands and inside the VDPBF16 semantics.
"""

from __future__ import annotations

import numpy as np

#: Number of FP32 lanes in one 512-bit vector register.
FP32_LANES = 16

#: Number of BF16 lanes in one 512-bit vector register.
BF16_LANES = 32

#: Bytes per 512-bit vector register / per cache line.
VECTOR_BYTES = 64

#: Bytes per FP32 element.
FP32_BYTES = 4

#: Bytes per BF16 element.
BF16_BYTES = 2


def bf16_round(values: np.ndarray) -> np.ndarray:
    """Round FP32 values to the nearest BF16-representable FP32 values.

    Uses round-to-nearest-even on the upper 16 bits of the FP32 encoding,
    the same rounding used by hardware FP32→BF16 converters.

    Args:
        values: array of ``float32`` (any shape).

    Returns:
        A new ``float32`` array of the same shape where every element is
        exactly representable in BF16.
    """
    arr = np.ascontiguousarray(values, dtype=np.float32)
    bits = arr.view(np.uint32)
    # Round to nearest even: add 0x7FFF plus the LSB of the surviving part.
    rounded = bits + (0x7FFF + ((bits >> 16) & 1))
    out = (rounded & np.uint32(0xFFFF0000)).view(np.float32).copy()
    # NaN inputs must stay NaN: the bias add may overflow the exponent.
    nan_mask = np.isnan(arr)
    if nan_mask.any():
        out[nan_mask] = np.float32("nan")
    return out.reshape(arr.shape)


def is_bf16_representable(values: np.ndarray) -> bool:
    """Return True if every element of ``values`` is exact in BF16."""
    arr = np.ascontiguousarray(values, dtype=np.float32)
    bits = arr.view(np.uint32)
    nan_mask = np.isnan(arr)
    exact = (bits & 0xFFFF) == 0
    return bool(np.all(exact | nan_mask))


def fp32_zeros(n: int = FP32_LANES) -> np.ndarray:
    """Return an ``n``-lane FP32 zero vector."""
    return np.zeros(n, dtype=np.float32)


# ---------------------------------------------------------------------------
# Lane words: a set of FP32 lanes as an int with one bit per lane, the
# form of write masks (``k`` registers) and of SAVE's Effectual Lane Masks.
# ---------------------------------------------------------------------------

#: The lane word with every FP32 lane set.
FULL_LANE_MASK = (1 << FP32_LANES) - 1

_LANE_BITS = 1 << np.arange(FP32_LANES, dtype=np.int64)
#: Per byte value: its set lanes (low and high byte) and a boolean selector.
_BYTE_LANES = [tuple(lane for lane in range(8) if byte >> lane & 1) for byte in range(256)]
_HIGH_BYTE_LANES = [tuple(lane + 8 for lane in lanes) for lanes in _BYTE_LANES]
_BYTE_SELECT = [
    np.array([byte >> lane & 1 for lane in range(8)], dtype=bool) for byte in range(256)
]

try:
    popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - Python 3.9

    def popcount(word: int) -> int:
        return bin(word).count("1")


def lanes_of(word: int) -> tuple[int, ...]:
    """The lanes set in a lane word, ascending."""
    return _BYTE_LANES[word & 0xFF] + _HIGH_BYTE_LANES[word >> 8]


def lane_select(word: int) -> np.ndarray:
    """A lane word as a 16-lane boolean selector."""
    return np.concatenate((_BYTE_SELECT[word & 0xFF], _BYTE_SELECT[word >> 8]))


def nonzero_words(value: np.ndarray) -> list[int]:
    """The non-zero lanes of a vector as lane words.

    One word for 16 FP32 lanes; two for 32 BF16 lanes, where word ``p``
    has bit ``l`` set iff multiplicand lane ``2l + p`` is non-zero.
    """
    return ((value != 0).reshape(FP32_LANES, -1).T @ _LANE_BITS).tolist()
