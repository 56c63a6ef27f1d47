"""Deterministic generation of unstructured-sparse tensors.

The paper evaluates SAVE on a 2D grid of weight × activation sparsity
with *uniform random* zero placement (Sec. VI: "we simulate SAVE with
both weight and activation sparsities of 0%-90% at 10% intervals, using
a uniform random distribution").  These helpers produce exactly that
kind of data, deterministically from a seed so experiments are
repeatable.

Non-zero values are drawn away from zero (magnitude in ``[0.25, 2)``)
so that "zero" and "non-zero" are unambiguous after FP32/BF16 rounding.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]


def _as_rng(rng: RngLike) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def zero_mask(shape: tuple[int, ...], sparsity: float, rng: RngLike = None) -> np.ndarray:
    """Return a boolean array where True marks a zeroed element.

    Args:
        shape: output shape.
        sparsity: fraction of elements to zero, in ``[0, 1]``.
        rng: seed or ``numpy.random.Generator``.

    Exactly ``round(sparsity * size)`` elements are zeroed, placed
    uniformly at random — the exact-count variant keeps the measured
    sparsity on-grid even for small tensors.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    generator = _as_rng(rng)
    size = math.prod(shape)
    n_zero = int(round(sparsity * size))
    mask = np.zeros(size, dtype=bool)
    if n_zero:
        mask[generator.choice(size, size=n_zero, replace=False)] = True
    return mask.reshape(shape)


def sparse_vector(n: int, sparsity: float, rng: RngLike = None) -> np.ndarray:
    """Return an FP32 vector with the given fraction of exact zeros."""
    return sparse_matrix((n,), sparsity, rng).reshape(n)


def sparse_matrix(
    shape: tuple[int, ...], sparsity: float, rng: RngLike = None
) -> np.ndarray:
    """Return an FP32 tensor with the given fraction of exact zeros.

    Non-zero magnitudes are uniform in ``[0.25, 2)`` with random sign,
    guaranteeing they stay non-zero under BF16 rounding.
    """
    generator = _as_rng(rng)
    values = nonzero_values(shape, generator)
    values[zero_mask(shape, sparsity, generator)] = 0.0
    return values


def nonzero_values(shape: tuple[int, ...], rng: RngLike = None) -> np.ndarray:
    """The dense draw :func:`sparse_matrix` makes before its zero mask.

    FP32 magnitudes uniform in ``[0.25, 2)`` with random sign.  The
    draws do not depend on the sparsity level, so replaying them and
    then :func:`zero_mask` reproduces ``sparse_matrix``'s RNG stream.
    """
    generator = _as_rng(rng)
    values = generator.uniform(0.25, 2.0, size=shape).astype(np.float32)
    signs = generator.choice(np.array([-1.0, 1.0], dtype=np.float32), size=shape)
    return values * signs


def sparsify(values: np.ndarray, sparsity: float, rng: RngLike = None) -> np.ndarray:
    """Zero a uniformly-random fraction of ``values`` (returns a copy)."""
    out = np.array(values, dtype=np.float32, copy=True)
    out[zero_mask(out.shape, sparsity, rng)] = 0.0
    return out
