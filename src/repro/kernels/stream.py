"""The streaming trace contract: chunked µop production.

SAVE's evaluation sweeps hundreds of thousands of (BS, NBS) points;
materializing every point's full µop list before simulating it makes
*memory*, not CPU, the cap on sweep size.  This module defines the
producer/consumer contract that removes the materialization step:

* :class:`TraceStream` — the structural protocol every trace producer
  satisfies: a memory image, address regions and metadata available
  up front (they are O(tile), not O(trace)), plus
  :meth:`~TraceStream.iter_uops` yielding program-order µop chunks and
  a :class:`~repro.kernels.trace.TraceStats` that updates incrementally
  as chunks are drawn.
* :class:`GeneratorTraceStream` — the concrete stream the kernel
  generators return: wraps a restartable µop generator function, so
  the stream can be iterated any number of times (each pass re-derives
  the µops from the seeded builder — generation is deterministic).
* helpers — :func:`stream_uops` flattens a stream into a plain µop
  iterator (what :func:`repro.isa.semantics.execute_trace` consumes),
  :func:`ensure_stream` validates that an object honours the contract.

A materialized :class:`~repro.kernels.trace.KernelTrace` satisfies the
same protocol (its ``iter_uops`` slices the resident list), so every
consumer in the repo — the exact pipeline, the reference executor, the
fast engine's structure-of-arrays builder — is written once, against
streams.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable
from collections.abc import Callable, Iterator

import numpy as np

from repro.isa.registers import ArchState, Memory
from repro.isa.uops import Uop
from repro.kernels.trace import DEFAULT_CHUNK, KernelTrace, TraceStats
from repro.memory.address import Region

__all__ = [
    "GeneratorTraceStream",
    "TraceStream",
    "ensure_stream",
    "stream_uops",
]


@runtime_checkable
class TraceStream(Protocol):
    """Structural protocol for chunked trace producers.

    Everything except the µop stream itself is available before the
    first chunk is drawn: the functional memory image, the matrix
    regions and the generator metadata are O(tile geometry), while the
    µop stream is O(k_steps × tile) and therefore the part worth
    streaming.
    """

    name: str
    memory: Memory
    regions: dict[str, Region]
    meta: dict[str, object]
    stats: TraceStats

    def iter_uops(self, chunk: int = DEFAULT_CHUNK) -> Iterator[list[Uop]]:
        """Yield program-order µop chunks of at most ``chunk`` µops."""
        ...

    def materialize(self) -> list[Uop]:
        """The full µop list (the legacy, memory-proportional path)."""
        ...

    def fresh_state(self) -> ArchState:
        """A fresh architectural state over a copy of the memory image."""
        ...


class GeneratorTraceStream:
    """A restartable :class:`TraceStream` over a µop generator function.

    Args:
        name: kernel label.
        uop_source: zero-argument callable returning a fresh program-
            order µop iterator.  Called once per :meth:`iter_uops`
            pass, so the stream can be consumed repeatedly (the
            reference executor and the pipeline each take their own
            pass) — generation must be deterministic, which every
            seeded builder in :mod:`repro.kernels` is.
        memory: functional memory image (inputs written, outputs blank).
        regions: matrix name → address region.
        meta: generator metadata (tile, sparsity levels, matrices ...).

    :attr:`stats` restarts from zero on each :meth:`iter_uops` pass and
    accumulates per chunk; after a full pass it equals
    :func:`repro.kernels.trace.count_uops` of the materialized trace.
    """

    def __init__(
        self,
        name: str,
        uop_source: Callable[[], Iterator[Uop]],
        memory: Memory,
        regions: dict[str, Region],
        meta: dict[str, object],
    ) -> None:
        self.name = name
        self._uop_source = uop_source
        self.memory = memory
        self.regions = regions
        self.meta = meta
        self.stats = TraceStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GeneratorTraceStream(name={self.name!r})"

    def iter_uops(self, chunk: int = DEFAULT_CHUNK) -> Iterator[list[Uop]]:
        """Generate and yield µop chunks, updating :attr:`stats` as it goes."""
        if chunk <= 0:
            raise ValueError("chunk must be positive")
        stats = TraceStats()
        self.stats = stats
        buffer: list[Uop] = []
        for uop in self._uop_source():
            stats.add(uop)
            buffer.append(uop)
            if len(buffer) >= chunk:
                yield buffer
                buffer = []
        if buffer:
            yield buffer

    def materialize(self) -> list[Uop]:
        """Generate the full µop list in one pass (updates :attr:`stats`)."""
        uops: list[Uop] = []
        for block in self.iter_uops():
            uops.extend(block)
        return uops

    def to_trace(self) -> KernelTrace:
        """Materialize into a legacy :class:`KernelTrace` container."""
        uops = self.materialize()
        return KernelTrace(
            name=self.name,
            uops=uops,
            memory=self.memory,
            regions=self.regions,
            stats=self.stats,
            meta=self.meta,
        )

    def fresh_state(self) -> ArchState:
        """An architectural state over a *copy* of the memory image."""
        return ArchState(self.memory.copy())

    def reference_result(self) -> ArchState:
        """Run the in-order reference executor over the stream."""
        from repro.isa.semantics import execute_trace

        return execute_trace(stream_uops(self), self.fresh_state())

    def result_matrix(self, state: ArchState) -> np.ndarray:
        """Extract the stored C tile from a finished state."""
        rows = int(self.meta["c_rows"])
        cols = int(self.meta["c_cols"])
        region = self.regions["C"]
        out = np.zeros((rows, cols), dtype=np.float32)
        for row in range(rows):
            base = region.base + row * cols * 4
            out[row] = state.memory.read_vector(base, cols, 4)
        return out


def stream_uops(
    stream: TraceStream, chunk: int = DEFAULT_CHUNK
) -> Iterator[Uop]:
    """Flatten a stream's chunks into a plain program-order µop iterator."""
    for block in stream.iter_uops(chunk):
        yield from block


def ensure_stream(source: object) -> TraceStream:
    """Validate that ``source`` honours the :class:`TraceStream` contract.

    Accepts both generator-backed streams and materialized
    :class:`~repro.kernels.trace.KernelTrace` objects (the latter serve
    chunks by slicing).  Raises ``TypeError`` otherwise, naming what is
    missing — a consumer failing fast beats one failing mid-simulation.
    """
    missing = [
        attr
        for attr in ("name", "memory", "regions", "stats", "iter_uops")
        if not hasattr(source, attr)
    ]
    if missing:
        raise TypeError(
            f"{type(source).__name__} does not satisfy the TraceStream "
            f"contract (missing: {', '.join(missing)})"
        )
    return source  # type: ignore[return-value]
