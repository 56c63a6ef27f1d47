"""Append-only segment writer for the columnar sweep store.

A sweep is a growing set of points of one series, each held at most
once.  A :class:`SweepWriter` opens the sweep (creating it on first
use), holds the sweep's :class:`repro.fsio.FileLock` from open to
close, and exposes the points stored before it opened
(:attr:`SweepWriter.stored`) so a caller simulates only what is
missing; appending one of those points raises :class:`StoreError`.

The writer buffers points up to ``segment_rows``, then publishes each
full segment as one immutable NPZ file (:func:`write_segment`) and
records it in the manifest.  Both writes are atomic (:mod:`repro.fsio`
temp + rename) and the lock serializes the writers of one sweep, so
concurrent fills never tear a segment or lose a manifest entry.
Readers (:func:`stored_points`, :class:`repro.store.SweepStore`) take
no lock: segments are published before the manifest references them.

Crash behaviour: a crash leaves at worst an orphan segment file
(harmless — readers only trust the manifest) and a sweep marked
``complete: false``; its published points stay, and the next fill
simulates only the rest.

Memory: a writer on a fresh sweep holds one segment's buffer; a writer
on an existing sweep also holds that sweep's stored points.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import TracebackType
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.fsio import FileLock, atomic_write_text
from repro.store.schema import (
    STORE_SCHEMA_VERSION,
    SWEEP_COLUMNS,
    StoreError,
    read_segment,
    sweep_fingerprint,
    sweep_meta,
    validate_meta,
    write_segment,
)

if TYPE_CHECKING:
    import numpy as np

    from repro.experiments.executor import PointJob

__all__ = ["SweepWriter", "StoreError", "stored_points"]

#: Default points per segment: large enough that NPZ overhead amortises,
#: small enough that the writer's resident buffer stays trivial.
DEFAULT_SEGMENT_ROWS = 4096

#: The repo-level store the figures read and fill: anchored to the
#: source tree, not the working directory, and gitignored.
DEFAULT_STORE_ROOT = Path(__file__).resolve().parents[3] / ".sweep_store"

#: A stored point's key: its ``(bs, nbs)`` sparsity levels.
Point = tuple[float, float]


def _manifest_path(sweep_dir: Path) -> Path:
    return sweep_dir / "manifest.json"


def read_manifest(sweep_dir: Path) -> dict[str, Any]:
    """Load one sweep's manifest; check its version and meta columns."""
    payload = json.loads(_manifest_path(sweep_dir).read_text())
    version = payload.get("schema")
    if version != STORE_SCHEMA_VERSION:
        raise StoreError(
            f"{sweep_dir}: store schema {version!r} != "
            f"supported {STORE_SCHEMA_VERSION}"
        )
    try:
        validate_meta(payload["meta"])
    except ValueError as error:
        raise StoreError(f"{sweep_dir}: {error}") from None
    return payload


def _points(sweep_dir: Path, segments: list[dict[str, Any]]) -> dict[Point, float]:
    points: dict[Point, float] = {}
    for entry in segments:
        arrays = read_segment(sweep_dir / entry["file"])
        keys = zip(arrays["bs"].tolist(), arrays["nbs"].tolist())
        points.update(zip(keys, arrays["value"].tolist()))
    return points


def stored_points(sweep_dir: Path) -> dict[Point, float]:
    """Every point one sweep holds, ``{(bs, nbs): value}``; lock-free."""
    if not _manifest_path(sweep_dir).exists():
        return {}
    return _points(sweep_dir, read_manifest(sweep_dir)["segments"])


class SweepWriter:
    """Appends points to one sweep of a store directory.

    Args:
        root: store root directory (created on demand); each sweep
            lives in ``root/<fingerprint>/``.
        series: any job of the sweep; its canonical series is the
            sweep's identity and its sparsity levels are ignored.
        segment_rows: points buffered per published segment.

    Use as a context manager: normal exit marks the sweep complete,
    exceptional exit leaves it incomplete (queryable, flagged).  Either
    way the lock is released.
    """

    def __init__(
        self,
        root: Union[str, Path],
        series: PointJob,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
    ) -> None:
        if segment_rows <= 0:
            raise ValueError("segment_rows must be positive")
        self.root = Path(root)
        self.meta = sweep_meta(series)
        self.fingerprint = sweep_fingerprint(series)
        self.segment_rows = segment_rows
        self.sweep_dir = self.root / self.fingerprint
        self.sweep_dir.mkdir(parents=True, exist_ok=True)
        self._buffer: dict[str, list[float]] = {c: [] for c in SWEEP_COLUMNS}
        self._closed = False
        self._lock = FileLock(self.sweep_dir / "manifest.json.lock").acquire()
        try:
            self._segments: list[dict[str, Any]] = []
            if _manifest_path(self.sweep_dir).exists():
                self._segments = read_manifest(self.sweep_dir)["segments"]
            self._rows = sum(entry["rows"] for entry in self._segments)
            #: The points the sweep held when this writer opened.
            self.stored: dict[Point, float] = _points(self.sweep_dir, self._segments)
            self._write_manifest(complete=False)
        except BaseException:
            self._lock.release()
            raise

    def _write_manifest(self, complete: bool) -> None:
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "meta": self.meta,
            "columns": list(SWEEP_COLUMNS),
            "segments": self._segments,
            "rows": self._rows,
            "complete": complete,
        }
        atomic_write_text(_manifest_path(self.sweep_dir), json.dumps(payload))

    # -- appending --------------------------------------------------------

    def append(self, bs: float, nbs: float, value: float) -> None:
        """Append one point; publishes a segment when the buffer fills."""
        self._append_columns(bs=bs, nbs=nbs, value=value)

    def append_batch(
        self,
        bs: "np.ndarray | list[float]",
        nbs: "np.ndarray | list[float]",
        value: "np.ndarray | list[float]",
    ) -> None:
        """Append a batch of points (equal-length column vectors)."""
        if not (len(bs) == len(nbs) == len(value)):
            raise ValueError("column batches must have equal lengths")
        for b, n, v in zip(bs, nbs, value):
            self._append_columns(bs=b, nbs=n, value=v)

    def _append_columns(self, **values: float) -> None:
        if self._closed:
            raise StoreError("writer is closed")
        if (values["bs"], values["nbs"]) in self.stored:
            raise StoreError(
                f"sweep {self.fingerprint} already holds the point "
                f"({values['bs']}, {values['nbs']})"
            )
        for column in SWEEP_COLUMNS:
            self._buffer[column].append(float(values[column]))
        if len(self._buffer["bs"]) >= self.segment_rows:
            self.flush()

    def flush(self) -> None:
        """Publish the buffered points as one segment (no-op if empty).

        Runs under the lock the writer already holds.
        """
        count = len(self._buffer["bs"])
        if count == 0:
            return
        name = f"seg-{len(self._segments):06d}.npz"
        write_segment(self.sweep_dir / name, self._buffer)
        self._segments.append({"file": name, "rows": count})
        self._rows += count
        self._buffer = {c: [] for c in SWEEP_COLUMNS}
        self._write_manifest(complete=False)

    # -- lifecycle --------------------------------------------------------

    @property
    def rows_written(self) -> int:
        """Points the sweep holds in published segments (not the buffer)."""
        return self._rows

    def close(self, complete: bool = True) -> None:
        """Flush the tail segment, finalize the manifest, release the lock."""
        if self._closed:
            return
        try:
            self.flush()
            self._write_manifest(complete=complete)
        finally:
            self._closed = True
            self._lock.release()

    def __enter__(self) -> SweepWriter:
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close(complete=exc_type is None)
