"""Append-only segment writer for the columnar sweep store.

A :class:`SweepWriter` buffers points in memory up to ``segment_rows``,
then publishes each full segment as one immutable NPZ file and records
it in the manifest.  Both writes are atomic (:mod:`repro.fsio` temp +
rename) and manifest updates are serialized under a :class:`FileLock`,
so concurrent sweeps writing into one store directory never tear a
segment or lose a manifest entry.

Crash behaviour: segments are published before the manifest references
them, so a crash leaves at worst an orphan segment file (harmless —
readers only trust the manifest) and a sweep marked ``complete: false``.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from types import TracebackType
from typing import TYPE_CHECKING, Any, Optional, Union

import numpy as np

from repro.fsio import FileLock, atomic_write_bytes, atomic_write_text
from repro.store.schema import (
    STORE_SCHEMA_VERSION,
    SWEEP_COLUMNS,
    sweep_fingerprint,
    sweep_meta,
    validate_meta,
)

if TYPE_CHECKING:
    from repro.experiments.executor import PointJob

__all__ = ["SweepWriter", "StoreError"]

#: Default points per segment: large enough that NPZ overhead amortises,
#: small enough that the writer's resident buffer stays trivial.
DEFAULT_SEGMENT_ROWS = 4096


class StoreError(RuntimeError):
    """A sweep-store invariant was violated (version, state, or schema)."""


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


class SweepWriter:
    """Incrementally writes one sweep's points into a store directory.

    Args:
        root: store root directory (created on demand); each sweep
            lives in ``root/<fingerprint>/``.
        series: any job of the sweep; its canonical series is the
            sweep's identity and its sparsity levels are ignored.
        segment_rows: points buffered per published segment.
        overwrite: if the sweep already exists, discard it and start
            fresh instead of raising (append-only stores never silently
            mix two runs' points).

    Use as a context manager: normal exit marks the sweep complete,
    exceptional exit leaves it incomplete (queryable, flagged).
    """

    def __init__(
        self,
        root: Union[str, Path],
        series: PointJob,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        overwrite: bool = False,
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
        with self._lock():
            manifest = self._load_or_none()
            if manifest is not None and not overwrite:
                raise StoreError(
                    f"sweep {self.fingerprint} already exists in {self.root} "
                    "(pass overwrite=True to replace it)"
                )
            if manifest is not None:
                for entry in manifest.get("segments", []):
                    seg = self.sweep_dir / entry["file"]
                    if seg.exists():
                        seg.unlink()
            self._segments: list[dict[str, Any]] = []
            self._rows = 0
            self._write_manifest_locked(complete=False)

    # -- manifest ---------------------------------------------------------

    def _lock(self) -> FileLock:
        return FileLock(self.sweep_dir / "manifest.json.lock")

    def _load_or_none(self) -> Optional[dict[str, Any]]:
        if not _manifest_path(self.sweep_dir).exists():
            return None
        return read_manifest(self.sweep_dir)

    def _write_manifest_locked(self, complete: bool) -> None:
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
        for column in SWEEP_COLUMNS:
            self._buffer[column].append(float(values[column]))
        if len(self._buffer["bs"]) >= self.segment_rows:
            self.flush()

    def flush(self) -> None:
        """Publish the buffered points as one segment (no-op if empty)."""
        count = len(self._buffer["bs"])
        if count == 0:
            return
        arrays = {
            column: np.asarray(self._buffer[column], dtype=dtype)
            for column, dtype in SWEEP_COLUMNS.items()
        }
        index = len(self._segments)
        name = f"seg-{index:06d}.npz"
        blob = io.BytesIO()
        np.savez_compressed(blob, **arrays)
        atomic_write_bytes(self.sweep_dir / name, blob.getvalue())
        self._segments.append({"file": name, "rows": count})
        self._rows += count
        self._buffer = {c: [] for c in SWEEP_COLUMNS}
        with self._lock():
            self._write_manifest_locked(complete=False)

    # -- lifecycle --------------------------------------------------------

    @property
    def rows_written(self) -> int:
        """Points published to segments so far (excludes the buffer)."""
        return self._rows

    def close(self, complete: bool = True) -> None:
        """Flush the tail segment and finalize the manifest."""
        if self._closed:
            return
        self.flush()
        with self._lock():
            self._write_manifest_locked(complete=complete)
        self._closed = True

    def __enter__(self) -> SweepWriter:
        return self

    def __exit__(
        self,
        exc_type: Optional[type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close(complete=exc_type is None)
