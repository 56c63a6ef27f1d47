"""Filesystem primitives shared by the on-disk stores.

The columnar sweep store (:mod:`repro.store`) and the serve
:class:`repro.serve.store.ResultStore` are content-addressed caches
that may be written by several processes at once (two figure runs, a
sweep and a long-running service can race on the same entry).  Two
primitives make that safe:

* :func:`atomic_write_text` / :func:`atomic_write_bytes` — write-to-temp
  + :func:`os.replace`, so a reader can never observe a torn file: it
  sees either the old content or the new content, never a partial
  write.
* :class:`FileLock` — an advisory, inter-process exclusive lock on a
  sidecar ``.lock`` file (``fcntl.flock`` where available, with an
  ``O_EXCL`` lockfile fallback elsewhere).  Writers hold it around
  check-then-simulate-then-write so two processes never duplicate an
  expensive simulation or interleave writes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import time
from collections.abc import Collection
from enum import Enum
from pathlib import Path
from typing import Any, Optional, Union

try:  # POSIX; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "FileLock",
    "LockTimeout",
    "atomic_write_bytes",
    "atomic_write_text",
    "canonical",
    "canonical_fingerprint",
]


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Atomically replace ``path`` with ``text``.

    The payload lands in a same-directory temp file first (uniquified
    by PID, so concurrent writers never share one), then ``os.replace``
    publishes it in a single atomic rename.
    """
    atomic_write_bytes(path, text.encode())


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (binary payloads).

    Same temp-then-rename discipline as :func:`atomic_write_text`; used
    by the columnar sweep store for its NPZ segments.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        # Only reached with the temp file still present when the write
        # or replace itself failed.
        if tmp.exists():  # pragma: no cover - error-path cleanup
            with contextlib.suppress(OSError):
                tmp.unlink()


def canonical(obj: Any, drop: Collection[str] = ()) -> Any:
    """JSON-ready form of a value built from (frozen) dataclasses.

    Dataclasses become dicts of all their fields, recursively; enums
    become their values and tuples become lists.  Field names in
    ``drop`` are left out at every depth.  Every cache and store key is
    a fingerprint of this form, so a field added to a dataclass joins
    every key without anyone listing it.
    """
    cls = type(obj)
    if cls in _SCALARS:
        return obj
    names = _field_names(cls)
    if names is not None:
        return {
            name: canonical(getattr(obj, name), drop)
            for name in names
            if name not in drop
        }
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, tuple):
        return [canonical(item, drop) for item in obj]
    return obj


_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Optional[tuple[str, ...]]:
    """A dataclass type's field names; ``None`` for any other type."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(field.name for field in dataclasses.fields(cls))


def canonical_fingerprint(payload: dict[str, Any]) -> str:
    """Content address of a JSON-representable payload.

    sha256 over the canonical (sorted-keys) JSON encoding, truncated to
    24 hex chars — the same scheme :mod:`repro.serve` uses for request
    fingerprints and :mod:`repro.store` uses for sweep keys, so one
    identity convention covers every on-disk store.
    """
    raw = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(raw.encode()).hexdigest()[:24]


class LockTimeout(TimeoutError):
    """Raised when a :class:`FileLock` cannot be acquired in time."""


class FileLock:
    """Advisory inter-process exclusive lock (context manager).

    Args:
        path: the lock file (created on demand; conventionally the
            protected file's path plus ``.lock``).
        timeout: seconds to wait for the holder before raising
            :class:`LockTimeout`.
        poll_interval: seconds between acquisition attempts.

    Locks are advisory: they only exclude other ``FileLock`` users, who
    must agree on the path.  Re-entry from the same process is not
    supported (it would deadlock the lockfile fallback).
    """

    def __init__(
        self,
        path: Union[str, Path],
        timeout: float = 60.0,
        poll_interval: float = 0.01,
    ) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.poll_interval = poll_interval
        self._fd: Optional[int] = None

    @property
    def held(self) -> bool:
        return self._fd is not None

    def _try_acquire(self) -> bool:
        if fcntl is not None:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                return False
            self._fd = fd
            return True
        try:  # pragma: no cover - non-POSIX fallback
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o644)
            return True
        except FileExistsError:  # pragma: no cover
            return False

    def acquire(self) -> FileLock:
        if self.held:
            raise RuntimeError(f"lock {self.path} already held by this object")
        deadline = time.monotonic() + self.timeout
        while not self._try_acquire():
            if time.monotonic() >= deadline:
                raise LockTimeout(
                    f"could not acquire {self.path} within {self.timeout}s"
                )
            time.sleep(self.poll_interval)
        return self

    def release(self) -> None:
        fd, self._fd = self._fd, None
        if fd is None:
            return
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)
        else:  # pragma: no cover - non-POSIX fallback
            os.close(fd)
            with contextlib.suppress(OSError):
                self.path.unlink()

    def __enter__(self) -> FileLock:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()
