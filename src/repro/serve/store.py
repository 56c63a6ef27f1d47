"""Content-addressed result store shared by service processes.

Every completed request persists its result payload under its request
fingerprint (see :mod:`repro.serve.schema`), so repeats — in the same
service process, in a later one, or from a plain CLI run — are served
from disk instead of re-simulating.  The disk format: one JSON file
per entry, published with
:func:`repro.fsio.atomic_write_text` under an advisory
:class:`repro.fsio.FileLock`, stamped with
:data:`~repro.serve.schema.SERVE_SCHEMA_VERSION` so entries written by
an older build read as misses rather than as silently-stale results.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Optional, Union

from repro.fsio import FileLock, atomic_write_text
from repro.serve.schema import SERVE_SCHEMA_VERSION

__all__ = ["ResultStore", "default_store_dir"]


def default_store_dir() -> Path:
    """Repo-level default, next to the sweep store."""
    return Path(__file__).resolve().parents[3] / ".serve_store"


class ResultStore:
    """Disk-backed, content-addressed result payloads.

    Args:
        directory: store directory (defaults to the repo-level
            ``.serve_store``).
        memo_size: in-memory LRU capacity; repeats within one process
            skip the disk read entirely.

    Thread-safe: the HTTP layer serves ``get`` from many request
    threads while the dispatcher ``put``\\ s.
    """

    def __init__(
        self,
        directory: Optional[Union[str, Path]] = None,
        memo_size: int = 512,
    ) -> None:
        if memo_size <= 0:
            raise ValueError("memo_size must be positive")
        self.directory = Path(directory) if directory else default_store_dir()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memo_size = memo_size
        self._memo: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.Lock()

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    # -- read / write -----------------------------------------------------

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """Fetch a payload (memo → disk); ``None`` on miss or damage.

        Torn files, non-envelope JSON, stale schema versions and
        key-mismatched entries all read as misses — a damaged cache
        must cost a re-simulation, never a wrong answer.
        """
        with self._lock:
            memo = self._memo.get(key)
            if memo is not None:
                self._memo.move_to_end(key)
                return memo
        try:
            envelope = json.loads(self.path(key).read_text())
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != SERVE_SCHEMA_VERSION
            or envelope.get("key") != key
            or not isinstance(envelope.get("result"), dict)
        ):
            return None
        payload = envelope["result"]
        self._memo_put(key, payload)
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Persist one payload atomically (and memoise it)."""
        envelope = {
            "schema": SERVE_SCHEMA_VERSION,
            "key": key,
            "created": time.time(),
            "result": payload,
        }
        path = self.path(key)
        with FileLock(path.with_suffix(".lock")):
            atomic_write_text(path, json.dumps(envelope))
        self._memo_put(key, payload)

    def _memo_put(self, key: str, payload: dict[str, Any]) -> None:
        with self._lock:
            self._memo[key] = payload
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_size:
                self._memo.popitem(last=False)

    def flush(self) -> None:
        """Make published entries durable (directory fsync).

        ``put`` is already atomic per entry; this pins the renames to
        stable storage on shutdown and error paths.
        """
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - directory vanished
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fs without dir fsync
            pass
        finally:
            os.close(fd)

    # -- maintenance ------------------------------------------------------

    def _entries(self):
        for path in sorted(self.directory.glob("*.json")):
            try:
                envelope = json.loads(path.read_text())
            except (json.JSONDecodeError, OSError):
                envelope = None
            yield path, envelope if isinstance(envelope, dict) else None

    def stats(self) -> dict[str, Any]:
        """Entry counts, footprint and schema mix of the directory."""
        entries = 0
        size = 0
        stale = 0
        damaged = 0
        by_schema: dict[str, int] = {}
        for path, envelope in self._entries():
            entries += 1
            size += path.stat().st_size
            if envelope is None:
                damaged += 1
                continue
            schema = envelope.get("schema")
            by_schema[str(schema)] = by_schema.get(str(schema), 0) + 1
            if schema != SERVE_SCHEMA_VERSION:
                stale += 1
        return {
            "directory": str(self.directory),
            "schema": SERVE_SCHEMA_VERSION,
            "entries": entries,
            "bytes": size,
            "stale": stale,
            "damaged": damaged,
            "by_schema": by_schema,
        }

    def gc(self, max_age_s: Optional[float] = None) -> dict[str, int]:
        """Remove stale-schema, damaged and (optionally) aged entries.

        Args:
            max_age_s: also drop current-schema entries whose
                ``created`` stamp is older than this many seconds.

        Returns:
            ``{"removed": n, "kept": m}``.
        """
        removed = 0
        kept = 0
        now = time.time()
        for path, envelope in self._entries():
            drop = envelope is None or envelope.get("schema") != SERVE_SCHEMA_VERSION
            if not drop and max_age_s is not None:
                created = envelope.get("created")
                drop = not isinstance(created, (int, float)) or (
                    now - created > max_age_s
                )
            if drop:
                # Suppressed: concurrent removal by another gc run.
                with contextlib.suppress(OSError):
                    path.unlink()
                    removed += 1
            else:
                kept += 1
        with self._lock:
            self._memo.clear()
        return {"removed": removed, "kept": kept}
