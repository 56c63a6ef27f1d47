"""Typed event records: the trace and request-log schema, one writer, one reader.

Every observable occurrence is a frozen record whose dataclass fields
*are* the schema — every field required, no defaults:

* **Simulator events** (:class:`SimEvent`, stamped ``cycle`` /
  ``kernel`` / ``mechanism``): ELM generation and BS skips (Sec. III),
  VC/RVC merges with rotation state (Sec. IV), accumulator-chain slots
  and LWD lane-order stalls (Sec. V), VPU issue, dispatch/retire and
  broadcast-cache hits/misses.  ``mechanism`` names the skip mechanism
  the run simulated ("save", "sparce", "indexmac"), so merged trace
  files from a comparison run stay attributable.
* **Serve events** (:class:`ServeEvent`, stamped with a wall-clock
  ``ts``): the request lifecycle from ingress through phases and
  worker-side simulation spans to completion, HTTP access lines, and
  the sampler's metric snapshots.

A misspelt field fails at construction (``TypeError``), an unknown
record class is an undefined name, and :func:`read_events` refuses a
line whose kind, field set or ``v`` stamp does not match — so a field
change fails loudly on old files instead of being read with gaps.

:class:`EventWriter` is the one JSONL writer (thread-safe, optional
bounded ring); :func:`read_events` is the one reader.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Optional, TextIO, Union
from collections.abc import Iterator

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_TYPES",
    "NULL_SINK",
    "SERVE_EVENTS",
    "SIM_EVENTS",
    "Access",
    "BcacheHit",
    "BcacheMiss",
    "BsSkip",
    "ChainAppend",
    "Complete",
    "Dispatch",
    "Elm",
    "EventWriter",
    "Ingress",
    "Issue",
    "ListSink",
    "LwdStall",
    "Merge",
    "NullSink",
    "Phase",
    "Retire",
    "ServeEvent",
    "Sim",
    "SimEvent",
    "Snapshot",
    "TraceFormatError",
    "TraceSink",
    "read_events",
]

#: Bump on any incompatible record change; stamped as ``v`` per line.
#: v3: typed records; one version for the trace and the request log.
EVENT_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class SimEvent:
    """Base of the simulator records; the stamp the pipeline adds."""

    event: ClassVar[str]
    cycle: int
    kernel: str
    mechanism: str


@dataclass(frozen=True)
class Dispatch(SimEvent):
    event: ClassVar[str] = "dispatch"
    seq: int
    kind: str


@dataclass(frozen=True)
class Retire(SimEvent):
    event: ClassVar[str] = "retire"
    seq: int


@dataclass(frozen=True)
class Elm(SimEvent):
    """Effectual-lane mask generated for a VFMA (Sec. III)."""

    event: ClassVar[str] = "elm"
    seq: int
    elm: int


@dataclass(frozen=True)
class BsSkip(SimEvent):
    """A VFMA whose ELM is empty: skipped outright (Sec. III)."""

    event: ClassVar[str] = "bs_skip"
    seq: int


@dataclass(frozen=True)
class Issue(SimEvent):
    """One VPU op issued; ``lanes`` is its coalescing width."""

    event: ClassVar[str] = "issue"
    kind: str
    lanes: int
    uops: int
    latency: int


@dataclass(frozen=True)
class Merge(SimEvent):
    """A coalesced op's constituents: VC/RVC lane entries with rotation
    state (Sec. IV) and accumulator-chain slots (Sec. V)."""

    event: ClassVar[str] = "merge"
    scheme: str
    entries: list[dict[str, Any]]


@dataclass(frozen=True)
class ChainAppend(SimEvent):
    """A mixed-precision product joined an accumulator chain (Sec. V-B)."""

    event: ClassVar[str] = "chain_append"
    seq: int
    root: int
    lane: int
    mls: list[int]


@dataclass(frozen=True)
class LwdStall(SimEvent):
    """A lane whose accumulator input lane was not yet available."""

    event: ClassVar[str] = "lwd_stall"
    seq: int
    lane: int


@dataclass(frozen=True)
class BcacheHit(SimEvent):
    """Broadcast-cache hit (Sec. IV-A)."""

    event: ClassVar[str] = "bcache_hit"
    addr: int
    zero: bool
    l1_access: bool


@dataclass(frozen=True)
class BcacheMiss(SimEvent):
    """Broadcast-cache miss (Sec. IV-A)."""

    event: ClassVar[str] = "bcache_miss"
    addr: int
    zero: bool
    l1_access: bool


@dataclass(frozen=True)
class ServeEvent:
    """Base of the request-log records; ``ts`` is wall-clock seconds."""

    event: ClassVar[str]
    ts: float


@dataclass(frozen=True)
class Ingress(ServeEvent):
    """One per submit; ``outcome`` is accepted / dedup / cached /
    rejected / draining."""

    event: ClassVar[str] = "ingress"
    trace_id: str
    key: str
    outcome: str


@dataclass(frozen=True)
class Phase(ServeEvent):
    """One wall-clock span per lifecycle phase (see ``LATENCY_PHASES``)."""

    event: ClassVar[str] = "phase"
    trace_id: str
    phase: str
    wall_s: float


@dataclass(frozen=True)
class Sim(ServeEvent):
    """One simulated grid point, timed inside the executor worker;
    ``trace_ids`` lists every request that owns the point."""

    event: ClassVar[str] = "sim"
    trace_ids: list[str]
    point: list[float]
    wall_s: float
    engine: str


@dataclass(frozen=True)
class Complete(ServeEvent):
    """Terminal record per job: status is done / cached / failed."""

    event: ClassVar[str] = "complete"
    trace_id: str
    key: str
    status: str
    wall_s: float


@dataclass(frozen=True)
class Access(ServeEvent):
    """One per HTTP response: the access log."""

    event: ClassVar[str] = "access"
    trace_id: str
    method: str
    path: str
    status: int
    wall_s: float


@dataclass(frozen=True)
class Snapshot(ServeEvent):
    """Periodic sampler output into the bounded metrics ring."""

    event: ClassVar[str] = "snapshot"
    queue_depth: int
    active: int
    oldest_age_s: float
    counters: dict[str, Any]


SIM_EVENTS: tuple[type[SimEvent], ...] = (
    Dispatch, Retire, Elm, BsSkip, Issue, Merge, ChainAppend, LwdStall,
    BcacheHit, BcacheMiss,
)
SERVE_EVENTS: tuple[type[ServeEvent], ...] = (
    Ingress, Phase, Sim, Complete, Access, Snapshot,
)

#: Record class per on-disk ``event`` name.
EVENT_TYPES: dict[str, type] = {
    cls.event: cls for cls in SIM_EVENTS + SERVE_EVENTS
}

_FIELD_NAMES: dict[type, frozenset[str]] = {
    cls: frozenset(f.name for f in fields(cls)) for cls in SIM_EVENTS + SERVE_EVENTS
}


# ---------------------------------------------------------------------------
# Sinks and the writer
# ---------------------------------------------------------------------------


class TraceSink:
    """Record consumer interface; subclass and override :meth:`emit`."""

    #: Whether records reach anything (the null sink says no).
    enabled = True
    events_written = 0

    def emit(self, record: Any) -> None:  # pragma: no cover
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered records out (no-op by default)."""

    def close(self) -> None:
        """Flush and release resources (no-op by default)."""


class NullSink(TraceSink):
    """Discards everything; the default when tracing or logging is off."""

    __slots__ = ()
    enabled = False

    def emit(self, record: Any) -> None:
        pass


#: Shared no-op sink; tracing and request logging are off while in use.
NULL_SINK = NullSink()


class ListSink(TraceSink):
    """Buffers records in memory (tests and programmatic analysis)."""

    def __init__(self) -> None:
        self.events: list[Any] = []

    def emit(self, record: Any) -> None:
        self.events.append(record)

    def of_type(self, record_type: type) -> list[Any]:
        return [e for e in self.events if type(e) is record_type]


class EventWriter(TraceSink):
    """Thread-safe JSONL writer: one record per line, stamped ``v``.

    With ``ring_limit`` set the file becomes a bounded on-disk ring:
    after ``ring_limit`` records the live segment rotates to
    ``<path>.old`` (replacing the previous rotation), so at most
    ``2 * ring_limit`` records exist on disk at any time.  The writer
    owns the file handle; call :meth:`close` (or use it as a context
    manager).
    """

    def __init__(
        self,
        path: Union[str, os.PathLike],
        ring_limit: Optional[int] = None,
    ) -> None:
        if ring_limit is not None and ring_limit <= 0:
            raise ValueError("ring_limit must be positive")
        self.path = str(path)
        self.ring_limit = ring_limit
        self.events_written = 0
        self._segment_count = 0
        self._lock = threading.Lock()
        # The writer outlives __init__ and owns the handle.
        self._file: TextIO = open(self.path, "w", encoding="utf-8")  # noqa: SIM115

    @property
    def rotated_path(self) -> str:
        """Where the previous ring segment lives after a rotation."""
        return self.path + ".old"

    def emit(self, record: Any) -> None:
        # A shallow field dict: nested lists/dicts serialise as they are.
        line = json.dumps(
            {"v": EVENT_SCHEMA_VERSION, "event": record.event, **vars(record)},
            separators=(",", ":"),
        ) + "\n"
        with self._lock:
            if self._file.closed:
                return
            # One write call per line: a crash mid-run must not leave a
            # line without its terminator for readers to choke on.
            self._file.write(line)
            self.events_written += 1
            self._segment_count += 1
            if self.ring_limit is not None and self._segment_count >= self.ring_limit:
                self._rotate_locked()

    def _rotate_locked(self) -> None:
        self._file.flush()
        self._file.close()
        os.replace(self.path, self.rotated_path)
        self._file = open(self.path, "w", encoding="utf-8")  # noqa: SIM115
        self._segment_count = 0

    def flush(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()

    def __enter__(self) -> EventWriter:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The reader
# ---------------------------------------------------------------------------


class TraceFormatError(ValueError):
    """A trace or request-log line could not be understood.

    Carries enough context (path, 1-based line number, reason) for the
    CLI to print one clear sentence instead of a stack trace.
    """

    def __init__(self, path: str, line_no: int, reason: str) -> None:
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no
        self.reason = reason


def _decode(data: Any, expect: type) -> Any:
    """The record a parsed line holds; ``ValueError`` says why not."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    version = data.pop("v", None)
    if version is None:
        raise ValueError("missing schema version stamp 'v'")
    if version != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"event schema version {version!r} is not the supported "
            f"version {EVENT_SCHEMA_VERSION}"
        )
    kind = data.pop("event", None)
    cls = EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    if not issubclass(cls, expect):
        raise ValueError(f"{kind!r} is not a {expect.__name__} record")
    names = _FIELD_NAMES[cls]
    missing = sorted(names - data.keys())
    if missing:
        raise ValueError(f"{kind!r} record is missing field(s) {', '.join(missing)}")
    extra = sorted(data.keys() - names)
    if extra:
        raise ValueError(f"{kind!r} record has unexpected field(s) {', '.join(extra)}")
    if issubclass(cls, SimEvent):
        stamp_name, stamp = "cycle", data["cycle"]
        wrong_type = not isinstance(stamp, int)
    else:
        stamp_name, stamp = "ts", data["ts"]
        wrong_type = not isinstance(stamp, (int, float))
    if wrong_type or isinstance(stamp, bool) or stamp < 0:
        raise ValueError(
            f"{kind!r} record {stamp_name} must be a non-negative number, "
            f"got {stamp!r}"
        )
    return cls(**data)


def _read_segment(path: str, expect: type) -> Iterator[Any]:
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as error:
                reason = (
                    f"not valid JSON ({error.msg})"
                    if raw.endswith("\n")
                    else "truncated trailing line (writer was interrupted "
                    "mid-event?)"
                )
                raise TraceFormatError(path, line_no, reason) from None
            try:
                record = _decode(data, expect)
            except ValueError as error:
                raise TraceFormatError(path, line_no, str(error)) from None
            yield record


def read_events(path: str, expect: type = object) -> Iterator[Any]:
    """Yield the records of a JSONL file (a rotated ``.old`` ring
    segment first, when one exists).

    Raises :class:`TraceFormatError` (a ``ValueError``) with
    ``path:line`` on an unparseable or truncated line, a missing or
    wrong ``v`` stamp, an unknown kind, a missing or unexpected field,
    a malformed stamp, or a record that is not an ``expect`` subclass
    (pass :class:`SimEvent` or :class:`ServeEvent` to refuse the other
    log's records).
    """
    rotated = str(path) + ".old"
    if os.path.exists(rotated):
        yield from _read_segment(rotated, expect)
    yield from _read_segment(str(path), expect)
