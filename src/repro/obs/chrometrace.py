"""Chrome trace-event export: spans and traces, viewable in Perfetto.

Two sources, two kinds of track:

* **Host spans** (:mod:`repro.obs.spans`) become complete ``"X"``
  events on one track per recorder.  Spans obey a stack discipline, so
  slices on a track are strictly nested and never partially overlap —
  exactly what the trace viewer's flame layout expects.
* **Simulator records** (:mod:`repro.obs.events`) become instant
  ``"i"`` events plus ``"C"`` counter tracks (in-flight µops, lanes per
  issued op), with one simulated cycle mapped to one microsecond of
  viewer time.

Load the written file at https://ui.perfetto.dev (or
``chrome://tracing``).  The format is the Trace Event Format's JSON
object form: ``{"traceEvents": [...]}``.
"""

from __future__ import annotations

import json
from typing import Any, Optional
from collections.abc import Iterable, Sequence

from repro.obs.events import (
    BcacheHit,
    BcacheMiss,
    BsSkip,
    ChainAppend,
    Dispatch,
    Elm,
    Issue,
    LwdStall,
    Merge,
    Retire,
    SimEvent,
)
from repro.obs.spans import SpanRecord

__all__ = [
    "chrome_trace",
    "sim_trace_events",
    "span_trace_events",
    "write_chrome_trace",
]

#: pid for host-side (span) tracks and for simulator tracks.
HOST_PID = 1
SIM_PID = 2

#: tids within the simulator pid.
SIM_TID_PIPELINE = 1
SIM_TID_VPU = 2
SIM_TID_SAVE = 3
SIM_TID_BCACHE = 4

#: Which instant-event track each simulator record class lands on.
_EVENT_TID: dict[type, int] = {
    Dispatch: SIM_TID_PIPELINE,
    Retire: SIM_TID_PIPELINE,
    Issue: SIM_TID_VPU,
    Merge: SIM_TID_VPU,
    Elm: SIM_TID_SAVE,
    BsSkip: SIM_TID_SAVE,
    LwdStall: SIM_TID_SAVE,
    ChainAppend: SIM_TID_SAVE,
    BcacheHit: SIM_TID_BCACHE,
    BcacheMiss: SIM_TID_BCACHE,
}


def _meta(pid: int, tid: Optional[int], name: str) -> dict[str, Any]:
    event: dict[str, Any] = {
        "ph": "M",
        "pid": pid,
        "name": "process_name" if tid is None else "thread_name",
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def span_trace_events(
    records: Sequence[SpanRecord], pid: int = HOST_PID, tid: int = 1
) -> list[dict[str, Any]]:
    """Complete (``"X"``) events for one recorder's spans, one track.

    Timestamps are microseconds from the recorder's epoch.  Records
    come from a stack discipline, so the produced slices are properly
    nested per track.
    """
    events: list[dict[str, Any]] = []
    for record in records:
        events.append(
            {
                "name": record.name,
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": max(0.0, record.duration) * 1e6,
                "pid": pid,
                "tid": tid,
                "cat": "host",
                "args": dict(record.attrs),
            }
        )
    return events


def sim_trace_events(
    events: Iterable[SimEvent], pid: int = SIM_PID
) -> list[dict[str, Any]]:
    """Instant + counter events for a simulator record stream.

    One simulated cycle maps to 1 µs of viewer time.  Emits an
    ``inflight`` counter (dispatched-not-retired µops, stepped at every
    change) and a ``lanes`` counter sampled at each issue.  Back-to-back
    simulations in one trace (cycle counter restarting at zero) are
    laid out sequentially, the same concatenation
    :func:`repro.obs.analyze.analyze_events` uses.
    """
    out: list[dict[str, Any]] = []
    inflight = 0
    offset = 0
    last_raw = -1
    for event in events:
        raw_cycle = event.cycle
        if raw_cycle < last_raw:
            offset += last_raw + 1
        last_raw = raw_cycle
        cycle = offset + raw_cycle
        args = {
            key: value
            for key, value in vars(event).items()
            if key not in ("cycle", "kernel")
        }
        out.append(
            {
                "name": event.event,
                "ph": "i",
                "s": "t",
                "ts": float(cycle),
                "pid": pid,
                "tid": _EVENT_TID[type(event)],
                "cat": "sim",
                "args": args,
            }
        )
        if isinstance(event, Issue):
            out.append(
                {
                    "name": "lanes_per_op",
                    "ph": "C",
                    "ts": float(cycle),
                    "pid": pid,
                    "args": {"lanes": event.lanes},
                }
            )
        elif isinstance(event, (Dispatch, Retire)):
            inflight += 1 if isinstance(event, Dispatch) else -1
            out.append(
                {
                    "name": "inflight_uops",
                    "ph": "C",
                    "ts": float(cycle),
                    "pid": pid,
                    "args": {"uops": inflight},
                }
            )
    return out


def chrome_trace(
    spans: Optional[Sequence[SpanRecord]] = None,
    events: Optional[Iterable[SimEvent]] = None,
) -> dict[str, Any]:
    """Assemble the Trace Event Format JSON-object document."""
    trace_events: list[dict[str, Any]] = []
    if spans:
        trace_events.append(_meta(HOST_PID, None, "host (repro pipeline)"))
        trace_events.append(_meta(HOST_PID, 1, "phases"))
        trace_events.extend(span_trace_events(spans))
    if events is not None:
        trace_events.append(_meta(SIM_PID, None, "simulator (1 cycle = 1us)"))
        trace_events.append(_meta(SIM_PID, SIM_TID_PIPELINE, "pipeline"))
        trace_events.append(_meta(SIM_PID, SIM_TID_VPU, "vpu issue/merge"))
        trace_events.append(_meta(SIM_PID, SIM_TID_SAVE, "save engine"))
        trace_events.append(_meta(SIM_PID, SIM_TID_BCACHE, "broadcast cache"))
        trace_events.extend(sim_trace_events(events))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str,
    spans: Optional[Sequence[SpanRecord]] = None,
    events: Optional[Iterable[SimEvent]] = None,
) -> str:
    """Write the trace document to ``path``; returns the path.

    One ``json.dumps`` and one write: ``json.dump`` streams through the
    pure-Python encoder, about three times slower on a large trace.
    """
    document = chrome_trace(spans=spans, events=events)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, separators=(",", ":")))
    return path
