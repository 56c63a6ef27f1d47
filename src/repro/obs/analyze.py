"""Offline trace analytics: from raw JSONL events to "why is it slow".

The paper argues its case through *derived* signals — combination-window
occupancy, coalescing width, broadcast-cache hit rate, per-component
attribution (Figs. 14-19) — not raw event dumps.  This module rebuilds
those signals from a JSONL trace (:func:`repro.obs.events.read_events`)
or any iterable of simulator records:

* totals and rates (B$ hit rate, BS-skip fraction, LWD stalls/FMA),
* a windowed timeline (per N-cycle interval: dispatch/issue/retire
  throughput, lanes, stalls, B$ traffic, in-flight µops),
* distributions (coalescing width per merged op, rotation states,
  ELM popcounts, merge widths),
* a bottleneck-attribution summary with a one-line verdict.

``repro trace-report FILE`` renders the whole thing as markdown.

The mean coalescing width and B$ hit rate computed here agree with the
live :class:`repro.obs.metrics.MetricsRegistry` counters of the same
run (cross-checked by the test suite) — the two views are derived from
the same event stream, one online, one offline.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Optional
from collections.abc import Iterable, Sequence

from repro.isa.datatypes import FP32_LANES
from repro.obs.events import (
    BcacheHit,
    BcacheMiss,
    BsSkip,
    Dispatch,
    Elm,
    Issue,
    LwdStall,
    Merge,
    Retire,
    SimEvent,
    read_events,
)

__all__ = [
    "TraceAnalysis",
    "WindowStats",
    "analyze_events",
    "analyze_file",
    "render_markdown",
    "trace_report_main",
]

#: Default cap on timeline rows; the window size is derived from it.
DEFAULT_MAX_WINDOWS = 40

#: The per-window counter each record class increments (``Issue`` is
#: handled separately: it adds an op and its lanes).
_WINDOW_FIELD: dict[type, str] = {
    Dispatch: "dispatches",
    Retire: "retires",
    Merge: "merges",
    BsSkip: "bs_skips",
    LwdStall: "lwd_stalls",
    BcacheHit: "bcache_hits",
    BcacheMiss: "bcache_misses",
}


@dataclass
class WindowStats:
    """Event throughput over one ``[start, start + size)`` cycle window."""

    start: int
    size: int
    dispatches: int = 0
    retires: int = 0
    issue_ops: int = 0
    issue_lanes: int = 0
    merges: int = 0
    bs_skips: int = 0
    lwd_stalls: int = 0
    bcache_hits: int = 0
    bcache_misses: int = 0
    #: µops dispatched but not yet retired at the window's end.
    inflight_end: int = 0

    @property
    def issue_rate(self) -> float:
        """VPU ops issued per cycle (issue-slot utilisation proxy)."""
        return self.issue_ops / self.size if self.size else 0.0

    @property
    def lane_occupancy(self) -> float:
        """Mean occupied lanes per issued op (coalescing width)."""
        return self.issue_lanes / self.issue_ops if self.issue_ops else 0.0

    @property
    def bcache_hit_rate(self) -> Optional[float]:
        total = self.bcache_hits + self.bcache_misses
        return self.bcache_hits / total if total else None


@dataclass
class TraceAnalysis:
    """Everything derived from one event stream.

    A trace file may hold several back-to-back simulations (a sweep
    emits one per grid point); each restarts its cycle counter at zero.
    Runs are detected by the cycle going backwards and concatenated
    onto one timeline, so ``cycles`` is the total across runs and the
    windowed timeline shows run after run, not runs stacked on top of
    each other.
    """

    cycles: int
    runs: int
    kernels: list[str]
    event_counts: dict[str, int]
    #: Coalescing width: occupied lanes per issued VPU op.
    lanes_per_op: dict[int, int]
    #: Entries per ``merge`` event (instructions coalesced per op).
    merge_widths: dict[int, int]
    #: Rotation-state name → lane-entry count (RVC only; empty for VC).
    rotation_states: dict[str, int]
    #: ELM popcount distribution (effectual lanes per VFMA).
    elm_popcounts: dict[int, int]
    schemes: dict[str, int]
    windows: list[WindowStats]
    window_size: int
    busy_cycles: int
    notes: list[str] = field(default_factory=list)

    # -- headline rates ---------------------------------------------------

    @property
    def issue_ops(self) -> int:
        return self.event_counts.get(Issue.event, 0)

    @property
    def issue_lanes(self) -> int:
        return sum(width * n for width, n in self.lanes_per_op.items())

    @property
    def mean_coalescing_width(self) -> float:
        """Mean occupied lanes per issued VPU op (== lanes_per_op mean)."""
        return self.issue_lanes / self.issue_ops if self.issue_ops else 0.0

    @property
    def bcache_hits(self) -> int:
        return self.event_counts.get(BcacheHit.event, 0)

    @property
    def bcache_misses(self) -> int:
        return self.event_counts.get(BcacheMiss.event, 0)

    @property
    def bcache_hit_rate(self) -> Optional[float]:
        total = self.bcache_hits + self.bcache_misses
        return self.bcache_hits / total if total else None

    @property
    def fma_count(self) -> int:
        return self.event_counts.get(Elm.event, 0)

    @property
    def bs_skip_fraction(self) -> Optional[float]:
        return (
            self.event_counts.get(BsSkip.event, 0) / self.fma_count
            if self.fma_count
            else None
        )

    @property
    def lwd_stalls_per_fma(self) -> Optional[float]:
        return (
            self.event_counts.get(LwdStall.event, 0) / self.fma_count
            if self.fma_count
            else None
        )

    @property
    def busy_fraction(self) -> float:
        """Fraction of simulated cycles with at least one VPU issue."""
        return self.busy_cycles / self.cycles if self.cycles else 0.0

    # -- attribution ------------------------------------------------------

    def bottleneck(self) -> dict[str, Any]:
        """Heuristic attribution: which signal dominates the slow cycles.

        Deterministic rules over the derived rates; the verdict names
        the strongest signal, the ``signals`` dict shows all of them so
        a reader can disagree with the ranking.
        """
        signals: dict[str, float] = {
            "vpu_idle_fraction": 1.0 - self.busy_fraction,
            "coalescing_headroom": (
                1.0 - self.mean_coalescing_width / FP32_LANES
                if self.issue_ops
                else 0.0
            ),
            "bcache_miss_rate": (
                1.0 - self.bcache_hit_rate
                if self.bcache_hit_rate is not None
                else 0.0
            ),
            "lwd_stall_rate": min(1.0, self.lwd_stalls_per_fma or 0.0),
            "bs_skip_fraction": self.bs_skip_fraction or 0.0,
        }
        if self.busy_fraction < 0.5:
            verdict = (
                "VPU idle most cycles: front-end, memory, or dependence "
                "bound — not VPU throughput bound"
            )
        elif signals["lwd_stall_rate"] > 0.5:
            verdict = (
                "lane-order dependence stalls dominate: accumulator "
                "chains serialise lane dispatch"
            )
        elif signals["coalescing_headroom"] > 0.5:
            verdict = (
                "VPU busy but ops issue under half full: sparsity too "
                "low/unstructured for the coalescing window to fill ops"
            )
        elif signals["bcache_miss_rate"] > 0.5:
            verdict = "broadcast-cache misses dominate the L1 port budget"
        else:
            verdict = (
                "VPU throughput bound: issue slots busy and ops well "
                "coalesced — compute is the limiter"
            )
        return {"verdict": verdict, "signals": signals}


def _dist_add(dist: dict, key, n: int = 1) -> None:
    dist[key] = dist.get(key, 0) + n


def analyze_events(
    events: Iterable[SimEvent], window: Optional[int] = None
) -> TraceAnalysis:
    """Analyse one record stream (one pass, bounded memory).

    Args:
        events: simulator records (``read_events`` output or a
            :class:`repro.obs.events.ListSink`'s buffer).
        window: timeline interval in cycles.  Default: the smallest
            round size giving at most :data:`DEFAULT_MAX_WINDOWS` rows.
    """
    counts: dict[str, int] = {}
    lanes_per_op: dict[int, int] = {}
    merge_widths: dict[int, int] = {}
    rotation_states: dict[str, int] = {}
    elm_popcounts: dict[int, int] = {}
    schemes: dict[str, int] = {}
    kernels: dict[str, None] = {}
    busy_cycles_seen: set = set()
    #: (timeline-cycle, record-class, lanes) triples for the windowing pass.
    slim: list = []
    max_cycle = -1
    # Run concatenation: within one simulation, events arrive in
    # nondecreasing cycle order; a backwards jump means a new run.
    offset = 0
    last_raw = -1
    runs = 0

    for event in events:
        cls = type(event)
        raw_cycle = event.cycle
        if last_raw < 0:
            runs = 1
        elif raw_cycle < last_raw:
            offset += last_raw + 1
            runs += 1
        last_raw = raw_cycle
        cycle = offset + raw_cycle
        if cycle > max_cycle:
            max_cycle = cycle
        _dist_add(counts, cls.event)
        kernels.setdefault(event.kernel, None)
        lanes = 0
        if isinstance(event, Issue):
            lanes = event.lanes
            _dist_add(lanes_per_op, lanes)
            busy_cycles_seen.add(cycle)
        elif isinstance(event, Merge):
            _dist_add(merge_widths, len(event.entries))
            _dist_add(schemes, event.scheme)
            for entry in event.entries:
                state = entry.get("rstate")
                if state is not None:
                    _dist_add(rotation_states, state)
        elif isinstance(event, Elm):
            _dist_add(elm_popcounts, bin(event.elm).count("1"))
        slim.append((cycle, cls, lanes))

    cycles = max_cycle + 1
    if window is None:
        window = max(1, -(-cycles // DEFAULT_MAX_WINDOWS)) if cycles else 1
    if window <= 0:
        raise ValueError("window must be a positive cycle count")

    n_windows = -(-cycles // window) if cycles else 0
    windows = [WindowStats(start=i * window, size=window) for i in range(n_windows)]
    if windows:
        windows[-1].size = cycles - windows[-1].start
    for cycle, cls, lanes in slim:
        stats = windows[cycle // window]
        if cls is Issue:
            stats.issue_ops += 1
            stats.issue_lanes += lanes
        else:
            name = _WINDOW_FIELD.get(cls)
            if name is not None:
                setattr(stats, name, getattr(stats, name) + 1)
    inflight = 0
    for stats in windows:
        inflight += stats.dispatches - stats.retires
        stats.inflight_end = inflight

    notes: list[str] = []
    if counts.get(Dispatch.event, 0) and not counts.get(Retire.event, 0):
        notes.append("no retire events: trace looks truncated mid-run")
    return TraceAnalysis(
        cycles=cycles,
        runs=runs,
        kernels=sorted(k for k in kernels if k),
        event_counts=dict(sorted(counts.items())),
        lanes_per_op=dict(sorted(lanes_per_op.items())),
        merge_widths=dict(sorted(merge_widths.items())),
        rotation_states=dict(sorted(rotation_states.items())),
        elm_popcounts=dict(sorted(elm_popcounts.items())),
        schemes=dict(sorted(schemes.items())),
        windows=windows,
        window_size=window,
        busy_cycles=len(busy_cycles_seen),
        notes=notes,
    )


def analyze_file(path: str, window: Optional[int] = None) -> TraceAnalysis:
    """Analyse a JSONL trace file (see :func:`repro.obs.events.read_events`)."""
    return analyze_events(read_events(path, SimEvent), window=window)


# ---------------------------------------------------------------------------
# Markdown rendering
# ---------------------------------------------------------------------------


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> list[str]:
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def _fmt_opt(value: Optional[float], as_pct: bool = False) -> str:
    if value is None:
        return "n/a"
    return f"{value:.1%}" if as_pct else f"{value:.2f}"


def _dist_rows(dist: dict, total: Optional[int] = None) -> list[list[Any]]:
    total = total if total is not None else sum(dist.values()) or 1
    return [[key, n, f"{n / total:.1%}"] for key, n in dist.items()]


def render_markdown(analysis: TraceAnalysis, source: str = "") -> str:
    """The ``repro trace-report`` document."""
    a = analysis
    lines: list[str] = ["# Trace report"]
    if source:
        lines.append(f"\nSource: `{source}`")
    lines += [
        "",
        "## Summary",
        "",
    ]
    lines += _md_table(
        ("signal", "value"),
        [
            ("kernels", ", ".join(a.kernels) or "?"),
            ("simulation runs", a.runs),
            ("simulated cycles (all runs)", a.cycles),
            ("events", sum(a.event_counts.values())),
            ("VPU ops issued", a.issue_ops),
            ("VPU busy cycles", f"{a.busy_cycles} ({a.busy_fraction:.1%})"),
            ("mean coalescing width (lanes/op)", _fmt_opt(a.mean_coalescing_width)),
            ("B$ hit rate", _fmt_opt(a.bcache_hit_rate, as_pct=True)),
            ("BS-skipped VFMAs", _fmt_opt(a.bs_skip_fraction, as_pct=True)),
            ("LWD stalls per VFMA", _fmt_opt(a.lwd_stalls_per_fma)),
        ],
    )
    lines += ["", "### Event counts", ""]
    lines += _md_table(
        ("event", "count"), sorted(a.event_counts.items())
    )

    bottleneck = a.bottleneck()
    lines += [
        "",
        "## Bottleneck attribution",
        "",
        f"**Verdict:** {bottleneck['verdict']}",
        "",
    ]
    lines += _md_table(
        ("signal", "strength"),
        [(name, f"{value:.2f}") for name, value in bottleneck["signals"].items()],
    )

    if a.lanes_per_op:
        lines += ["", "## Coalescing width (occupied lanes per issued op)", ""]
        lines += _md_table(
            ("lanes", "ops", "share"), _dist_rows(a.lanes_per_op)
        )
    if a.merge_widths:
        lines += ["", "## Merge width (instructions coalesced per op)", ""]
        lines += _md_table(
            ("entries", "merges", "share"), _dist_rows(a.merge_widths)
        )
    if a.rotation_states:
        lines += ["", "## Rotation states (RVC lane entries)", ""]
        lines += _md_table(
            ("state", "entries", "share"), _dist_rows(a.rotation_states)
        )
    if a.elm_popcounts:
        lines += ["", "## ELM popcount (effectual lanes per VFMA)", ""]
        lines += _md_table(
            ("effectual lanes", "VFMAs", "share"), _dist_rows(a.elm_popcounts)
        )

    lines += [
        "",
        f"## Timeline ({a.window_size}-cycle windows)",
        "",
    ]
    lines += _md_table(
        (
            "cycle",
            "disp",
            "issue",
            "lanes/op",
            "ops/cyc",
            "retire",
            "in-flight",
            "bs_skip",
            "lwd",
            "B$ hit%",
        ),
        [
            (
                w.start,
                w.dispatches,
                w.issue_ops,
                f"{w.lane_occupancy:.1f}",
                f"{w.issue_rate:.2f}",
                w.retires,
                w.inflight_end,
                w.bs_skips,
                w.lwd_stalls,
                _fmt_opt(w.bcache_hit_rate, as_pct=True),
            )
            for w in a.windows
        ],
    )
    for note in a.notes:
        lines += ["", f"> note: {note}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI: ``repro trace-report``
# ---------------------------------------------------------------------------


def trace_report_main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro trace-report FILE``."""
    parser = argparse.ArgumentParser(
        prog="save-repro trace-report",
        description=(
            "Analyse a JSONL event trace (written by --trace) into a "
            "markdown report: timelines, distributions, bottleneck "
            "attribution."
        ),
    )
    parser.add_argument("file", help="JSONL trace file (from --trace)")
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="timeline interval in cycles (default: auto, <= 40 rows)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the markdown report to FILE instead of stdout",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="FILE",
        default=None,
        help="also export the events as Chrome trace-event JSON (Perfetto)",
    )
    args = parser.parse_args(argv)
    try:
        # One parse: the Chrome export reuses the records the report read.
        events = read_events(args.file, SimEvent)
        if args.chrome_trace:
            events = list(events)
        analysis = analyze_events(events, window=args.window)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = render_markdown(analysis, source=args.file)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"report -> {args.out}")
    else:
        print(report, end="")
    if args.chrome_trace:
        from repro.obs.chrometrace import write_chrome_trace

        write_chrome_trace(args.chrome_trace, events=events)
        print(f"chrome trace -> {args.chrome_trace}")
    return 0
