"""Offline request-log analytics: from the serve telemetry stream to
"which phase is eating the latency".

Sibling of :mod:`repro.obs.analyze` (which does the same job for
per-cycle simulator traces): consume a request log written by
``repro serve --request-log`` and derive the signals an operator needs —

* per-phase latency percentiles (exact p50/p95/p99 over raw samples),
* dedup / cache / batch-coalescing effectiveness (how many requests
  were answered without simulating, and how wide the micro-batches ran),
* a backpressure episode timeline (bursts of rejected submits grouped
  by time gap),
* wall-time attribution: what share of completed requests' end-to-end
  time is explained by a named phase, and a bottleneck verdict.

``repro serve-report REQLOG`` renders the whole thing as markdown.

The analysis dispatches on the :mod:`repro.obs.events` serve record
classes and refuses any other record, so a new serve record class fails
here loudly rather than being dropped.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Any, Optional
from collections.abc import Iterable, Sequence

from repro.obs.events import (
    Access,
    Complete,
    Ingress,
    Phase,
    ServeEvent,
    Sim,
    Snapshot,
    read_events,
)
from repro.obs.telemetry import LATENCY_PHASES, exact_percentile

__all__ = [
    "BACKPRESSURE_GAP_S",
    "ServeReportAnalysis",
    "analyze_request_events",
    "analyze_request_log",
    "render_serve_markdown",
    "serve_report_main",
]

#: Rejected submits closer together than this belong to one
#: backpressure episode.
BACKPRESSURE_GAP_S = 1.0


@dataclass
class BackpressureEpisode:
    """One burst of rejected submits."""

    start_ts: float
    end_ts: float
    rejections: int

    @property
    def duration_s(self) -> float:
        return self.end_ts - self.start_ts


@dataclass
class ServeReportAnalysis:
    """Everything derived from one request-log stream."""

    #: Submit outcomes (accepted / dedup / cached / rejected / draining).
    ingress_outcomes: dict[str, int]
    #: Raw wall-clock samples per lifecycle phase; ``e2e`` comes from
    #: terminal ``complete`` events, the rest from ``phase`` spans.
    phase_samples: dict[str, list[float]]
    #: Terminal statuses (done / cached / failed).
    complete_statuses: dict[str, int]
    #: Owning-request count per worker-side simulation span (a width
    #: of 2+ means micro-batching coalesced that point across requests).
    sim_span_widths: dict[int, int]
    #: Total worker-side simulation seconds.
    sim_wall_s: float
    #: Simulated points per engine tier.
    sim_engines: dict[str, int]
    #: HTTP access counts per status code.
    access_statuses: dict[int, int]
    #: Bursts of rejected submits.
    backpressure_episodes: list[BackpressureEpisode]
    #: Peaks seen by the sampler ring (0 when no ring was recorded).
    peak_queue_depth: int = 0
    peak_oldest_age_s: float = 0.0
    snapshots: int = 0
    notes: list[str] = field(default_factory=list)

    # -- headline rates ---------------------------------------------------

    @property
    def submits(self) -> int:
        return sum(self.ingress_outcomes.values())

    @property
    def simulated_free(self) -> int:
        """Submits answered without running a simulation."""
        return self.ingress_outcomes.get("dedup", 0) + self.ingress_outcomes.get(
            "cached", 0
        )

    @property
    def dedup_rate(self) -> Optional[float]:
        return self.simulated_free / self.submits if self.submits else None

    @property
    def rejected(self) -> int:
        return self.ingress_outcomes.get("rejected", 0)

    @property
    def coalesced_points(self) -> int:
        """Simulation spans owned by more than one request."""
        return sum(n for width, n in self.sim_span_widths.items() if width > 1)

    @property
    def sim_points(self) -> int:
        return sum(self.sim_span_widths.values())

    @property
    def mean_span_width(self) -> Optional[float]:
        if not self.sim_points:
            return None
        owners = sum(width * n for width, n in self.sim_span_widths.items())
        return owners / self.sim_points

    def percentiles(self, phase: str) -> Optional[dict[str, float]]:
        """Exact p50/p95/p99 for one phase, in milliseconds."""
        samples = self.phase_samples.get(phase)
        if not samples:
            return None
        ordered = sorted(samples)
        return {
            "p50": round(1000.0 * _rank(ordered, 0.50), 3),
            "p95": round(1000.0 * _rank(ordered, 0.95), 3),
            "p99": round(1000.0 * _rank(ordered, 0.99), 3),
        }

    @property
    def attributed_fraction(self) -> Optional[float]:
        """Share of end-to-end wall time explained by a named phase.

        The denominator is the sum of terminal ``complete`` walls; the
        numerator sums every non-e2e ``phase`` span.  Within a batch a
        later job's end-to-end time includes earlier jobs' store
        writes, which no phase claims — the gap this ratio reports.
        """
        e2e = sum(self.phase_samples.get("e2e", ()))
        if e2e <= 0:
            return None
        named = sum(
            sum(samples)
            for phase, samples in self.phase_samples.items()
            if phase != "e2e"
        )
        return named / e2e

    def bottleneck(self) -> dict[str, Any]:
        """Phase shares of named wall time, and a one-line verdict."""
        totals = {
            phase: sum(self.phase_samples.get(phase, ()))
            for phase in LATENCY_PHASES
            if phase != "e2e"
        }
        named = sum(totals.values())
        if named <= 0:
            return {"verdict": "no phase spans recorded", "shares": {}}
        shares = {phase: wall / named for phase, wall in totals.items()}
        top_phase = max(shares, key=lambda p: shares[p])
        verdicts = {
            "queue_wait": (
                "queue wait dominates — requests back up before the "
                "dispatcher; more executor workers would help"
            ),
            "batch_form": (
                "batch formation dominates — jobs wait while earlier "
                "batch-key groups of the same round simulate"
            ),
            "simulate": (
                "simulation dominates — the healthy regime; scale "
                "executor workers or move to a faster engine tier for "
                "more throughput"
            ),
            "store_write": (
                "store writes dominate — result persistence is the "
                "bottleneck, not simulation"
            ),
        }
        return {
            "verdict": f"{verdicts[top_phase]} ({shares[top_phase]:.0%} of named time)",
            "shares": shares,
        }


def _rank(ordered: Sequence[float], q: float) -> float:
    value = exact_percentile(ordered, q)
    assert value is not None  # callers pass non-empty samples
    return value


def analyze_request_events(
    events: Iterable[ServeEvent]
) -> ServeReportAnalysis:
    """Derive a :class:`ServeReportAnalysis` from serve records."""
    ingress_outcomes: dict[str, int] = {}
    phase_samples: dict[str, list[float]] = {p: [] for p in LATENCY_PHASES}
    complete_statuses: dict[str, int] = {}
    sim_span_widths: dict[int, int] = {}
    sim_engines: dict[str, int] = {}
    access_statuses: dict[int, int] = {}
    rejected_ts: list[float] = []
    sim_wall = 0.0
    peak_queue = 0
    peak_oldest = 0.0
    snapshots = 0
    notes: list[str] = []
    unknown_phases: set[str] = set()

    for event in events:
        if isinstance(event, Ingress):
            outcome = event.outcome
            ingress_outcomes[outcome] = ingress_outcomes.get(outcome, 0) + 1
            if outcome == "rejected":
                rejected_ts.append(float(event.ts))
        elif isinstance(event, Phase):
            if event.phase in phase_samples:
                phase_samples[event.phase].append(float(event.wall_s))
            else:
                unknown_phases.add(event.phase)
        elif isinstance(event, Complete):
            status = event.status
            complete_statuses[status] = complete_statuses.get(status, 0) + 1
            phase_samples["e2e"].append(float(event.wall_s))
        elif isinstance(event, Sim):
            width = len(event.trace_ids)
            sim_span_widths[width] = sim_span_widths.get(width, 0) + 1
            sim_wall += float(event.wall_s)
            sim_engines[event.engine] = sim_engines.get(event.engine, 0) + 1
        elif isinstance(event, Access):
            status = int(event.status)
            access_statuses[status] = access_statuses.get(status, 0) + 1
        elif isinstance(event, Snapshot):
            snapshots += 1
            peak_queue = max(peak_queue, int(event.queue_depth))
            peak_oldest = max(peak_oldest, float(event.oldest_age_s))
        else:
            raise TypeError(
                f"serve-report has no handler for {type(event).__name__} records"
            )

    if unknown_phases:
        notes.append(
            "unrecognised phase names skipped: "
            + ", ".join(sorted(unknown_phases))
        )

    episodes: list[BackpressureEpisode] = []
    for ts in sorted(rejected_ts):
        if episodes and ts - episodes[-1].end_ts <= BACKPRESSURE_GAP_S:
            episodes[-1].end_ts = ts
            episodes[-1].rejections += 1
        else:
            episodes.append(BackpressureEpisode(ts, ts, 1))

    return ServeReportAnalysis(
        ingress_outcomes=ingress_outcomes,
        phase_samples=phase_samples,
        complete_statuses=complete_statuses,
        sim_span_widths=sim_span_widths,
        sim_wall_s=sim_wall,
        sim_engines=sim_engines,
        access_statuses=access_statuses,
        backpressure_episodes=episodes,
        peak_queue_depth=peak_queue,
        peak_oldest_age_s=peak_oldest,
        snapshots=snapshots,
        notes=notes,
    )


def analyze_request_log(path: str) -> ServeReportAnalysis:
    """Read (strictly, rotated segment first) and analyze a request log."""
    return analyze_request_events(read_events(path, ServeEvent))


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


def render_serve_markdown(
    analysis: ServeReportAnalysis, source: str = ""
) -> str:
    """The ``repro serve-report`` document."""
    a = analysis
    lines: list[str] = ["# Serve report"]
    if source:
        lines.append(f"\nSource: `{source}`")
    lines += ["", "## Summary", ""]
    lines += _md_table(
        ("signal", "value"),
        [
            ("submits", a.submits),
            ("completed", sum(a.complete_statuses.values())),
            ("served without simulating (dedup+cached)", a.simulated_free),
            ("dedup/cache rate", _fmt_opt(a.dedup_rate, as_pct=True)),
            ("rejected (backpressure)", a.rejected),
            ("simulated points", a.sim_points),
            ("cross-request coalesced points", a.coalesced_points),
            ("mean owners per simulated point", _fmt_opt(a.mean_span_width)),
            ("worker-side simulation wall", f"{a.sim_wall_s:.3f}s"),
            (
                "phase-attributed share of e2e time",
                _fmt_opt(a.attributed_fraction, as_pct=True),
            ),
        ],
    )

    lines += ["", "## Latency percentiles (ms)", ""]
    rows = []
    for phase in LATENCY_PHASES:
        pcts = a.percentiles(phase)
        samples = a.phase_samples.get(phase, [])
        if pcts is None:
            rows.append((phase, 0, "n/a", "n/a", "n/a"))
        else:
            rows.append(
                (phase, len(samples), pcts["p50"], pcts["p95"], pcts["p99"])
            )
    lines += _md_table(("phase", "samples", "p50", "p95", "p99"), rows)

    bottleneck = a.bottleneck()
    lines += [
        "",
        "## Bottleneck attribution",
        "",
        f"**Verdict:** {bottleneck['verdict']}",
        "",
    ]
    if bottleneck["shares"]:
        lines += _md_table(
            ("phase", "share of named time"),
            [
                (phase, f"{share:.1%}")
                for phase, share in sorted(
                    bottleneck["shares"].items(), key=lambda kv: -kv[1]
                )
            ],
        )

    if a.ingress_outcomes:
        lines += ["", "## Submit outcomes", ""]
        lines += _md_table(
            ("outcome", "count"), sorted(a.ingress_outcomes.items())
        )
    if a.complete_statuses:
        lines += ["", "## Terminal statuses", ""]
        lines += _md_table(
            ("status", "count"), sorted(a.complete_statuses.items())
        )
    if a.sim_engines:
        lines += ["", "## Engine tiers", ""]
        lines += _md_table(("engine", "points"), sorted(a.sim_engines.items()))
    if a.access_statuses:
        lines += ["", "## HTTP access", ""]
        lines += _md_table(
            ("status", "responses"), sorted(a.access_statuses.items())
        )

    lines += ["", "## Backpressure episodes", ""]
    if a.backpressure_episodes:
        lines += _md_table(
            ("start ts", "duration", "rejections"),
            [
                (f"{ep.start_ts:.3f}", f"{ep.duration_s:.3f}s", ep.rejections)
                for ep in a.backpressure_episodes
            ],
        )
    else:
        lines.append("none — no submit was rejected.")

    if a.snapshots:
        lines += [
            "",
            "## Sampler ring",
            "",
        ]
        lines += _md_table(
            ("signal", "value"),
            [
                ("snapshots", a.snapshots),
                ("peak queue depth", a.peak_queue_depth),
                ("peak oldest-request age", f"{a.peak_oldest_age_s:.3f}s"),
            ],
        )

    for note in a.notes:
        lines += ["", f"> note: {note}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CLI: ``repro serve-report``
# ---------------------------------------------------------------------------


def serve_report_main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro serve-report REQLOG``."""
    parser = argparse.ArgumentParser(
        prog="save-repro serve-report",
        description=(
            "Analyse a serve request log (written by repro serve "
            "--request-log) into a markdown report: per-phase latency "
            "percentiles, dedup/coalescing effectiveness, backpressure "
            "episodes, bottleneck attribution."
        ),
    )
    parser.add_argument(
        "reqlog",
        help="request-log JSONL file (also reads a rotated .old segment)",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the markdown report to FILE instead of stdout",
    )
    args = parser.parse_args(argv)
    try:
        analysis = analyze_request_log(args.reqlog)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = render_serve_markdown(analysis, source=args.reqlog)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"report -> {args.out}")
    else:
        print(report, end="")
    return 0
