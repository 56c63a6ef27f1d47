"""Offline request-log analytics: rates, episodes, attribution, CLI."""

import json

import pytest

from repro.obs import servereport
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    SERVE_EVENTS,
    Access,
    Complete,
    EventWriter,
    Ingress,
    Phase,
    Sim,
    Snapshot,
)
from repro.obs.servereport import (
    BACKPRESSURE_GAP_S,
    analyze_request_events,
    analyze_request_log,
    render_serve_markdown,
    serve_report_main,
)
from repro.obs.telemetry import LATENCY_PHASES, stamp


def ingress(outcome="accepted", ts=1.0, trace="t1"):
    return Ingress(ts=ts, trace_id=trace, key="k", outcome=outcome)


def phase(name, wall, trace="t1", ts=2.0):
    return Phase(ts=ts, trace_id=trace, phase=name, wall_s=wall)


def complete(status="done", wall=1.0, trace="t1", ts=3.0):
    return Complete(ts=ts, trace_id=trace, key="k", status=status, wall_s=wall)


def sim(trace_ids=("t1",), wall=0.1, engine="fast", ts=2.5):
    return Sim(ts=ts, trace_ids=list(trace_ids), point=[0.1, 0.2],
               wall_s=wall, engine=engine)


def snapshot(queue_depth=1, active=1, oldest_age_s=0.2, ts=4.0):
    return Snapshot(ts=ts, queue_depth=queue_depth, active=active,
                    oldest_age_s=oldest_age_s, counters={})


def access(ts=5.0):
    return Access(ts=ts, trace_id="t1", method="POST", path="/v1/submit",
                  status=202, wall_s=0.002)


class TestContractTables:
    def test_consumer_tables_mirror_the_schema_exactly(self):
        # The report tabulates the recorder's own phase tuple, and one
        # record of every serve class is counted somewhere — no kind
        # is silently dropped.
        assert servereport.LATENCY_PHASES is LATENCY_PHASES
        records = [ingress(), phase("simulate", 0.5), sim(), complete(),
                   access(), snapshot()]
        assert [type(r) for r in records] == list(SERVE_EVENTS)
        analysis = analyze_request_events(records)
        assert analysis.submits == 1
        assert analysis.phase_samples["simulate"] == [0.5]
        assert analysis.sim_points == 1
        assert analysis.complete_statuses == {"done": 1}
        assert analysis.access_statuses == {202: 1}
        assert analysis.snapshots == 1

    def test_non_serve_record_is_refused(self):
        from repro.obs.events import Retire

        with pytest.raises(TypeError, match="Retire"):
            analyze_request_events(
                [Retire(cycle=0, kernel="k", mechanism="save", seq=0)]
            )


class TestAnalysisRates:
    def test_outcome_counts_and_dedup_rate(self):
        analysis = analyze_request_events([
            ingress("accepted"), ingress("accepted"),
            ingress("dedup"), ingress("cached"),
            ingress("rejected"),
        ])
        assert analysis.submits == 5
        assert analysis.simulated_free == 2
        assert analysis.dedup_rate == pytest.approx(0.4)
        assert analysis.rejected == 1

    def test_empty_stream_has_no_rates(self):
        analysis = analyze_request_events([])
        assert analysis.submits == 0
        assert analysis.dedup_rate is None
        assert analysis.attributed_fraction is None
        assert analysis.mean_span_width is None

    def test_coalescing_widths(self):
        analysis = analyze_request_events([
            sim(("a",)), sim(("a", "b")), sim(("a", "b", "c")),
        ])
        assert analysis.sim_points == 3
        assert analysis.coalesced_points == 2
        assert analysis.mean_span_width == pytest.approx(2.0)
        assert analysis.sim_wall_s == pytest.approx(0.3)
        assert analysis.sim_engines == {"fast": 3}

    def test_e2e_comes_from_complete_events(self):
        analysis = analyze_request_events([
            complete("done", wall=0.2), complete("failed", wall=0.4),
        ])
        assert analysis.phase_samples["e2e"] == [0.2, 0.4]
        assert analysis.complete_statuses == {"done": 1, "failed": 1}


class TestAttribution:
    def test_fully_attributed_stream(self):
        events = [
            phase("queue_wait", 0.2), phase("batch_form", 0.1),
            phase("simulate", 0.5), phase("store_write", 0.2),
            complete(wall=1.0),
        ]
        analysis = analyze_request_events(events)
        assert analysis.attributed_fraction == pytest.approx(1.0)

    def test_partial_attribution_reports_the_gap(self):
        analysis = analyze_request_events([
            phase("simulate", 0.5), complete(wall=1.0),
        ])
        assert analysis.attributed_fraction == pytest.approx(0.5)

    def test_bottleneck_verdict_names_the_top_phase(self):
        analysis = analyze_request_events([
            phase("queue_wait", 5.0), phase("simulate", 1.0),
        ])
        verdict = analysis.bottleneck()
        assert "queue wait dominates" in verdict["verdict"]
        assert verdict["shares"]["queue_wait"] == pytest.approx(5.0 / 6.0)

    @pytest.mark.parametrize("top,needle", [
        ("batch_form", "batch formation dominates"),
        ("simulate", "simulation dominates"),
        ("store_write", "store writes dominate"),
    ])
    def test_every_phase_has_a_verdict(self, top, needle):
        analysis = analyze_request_events([phase(top, 1.0)])
        assert needle in analysis.bottleneck()["verdict"]

    def test_no_spans_no_verdict(self):
        assert analyze_request_events([]).bottleneck()["shares"] == {}

    def test_unknown_phase_is_noted_not_fatal(self):
        analysis = analyze_request_events([phase("warp_drive", 1.0)])
        assert any("warp_drive" in note for note in analysis.notes)


class TestBackpressureEpisodes:
    def test_close_rejections_group_into_one_episode(self):
        analysis = analyze_request_events([
            ingress("rejected", ts=10.0),
            ingress("rejected", ts=10.5),
            ingress("rejected", ts=10.9),
        ])
        (episode,) = analysis.backpressure_episodes
        assert episode.rejections == 3
        assert episode.duration_s == pytest.approx(0.9)

    def test_gap_splits_episodes(self):
        analysis = analyze_request_events([
            ingress("rejected", ts=10.0),
            ingress("rejected", ts=10.0 + BACKPRESSURE_GAP_S + 0.01),
        ])
        assert len(analysis.backpressure_episodes) == 2

    def test_out_of_order_timestamps_are_sorted_first(self):
        analysis = analyze_request_events([
            ingress("rejected", ts=11.0), ingress("rejected", ts=10.5),
        ])
        (episode,) = analysis.backpressure_episodes
        assert episode.start_ts == 10.5


class TestRingSnapshots:
    def test_peaks_tracked(self):
        analysis = analyze_request_events([
            snapshot(queue_depth=3, active=1, oldest_age_s=0.5),
            snapshot(queue_depth=7, active=2, oldest_age_s=0.1),
        ])
        assert analysis.snapshots == 2
        assert analysis.peak_queue_depth == 7
        assert analysis.peak_oldest_age_s == pytest.approx(0.5)


class TestRendering:
    def events(self):
        return [
            ingress("accepted"), ingress("cached"),
            phase("queue_wait", 0.01), phase("simulate", 0.2),
            sim(("t1",)), complete(wall=0.25),
            access(),
            snapshot(),
        ]

    def test_all_sections_render(self):
        text = render_serve_markdown(
            analyze_request_events(self.events()), source="req.jsonl"
        )
        for heading in (
            "# Serve report", "## Summary", "## Latency percentiles (ms)",
            "## Bottleneck attribution", "## Submit outcomes",
            "## Terminal statuses", "## Engine tiers", "## HTTP access",
            "## Backpressure episodes", "## Sampler ring",
        ):
            assert heading in text
        assert "`req.jsonl`" in text

    def test_every_report_phase_appears_in_the_table(self):
        text = render_serve_markdown(analyze_request_events(self.events()))
        for name in LATENCY_PHASES:
            assert f"| {name} |" in text

    def test_quiet_log_renders_the_empty_states(self):
        text = render_serve_markdown(analyze_request_events([]))
        assert "none — no submit was rejected." in text
        assert "## Sampler ring" not in text


class TestCli:
    def write_log(self, tmp_path):
        path = tmp_path / "req.jsonl"
        with EventWriter(path) as log:
            log.emit(stamp(Ingress, trace_id="t1", key="k",
                           outcome="accepted"))
            log.emit(stamp(Complete, trace_id="t1", key="k", status="done",
                           wall_s=0.5))
        return path

    def test_report_to_stdout(self, tmp_path, capsys):
        path = self.write_log(tmp_path)
        assert serve_report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Serve report" in out and "| e2e | 1 |" in out

    def test_report_to_file(self, tmp_path, capsys):
        path = self.write_log(tmp_path)
        out_path = tmp_path / "report.md"
        assert serve_report_main([str(path), "--out", str(out_path)]) == 0
        assert "# Serve report" in out_path.read_text()
        assert str(out_path) in capsys.readouterr().out

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert serve_report_main([str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_event_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(
            {"v": EVENT_SCHEMA_VERSION, "ts": 1.0, "event": "bogus"}
        ) + "\n")
        assert serve_report_main([str(path)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_rotated_ring_segment_is_included(self, tmp_path):
        path = tmp_path / "ring.jsonl"
        with EventWriter(path, ring_limit=2) as ring:
            for i in range(3):
                ring.emit(snapshot(queue_depth=i, active=0, oldest_age_s=0.0))
        analysis = analyze_request_log(str(path))
        assert analysis.snapshots == 3
