"""Request-log telemetry units: records, ring, percentiles, Prometheus."""

import json
import os
import threading

import pytest

from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EVENT_TYPES,
    NULL_SINK,
    SERVE_EVENTS,
    Complete,
    EventWriter,
    Ingress,
    NullSink,
    ServeEvent,
    Snapshot,
    TraceFormatError,
    read_events,
)
from repro.obs.metrics import MetricsRegistry, log2_bucket
from repro.obs.telemetry import (
    LATENCY_PHASES,
    LATENCY_QUANTILES,
    LatencyRecorder,
    ServeTelemetry,
    exact_percentile,
    new_trace_id,
    render_prometheus,
    stamp,
    wants_prometheus,
)


def make_event(kind="ingress", **overrides):
    base = {
        "ingress": {"trace_id": "t1", "key": "k1", "outcome": "accepted"},
        "phase": {"trace_id": "t1", "phase": "queue_wait", "wall_s": 0.1},
        "sim": {"trace_ids": ["t1"], "point": [0.1, 0.2], "wall_s": 0.1,
                "engine": "fast"},
        "complete": {"trace_id": "t1", "key": "k1", "status": "done",
                     "wall_s": 0.2},
        "access": {"trace_id": "t1", "method": "POST", "path": "/v1/submit",
                   "status": 202, "wall_s": 0.01},
        "snapshot": {"queue_depth": 0, "active": 0, "oldest_age_s": 0.0,
                     "counters": {}},
    }[kind]
    event = {"v": EVENT_SCHEMA_VERSION, "ts": 1.5, "event": kind, **base}
    event.update(overrides)
    return {k: v for k, v in event.items() if v is not _DROP}


_DROP = object()


def read_line(tmp_path, event):
    path = tmp_path / "req.jsonl"
    path.write_text(json.dumps(event) + "\n")
    return list(read_events(str(path), ServeEvent))


def ingress(writer, trace_id="t", outcome="accepted"):
    writer.emit(stamp(Ingress, trace_id=trace_id, key="k", outcome=outcome))


def snapshot(writer, depth):
    writer.emit(stamp(Snapshot, queue_depth=depth, active=0,
                      oldest_age_s=0.0, counters={}))


class TestValidateRequestEvent:
    """The serve records are the request-log schema; the reader enforces it."""

    @pytest.mark.parametrize("kind", sorted(c.event for c in SERVE_EVENTS))
    def test_every_event_type_validates(self, kind, tmp_path):
        (record,) = read_line(tmp_path, make_event(kind))
        assert type(record) is EVENT_TYPES[kind]
        assert record.ts == 1.5

    def test_unknown_event_type_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="unknown event kind"):
            read_line(tmp_path, {"v": EVENT_SCHEMA_VERSION, "ts": 1.0,
                                 "event": "nope"})

    def test_missing_common_field_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="missing field.*ts"):
            read_line(tmp_path, make_event(ts=_DROP))

    def test_missing_required_field_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="outcome"):
            read_line(tmp_path, make_event("ingress", outcome=_DROP))

    @pytest.mark.parametrize("ts", [-1.0, True, "now", None])
    def test_bad_ts_rejected(self, ts, tmp_path):
        with pytest.raises(TraceFormatError, match="ts"):
            read_line(tmp_path, make_event(ts=ts))


class TestNewTraceId:
    def test_shape_and_uniqueness(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)


class TestRequestLog:
    def test_round_trip_through_reader(self, tmp_path):
        path = tmp_path / "req.jsonl"
        with EventWriter(path) as log:
            ingress(log, "t1")
            log.emit(stamp(Complete, trace_id="t1", key="k", status="done",
                           wall_s=0.25))
        events = list(read_events(str(path), ServeEvent))
        assert [e.event for e in events] == ["ingress", "complete"]
        for line in path.read_text().splitlines():
            assert json.loads(line)["v"] == EVENT_SCHEMA_VERSION
        assert log.events_written == 2

    def test_lines_are_compact_json(self, tmp_path):
        path = tmp_path / "req.jsonl"
        with EventWriter(path) as log:
            ingress(log, outcome="dedup")
        raw = path.read_text().strip()
        assert json.loads(raw)["outcome"] == "dedup"
        assert ": " not in raw and ", " not in raw

    def test_wrong_schema_version_rejected_by_reader(self, tmp_path):
        with pytest.raises(TraceFormatError, match="version"):
            read_line(tmp_path, make_event(v=EVENT_SCHEMA_VERSION + 1))

    def test_log_after_close_is_a_noop(self, tmp_path):
        log = EventWriter(tmp_path / "req.jsonl")
        ingress(log)
        log.close()
        ingress(log, "t2")
        assert log.events_written == 1

    def test_concurrent_writers_never_interleave_lines(self, tmp_path):
        path = tmp_path / "req.jsonl"
        with EventWriter(path) as log:
            def spam(worker):
                for i in range(50):
                    ingress(log, f"w{worker}-{i}")
            threads = [
                threading.Thread(target=spam, args=(w,)) for w in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        events = list(read_events(str(path), ServeEvent))
        assert len(events) == 200
        assert {e.trace_id for e in events} == {
            f"w{w}-{i}" for w in range(4) for i in range(50)
        }


class TestRingRotation:
    def test_disk_bounded_at_two_segments(self, tmp_path):
        path = tmp_path / "ring.jsonl"
        with EventWriter(path, ring_limit=3) as ring:
            for i in range(8):
                snapshot(ring, i)
        assert os.path.exists(ring.rotated_path)
        events = list(read_events(str(path)))
        # 8 writes, limit 3: rotations at 3 and 6; .old holds [3,6),
        # the live segment holds [6,8) — never more than 2*limit.
        assert [e.queue_depth for e in events] == [3, 4, 5, 6, 7]
        assert len(events) <= 2 * 3
        assert ring.events_written == 8

    def test_reader_without_rotation_sees_everything(self, tmp_path):
        path = tmp_path / "ring.jsonl"
        with EventWriter(path, ring_limit=100) as ring:
            for i in range(5):
                snapshot(ring, i)
        assert not os.path.exists(ring.rotated_path)
        assert len(list(read_events(str(path)))) == 5

    def test_non_positive_ring_limit_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="ring_limit"):
            EventWriter(tmp_path / "r.jsonl", ring_limit=0)


class TestNullRequestLog:
    def test_disabled_and_silent(self):
        null = NullSink()
        assert not null.enabled
        null.emit(stamp(Ingress, trace_id="t", key="k", outcome="accepted"))
        null.flush()
        null.close()
        assert null.events_written == 0
        assert NULL_SINK is not null  # singleton is its own object
        assert not NULL_SINK.enabled


class TestExactPercentile:
    def test_empty_is_none(self):
        assert exact_percentile([], 0.5) is None

    def test_single_sample_is_every_percentile(self):
        for q in (0.01, 0.5, 0.99, 1.0):
            assert exact_percentile([7.0], q) == 7.0

    def test_nearest_rank_on_known_set(self):
        samples = list(range(1, 101))  # 1..100
        assert exact_percentile(samples, 0.50) == 50
        assert exact_percentile(samples, 0.95) == 95
        assert exact_percentile(samples, 0.99) == 99
        assert exact_percentile(samples, 1.00) == 100

    def test_unsorted_input_is_sorted_internally(self):
        assert exact_percentile([30.0, 10.0, 20.0], 0.5) == 20.0

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.5])
    def test_out_of_range_quantile_rejected(self, q):
        with pytest.raises(ValueError, match="quantile"):
            exact_percentile([1.0], q)


class TestLatencyRecorder:
    def test_percentiles_in_milliseconds(self):
        recorder = LatencyRecorder()
        for wall in (0.010, 0.020, 0.100):
            recorder.record("e2e", wall)
        pcts = recorder.percentiles("e2e")
        assert pcts == {"p50": 20.0, "p95": 100.0, "p99": 100.0}
        assert set(pcts) == set(LATENCY_QUANTILES)

    def test_empty_phase_is_none_and_absent_from_snapshot(self):
        recorder = LatencyRecorder()
        recorder.record("e2e", 0.5)
        assert recorder.percentiles("simulate") is None
        assert set(recorder.snapshot()) == {"e2e"}

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="unknown latency phase"):
            LatencyRecorder().record("warp_drive", 1.0)

    def test_retention_is_bounded(self):
        recorder = LatencyRecorder(max_samples=4)
        for wall in (1.0, 1.0, 1.0, 1.0, 0.002, 0.002, 0.002, 0.002):
            recorder.record("e2e", wall)
        assert recorder.count("e2e") == 4
        # Only the most recent window survives: the old 1s outliers left.
        assert recorder.percentiles("e2e")["p99"] == 2.0

    def test_update_gauges_names_follow_the_contract(self):
        recorder = LatencyRecorder()
        recorder.record("queue_wait", 0.004)
        recorder.record("e2e", 0.016)
        metrics = MetricsRegistry()
        recorder.update_gauges(metrics)
        gauges = metrics.snapshot()["gauges"]
        assert set(gauges) == {
            f"serve.latency.{phase}.{q}_ms"
            for phase in ("queue_wait", "e2e")
            for q in LATENCY_QUANTILES
        }
        assert gauges["serve.latency.e2e.p50_ms"] == 16.0

    def test_every_contract_phase_is_recordable(self):
        recorder = LatencyRecorder()
        for phase in LATENCY_PHASES:
            recorder.record(phase, 0.001)
            assert recorder.count(phase) == 1


class TestServeTelemetry:
    def test_default_bundle_is_off_but_records_latency(self):
        telemetry = ServeTelemetry()
        assert not telemetry.enabled
        telemetry.record_phase("t1", "e2e", 0.05)
        assert telemetry.latency.count("e2e") == 1

    def test_record_phase_clamps_negative_walls(self, tmp_path):
        with ServeTelemetry(log=EventWriter(tmp_path / "r.jsonl")) as telemetry:
            assert telemetry.enabled
            telemetry.record_phase("t1", "e2e", -0.5)
        (event,) = read_events(str(tmp_path / "r.jsonl"))
        assert event.wall_s == 0.0

    def test_close_closes_log_and_ring(self, tmp_path):
        log = EventWriter(tmp_path / "log.jsonl")
        ring = EventWriter(tmp_path / "ring.jsonl", ring_limit=8)
        ServeTelemetry(log=log, ring=ring).close()
        ingress(log)
        assert log.events_written == 0

    def test_emit_with_logging_off_builds_no_record(self):
        # The null log must stay a no-op: bogus fields are never checked
        # because no record is constructed.
        ServeTelemetry().emit(Ingress, not_a_field=1)


class TestPrometheusExposition:
    def snapshot(self):
        metrics = MetricsRegistry()
        metrics.counter("serve.requests").inc(3)
        metrics.gauge("serve.queue_depth").set(2)
        hist = metrics.histogram("serve.latency_ms", log2_bucket)
        for value in (1, 3, 200):
            hist.record(value)
        return metrics.snapshot()

    def test_counters_gauges_and_histograms_render(self):
        text = render_prometheus(self.snapshot())
        assert "# TYPE serve_requests counter\nserve_requests 3" in text
        assert "# TYPE serve_queue_depth gauge\nserve_queue_depth 2" in text
        assert "# TYPE serve_latency_ms histogram" in text
        assert 'serve_latency_ms_bucket{le="+Inf"} 3' in text
        assert "serve_latency_ms_count 3" in text
        assert text.endswith("\n")

    def test_bucket_counts_are_cumulative(self):
        text = render_prometheus(self.snapshot())
        buckets = [
            line for line in text.splitlines()
            if line.startswith("serve_latency_ms_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == 3

    def test_names_are_sanitized(self):
        metrics = MetricsRegistry()
        metrics.counter("serve.latency.e2e.p99_ms").inc()
        text = render_prometheus(metrics.snapshot())
        assert "serve_latency_e2e_p99_ms 1" in text
        bad = [
            line.split(" ")[0] for line in text.splitlines()
            if not line.startswith("#")
        ]
        assert all("." not in name for name in bad)

    def test_empty_snapshot_renders_empty_document(self):
        assert render_prometheus({}) == "\n"


class TestContentNegotiation:
    @pytest.mark.parametrize("accept,expected", [
        (None, False),
        ("", False),
        ("application/json", False),
        ("*/*", False),
        ("text/plain", True),
        ("text/plain; version=0.0.4", True),
        ("application/json, text/plain", True),
    ])
    def test_wants_prometheus(self, accept, expected):
        assert wants_prometheus(accept) is expected
