"""End-to-end service telemetry: trace IDs from ingress to worker spans,
latency attribution, Prometheus negotiation, fractional Retry-After."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.executor import SimExecutor
from repro.obs.events import SERVE_EVENTS, EventWriter, ServeEvent
from repro.obs.events import read_events as read_records
from repro.obs.servereport import analyze_request_log
from repro.obs.telemetry import ServeTelemetry
from repro.serve.client import Backpressure, ServeClient
from repro.serve.http import PROMETHEUS_CONTENT_TYPE, make_server
from repro.serve.schema import parse_request
from repro.serve.service import ServeConfig, SimService

K_STEPS = 3


def body(bs=0.3, nbs=0.6, **overrides):
    payload = {
        "kind": "point",
        "kernel": {"rows": 1, "cols": 1, "k_steps": K_STEPS},
        "machine": {"preset": "save"},
        "point": [bs, nbs],
    }
    payload.update(overrides)
    return {key: value for key, value in payload.items() if value is not None}


def telemetry_service(tmp_path, *, ring=False, executor=None,
                      **config_overrides):
    defaults = dict(
        store_dir=tmp_path / "store", drain_timeout_s=30.0
    )
    defaults.update(config_overrides)
    log_path = tmp_path / "req.jsonl"
    telemetry = ServeTelemetry(
        log=EventWriter(log_path),
        ring=(
            EventWriter(tmp_path / "ring.jsonl", ring_limit=64)
            if ring
            else None
        ),
    )
    service = SimService(
        ServeConfig(**defaults), executor=executor, telemetry=telemetry
    )
    return service, log_path


def read_events(log_path):
    """The log's records as plain dicts (``event`` names the kind)."""
    return [
        {"event": record.event, **vars(record)}
        for record in read_records(str(log_path), ServeEvent)
    ]


class TestTraceIdPropagation:
    def test_worker_spans_carry_the_originating_trace_id(self, tmp_path):
        # jobs=2: simulation happens in pool worker *processes*, so the
        # sim spans crossing back with the right trace IDs is the proof
        # that request identity survives the process-pool boundary.
        executor = SimExecutor(jobs=2, persistent=True)
        service, log_path = telemetry_service(tmp_path, executor=executor)
        with service:
            request = parse_request(
                body(kind="sweep", point=None, levels=[0.2, 0.7])
            )
            job, outcome = service.submit(request, trace_id="cafe0123beef4567")
            assert outcome == "accepted"
            assert job.wait(30) and job.state == "done"
        events = read_events(log_path)
        sims = [e for e in events if e["event"] == "sim"]
        assert len(sims) == 4  # 2x2 sweep grid
        for span in sims:
            assert span["trace_ids"] == ["cafe0123beef4567"]
            assert span["wall_s"] >= 0
            assert span["engine"] == "exact"

    def test_dedup_joiners_appear_on_shared_sim_spans(self, tmp_path):
        service, log_path = telemetry_service(tmp_path)
        with service:
            service.pause()
            request = parse_request(body())
            _, first = service.submit(request, trace_id="aaaa000011112222")
            twin, second = service.submit(request, trace_id="bbbb000011112222")
            assert (first, second) == ("accepted", "dedup")
            service.resume()
            assert twin.wait(30)
        events = read_events(log_path)
        (span,) = [e for e in events if e["event"] == "sim"]
        assert span["trace_ids"] == ["aaaa000011112222", "bbbb000011112222"]
        outcomes = [e["outcome"] for e in events if e["event"] == "ingress"]
        assert sorted(outcomes) == ["accepted", "dedup"]

    def test_lifecycle_events_share_one_trace_id(self, tmp_path):
        service, log_path = telemetry_service(tmp_path)
        with service:
            job, _ = service.submit(parse_request(body()), trace_id="feed" * 4)
            assert job.wait(30)
        events = read_events(log_path)
        by_kind = {}
        for event in events:
            by_kind.setdefault(event["event"], []).append(event)
        assert by_kind["ingress"][0]["trace_id"] == "feed" * 4
        assert {e["trace_id"] for e in by_kind["phase"]} == {"feed" * 4}
        (done,) = by_kind["complete"]
        assert (done["trace_id"], done["status"]) == ("feed" * 4, "done")
        phases = {e["phase"] for e in by_kind["phase"]}
        assert phases == {"queue_wait", "batch_form", "simulate", "store_write"}


class TestLatencyAttribution:
    def test_phases_attribute_at_least_95_percent_of_wall_time(self, tmp_path):
        service, log_path = telemetry_service(tmp_path)
        with service:
            for i in range(6):
                request = body(bs=round(0.1 * i, 3))
                request["kernel"]["k_steps"] = 6
                job, _ = service.submit(parse_request(request))
                assert job.wait(30) and job.state == "done"
        analysis = analyze_request_log(str(log_path))
        assert analysis.submits == 6
        assert analysis.attributed_fraction is not None
        assert analysis.attributed_fraction >= 0.95
        verdict = analysis.bottleneck()
        assert verdict["shares"]  # a named phase carries the time

    def test_cached_requests_record_e2e_latency(self, tmp_path):
        service, log_path = telemetry_service(tmp_path)
        with service:
            job, _ = service.submit(parse_request(body()))
            assert job.wait(30)
            _, outcome = service.submit(parse_request(body()))
            assert outcome == "cached"
            assert service.telemetry.latency.count("e2e") == 2
        events = read_events(log_path)
        statuses = sorted(
            e["status"] for e in events if e["event"] == "complete"
        )
        assert statuses == ["cached", "done"]


class TestSamplerRing:
    def test_ring_snapshots_flow_and_validate(self, tmp_path):
        service, _ = telemetry_service(
            tmp_path, ring=True, telemetry_interval_s=0.05
        )
        with service:
            job, _ = service.submit(parse_request(body()))
            assert job.wait(30)
            time.sleep(0.2)
        events = read_events(tmp_path / "ring.jsonl")
        assert events  # the shutdown path guarantees a final sample
        assert {e["event"] for e in events} == {"snapshot"}
        final = events[-1]
        assert final["queue_depth"] == 0 and final["active"] == 0
        assert final["counters"].get("serve.requests") == 1
        gauges = service.metrics.snapshot()["gauges"]
        assert gauges.get("serve.oldest_request_age_s") == 0.0


class TestEveryServeRecordClass:
    def test_log_and_ring_carry_all_six_serve_classes(self, tmp_path):
        with LiveTelemetryServer(
            tmp_path, ring=True, telemetry_interval_s=0.05
        ) as live:
            ServeClient(live.base_url).run(body(), timeout=30)
        kinds = {
            type(record)
            for name in (live.log_path, tmp_path / "ring.jsonl")
            for record in read_records(str(name), ServeEvent)
        }
        assert kinds == set(SERVE_EVENTS)


class LiveTelemetryServer:
    """Service + HTTP server + request log on an ephemeral port."""

    def __init__(self, tmp_path, **config_overrides):
        self.service, self.log_path = telemetry_service(
            tmp_path, port=0, **config_overrides
        )
        self.server = None
        self.thread = None
        self.base_url = None

    def __enter__(self):
        self.service.start()
        self.server = make_server(self.service)
        host, port = self.server.server_address[:2]
        self.base_url = f"http://{host}:{port}"
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.service.close()

    def get(self, path, headers=None):
        request = urllib.request.Request(
            f"{self.base_url}{path}", headers=headers or {}
        )
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, dict(reply.headers), reply.read()


class TestHttpTelemetry:
    def test_trace_id_echoed_in_header_and_submit_body(self, tmp_path):
        with LiveTelemetryServer(tmp_path) as live:
            raw = json.dumps(body()).encode()
            request = urllib.request.Request(
                f"{live.base_url}/v1/submit", data=raw, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request, timeout=10) as reply:
                trace = reply.headers["X-Trace-Id"]
                payload = json.loads(reply.read())
            assert len(trace) == 16 and int(trace, 16) >= 0
            assert payload["trace"] == trace
            ServeClient(live.base_url).run(body(), timeout=30)
        events = read_events(live.log_path)
        ingress = [e for e in events if e["event"] == "ingress"]
        assert trace in [e["trace_id"] for e in ingress]

    def test_access_events_record_the_http_surface(self, tmp_path):
        with LiveTelemetryServer(tmp_path) as live:
            ServeClient(live.base_url).run(body(), timeout=30)
            live.get("/healthz")
        events = read_events(live.log_path)
        access = [e for e in events if e["event"] == "access"]
        assert {(e["method"], e["path"].split("/v1/")[0] or "/v1")
                for e in access}  # events exist with method+path
        submit_lines = [e for e in access if e["path"] == "/v1/submit"]
        assert submit_lines and submit_lines[0]["status"] in (200, 202)
        assert all(e["wall_s"] >= 0 for e in access)
        health_lines = [e for e in access if e["path"] == "/healthz"]
        assert health_lines and health_lines[0]["status"] == 200

    def test_metrics_negotiates_prometheus_and_keeps_json_default(
        self, tmp_path
    ):
        with LiveTelemetryServer(tmp_path) as live:
            ServeClient(live.base_url).run(body(), timeout=30)
            status, headers, raw = live.get("/metrics")
            assert status == 200
            assert headers["Content-Type"] == "application/json"
            snapshot = json.loads(raw)
            assert snapshot["counters"]["serve.requests"] >= 1
            gauges = snapshot["gauges"]
            assert "serve.latency.e2e.p50_ms" in gauges
            assert "serve.latency.simulate.p99_ms" in gauges

            status, headers, raw = live.get(
                "/metrics", headers={"Accept": "text/plain"}
            )
            assert status == 200
            assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            text = raw.decode()
            assert "# TYPE serve_requests counter" in text
            assert "serve_latency_e2e_p50_ms" in text
            # Valid exposition: every non-comment line is "name value".
            for line in text.strip().splitlines():
                if line.startswith("#"):
                    continue
                name, value = line.rsplit(" ", 1)
                float(value)
                assert name and " " not in name.split("{")[0]

    def test_fractional_retry_after_survives_the_wire(self, tmp_path):
        with LiveTelemetryServer(
            tmp_path, queue_limit=1, retry_after_s=0.25
        ) as live:
            live.service.pause()
            first = json.dumps(body(bs=0.1)).encode()
            second = json.dumps(body(bs=0.9)).encode()
            for raw in (first,):
                request = urllib.request.Request(
                    f"{live.base_url}/v1/submit", data=raw, method="POST",
                    headers={"Content-Type": "application/json"},
                )
                urllib.request.urlopen(request, timeout=10).close()
            request = urllib.request.Request(
                f"{live.base_url}/v1/submit", data=second, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            error = info.value
            assert error.code == 429
            assert error.headers["Retry-After"] == "0.25"
            assert json.loads(error.read())["retry_after_s"] == 0.25

            # The client surfaces the same fractional hint.
            with pytest.raises(Backpressure) as caught:
                ServeClient(live.base_url).submit(body(bs=0.5, nbs=0.9))
            assert caught.value.retry_after_s == 0.25
            live.service.resume()
