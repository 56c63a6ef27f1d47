"""Structural tests for the Chrome trace-event export."""

import json

from repro.core import SAVE_2VPU, simulate
from repro.kernels.gemm import GemmKernelConfig, generate_gemm_trace
from repro.kernels.tiling import BroadcastPattern, RegisterTile
from repro.obs import Instrumentation, ListSink, MetricsRegistry, SpanRecorder
from repro.obs.events import SIM_EVENTS, Dispatch, Retire
from repro.obs.chrometrace import (
    HOST_PID,
    SIM_PID,
    SIM_TID_BCACHE,
    SIM_TID_PIPELINE,
    chrome_trace,
    sim_trace_events,
    span_trace_events,
    write_chrome_trace,
)


def _recorded_spans():
    rec = SpanRecorder()
    with rec.span("simulate", points=2):
        with rec.span("surface.build"):
            pass
        with rec.span("merge"):
            pass
    with rec.span("report"):
        pass
    return rec.records


def _sim_events():
    trace = generate_gemm_trace(
        GemmKernelConfig(
            name="ct-test",
            tile=RegisterTile(4, 4, BroadcastPattern.EMBEDDED),
            k_steps=6,
            broadcast_sparsity=0.3,
            nonbroadcast_sparsity=0.6,
            seed=3,
        )
    )
    sink = ListSink()
    obs = Instrumentation(metrics=MetricsRegistry(), sink=sink)
    simulate(trace, SAVE_2VPU, keep_state=False, obs=obs)
    return sink.events


class TestSpanEvents:
    def test_complete_events_shape(self):
        events = span_trace_events(_recorded_spans())
        assert len(events) == 4
        for event in events:
            assert event["ph"] == "X"
            assert event["pid"] == HOST_PID
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_slices_nested_not_overlapping_per_track(self):
        # The viewer requires "X" slices on one track to be either
        # disjoint or fully nested.  Spans come off a stack, so that
        # must hold for every pair.
        events = span_trace_events(_recorded_spans())
        by_track = {}
        for event in events:
            by_track.setdefault((event["pid"], event["tid"]), []).append(event)
        for slices in by_track.values():
            for i, a in enumerate(slices):
                for b in slices[i + 1 :]:
                    a0, a1 = a["ts"], a["ts"] + a["dur"]
                    b0, b1 = b["ts"], b["ts"] + b["dur"]
                    disjoint = a1 <= b0 or b1 <= a0
                    nested = (a0 <= b0 and b1 <= a1) or (b0 <= a0 and a1 <= b1)
                    assert disjoint or nested, (a["name"], b["name"])

    def test_attrs_become_args(self):
        events = span_trace_events(_recorded_spans())
        assert events[0]["args"] == {"points": 2}


class TestSimEvents:
    def test_instants_and_counters(self):
        events = sim_trace_events(_sim_events())
        phases = {event["ph"] for event in events}
        assert phases == {"i", "C"}
        for event in events:
            assert event["pid"] == SIM_PID
            assert event["ts"] >= 0

    def test_timestamps_nondecreasing(self):
        events = sim_trace_events(_sim_events())
        stamps = [event["ts"] for event in events]
        assert stamps == sorted(stamps)

    def test_multi_run_offset(self):
        raw = [
            Retire(cycle=5, kernel="k", mechanism="save", seq=0),
            Dispatch(cycle=0, kernel="k", mechanism="save", seq=0, kind="v"),
        ]
        events = [e for e in sim_trace_events(raw) if e["ph"] == "i"]
        assert events[0]["ts"] == 5.0
        assert events[1]["ts"] == 6.0  # run 2 starts after run 1's last cycle

    def test_every_simulator_class_gets_a_track(self):
        from tests.obs.test_events import SAMPLES

        records = [r for r in SAMPLES if isinstance(r, SIM_EVENTS)]
        instants = [e for e in sim_trace_events(records) if e["ph"] == "i"]
        assert [e["name"] for e in instants] == [c.event for c in SIM_EVENTS]
        tids = {e["tid"] for e in instants}
        assert tids <= set(range(SIM_TID_PIPELINE, SIM_TID_BCACHE + 1))
        # Record fields other than the cycle/kernel stamp become args.
        assert instants[0]["args"] == {"mechanism": "save", "seq": 1, "kind": "vfma"}

    def test_inflight_counter_returns_to_zero(self):
        counters = [
            event
            for event in sim_trace_events(_sim_events())
            if event["ph"] == "C" and event["name"] == "inflight_uops"
        ]
        assert counters
        assert counters[-1]["args"]["uops"] == 0


class TestDocument:
    def test_document_is_json_serialisable(self):
        document = chrome_trace(spans=_recorded_spans(), events=_sim_events())
        text = json.dumps(document)
        round_tripped = json.loads(text)
        assert round_tripped["traceEvents"]

    def test_metadata_tracks_present(self):
        document = chrome_trace(spans=_recorded_spans(), events=_sim_events())
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "host (repro pipeline)" in names
        assert "simulator (1 cycle = 1us)" in names

    def test_empty_inputs(self):
        document = chrome_trace()
        assert document["traceEvents"] == []

    def test_write_chrome_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        written = write_chrome_trace(
            str(path), spans=_recorded_spans(), events=_sim_events()
        )
        assert written == str(path)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in document["traceEvents"])
        assert any(e["ph"] == "i" for e in document["traceEvents"])
