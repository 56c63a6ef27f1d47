"""Tests for trace sinks, the simulator records, and instrumented runs."""

import json

import pytest

from repro.core import SAVE_2VPU, simulate
from repro.kernels.gemm import GemmKernelConfig, generate_gemm_trace
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.obs import (
    EventWriter,
    Instrumentation,
    ListSink,
    MetricsRegistry,
    NULL_SINK,
    NullSink,
    SimEvent,
    TraceFormatError,
    read_events,
)
from repro.obs.events import EVENT_SCHEMA_VERSION, SIM_EVENTS, Elm, Retire


def _read_line(tmp_path, **record):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps(record) + "\n")
    return list(read_events(str(path), SimEvent))


class TestSchema:
    """The simulator records are the trace schema; the reader enforces it."""

    def test_valid_event_passes(self, tmp_path):
        (record,) = _read_line(
            tmp_path, v=EVENT_SCHEMA_VERSION, event="retire", cycle=3,
            kernel="k", mechanism="save", seq=7,
        )
        assert record == Retire(cycle=3, kernel="k", mechanism="save", seq=7)

    def test_missing_common_field(self, tmp_path):
        with pytest.raises(TraceFormatError, match="kernel"):
            _read_line(tmp_path, v=EVENT_SCHEMA_VERSION, event="retire",
                       cycle=3, mechanism="save", seq=7)
        with pytest.raises(TypeError, match="kernel"):
            Retire(cycle=3, mechanism="save", seq=7)

    def test_unknown_event_type(self, tmp_path):
        with pytest.raises(TraceFormatError, match="unknown event kind"):
            _read_line(tmp_path, v=EVENT_SCHEMA_VERSION, event="teleport",
                       cycle=0, kernel="k", mechanism="save")

    def test_missing_required_field(self, tmp_path):
        with pytest.raises(TraceFormatError, match="elm"):
            _read_line(tmp_path, v=EVENT_SCHEMA_VERSION, event="elm",
                       cycle=0, kernel="k", mechanism="save", seq=1)
        with pytest.raises(TypeError, match="elm"):
            Elm(cycle=0, kernel="k", mechanism="save", seq=1)

    def test_negative_cycle(self, tmp_path):
        with pytest.raises(TraceFormatError, match="cycle"):
            _read_line(tmp_path, v=EVENT_SCHEMA_VERSION, event="retire",
                       cycle=-1, kernel="k", mechanism="save", seq=0)


class TestSinks:
    def test_null_sink_discards(self):
        NULL_SINK.emit(Retire(cycle=0, kernel="k", mechanism="save", seq=0))
        assert not NULL_SINK.enabled

    def test_list_sink_buffers_and_filters(self):
        sink = ListSink()
        sink.emit(Retire(cycle=0, kernel="k", mechanism="save", seq=1))
        sink.emit(Elm(cycle=0, kernel="k", mechanism="save", seq=2, elm=3))
        assert len(sink.events) == 2
        assert [e.seq for e in sink.of_type(Elm)] == [2]

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record = Retire(cycle=1, kernel="k", mechanism="save", seq=0)
        with EventWriter(path) as sink:
            sink.emit(record)
        assert json.loads(path.read_text())["v"] == EVENT_SCHEMA_VERSION
        assert list(read_events(str(path))) == [record]
        assert sink.events_written == 1


class TestInstrumentation:
    def test_defaults(self):
        obs = Instrumentation()
        assert isinstance(obs.sink, NullSink)
        assert not obs.tracing

    def test_emit_stamps_common_fields(self):
        sink = ListSink()
        obs = Instrumentation(sink=sink, kernel="k1")
        obs.emit(Retire, 5, seq=9)
        assert sink.events == [
            Retire(cycle=5, kernel="k1", mechanism="save", seq=9)
        ]

    def test_emit_stamps_mechanism(self):
        sink = ListSink()
        obs = Instrumentation(sink=sink, kernel="k1", mechanism="sparce")
        obs.emit(Retire, 0, seq=0)
        assert sink.events[0].mechanism == "sparce"


def _simulate(obs=None, bs=0.3, nbs=0.6):
    trace = generate_gemm_trace(
        GemmKernelConfig(
            name="obs-test",
            tile=RegisterTile(4, 4, BroadcastPattern.EMBEDDED),
            k_steps=6,
            precision=Precision.MIXED,
            broadcast_sparsity=bs,
            nonbroadcast_sparsity=nbs,
            seed=3,
        )
    )
    return simulate(trace, SAVE_2VPU, keep_state=False, obs=obs)


class TestInstrumentedSimulation:
    @pytest.fixture(scope="class")
    def traced(self):
        sink = ListSink()
        obs = Instrumentation(metrics=MetricsRegistry(), sink=sink)
        result = _simulate(obs)
        return result, sink, obs

    def test_every_event_schema_valid(self, traced, tmp_path):
        # Written and read back, every record survives the strict reader.
        _, sink, _ = traced
        path = tmp_path / "t.jsonl"
        with EventWriter(path) as writer:
            for event in sink.events:
                writer.emit(event)
        assert list(read_events(str(path), SimEvent)) == sink.events

    def test_save_specific_events_present(self, traced):
        _, sink, _ = traced
        kinds = {e.event for e in sink.events}
        assert {"dispatch", "elm", "issue", "merge", "retire"} <= kinds
        assert "bs_skip" in kinds
        assert "bcache_hit" in kinds or "bcache_miss" in kinds

    def test_only_known_event_types(self, traced):
        _, sink, _ = traced
        assert {type(e) for e in sink.events} <= set(SIM_EVENTS)

    def test_result_carries_metrics(self, traced):
        result, _, _ = traced
        assert result.metrics is not None
        assert result.metrics["counters"]["sim_runs"] == 1
        assert result.metrics["histograms"]["cw_occupancy"]["count"] > 0

    def test_instrumentation_does_not_change_timing(self, traced):
        result, _, _ = traced
        bare = _simulate()
        assert bare.cycles == result.cycles
        assert bare.metrics is None


class TestReadJsonlErrors:
    """read_events must fail with one clear sentence, not a stack trace."""

    def _line(self, **extra):
        event = {
            "v": EVENT_SCHEMA_VERSION, "cycle": 0, "event": "retire",
            "kernel": "k", "mechanism": "save", "seq": 0,
        }
        event.update(extra)
        return json.dumps(event)

    def test_garbage_line_reports_position(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self._line() + "\n{not json\n")
        with pytest.raises(TraceFormatError) as excinfo:
            list(read_events(str(path)))
        assert excinfo.value.line_no == 2
        assert "not valid JSON" in excinfo.value.reason
        assert str(path) in str(excinfo.value)

    def test_truncated_last_line(self, tmp_path):
        # A killed writer leaves a final line without its newline.
        path = tmp_path / "t.jsonl"
        path.write_text(self._line() + "\n" + self._line()[: 20])
        with pytest.raises(TraceFormatError, match="truncated"):
            list(read_events(str(path)))

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self._line(v=999) + "\n")
        with pytest.raises(TraceFormatError, match="schema version"):
            list(read_events(str(path)))

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(TraceFormatError, match="JSON object"):
            list(read_events(str(path)))

    def test_error_is_a_value_error(self, tmp_path):
        # Callers that predate TraceFormatError catch ValueError.
        path = tmp_path / "t.jsonl"
        path.write_text("nope\n")
        with pytest.raises(ValueError):
            list(read_events(str(path)))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self._line() + "\n\n" + self._line() + "\n")
        assert len(list(read_events(str(path)))) == 2


class TestJsonlSinkLifecycle:
    def test_context_manager_closes_on_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with pytest.raises(RuntimeError):
            with EventWriter(path) as sink:
                sink.emit(Retire(cycle=0, kernel="k", mechanism="save", seq=0))
                raise RuntimeError("boom")
        assert sink._file.closed
        # The event written before the failure is intact and readable.
        assert len(list(read_events(str(path)))) == 1

    def test_close_is_idempotent(self, tmp_path):
        sink = EventWriter(tmp_path / "t.jsonl")
        sink.close()
        sink.close()
