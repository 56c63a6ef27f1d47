"""Tests for offline trace analytics and ``repro trace-report``."""

import pytest

from repro.core import SAVE_2VPU, simulate
from repro.kernels.gemm import GemmKernelConfig, generate_gemm_trace
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.obs import EventWriter, Instrumentation, ListSink, MetricsRegistry
from repro.obs.events import (
    BcacheHit,
    BcacheMiss,
    Dispatch,
    Issue,
    Merge,
    Retire,
)
from repro.obs.analyze import (
    analyze_events,
    analyze_file,
    render_markdown,
    trace_report_main,
)


def _event(cycle, record_type, **fields):
    return record_type(cycle=cycle, kernel="k", mechanism="save", **fields)


def _issue(cycle, lanes):
    return _event(cycle, Issue, kind="lanes", lanes=lanes, uops=1, latency=4)


def _bcache(cycle, record_type, addr):
    return _event(cycle, record_type, addr=addr, zero=False, l1_access=True)


def _instrumented_run(bs=0.5, nbs=0.5):
    trace = generate_gemm_trace(
        GemmKernelConfig(
            name="analyze-test",
            tile=RegisterTile(4, 4, BroadcastPattern.EMBEDDED),
            k_steps=8,
            precision=Precision.FP32,
            broadcast_sparsity=bs,
            nonbroadcast_sparsity=nbs,
            seed=7,
        )
    )
    sink = ListSink()
    obs = Instrumentation(metrics=MetricsRegistry(), sink=sink)
    result = simulate(trace, SAVE_2VPU, keep_state=False, obs=obs)
    return result, sink, obs


class TestAnalyzeSynthetic:
    def test_counts_and_windows(self):
        events = [
            _event(0, Dispatch, seq=0, kind="vfma"),
            _issue(1, 4),
            _issue(5, 8),
            _event(9, Retire, seq=0),
        ]
        analysis = analyze_events(events, window=5)
        assert analysis.cycles == 10
        assert analysis.runs == 1
        assert analysis.event_counts["issue"] == 2
        assert analysis.mean_coalescing_width == pytest.approx(6.0)
        assert len(analysis.windows) == 2
        first, second = analysis.windows
        assert first.dispatches == 1 and first.issue_ops == 1
        assert first.inflight_end == 1
        assert second.issue_ops == 1
        assert second.retires == 1 and second.inflight_end == 0

    def test_busy_fraction(self):
        events = [
            _issue(0, 1),
            _issue(0, 1),
            _issue(3, 1),
        ]
        analysis = analyze_events(events, window=4)
        # Two distinct busy cycles out of four simulated.
        assert analysis.busy_cycles == 2
        assert analysis.busy_fraction == pytest.approx(0.5)

    def test_multi_run_concatenation(self):
        # The cycle counter restarting signals a new back-to-back run.
        events = [
            _event(0, Dispatch, seq=0, kind="vfma"),
            _event(9, Retire, seq=0),
            _event(0, Dispatch, seq=0, kind="vfma"),
            _event(4, Retire, seq=0),
        ]
        analysis = analyze_events(events, window=100)
        assert analysis.runs == 2
        assert analysis.cycles == 15  # 10 + 5 concatenated
        assert analysis.windows[0].dispatches == 2

    def test_bcache_rates(self):
        events = [
            _bcache(0, BcacheHit, 64),
            _bcache(1, BcacheHit, 64),
            _bcache(2, BcacheMiss, 128),
        ]
        analysis = analyze_events(events)
        assert analysis.bcache_hit_rate == pytest.approx(2 / 3)

    def test_empty_stream(self):
        analysis = analyze_events([])
        assert analysis.cycles == 0
        assert analysis.windows == []
        assert analysis.bcache_hit_rate is None
        assert analysis.mean_coalescing_width == 0.0

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            analyze_events([], window=0)

    def test_rotation_and_merge_distributions(self):
        events = [
            _event(
                0,
                Merge,
                scheme="rotate_vertical",
                entries=[
                    {"seq": 1, "lane": 0, "slot": 0, "rstate": "A"},
                    {"seq": 2, "lane": 1, "slot": 1, "rstate": "B"},
                ],
            )
        ]
        analysis = analyze_events(events)
        assert analysis.merge_widths == {2: 1}
        assert analysis.rotation_states == {"A": 1, "B": 1}
        assert analysis.schemes == {"rotate_vertical": 1}


class TestCrossCheckAgainstMetrics:
    """The offline analysis must agree with the online registry."""

    @pytest.fixture(scope="class")
    def run(self):
        result, sink, obs = _instrumented_run()
        return result, sink, obs.snapshot(), analyze_events(sink.events)

    def test_bcache_hit_rate_matches_counters(self, run):
        result, _, snapshot, analysis = run
        hits = snapshot["counters"]["bcache_hits"]
        misses = snapshot["counters"]["bcache_misses"]
        assert analysis.bcache_hits == hits
        assert analysis.bcache_misses == misses
        assert analysis.bcache_hit_rate == pytest.approx(hits / (hits + misses))
        # And with the SimResult's own rate.
        assert analysis.bcache_hit_rate == pytest.approx(result.b_cache_hit_rate)

    def test_mean_coalescing_width_matches_histogram(self, run):
        _, _, snapshot, analysis = run
        hist = snapshot["histograms"]["lanes_per_op"]
        assert analysis.issue_ops == hist["count"]
        assert analysis.mean_coalescing_width == pytest.approx(
            hist["total"] / hist["count"]
        )

    def test_lwd_and_skip_counters_match(self, run):
        _, _, snapshot, analysis = run
        counters = snapshot["counters"]
        assert analysis.event_counts.get("lwd_stall", 0) == counters.get(
            "lwd_stalls", 0
        )
        assert analysis.event_counts.get("bs_skip", 0) == counters.get("bs_skips", 0)

    def test_total_cycles_match(self, run):
        result, _, _, analysis = run
        assert analysis.cycles == result.cycles

    def test_bottleneck_signals_bounded(self, run):
        _, _, _, analysis = run
        bottleneck = analysis.bottleneck()
        assert bottleneck["verdict"]
        for value in bottleneck["signals"].values():
            assert 0.0 <= value <= 1.0


class TestMarkdownReport:
    def test_report_sections(self):
        _, sink, _ = _instrumented_run()
        report = render_markdown(analyze_events(sink.events), source="x.jsonl")
        assert report.startswith("# Trace report")
        for heading in (
            "## Summary",
            "## Bottleneck attribution",
            "## Coalescing width",
            "## Timeline",
        ):
            assert heading in report
        assert "B$ hit rate" in report
        assert "x.jsonl" in report

    def test_truncated_trace_note(self):
        events = [_event(0, Dispatch, seq=0, kind="vfma")]
        report = render_markdown(analyze_events(events))
        assert "truncated" in report


class TestTraceReportCli:
    def _write_trace(self, path):
        sink = EventWriter(path)
        obs = Instrumentation(metrics=MetricsRegistry(), sink=sink)
        trace = generate_gemm_trace(
            GemmKernelConfig(
                name="cli-test",
                tile=RegisterTile(2, 2, BroadcastPattern.EXPLICIT),
                k_steps=4,
                broadcast_sparsity=0.5,
                nonbroadcast_sparsity=0.5,
                seed=1,
            )
        )
        simulate(trace, SAVE_2VPU, keep_state=False, obs=obs)
        sink.close()

    def test_report_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_trace(str(path))
        assert trace_report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Trace report" in out
        assert "Bottleneck" in out

    def test_report_to_file(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        out_file = tmp_path / "report.md"
        self._write_trace(str(trace))
        assert trace_report_main([str(trace), "--out", str(out_file)]) == 0
        assert "# Trace report" in out_file.read_text()

    def test_missing_file_is_clear_error(self, tmp_path, capsys):
        assert trace_report_main([str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_garbage_file_is_clear_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"v": 3, "event": "retire", "cycle": 0, "kernel": "k", '
            '"mechanism": "save", "seq": 0}\n'
            "not json at all\n"
        )
        assert trace_report_main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "bad.jsonl:2" in err

    @pytest.mark.parametrize(
        "bad_line,reason",
        [
            ('{"v": 3, "event": "retier", "cycle": 1, "kernel": "k", '
             '"mechanism": "save", "seq": 0}', "unknown event kind 'retier'"),
            ('{"v": 3, "event": "issue", "cycle": 1, "kernel": "k", '
             '"mechanism": "save", "kind": "whole", "uops": 1, "latency": 4}',
             "'issue' record is missing field(s) lanes"),
            ('{"event": "retire", "cycle": 1, "kernel": "k", '
             '"mechanism": "save", "seq": 0}',
             "missing schema version stamp 'v'"),
        ],
        ids=["unknown-kind", "issue-without-lanes", "unstamped"],
    )
    def test_malformed_trace_is_refused(self, tmp_path, capsys, bad_line, reason):
        path = tmp_path / "bad.jsonl"
        good = (
            '{"v": 3, "event": "retire", "cycle": 0, "kernel": "k", '
            '"mechanism": "save", "seq": 0}'
        )
        path.write_text(good + "\n" + bad_line + "\n")
        assert trace_report_main([str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:2: {reason}\n"

    def test_request_log_is_not_a_trace(self, tmp_path, capsys):
        path = tmp_path / "req.jsonl"
        path.write_text(
            '{"v": 3, "event": "ingress", "ts": 1.0, "trace_id": "t", '
            '"key": "k", "outcome": "accepted"}\n'
        )
        assert trace_report_main([str(path)]) == 2
        assert "req.jsonl:1: 'ingress' is not a SimEvent record" in (
            capsys.readouterr().err
        )

    def test_analyze_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_trace(str(path))
        analysis = analyze_file(str(path))
        assert analysis.cycles > 0
        assert analysis.kernels == ["cli-test"]

    def test_chrome_trace_export(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.jsonl"
        chrome = tmp_path / "chrome.json"
        self._write_trace(str(trace))
        assert trace_report_main(
            [str(trace), "--out", str(tmp_path / "r.md"), "--chrome-trace", str(chrome)]
        ) == 0
        document = json.loads(chrome.read_text())
        assert document["traceEvents"]

    def test_chrome_trace_read_back_error_is_exit_2(self, tmp_path, capsys):
        # With --chrome-trace the one parse that feeds both outputs
        # refuses the malformed file before anything is written.
        trace = tmp_path / "t.jsonl"
        trace.write_text('{"event": "retire"}\n')
        assert trace_report_main(
            [str(trace), "--out", str(tmp_path / "r.md"),
             "--chrome-trace", str(tmp_path / "c.json")]
        ) == 2
        err = capsys.readouterr().err
        assert err == f"error: {trace}:1: missing schema version stamp 'v'\n"
        assert not (tmp_path / "c.json").exists()

    def test_chrome_export_parses_the_trace_once(self, tmp_path, monkeypatch):
        import io
        import json

        import repro.obs.analyze as analyze_mod
        from repro.obs.chrometrace import chrome_trace

        trace = tmp_path / "t.jsonl"
        chrome = tmp_path / "c.json"
        self._write_trace(str(trace))
        calls = []
        real = analyze_mod.read_events

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(analyze_mod, "read_events", counting)
        assert trace_report_main(
            [str(trace), "--out", str(tmp_path / "r.md"), "--chrome-trace", str(chrome)]
        ) == 0
        assert len(calls) == 1
        # Byte-identical to the streaming encoder (json.dump) it replaced.
        reference = io.StringIO()
        json.dump(chrome_trace(events=real(str(trace))), reference, separators=(",", ":"))
        assert chrome.read_text() == reference.getvalue()
