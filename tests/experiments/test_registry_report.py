"""Tests for the experiment registry, report formatting and CLI."""

import pytest

from repro.cli import main
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.experiments.report import ExperimentReport


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        expected = {
            "table1", "table2", "table3",
            "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
            "ablations", "energy", "validation", "scaling", "rivals",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="available"):
            run_experiment("fig99")

    def test_run_experiment_dispatches(self):
        report = run_experiment("table1")
        assert report.experiment == "table1"


class TestReport:
    def report(self):
        return ExperimentReport(
            experiment="figX",
            title="demo",
            headers=("a", "bb"),
            rows=[(1, 2.345), ("x", "y")],
            notes=["hello"],
        )

    def test_render_contains_everything(self):
        text = self.report().render()
        assert "figX" in text and "demo" in text
        assert "2.35" in text  # float formatting
        assert "note: hello" in text

    def test_render_aligns_columns(self):
        lines = self.report().render().splitlines()
        header, rule = lines[1], lines[2]
        assert len(header) == len(rule)

    def test_show_prints(self, capsys):
        self.report().show()
        assert "figX" in capsys.readouterr().out

    def test_empty_rows_ok(self):
        report = ExperimentReport("t", "empty", ("h",), [])
        assert "empty" in report.render()


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig15" in out and "table2" in out

    def test_run_table(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "2260B" in out

    def test_unknown_exits_2(self, capsys):
        assert main(["nope"]) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0


class TestRunContextApi:
    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            run_experiment("table1", bogus=1)

    def test_typo_rejected_not_swallowed(self):
        # The old **_kwargs signatures silently ignored misspellings.
        with pytest.raises(TypeError, match="valid options"):
            run_experiment("fig15", kstep=4)

    def test_context_overrides(self):
        from repro.experiments.registry import RunContext

        ctx = RunContext(k_steps=4)
        report = run_experiment("fig15", ctx, levels=(0.0, 0.9))
        assert report.experiment == "fig15"

    def test_context_frozen(self):
        from repro.experiments.registry import RunContext

        ctx = RunContext()
        with pytest.raises(Exception):
            ctx.k_steps = 3

    def test_with_options(self):
        from repro.experiments.registry import RunContext

        ctx = RunContext(k_steps=4)
        derived = ctx.with_options(full_grid=True)
        assert derived.full_grid and derived.k_steps == 4
        assert not ctx.full_grid

    def test_resolve_k_steps(self):
        from repro.experiments.registry import RunContext

        assert RunContext().resolve_k_steps(24) == 24
        assert RunContext(k_steps=4).resolve_k_steps(24) == 4


class TestCliWarnings:
    def test_panel_warns_on_non_fig14(self, capsys):
        assert main(["table1", "--panel", "b"]) == 0
        assert "--panel only applies to fig14" in capsys.readouterr().err

    def test_chart_warns_on_unsupported(self, capsys):
        assert main(["table1", "--chart"]) == 0
        assert "--chart only applies to" in capsys.readouterr().err

    def test_no_warning_without_flags(self, capsys):
        assert main(["table1"]) == 0
        assert "warning" not in capsys.readouterr().err


class TestCliAll:
    def test_all_continues_past_failures(self, capsys, monkeypatch):
        import repro.cli as cli_mod
        import repro.experiments.registry as registry_mod
        from repro.experiments.report import ExperimentReport

        calls = []

        def fake_run(name, ctx=None, **options):
            calls.append(name)
            if name == "bad":
                raise RuntimeError("boom")
            return ExperimentReport(name, name, ("h",), [])

        fake_experiments = {"bad": None, "good": None, "worse": None}
        monkeypatch.setattr(registry_mod, "EXPERIMENTS", fake_experiments)
        monkeypatch.setattr(cli_mod, "EXPERIMENTS", fake_experiments)
        monkeypatch.setattr(cli_mod, "run_experiment", fake_run)
        assert main(["all"]) == 1
        err = capsys.readouterr().err
        assert calls == ["bad", "good", "worse"]  # kept going past 'bad'
        assert "bad FAILED" in err and "1 experiment(s) failed" in err

    def test_single_failure_propagates(self, monkeypatch):
        import repro.cli as cli_mod

        def fake_run(name, ctx=None, **options):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "EXPERIMENTS", {"solo": None})
        monkeypatch.setattr(cli_mod, "run_experiment", fake_run)
        with pytest.raises(RuntimeError):
            main(["solo"])


class TestCliObservability:
    def test_metrics_flag_prints_summary(self, capsys):
        assert main(["fig15", "--k-steps", "4", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "sim_runs" in out

    def test_trace_writes_schema_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import SimEvent, read_events

        path = tmp_path / "trace.jsonl"
        assert main(["fig15", "--k-steps", "4", "--trace", str(path)]) == 0
        events = list(read_events(str(path), SimEvent))
        assert events
        kinds = {event.event for event in events}
        assert "bs_skip" in kinds
        assert "merge" in kinds
        assert "bcache_hit" in kinds or "bcache_miss" in kinds


class TestCliProfiling:
    def test_profile_prints_phase_table(self, capsys):
        assert main(["fig15", "--k-steps", "4", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "== phases ==" in out
        assert "simulate" in out
        assert "report" in out

    def test_no_profile_no_phase_table(self, capsys):
        assert main(["fig15", "--k-steps", "4"]) == 0
        assert "== phases ==" not in capsys.readouterr().out

    def test_chrome_trace_with_events(self, tmp_path, capsys):
        import json

        trace = tmp_path / "t.jsonl"
        chrome = tmp_path / "c.json"
        assert main(
            [
                "fig15", "--k-steps", "4",
                "--trace", str(trace),
                "--chrome-trace", str(chrome),
            ]
        ) == 0
        document = json.loads(chrome.read_text())
        phases = {event["ph"] for event in document["traceEvents"]}
        # Host spans, simulator instants, counters and track metadata.
        assert {"X", "i", "C", "M"} <= phases

    def test_chrome_trace_read_back_error_is_exit_2(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.obs
        from repro.obs import TraceFormatError

        trace = tmp_path / "t.jsonl"

        def refuse(path, expect=object):
            raise TraceFormatError(str(path), 3, "unknown event kind 'retier'")

        monkeypatch.setattr(repro.obs, "read_events", refuse)
        assert main(
            [
                "fig19", "--k-steps", "4",
                "--trace", str(trace),
                "--chrome-trace", str(tmp_path / "c.json"),
            ]
        ) == 2
        err = capsys.readouterr().err
        assert err == f"error: {trace}:3: unknown event kind 'retier'\n"


class TestCliSubcommands:
    def test_trace_report_dispatch(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["fig15", "--k-steps", "4", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "# Trace report" in out
        assert "B$ hit rate" in out

    def test_trace_report_missing_file(self, tmp_path, capsys):
        assert main(["trace-report", str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bench_dispatch(self, tmp_path, capsys, monkeypatch):
        # Route the ledger into tmp and fake the suite: this tests the
        # dispatch seam, not the benchmark itself (see tests/obs/test_bench).
        from repro.obs import bench

        def fake_run_suite(quick=False, repeats=2, echo=None):
            return {
                "schema": bench.BENCH_SCHEMA_VERSION,
                "created_unix": 0.0,
                "quick": quick,
                "repeats": repeats,
                "python": "3",
                "platform": "t",
                "version": "0",
                "workloads": {
                    "w": {
                        "wall_s": 0.1,
                        "jobs": 1,
                        "points": 1,
                        "sim_cycles": 10,
                        "cycles_per_sec": 100.0,
                        "counters": {},
                    }
                },
            }

        monkeypatch.setattr(bench, "run_suite", fake_run_suite)
        assert main(["bench", "--quick", "--ledger", str(tmp_path)]) == 0
        assert "baseline recorded" in capsys.readouterr().out
        assert (tmp_path / "BENCH_0001.json").exists()

    def test_subcommand_help_is_its_own(self, capsys):
        # The subcommand's own parser handles its flags: --help names
        # the subcommand, not the experiment runner.
        with pytest.raises(SystemExit) as excinfo:
            main(["trace-report", "--help"])
        assert excinfo.value.code == 0
        assert "trace-report" in capsys.readouterr().out
