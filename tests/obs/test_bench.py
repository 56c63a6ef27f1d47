"""Tests for the performance ledger and ``repro bench``."""

import json

import pytest

from repro.obs import bench
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    bench_main,
    compare_entries,
    ledger_paths,
    next_seq,
    validate_entry,
    write_entry,
)


def _entry(wall=0.5, cycles=1000, quick=True, **overrides):
    entry = {
        "schema": BENCH_SCHEMA_VERSION,
        "created_unix": 1700000000.0,
        "quick": quick,
        "repeats": 2,
        "python": "3.12.0",
        "platform": "test",
        "version": "0.0",
        "workloads": {
            "single_save_point": {
                "wall_s": wall,
                "jobs": 1,
                "points": 1,
                "sim_cycles": cycles,
                "cycles_per_sec": cycles / wall,
                "counters": {"sim_cycles": cycles},
            }
        },
    }
    entry.update(overrides)
    return entry


class TestValidate:
    def test_valid_entry_passes(self):
        validate_entry(dict(_entry(), seq=1))

    def test_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            validate_entry(dict(_entry(), seq=1, schema=99))

    def test_missing_seq(self):
        with pytest.raises(ValueError, match="seq"):
            validate_entry(_entry())

    def test_empty_workloads(self):
        with pytest.raises(ValueError, match="workloads"):
            validate_entry(dict(_entry(), seq=1, workloads={}))

    def test_nonpositive_wall(self):
        bad = _entry(wall=0.5)
        bad["workloads"]["single_save_point"]["wall_s"] = 0
        with pytest.raises(ValueError, match="wall_s"):
            validate_entry(dict(bad, seq=1))

    def test_missing_workload_field(self):
        bad = _entry()
        del bad["workloads"]["single_save_point"]["counters"]
        with pytest.raises(ValueError, match="counters"):
            validate_entry(dict(bad, seq=1))


class TestLedgerFiles:
    def test_empty_directory(self, tmp_path):
        assert ledger_paths(tmp_path) == []
        assert ledger_paths(tmp_path / "absent") == []
        assert next_seq(tmp_path) == 1

    def test_write_assigns_sequence(self, tmp_path):
        first = write_entry(tmp_path, _entry())
        second = write_entry(tmp_path, _entry())
        assert first.name == "BENCH_0001.json"
        assert second.name == "BENCH_0002.json"
        assert json.loads(second.read_text())["seq"] == 2
        assert [seq for seq, _ in ledger_paths(tmp_path)] == [1, 2]

    def test_write_with_pinned_seq(self, tmp_path):
        path = write_entry(tmp_path, _entry(), seq=6)
        assert path.name == "BENCH_0006.json"
        assert json.loads(path.read_text())["seq"] == 6
        # The next unpinned write continues after the pinned entry.
        assert write_entry(tmp_path, _entry()).name == "BENCH_0007.json"

    def test_pinned_seq_refuses_overwrite(self, tmp_path):
        write_entry(tmp_path, _entry(), seq=3)
        with pytest.raises(ValueError, match="already exists"):
            write_entry(tmp_path, _entry(), seq=3)

    def test_non_entry_files_ignored(self, tmp_path):
        (tmp_path / "notes.txt").write_text("x")
        (tmp_path / "BENCH_12.json").write_text("{}")  # too few digits
        write_entry(tmp_path, _entry())
        assert len(ledger_paths(tmp_path)) == 1

    def test_write_rejects_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            write_entry(tmp_path, dict(_entry(), workloads={}))
        assert ledger_paths(tmp_path) == []


class TestCompare:
    def test_ok_within_threshold(self):
        deltas = compare_entries(_entry(wall=1.0), _entry(wall=1.2), threshold=0.25)
        assert deltas[0]["status"] == "ok"
        assert not deltas[0]["regressed"]
        assert deltas[0]["change"] == pytest.approx(0.2)

    def test_regression_beyond_threshold(self):
        deltas = compare_entries(_entry(wall=1.0), _entry(wall=1.4), threshold=0.25)
        assert deltas[0]["status"] == "regressed"
        assert deltas[0]["regressed"]

    def test_speedup_is_ok(self):
        deltas = compare_entries(_entry(wall=1.0), _entry(wall=0.5))
        assert deltas[0]["status"] == "ok"

    def test_new_workload(self):
        previous = _entry()
        current = _entry()
        current["workloads"]["brand_new"] = dict(
            current["workloads"]["single_save_point"]
        )
        deltas = compare_entries(previous, current)
        by_name = {delta["workload"]: delta for delta in deltas}
        assert by_name["brand_new"]["status"] == "new"
        assert not by_name["brand_new"]["regressed"]

    def test_sim_cycle_drift_flagged_not_regressed(self):
        deltas = compare_entries(
            _entry(wall=1.0, cycles=1000), _entry(wall=1.0, cycles=1100)
        )
        assert deltas[0]["sim_drift"]
        assert not deltas[0]["regressed"]


class TestLayers:
    def test_layer_of_buckets_by_package(self):
        assert bench._layer_of("/x/src/repro/core/save/elm.py") == "repro.core.save"
        assert bench._layer_of("/x/src/repro/core/pipeline.py") == "repro.core"
        assert bench._layer_of("/y/site-packages/numpy/_core/numeric.py") == "numpy"
        assert bench._layer_of("~") == "python"
        assert bench._layer_of("/usr/lib/python3.11/heapq.py") == "python"

    def test_compare_names_the_layer_that_moved(self):
        previous, current = _entry(wall=1.0), _entry(wall=0.6)
        previous["workloads"]["single_save_point"]["layers"] = {
            "repro.core": 500.0,
            "repro.isa": 60.0,
        }
        current["workloads"]["single_save_point"]["layers"] = {
            "repro.core": 250.0,
            "repro.isa": 70.0,
            "numpy": 5.0,
        }
        [delta] = compare_entries(previous, current)
        moves = delta["layers"]
        assert [move["layer"] for move in moves] == ["repro.core", "repro.isa", "numpy"]
        assert moves[0]["change_ms"] == -250.0
        assert moves[2]["prev_ms"] == 0.0

    def test_no_layers_without_both_maps(self):
        previous, current = _entry(), _entry()
        current["workloads"]["single_save_point"]["layers"] = {"repro.core": 1.0}
        [delta] = compare_entries(previous, current)
        assert "layers" not in delta


def _serve_entry(p95_by_mix, wall=1.0, p99_by_mix=None):
    entry = _entry(wall=wall)
    workload = entry["workloads"].pop("single_save_point")
    workload["mixes"] = {
        mix: {
            "requests": 16,
            "throughput_rps": 100.0,
            "p50_ms": p95 / 2,
            "p95_ms": p95,
            "p99_ms": (p99_by_mix or {}).get(mix, p95 * 1.5),
        }
        for mix, p95 in p95_by_mix.items()
    }
    entry["workloads"]["serve_roundtrip"] = workload
    return entry


class TestCompareMixes:
    """Per-mix p95 thresholds for serve_roundtrip."""

    def test_mix_p95_within_threshold_is_ok(self):
        deltas = compare_entries(
            _serve_entry({"hot": 10.0, "scan": 20.0, "cold": 30.0}),
            _serve_entry({"hot": 11.0, "scan": 22.0, "cold": 33.0}),
        )
        assert deltas[0]["status"] == "ok"
        assert all(not mix["regressed"] for mix in deltas[0]["mixes"])

    def test_single_mix_p95_regression_fails_workload(self):
        # Wall time is flat — only the cold mix's tail blew up.
        deltas = compare_entries(
            _serve_entry({"hot": 10.0, "scan": 20.0, "cold": 30.0}),
            _serve_entry({"hot": 10.0, "scan": 20.0, "cold": 40.0}),
        )
        assert deltas[0]["status"] == "regressed"
        by_mix = {mix["mix"]: mix for mix in deltas[0]["mixes"]}
        assert by_mix["cold"]["regressed"]
        assert by_mix["cold"]["change"] == pytest.approx(1 / 3, abs=1e-4)
        assert not by_mix["hot"]["regressed"]
        assert not by_mix["scan"]["regressed"]

    def test_mix_threshold_is_configurable(self):
        previous = _serve_entry({"hot": 10.0})
        current = _serve_entry({"hot": 12.5})  # +25%
        assert compare_entries(previous, current)[0]["regressed"]
        assert not compare_entries(previous, current, mix_threshold=0.3)[0][
            "regressed"
        ]

    def test_new_mix_has_no_baseline(self):
        deltas = compare_entries(
            _serve_entry({"hot": 10.0}),
            _serve_entry({"hot": 10.0, "cold": 50.0}),
        )
        assert [mix["mix"] for mix in deltas[0]["mixes"]] == ["hot"]
        assert not deltas[0]["regressed"]

    def test_mix_improvement_is_ok(self):
        deltas = compare_entries(
            _serve_entry({"hot": 40.0}), _serve_entry({"hot": 10.0})
        )
        assert not deltas[0]["regressed"]

    def test_single_mix_p99_regression_fails_workload(self):
        # p95 is flat; only the hot mix's slowest 1% blew up.
        deltas = compare_entries(
            _serve_entry({"hot": 10.0, "cold": 30.0}),
            _serve_entry(
                {"hot": 10.0, "cold": 30.0}, p99_by_mix={"hot": 1000.0}
            ),
        )
        assert deltas[0]["status"] == "regressed"
        by_mix = {mix["mix"]: mix for mix in deltas[0]["mixes"]}
        assert by_mix["hot"]["regressed"]
        assert by_mix["hot"]["change"] == 0.0
        assert by_mix["hot"]["p99_change"] == pytest.approx(1000 / 15 - 1, abs=1e-4)
        assert not by_mix["cold"]["regressed"]

    def test_p99_gate_uses_the_mix_threshold(self):
        previous = _serve_entry({"hot": 10.0}, p99_by_mix={"hot": 20.0})
        current = _serve_entry({"hot": 10.0}, p99_by_mix={"hot": 25.0})  # +25%
        assert compare_entries(previous, current)[0]["regressed"]
        assert not compare_entries(previous, current, mix_threshold=0.3)[0][
            "regressed"
        ]


class TestBenchMain:
    """End-to-end CLI runs with the suite monkeypatched to be instant."""

    @pytest.fixture
    def fake_suite(self, monkeypatch):
        state = {"wall": 0.1}

        def fake_run_suite(quick=False, repeats=2, echo=None):
            return _entry(wall=state["wall"], quick=quick)

        monkeypatch.setattr(bench, "run_suite", fake_run_suite)
        return state

    def test_first_run_records_baseline(self, tmp_path, capsys, fake_suite):
        ledger = tmp_path / "ledger"
        assert bench_main(["--ledger", str(ledger), "--quick"]) == 0
        out = capsys.readouterr().out
        assert "baseline recorded" in out
        assert ledger_paths(ledger)

    def test_comparison_prints_layer_moves(self, tmp_path, capsys, monkeypatch):
        core_ms = {"value": 100.0}

        def fake_run_suite(quick=False, repeats=2, echo=None):
            entry = _entry(quick=quick)
            entry["workloads"]["single_save_point"]["layers"] = {
                "repro.core": core_ms["value"],
                "repro.isa": 10.0,
            }
            return entry

        monkeypatch.setattr(bench, "run_suite", fake_run_suite)
        ledger = tmp_path / "ledger"
        bench_main(["--ledger", str(ledger), "--quick"])
        core_ms["value"] = 40.0
        assert bench_main(["--ledger", str(ledger), "--quick"]) == 0
        out = capsys.readouterr().out
        assert "layer repro.core: 100.0ms -> 40.0ms self (-60.0ms)" in out

    def test_second_run_compares_and_passes(self, tmp_path, capsys, fake_suite):
        ledger = tmp_path / "ledger"
        bench_main(["--ledger", str(ledger), "--quick"])
        fake_suite["wall"] = 0.11  # +10%, within the default 25%
        assert bench_main(["--ledger", str(ledger), "--quick"]) == 0
        out = capsys.readouterr().out
        assert "comparing against BENCH_0001.json" in out
        assert "ok" in out
        assert len(ledger_paths(ledger)) == 2

    def test_regression_exits_nonzero(self, tmp_path, capsys, fake_suite):
        ledger = tmp_path / "ledger"
        bench_main(["--ledger", str(ledger), "--quick"])
        fake_suite["wall"] = 0.2  # +100%
        assert bench_main(["--ledger", str(ledger), "--quick"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        # The regressed entry is still written (the ledger is a record,
        # not a gate).
        assert len(ledger_paths(ledger)) == 2

    def test_threshold_flag(self, tmp_path, fake_suite):
        ledger = tmp_path / "ledger"
        bench_main(["--ledger", str(ledger), "--quick"])
        fake_suite["wall"] = 0.11  # +10%
        assert (
            bench_main(["--ledger", str(ledger), "--quick", "--threshold", "0.05"])
            == 1
        )

    def test_no_write(self, tmp_path, fake_suite):
        ledger = tmp_path / "ledger"
        assert bench_main(["--ledger", str(ledger), "--quick", "--no-write"]) == 0
        assert ledger_paths(ledger) == []

    def test_quick_compares_only_quick(self, tmp_path, capsys, fake_suite):
        ledger = tmp_path / "ledger"
        bench_main(["--ledger", str(ledger)])  # full entry
        capsys.readouterr()
        assert bench_main(["--ledger", str(ledger), "--quick"]) == 0
        assert "baseline recorded" in capsys.readouterr().out

    def test_unreadable_entry_skipped(self, tmp_path, capsys, fake_suite):
        ledger = tmp_path / "ledger"
        bench_main(["--ledger", str(ledger), "--quick"])
        # Corrupt a later entry; the compare should fall back past it.
        (ledger / "BENCH_0002.json").write_text('{"schema": 99}')
        capsys.readouterr()
        assert bench_main(["--ledger", str(ledger), "--quick"]) == 0
        captured = capsys.readouterr()
        assert "skipping unreadable ledger entry" in captured.err
        assert "comparing against BENCH_0001.json" in captured.out


class TestReport:
    def _ledger(self, tmp_path):
        ledger = tmp_path / "ledger"
        write_entry(ledger, _entry(wall=1.0))
        write_entry(ledger, _entry(wall=1.1))
        write_entry(ledger, _entry(wall=0.2, quick=True))
        return ledger

    def test_trajectory_with_same_flavour_change(self, tmp_path, capsys):
        ledger = self._ledger(tmp_path)
        assert bench.report_main(["--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "single_save_point:" in out
        # seq 2 changed +10% against the full-flavour seq 1; the quick
        # seq 3 entry has no same-flavour predecessor, so no change.
        assert "+10.0%" in out
        assert "quick" in out

    def test_workload_filter_unknown(self, tmp_path, capsys):
        ledger = self._ledger(tmp_path)
        assert bench.report_main(["--ledger", str(ledger), "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_empty_ledger(self, tmp_path, capsys):
        assert bench.report_main(["--ledger", str(tmp_path / "none")]) == 1
        assert "no ledger entries" in capsys.readouterr().err

    def test_bench_main_dispatches_report(self, tmp_path, capsys):
        ledger = self._ledger(tmp_path)
        assert bench_main(["report", "--ledger", str(ledger)]) == 0
        assert "single_save_point:" in capsys.readouterr().out

    def test_speedup_column_rendered(self):
        entry = _entry()
        entry["workloads"]["fastsim_sweep"] = {
            "wall_s": 0.1,
            "exact_wall_s": 1.5,
            "speedup_over_exact": 15.0,
            "jobs": 1,
            "points": 4,
            "sim_cycles": 100,
            "cycles_per_sec": 1000.0,
            "counters": {"sim_cycles": 100},
        }
        text = bench.format_report([dict(entry, seq=1)])
        assert "15.0x vs exact" in text


class TestCommittedLedger:
    def test_committed_entries_validate(self):
        from pathlib import Path

        ledger = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"
        paths = ledger_paths(ledger)
        assert paths, "the committed ledger must not be empty"
        for _, path in paths:
            validate_entry(json.loads(path.read_text()))

    def test_committed_sweep_throughput_meets_rss_contract(self):
        # BENCH_0007 records the acceptance run: a >=100k-point fast
        # sweep whose peak RSS stays within 2x of a ~1k-point sweep.
        from pathlib import Path

        ledger = Path(__file__).resolve().parents[2] / "benchmarks" / "ledger"
        entry = json.loads((ledger / "BENCH_0007.json").read_text())
        sweep = entry["workloads"]["sweep_throughput"]
        assert sweep["points"] >= 100_000
        assert sweep["small_points"] >= 1_000
        assert sweep["rss_ratio"] <= 2.0
        assert sweep["points_per_sec"] > 0


class TestRealSuiteSmoke:
    def test_run_suite_quick_is_schema_valid(self, tmp_path):
        entry = bench.run_suite(quick=True, repeats=1)
        path = write_entry(tmp_path, entry)
        stored = json.loads(path.read_text())
        validate_entry(stored)
        workloads = stored["workloads"]
        assert set(workloads) == {
            "single_save_point",
            "coarse_sweep",
            "parallel_sweep",
            "fastsim_sweep",
            "sweep_throughput",
            "serve_roundtrip",
            "check_wall",
        }
        for name, workload in workloads.items():
            assert workload["wall_s"] > 0
            if name == "check_wall":
                # No simulator in the loop: cycles are pinned at zero.
                assert workload["sim_cycles"] == 0
                continue
            assert workload["sim_cycles"] > 0
            assert workload["counters"]["sim_cycles"] == workload["sim_cycles"]
        for name in bench.LAYER_WORKLOADS:
            layers = workloads[name]["layers"]
            assert layers["repro.core"] > 0
            assert all(ms >= 0 for ms in layers.values())
        fastsim = workloads["fastsim_sweep"]
        assert fastsim["exact_wall_s"] > 0
        assert fastsim["speedup_over_exact"] > 1.0
        assert fastsim["points"] == workloads["coarse_sweep"]["points"]
        sweep = workloads["sweep_throughput"]
        assert sweep["points"] > sweep["small_points"]
        assert sweep["points_per_sec"] > 0
        assert sweep["rss_ratio"] <= 2.0
        serve = workloads["serve_roundtrip"]
        assert set(serve["mixes"]) == {"hot", "scan", "cold"}
        for stats in serve["mixes"].values():
            assert stats["requests"] > 0
            assert stats["throughput_rps"] > 0
            assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
        check = workloads["check_wall"]
        assert check["files"] > 0
        assert check["warm_wall_s"] > 0
        assert check["warm_speedup"] >= 3.0
