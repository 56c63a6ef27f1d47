"""Loadgen traffic mixes: deterministic builds, mix semantics, live replay."""

import json

import pytest

from repro.serve.loadgen import (
    MIXES,
    build_requests,
    loadgen_main,
    run_loadgen,
    self_hosted_server,
)
from repro.serve.schema import parse_request


class TestBuildRequests:
    @pytest.mark.parametrize("mix", MIXES)
    def test_same_arguments_replay_identical_traffic(self, mix):
        first = build_requests(mix, 12, k_steps=2, engine="fast")
        second = build_requests(mix, 12, k_steps=2, engine="fast")
        assert first == second
        assert len(first) == 12

    @pytest.mark.parametrize("mix", MIXES)
    def test_every_request_parses(self, mix):
        for request in build_requests(mix, 8):
            parsed = parse_request(request)
            assert parsed.series.engine == "fast"

    def test_hot_mix_cycles_a_tiny_working_set(self):
        requests = build_requests("hot", 16)
        prints = {parse_request(r).fingerprint() for r in requests}
        assert len(prints) == 4  # the cycling working set, nothing more

    def test_scan_mix_shares_one_batch_key_with_unique_points(self):
        requests = build_requests("scan", 15)
        parsed = [parse_request(r) for r in requests]
        assert len({p.batch_key() for p in parsed}) == 1
        assert len({p.fingerprint() for p in parsed}) == 15

    def test_scan_mix_points_stay_on_the_sparsity_grid(self):
        requests = build_requests("scan", 300)
        points = [tuple(request["point"]) for request in requests]
        assert all(0.0 <= level <= 0.95 for point in points for level in point)
        assert len(set(points)) == 100  # the 10 x 10 grid, then it wraps

    def test_cold_mix_is_unique_in_both_dimensions(self):
        parsed = [parse_request(r) for r in build_requests("cold", 10)]
        assert len({p.fingerprint() for p in parsed}) == 10
        assert len({p.batch_key() for p in parsed}) == 10

    def test_bad_arguments_are_rejected(self):
        with pytest.raises(ValueError, match="count must be positive"):
            build_requests("hot", 0)
        with pytest.raises(ValueError, match="unknown mix"):
            build_requests("warm", 4)


class TestLiveReplay:
    def test_run_loadgen_against_a_self_hosted_server(self, tmp_path):
        with self_hosted_server(str(tmp_path / "store"), jobs=1) as base_url:
            results = run_loadgen(
                base_url,
                mixes=("hot", "cold"),
                requests_per_mix=6,
                concurrency=3,
                k_steps=2,
                timeout=60.0,
            )
        assert set(results) == {"hot", "cold"}
        for stats in results.values():
            assert stats["completed"] == stats["requests"] == 6
            assert stats["errors"] == 0
            assert stats["throughput_rps"] > 0
            assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]


class TestCli:
    def test_self_hosted_run_writes_json_stats(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        code = loadgen_main([
            "--mix", "scan", "--requests", "5", "--concurrency", "2",
            "--k-steps", "2", "--json", str(stats_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert " scan: 5/5 ok, " in out
        stats = json.loads(stats_path.read_text())
        assert stats["scan"]["completed"] == 5
        assert stats["scan"]["errors"] == 0

    def test_nonpositive_counts_are_exit_2(self, capsys):
        assert loadgen_main(["--requests", "0"]) == 2
        assert "must be positive" in capsys.readouterr().err

    def test_unreachable_url_is_exit_2(self, capsys):
        code = loadgen_main([
            "--url", "http://127.0.0.1:9", "--timeout", "1",
        ])
        assert code == 2
        assert "never became healthy" in capsys.readouterr().err
