"""Tests for the serve/submit/store CLI wiring."""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main
from repro.serve.cli import build_request
from repro.serve.schema import RequestError, parse_request
from repro.serve.store import ResultStore

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def submit_args(**overrides):
    defaults = dict(
        tile="2x2", pattern="explicit", precision="fp32", machine="save",
        point="0.3,0.6", levels=None, k_steps=4, seed=0, metric="ns_per_fma",
        engine="exact",
    )
    defaults.update(overrides)
    return argparse.Namespace(**defaults)


class TestBuildRequest:
    def test_point_round_trips_through_parse(self):
        request = parse_request(build_request(submit_args()))
        assert request.points == ((0.3, 0.6),)
        tile = request.series.config.tile
        assert tile.rows == 2 and tile.col_vectors == 2

    def test_sweep(self):
        request = parse_request(
            build_request(submit_args(point=None, levels="0.0,0.9"))
        )
        assert request.kind == "sweep"
        assert request.levels == (0.0, 0.9)

    def test_engine_flag_round_trips(self):
        request = parse_request(build_request(submit_args(engine="fast")))
        assert request.series.engine == "fast"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"point": None, "levels": None},
            {"point": "0.3,0.6", "levels": "0.0,0.9"},
            {"tile": "2by2"},
            {"point": "0.3"},
            {"point": "a,b"},
        ],
    )
    def test_bad_flags_rejected(self, overrides):
        with pytest.raises(RequestError):
            build_request(submit_args(**overrides))


class TestStoreCommand:
    def test_stats_and_gc(self, tmp_path, capsys):
        store = ResultStore(tmp_path)
        store.put("a" * 24, {"values": [1.0]})
        (tmp_path / ("b" * 24 + ".json")).write_text("{torn")

        assert main(["store", "stats", "--store", str(tmp_path)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 2 and stats["damaged"] == 1

        assert main(["store", "gc", "--store", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"removed": 1, "kept": 1}


class TestSubmitCommand:
    def test_unreachable_server_exits_1(self, capsys):
        rc = main([
            "submit", "--port", "1", "--point", "0.1,0.2", "--timeout", "1",
        ])
        assert rc == 1
        assert "repro submit:" in capsys.readouterr().err

    def test_flag_errors_exit_2(self, capsys):
        assert main(["submit", "--tile", "2by2", "--point", "0.1,0.2"]) == 2
        assert "--tile" in capsys.readouterr().err


@pytest.mark.slow
class TestServeProcess:
    """One real round-trip through ``repro serve`` as a subprocess."""

    def test_serve_submit_sigterm_drain(self, tmp_path):
        port = _free_port()
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", str(port), "--store", str(tmp_path / "store"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            _wait_healthy(port)
            reply = subprocess.run(
                [
                    sys.executable, "-m", "repro", "submit",
                    "--port", str(port), "--point", "0.3,0.6",
                    "--k-steps", "3", "--tile", "1x1", "--timeout", "60",
                ],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert reply.returncode == 0, reply.stderr
            payload = json.loads(reply.stdout)
            assert payload["values"][0] > 0
            server.send_signal(signal.SIGTERM)
            out, _ = server.communicate(timeout=60)
            assert server.returncode == 0, out
            assert "drained" in out
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)


def _free_port():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_healthy(port, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2
            ):
                return
        except OSError:
            time.sleep(0.1)
    raise TimeoutError("service never became healthy")
