"""Workload ``serve_mix``: single points through ``repro serve``.

``repro serve --jobs 2`` runs in its own process on a fresh store, so
the load generator's threads never contend with the server for the
interpreter lock.  Two client threads each call ``ServeClient.run`` in a
closed loop: a caller blocks on its reply before sending the next
request, so the server never sees more than two connections, matching
the two cores the benchmark was sized on.

The seeded request stream mixes three kinds of traffic:

* about 40% repeats of a small hot set, answered by dedup or the result
  store;
* about 50% distinct points of one kernel and machine, which share a
  batch key and so can coalesce;
* about 10% distinct kernel seeds, which neither dedup, cache nor batch.

Hits take about 4 ms and misses about 20 ms.  At a 50% hit share the
median would fall between the two modes and jump from one to the other
with the seed, so hits are kept clearly below half.

Engine ``fast`` and small 2x2 kernels keep compute tiny, so the serving
layers do nearly all the work; neither ``repro.core`` nor
``repro.store`` runs.
"""

from __future__ import annotations

import http.client
import itertools
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional
from collections.abc import Iterator

from repro.core.config import SAVE_1VPU, SAVE_2VPU
from repro.fastsim import simulate_config
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.model.surface import point_config
from repro.serve.client import ServeClient

from common import ROOT, SRC, Outcome, fast_rel_error, peak_rss_mb, percentile
from tracer import Tracer

CLIENTS = 2
#: Tail percentile: a 25 s run completes 2k-3k requests, 20 or more beyond p99.
TAIL = 0.99
#: Shares of the stream: hot-set repeats, then batchable distinct points;
#: the rest are distinct kernel seeds.
HOT_SHARE = 0.4
SCAN_SHARE = 0.5
SERVER_JOBS = 2
K_STEPS = 8
PRESETS = {"save": SAVE_2VPU, "save_1vpu": SAVE_1VPU}
HOT_POINTS = 8
COLD_SEED_BASE = 1000
#: Requests per pass of the traced run (untraced, then traced).
TRACED_REQUESTS = 700
#: Distinct requests compared against the exact engine in the traced run.
ERROR_SAMPLE = 12
#: The set-up request, outside the stream (its kernel seed never recurs).
WARM_UP = {
    "kind": "point",
    "kernel": {"rows": 2, "cols": 2, "k_steps": K_STEPS, "seed": 10**6},
    "machine": {"preset": "save"},
    "point": [0.5, 0.5],
    "engine": "fast",
}
HIT_OUTCOMES = ("cached", "dedup")
_SERVER_PHASES = ("queue_wait", "batch_form", "simulate", "store_write")

#: The per-layer metrics this workload measures; the others are 0 here.
PER_LAYER = (
    "serve.submit_ms_p50",
    "serve.submit_ms_p99",
    "serve.polls_per_request",
    "serve.backoff_ms_per_request",
    "serve.connect_ms_p50",
    "serve.connect_ms_max",
    "serve.connections_per_request",
    *(f"serve.{phase}_ms_p50" for phase in _SERVER_PHASES),
    "serve.server_e2e_ms_p50",
    "serve.server_e2e_ms_p99",
    "serve.cache_hits",
    "serve.dedup_hits",
    "serve.simulated_points",
    "serve.batch_width_mean",
    "serve.hit_latency_p50_ms",
    "serve.hit_latency_p95_ms",
    "serve.miss_latency_p50_ms",
    "serve.miss_latency_p95_ms",
    "serve.unattributed_ms_p50",
    "fast_rel_error_p50",
    "fast_rel_error_max",
    "bench.trace_overhead_frac",
)


def _request(seed: int, preset: str, point: tuple[float, float]) -> dict:
    return {
        "kind": "point",
        "kernel": {"rows": 2, "cols": 2, "k_steps": K_STEPS, "seed": seed},
        "machine": {"preset": preset},
        "point": list(point),
        "engine": "fast",
    }


def request_stream(seed: int) -> Iterator[dict]:
    """The endless seeded stream; every sparsity lies inside [0, 0.95]."""
    rng = random.Random(seed)

    def point() -> tuple[float, float]:
        return (rng.randint(0, 950) / 1000, rng.randint(0, 950) / 1000)

    hot = [point() for _ in range(HOT_POINTS)]
    seen: set[tuple[float, float]] = set()
    for cold_seed in itertools.count(COLD_SEED_BASE):
        draw = rng.random()
        if draw < HOT_SHARE:
            yield _request(0, "save", rng.choice(hot))
            continue
        if draw < HOT_SHARE + SCAN_SHARE:
            scan = point()
            while scan in seen:
                scan = point()
            seen.add(scan)
            yield _request(1, "save_1vpu", scan)
            continue
        yield _request(cold_seed, "save", point())


def make_requests(seed: int, count: int) -> list[dict]:
    return list(itertools.islice(request_stream(seed), count))


def _config(request: dict) -> tuple[Any, Any]:
    kernel = request["kernel"]
    bs, nbs = request["point"]
    config = point_config(
        RegisterTile(kernel["rows"], kernel["cols"], BroadcastPattern.EXPLICIT),
        Precision.FP32, bs, nbs, kernel["k_steps"], kernel["seed"],
    )
    return config, PRESETS[request["machine"]["preset"]]


def expected_value(request: dict) -> float:
    """The ``ns_per_fma`` the service must answer, computed in-process."""
    result = simulate_config(*_config(request), "fast")
    return result.time_ns / result.fma_count


class Server:
    """One ``repro serve`` process on a fresh store, ready and warmed up."""

    def __init__(self, store: Path) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--jobs", str(SERVER_JOBS), "--store", str(store),
            ],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        try:
            banner = self.proc.stdout.readline()
            match = re.search(r"listening on (http://\S+)", banner)
            if match is None:
                raise RuntimeError(f"repro serve did not start: {banner!r}")
            self.url = match.group(1)
            client = ServeClient(self.url, timeout=30.0)
            deadline = time.monotonic() + 30.0
            while client.healthz().get("status") != "ok":
                if time.monotonic() > deadline:
                    raise RuntimeError("repro serve never became healthy")
                time.sleep(0.01)
            client.run(WARM_UP, timeout=30.0)
        except BaseException:
            self.stop()
            raise

    def metrics(self) -> dict:
        return ServeClient(self.url, timeout=30.0).metrics()

    def stop(self) -> None:
        """Graceful drain; killed if it does not exit in time."""
        if self.proc.returncode is not None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class _Client(ServeClient):
    """Remembers the submit outcome of the last ``run`` (hit or miss)."""

    outcome: Optional[str] = None

    def submit(self, request: dict[str, Any]) -> dict[str, Any]:
        ticket = super().submit(request)
        self.outcome = ticket.get("outcome")
        return ticket


@dataclass
class Sample:
    index: int
    request: dict
    latency: float
    outcome: Optional[str]
    response: Optional[dict]
    error: Optional[str]


def drive(
    url: str,
    requests: Iterator[dict],
    tracer: Tracer,
    seconds: Optional[float] = None,
) -> tuple[float, list[Sample]]:
    """Closed loop of ``CLIENTS`` threads until the stream or time ends."""
    lock = threading.Lock()
    numbered = enumerate(requests)
    samples: list[Sample] = []
    start = time.perf_counter()
    stop_at = None if seconds is None else start + seconds

    def client_loop() -> None:
        client = _Client(url, timeout=30.0)
        while True:
            with lock:
                if stop_at is not None and time.perf_counter() >= stop_at:
                    return
                item = next(numbered, None)
            if item is None:
                return
            index, request = item
            client.outcome = None
            response = error = None
            begin = time.perf_counter()
            try:
                with tracer.span("bench.request", index):
                    response = client.run(request, timeout=60.0)
            except Exception as exc:  # noqa: BLE001 - counted as a failure
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - begin
            samples.append(
                Sample(index, request, latency, client.outcome, response, error)
            )

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, samples


def verify(samples: list[Sample], outcome: Outcome) -> list[Sample]:
    """Every answer must equal in-process ``simulate_config``; returns the good."""
    expected: dict[str, float] = {}
    good = []
    for sample in samples:
        if sample.error is not None:
            outcome.fail(f"request {sample.index}: {sample.error}")
            continue
        key = repr(sample.request)
        if key not in expected:
            expected[key] = expected_value(sample.request)
        answer = sample.response
        if outcome.check(
            answer.get("points") == [sample.request["point"]]
            and answer.get("values") == [expected[key]],
            f"request {sample.index}: answered {answer.get('values')} for "
            f"{answer.get('points')}, want [{expected[key]}]",
        ):
            good.append(sample)
    return good


def _latencies_ms(samples: list[Sample], outcomes: tuple[str, ...] = ()) -> list[float]:
    return [
        s.latency * 1000.0 for s in samples if not outcomes or s.outcome in outcomes
    ]


class Workload:
    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self._servers = 0
        self.server = self.start_server()

    def start_server(self) -> Server:
        self._servers += 1
        return Server(self.work / f"store-{self._servers}")

    def close(self) -> None:
        self.server.stop()

    def timed(self, seconds: float) -> tuple[dict, Outcome]:
        outcome = Outcome()
        elapsed, samples = drive(
            self.server.url, request_stream(self.seed), Tracer(record=False), seconds
        )
        self.server.stop()
        good = verify(samples, outcome)
        if not good:
            raise RuntimeError("no request completed")
        latencies = _latencies_ms(good)
        return {
            "points_per_s": len(good) / elapsed,
            "latency_p50_ms": percentile(latencies, 0.50),
            "latency_tail_ms": percentile(latencies, TAIL),
            # The server tree's largest process, not the load generator.
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }, outcome

    def traced(self) -> tuple[dict, Outcome, Tracer]:
        outcome = Outcome()
        requests = make_requests(self.seed, TRACED_REQUESTS)
        untraced_wall, samples = drive(
            self.server.url, iter(requests), Tracer(record=False)
        )
        server_side = self.server.metrics()
        self.server.stop()
        plain = verify(samples, outcome)

        self.server = self.start_server()
        tracer = Tracer()
        with tracer:
            for verb in ("submit", "poll", "result", "run"):
                tracer.wrap(ServeClient, verb, f"serve.client.{verb}")
            tracer.wrap(http.client.HTTPConnection, "connect", "serve.client.connect")
            traced_wall, traced_samples = drive(self.server.url, iter(requests), tracer)
        verify(traced_samples, outcome)

        metrics = _client_metrics(tracer)
        metrics.update(_server_metrics(server_side))
        hits = _latencies_ms(plain, HIT_OUTCOMES)
        misses = _latencies_ms(plain, ("accepted",))
        client_p50 = percentile(_latencies_ms(plain), 0.50)
        errors = fast_errors(requests, random.Random(self.seed))
        metrics.update(
            {
                "serve.hit_latency_p50_ms": percentile(hits, 0.50),
                "serve.hit_latency_p95_ms": percentile(hits, 0.95),
                "serve.miss_latency_p50_ms": percentile(misses, 0.50),
                "serve.miss_latency_p95_ms": percentile(misses, 0.95),
                "serve.unattributed_ms_p50": (
                    client_p50 - metrics["serve.server_e2e_ms_p50"]
                ),
                "fast_rel_error_p50": statistics.median(errors),
                "fast_rel_error_max": max(errors),
                "bench.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
            }
        )
        return metrics, outcome, tracer


def _client_metrics(tracer: Tracer) -> dict:
    runs = len(tracer.named("serve.client.run"))
    submits = tracer.durations_ms("serve.client.submit")
    connects = tracer.durations_ms("serve.client.connect")
    return {
        "serve.submit_ms_p50": percentile(submits, 0.50),
        "serve.submit_ms_p99": percentile(submits, 0.99),
        "serve.polls_per_request": len(tracer.named("serve.client.poll")) / runs,
        "serve.backoff_ms_per_request": tracer.self_ms("serve.client.run") / runs,
        "serve.connect_ms_p50": percentile(connects, 0.50),
        "serve.connect_ms_max": max(connects),
        "serve.connections_per_request": len(connects) / runs,
    }


def _server_metrics(snapshot: dict) -> dict:
    """Server-side figures from the public ``/metrics`` snapshot."""
    gauges = snapshot.get("gauges", {})
    counters = snapshot.get("counters", {})
    width = snapshot.get("histograms", {}).get("serve.batch_width", {})
    out = {
        f"serve.{phase}_ms_p50": gauges[f"serve.latency.{phase}.p50_ms"]
        for phase in _SERVER_PHASES
    }
    out.update(
        {
            "serve.server_e2e_ms_p50": gauges["serve.latency.e2e.p50_ms"],
            "serve.server_e2e_ms_p99": gauges["serve.latency.e2e.p99_ms"],
            "serve.cache_hits": counters.get("serve.cache_hits", 0),
            "serve.dedup_hits": counters.get("serve.dedup_hits", 0),
            "serve.simulated_points": counters.get("serve.simulated_points", 0),
            "serve.batch_width_mean": width["total"] / width["count"],
        }
    )
    return out


def fast_errors(requests: list[dict], rng: random.Random) -> list[float]:
    """Fast-vs-exact relative cycle error on sampled distinct requests."""
    distinct = list({repr(r): r for r in requests}.values())
    return [
        fast_rel_error(*_config(request))
        for request in rng.sample(distinct, min(ERROR_SAMPLE, len(distinct)))
    ]
