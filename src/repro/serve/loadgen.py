"""Traffic-replay load generator for the simulation service.

``repro loadgen`` drives a live server (or a self-hosted one on an
ephemeral port) with the ROADMAP's three realistic traffic mixes and
reports throughput + exact latency percentiles per mix:

* **hot** — hot-key duplicate bursts: every request is one of a few
  cycling points, so after the first simulations the stream is answered
  by dedup (in-flight twins) and the result store.  Exercises the
  content-addressed cache tier.
* **scan** — grid scans: each request evaluates a *different* sparsity
  point of the same kernel/machine (shared ``batch_key``; the 10 x 10
  grid repeats after 100 requests), so submits that queue behind a
  running batch coalesce into wide micro-batches.  Exercises batch
  formation.
* **cold** — cold misses: every request carries a distinct kernel seed,
  so nothing dedups, nothing batches and nothing is cached.  Exercises
  raw per-request simulation cost.

Workers are threads (the client is I/O-bound; simulations run in the
server's process pool), each popping requests from a shared deque and
timing one full :meth:`repro.serve.client.ServeClient.run` round trip.
Request sets are built deterministically from the mix name, so two runs
against equal servers replay identical traffic.

The same entry points back the ``serve_roundtrip`` workload in the
:mod:`repro.obs.bench` fixed suite (self-hosted server, fixed request
counts), which lands the three mixes' p50/p95/p99 + throughput in the
committed bench ledger.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import deque
from typing import Any, Optional
from collections.abc import Sequence

from repro.obs.telemetry import exact_percentile
from repro.serve.client import ServeClient

__all__ = [
    "MIXES",
    "build_requests",
    "loadgen_main",
    "run_loadgen",
    "self_hosted_server",
]

#: The replayed traffic mixes, in report order.
MIXES = ("hot", "scan", "cold")

#: Cycling sparsity points of the hot mix (a "popular query" working set).
_HOT_POINTS = ((0.1, 0.2), (0.3, 0.6), (0.5, 0.5), (0.7, 0.4))


def _kernel(k_steps: int, seed: int) -> dict[str, Any]:
    return {"rows": 2, "cols": 2, "k_steps": k_steps, "seed": seed}


def build_requests(
    mix: str, count: int, k_steps: int = 3, engine: str = "fast"
) -> list[dict[str, Any]]:
    """The deterministic request list one mix replays.

    Identical arguments always build identical requests (no RNG, no
    clock), so loadgen runs are repeatable traffic replays.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    requests: list[dict[str, Any]] = []
    if mix == "hot":
        # A tiny working set hammered repeatedly: dedup + cache tier.
        for i in range(count):
            point = _HOT_POINTS[i % len(_HOT_POINTS)]
            requests.append(
                {
                    "kind": "point",
                    "kernel": _kernel(k_steps, seed=0),
                    "machine": {"preset": "save"},
                    "point": list(point),
                    "engine": engine,
                }
            )
    elif mix == "scan":
        # Distinct points of one kernel/machine: same batch_key, so
        # closely spaced submits coalesce into wide executor batches.
        # The points walk a 10 x 10 grid inside [0.05, 0.95] and wrap
        # after 100 requests, so every level stays a valid sparsity.
        for i in range(count):
            bs = round(0.05 + 0.9 * (i % 10) / 10, 6)
            nbs = round(0.05 + 0.9 * ((i // 10) % 10) / 10, 6)
            requests.append(
                {
                    "kind": "point",
                    "kernel": _kernel(k_steps, seed=1),
                    "machine": {"preset": "save"},
                    "point": [bs, nbs],
                    "engine": engine,
                }
            )
    elif mix == "cold":
        # A distinct seed per request: unique fingerprints *and* unique
        # batch keys — nothing dedups, batches or caches.
        for i in range(count):
            requests.append(
                {
                    "kind": "point",
                    "kernel": _kernel(k_steps, seed=1000 + i),
                    "machine": {"preset": "save"},
                    "point": [0.4, 0.5],
                    "engine": engine,
                }
            )
    else:
        raise ValueError(f"unknown mix {mix!r} (choices: {MIXES})")
    return requests


def _drive(
    base_url: str,
    requests: Sequence[dict[str, Any]],
    concurrency: int,
    timeout: float,
) -> dict[str, Any]:
    """Replay one request list with a worker-thread pool; time each."""
    pending: deque[dict[str, Any]] = deque(requests)
    lock = threading.Lock()
    latencies: list[float] = []
    errors: list[str] = []

    def worker() -> None:
        client = ServeClient(base_url, timeout=timeout)
        while True:
            with lock:
                if not pending:
                    return
                request = pending.popleft()
            start = time.perf_counter()
            try:
                client.run(request, timeout=timeout)
            except Exception as error:  # noqa: BLE001 - tally, keep driving
                with lock:
                    errors.append(f"{type(error).__name__}: {error}")
                continue
            wall = time.perf_counter() - start
            with lock:
                latencies.append(wall)

    workers = [
        threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True)
        for i in range(max(1, min(concurrency, len(requests))))
    ]
    started = time.perf_counter()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    wall_s = time.perf_counter() - started

    ordered = sorted(latencies)
    stats: dict[str, Any] = {
        "requests": len(requests),
        "completed": len(latencies),
        "errors": len(errors),
        "wall_s": round(wall_s, 6),
        "throughput_rps": round(len(latencies) / wall_s, 3) if wall_s else 0.0,
    }
    for name, q in (("p50_ms", 0.50), ("p95_ms", 0.95), ("p99_ms", 0.99)):
        value = exact_percentile(ordered, q)
        stats[name] = round(value * 1000.0, 3) if value is not None else None
    if errors:
        stats["first_error"] = errors[0]
    return stats


def run_loadgen(
    base_url: str,
    mixes: Sequence[str] = MIXES,
    requests_per_mix: int = 24,
    concurrency: int = 8,
    k_steps: int = 3,
    engine: str = "fast",
    timeout: float = 120.0,
) -> dict[str, Any]:
    """Replay the named mixes against a live server; stats per mix."""
    results: dict[str, Any] = {}
    for mix in mixes:
        requests = build_requests(mix, requests_per_mix, k_steps, engine)
        results[mix] = _drive(base_url, requests, concurrency, timeout)
    return results


# ---------------------------------------------------------------------------
# Self-hosting (bench workload + --self-hosted CLI path)
# ---------------------------------------------------------------------------


class self_hosted_server:  # noqa: N801 - context manager reads like a helper
    """A full service + HTTP stack on an ephemeral port.

    Context manager: enters with the ``base_url`` of a freshly started
    server backed by ``store_dir`` (pass a temp dir for a cold store)
    and tears the whole stack down on exit.  Used by the bench
    ``serve_roundtrip`` workload and by ``repro loadgen`` when no
    ``--url`` is given.
    """

    def __init__(self, store_dir: str, jobs: Optional[int] = None) -> None:
        self.store_dir = store_dir
        self.jobs = jobs
        self._service: Any = None
        self._server: Any = None
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> str:
        from repro.serve.http import make_server
        from repro.serve.service import ServeConfig, SimService

        config = ServeConfig(port=0, jobs=self.jobs, store_dir=self.store_dir)
        self._service = SimService(config).start()
        self._server = make_server(self._service)
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="loadgen-server", daemon=True
        )
        self._thread.start()
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def __exit__(self, *exc_info: object) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
        if self._service is not None:
            self._service.close()


# ---------------------------------------------------------------------------
# CLI: ``repro loadgen``
# ---------------------------------------------------------------------------


def loadgen_main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro loadgen``."""
    parser = argparse.ArgumentParser(
        prog="save-repro loadgen",
        description=(
            "Replay realistic traffic mixes (hot-key duplicate bursts, "
            "grid scans, cold misses) against a repro serve endpoint "
            "and report throughput + p50/p95/p99 latency per mix."
        ),
    )
    parser.add_argument(
        "--url",
        default=None,
        help=(
            "server base URL (e.g. http://127.0.0.1:8731); when omitted "
            "a throwaway self-hosted server on an ephemeral port is used"
        ),
    )
    parser.add_argument(
        "--mix",
        default="all",
        choices=("all",) + MIXES,
        help="traffic mix to replay (default: all three)",
    )
    parser.add_argument(
        "--requests", type=int, default=24, metavar="N",
        help="requests per mix (default: 24)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=8, metavar="N",
        help="client worker threads (default: 8)",
    )
    parser.add_argument(
        "--k-steps", type=int, default=3, metavar="N",
        help="kernel reduction depth per request (default: 3)",
    )
    parser.add_argument(
        "--engine", default="fast",
        help="engine tier requests ask for (default: fast)",
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0, metavar="S",
        help="per-request end-to-end timeout (default: 120)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="executor workers for the self-hosted server",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the per-mix stats as JSON to FILE",
    )
    args = parser.parse_args(argv)
    if args.requests <= 0 or args.concurrency <= 0:
        print("error: --requests and --concurrency must be positive", file=sys.stderr)
        return 2
    mixes = MIXES if args.mix == "all" else (args.mix,)

    def replay(base_url: str) -> dict[str, Any]:
        _wait_healthy(base_url, timeout=args.timeout)
        return run_loadgen(
            base_url,
            mixes=mixes,
            requests_per_mix=args.requests,
            concurrency=args.concurrency,
            k_steps=args.k_steps,
            engine=args.engine,
            timeout=args.timeout,
        )

    try:
        if args.url:
            results = replay(args.url)
        else:
            import tempfile

            with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp, \
                    self_hosted_server(tmp, jobs=args.jobs) as base_url:
                results = replay(args.url or base_url)
    except (OSError, TimeoutError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    failed = False
    for mix, stats in results.items():
        print(
            f"{mix:>5}: {stats['completed']}/{stats['requests']} ok, "
            f"{stats['throughput_rps']} req/s, "
            f"p50 {stats['p50_ms']}ms  p95 {stats['p95_ms']}ms  "
            f"p99 {stats['p99_ms']}ms"
            + (f"  ({stats['errors']} errors)" if stats["errors"] else "")
        )
        if stats["errors"]:
            failed = True
            print(f"       first error: {stats['first_error']}", file=sys.stderr)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"stats -> {args.json}")
    return 1 if failed else 0


def _wait_healthy(base_url: str, timeout: float = 30.0) -> None:
    """Poll ``/healthz`` until the server answers (bounded)."""
    client = ServeClient(base_url, timeout=5.0)
    deadline = time.monotonic() + min(timeout, 30.0)
    while True:
        try:
            if client.healthz().get("status") == "ok":
                return
        except OSError:
            pass
        if time.monotonic() >= deadline:
            raise TimeoutError(f"server at {base_url} never became healthy")
        time.sleep(0.1)
