"""CLI entry points: ``repro serve``, ``repro submit``, ``repro store``.

``repro serve`` runs the long-lived service; SIGTERM/SIGINT trigger a
graceful drain (finish queued work, flush the store, then exit 0).
Mirroring the one-shot commands' cleanup contract, *every* exit path —
including startup failures — closes the trace sink and flushes the
result store, so no run can leave a truncated trace or an un-synced
store behind.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
from typing import Optional

from repro.serve.schema import RequestError

__all__ = ["serve_main", "store_main", "submit_main"]


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the long-lived simulation service (local HTTP JSON API).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8731,
        help="TCP port (0 picks an ephemeral port; default 8731)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="executor worker processes (default: REPRO_JOBS, else serial)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory (default: repo-level .serve_store)",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=64, metavar="N",
        help="bounded queue capacity; excess submits get HTTP 429",
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="JSONL event trace of every simulated cycle (forces serial)",
    )
    parser.add_argument(
        "--request-log", metavar="FILE", default=None,
        help=(
            "JSONL request-lifecycle log: trace IDs, per-phase spans, "
            "worker-side simulation spans, HTTP access events "
            "(analyse with 'repro serve-report')"
        ),
    )
    parser.add_argument(
        "--metrics-ring", metavar="FILE", default=None,
        help=(
            "bounded on-disk ring of periodic serve.* metric snapshots "
            "(queue depth, oldest-request age, counters)"
        ),
    )
    parser.add_argument(
        "--ring-capacity", type=int, default=4096, metavar="N",
        help=(
            "records per ring segment; disk holds at most 2 segments "
            "(default: 4096)"
        ),
    )
    parser.add_argument(
        "--telemetry-interval", type=float, default=1.0, metavar="SECONDS",
        help="metrics-ring sampling cadence (default: 1.0)",
    )
    return parser


def serve_main(argv: Optional[list[str]] = None) -> int:
    args = _serve_parser().parse_args(argv)
    from repro.experiments.executor import SimExecutor
    from repro.serve.http import make_server
    from repro.serve.service import ServeConfig, SimService

    sink = None
    service = None
    server = None
    telemetry = None
    try:
        if args.trace:
            from repro.obs import EventWriter

            sink = EventWriter(args.trace)
        if args.request_log or args.metrics_ring:
            from repro.obs import EventWriter, ServeTelemetry

            telemetry = ServeTelemetry(
                log=EventWriter(args.request_log) if args.request_log else None,
                ring=(
                    EventWriter(args.metrics_ring, ring_limit=args.ring_capacity)
                    if args.metrics_ring
                    else None
                ),
            )
        config = ServeConfig(
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            store_dir=args.store,
            queue_limit=args.queue_limit,
            telemetry_interval_s=args.telemetry_interval,
        )
        executor = SimExecutor(
            jobs=args.jobs, trace_sink=sink, persistent=True
        )
        service = SimService(
            config, executor=executor, telemetry=telemetry
        ).start()
        server = make_server(service)
        host, port = server.server_address[:2]
        print(
            f"repro serve: listening on http://{host}:{port} "
            f"(store: {service.store.directory}, jobs: {executor.jobs})",
            flush=True,
        )

        stop = threading.Event()

        def _signal(signum, frame) -> None:  # noqa: ANN001 - signal API
            print(
                f"repro serve: caught {signal.Signals(signum).name}, draining",
                flush=True,
            )
            stop.set()

        previous = {
            sig: signal.signal(sig, _signal)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
        thread = threading.Thread(
            target=server.serve_forever, name="repro-serve-http", daemon=True
        )
        thread.start()
        try:
            stop.wait()
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        drained = service.close()
        server.shutdown()
        thread.join(timeout=10)
        print("repro serve: drained, bye", flush=True)
        return 0 if drained else 1
    except OSError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 1
    finally:
        # The cleanup contract: every exit path closes the HTTP socket
        # and the trace sink, and flushes the result store.
        if server is not None:
            server.server_close()
        if service is not None and service.running:
            service.close()
        elif service is not None:
            service.store.flush()
            service.executor.close()
        if sink is not None:
            sink.close()
            print(f"trace: {sink.events_written} events -> {args.trace}")
        if telemetry is not None:
            telemetry.close()
            if args.request_log:
                print(
                    f"request log: {telemetry.log.events_written} events "
                    f"-> {args.request_log}"
                )


def _submit_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro submit",
        description=(
            "Submit one grid-point (or sweep) simulation to a running "
            "'repro serve' instance and print the result payload."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8731)
    parser.add_argument(
        "--tile", default="2x2", metavar="RxC",
        help="register tile rows x col_vectors (default 2x2)",
    )
    parser.add_argument(
        "--pattern", default="explicit", choices=("explicit", "embedded")
    )
    parser.add_argument(
        "--precision", default="fp32", choices=("fp32", "bf16")
    )
    parser.add_argument(
        "--machine", default="save", choices=("baseline", "save", "save_1vpu")
    )
    parser.add_argument(
        "--point", default=None, metavar="BS,NBS",
        help="one (broadcast, non-broadcast) sparsity pair, e.g. 0.5,0.3",
    )
    parser.add_argument(
        "--levels", default=None, metavar="L0,L1,...",
        help="sweep the full LxL grid over these sparsity levels",
    )
    parser.add_argument("--k-steps", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--metric", default="ns_per_fma", choices=("ns_per_fma", "time_ns")
    )
    parser.add_argument(
        "--engine", default="exact", choices=("exact", "fast", "analytic"),
        help="simulation tier (fast/analytic estimate; exact is cycle-level)",
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="seconds to wait for the result (including 429 retries)",
    )
    parser.add_argument(
        "--no-wait", action="store_true",
        help="submit only; print the job key instead of blocking",
    )
    return parser


def _csv_floats(raw: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise RequestError(f"{flag}: expected comma-separated numbers") from None


def build_request(args: argparse.Namespace) -> dict:
    """Translate ``repro submit`` flags into a request body."""
    try:
        rows, cols = (int(part) for part in args.tile.lower().split("x"))
    except ValueError:
        raise RequestError("--tile: expected RxC, e.g. 2x2") from None
    body: dict = {
        "kernel": {
            "rows": rows,
            "cols": cols,
            "pattern": args.pattern,
            "precision": args.precision,
            "k_steps": args.k_steps,
            "seed": args.seed,
        },
        "machine": {"preset": args.machine},
        "metric": args.metric,
        "engine": args.engine,
    }
    if (args.point is None) == (args.levels is None):
        raise RequestError("exactly one of --point or --levels is required")
    if args.point is not None:
        pair = _csv_floats(args.point, "--point")
        if len(pair) != 2:
            raise RequestError("--point: expected BS,NBS")
        body["kind"] = "point"
        body["point"] = pair
    else:
        body["kind"] = "sweep"
        body["levels"] = _csv_floats(args.levels, "--levels")
    return body


def submit_main(argv: Optional[list[str]] = None) -> int:
    args = _submit_parser().parse_args(argv)
    from repro.serve.client import ClientError, JobFailed, ServeClient

    client = ServeClient(f"http://{args.host}:{args.port}")
    try:
        body = build_request(args)
        if args.no_wait:
            print(json.dumps(client.submit(body), sort_keys=True))
            return 0
        payload = client.run(body, timeout=args.timeout)
        print(json.dumps(payload, sort_keys=True))
        return 0
    except RequestError as error:
        print(f"repro submit: {error}", file=sys.stderr)
        return 2
    except (ClientError, JobFailed, TimeoutError, OSError) as error:
        print(f"repro submit: {error}", file=sys.stderr)
        return 1


def _store_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Inspect or garbage-collect the serve result store.",
    )
    parser.add_argument("action", choices=("stats", "gc"))
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="store directory (default: repo-level .serve_store)",
    )
    parser.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="gc only: also drop current-schema entries older than this",
    )
    return parser


def store_main(argv: Optional[list[str]] = None) -> int:
    args = _store_parser().parse_args(argv)
    from repro.serve.store import ResultStore

    store = ResultStore(args.store)
    try:
        if args.action == "stats":
            print(json.dumps(store.stats(), indent=2, sort_keys=True))
        else:
            max_age_s = (
                args.max_age_days * 86400.0
                if args.max_age_days is not None
                else None
            )
            print(json.dumps(store.gc(max_age_s), sort_keys=True))
        return 0
    finally:
        store.flush()
