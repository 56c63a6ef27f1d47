"""Local HTTP JSON API over a :class:`~repro.serve.service.SimService`.

Stdlib only (:class:`http.server.ThreadingHTTPServer`): the service is
a local/cluster-internal tool, not an internet-facing one.  Endpoints:

==============================  =======================================
``POST /v1/submit``             body: a request (see
                                :func:`repro.serve.schema.parse_request`)
                                → ``202`` ``{"job", "status"}`` or
                                ``200`` with ``"status": "done"`` when
                                served from cache; ``429`` +
                                ``Retry-After`` under backpressure;
                                ``503`` while draining.
``GET /v1/jobs/<key>``          → job status (``pending`` / ``running``
                                / ``done`` / ``failed`` / ``unknown``).
``GET /v1/result/<key>``        → the stored result payload; ``404``
                                unknown, ``409`` still in flight,
                                ``500`` failed.  ``?wait=S`` first
                                waits up to ``S`` s (at most
                                :data:`MAX_WAIT_S`) for an in-flight
                                job; ``400`` for a malformed ``S``.
``GET /healthz``                → liveness + queue depth.
``GET /metrics``                → the service metrics snapshot
                                (:class:`repro.obs.MetricsRegistry`),
                                JSON by default; Prometheus text
                                exposition under ``Accept: text/plain``.
==============================  =======================================

Result payloads come straight from the store, so every client of one
key receives byte-identical JSON bodies.

Connections are HTTP/1.1 keep-alive, with Nagle's algorithm off so no
reply waits on the client's delayed ACK.

Every request is assigned a telemetry trace ID at ingress, echoed back
in an ``X-Trace-Id`` response header (and in the submit body), and —
when the service runs with a request log — recorded as a structured
``access`` event with method, path, status and handling duration.
"""

from __future__ import annotations

import json
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional

from repro.obs.events import Access
from repro.obs.telemetry import new_trace_id, render_prometheus, wants_prometheus
from repro.serve.schema import RequestError, parse_request
from repro.serve.service import QueueFull, ServiceDraining, SimService

__all__ = ["ServeHTTPServer", "format_retry_after", "make_server"]

#: Request bodies beyond this are rejected (a grid request is tiny).
MAX_BODY_BYTES = 1 << 20

#: Content type of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Longest a ``?wait=`` long-poll holds its connection.
MAX_WAIT_S = 30.0


def format_retry_after(retry_after_s: float) -> str:
    """``Retry-After`` header value preserving fractional hints.

    The header is specified as integer seconds, but sub-second
    backpressure windows would round to ``0`` (retry immediately — a
    stampede) or up to ``1`` (20x the intended wait for a 50ms hint),
    so fractional values are sent as decimals; our client parses them,
    and integer-second values render exactly as before (``3.0`` →
    ``"3"``) for spec-strict intermediaries.
    """
    retry_after_s = max(0.0, retry_after_s)
    if retry_after_s == int(retry_after_s):
        return str(max(1, int(retry_after_s)))
    return f"{retry_after_s:.6f}".rstrip("0").rstrip(".")


class ServeHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that carries the service reference."""

    daemon_threads = True
    allow_reuse_address = True
    #: Listen backlog.  socketserver's default of 5 overflows under a
    #: burst of concurrent clients: the kernel drops the extra SYNs and
    #: each dropped client waits out the 1 s initial retransmit timeout
    #: before its connect succeeds.
    request_queue_size = 128

    def __init__(self, address: tuple[str, int], service: SimService) -> None:
        super().__init__(address, _Handler)
        self.service = service


def _parse_wait(query: str) -> float:
    """Seconds a ``wait=S`` query holds the reply, capped at :data:`MAX_WAIT_S`."""
    name, _, value = query.partition("=")
    try:
        wait = float(value) if query else 0.0
    except ValueError:
        wait = -1.0
    if (query and name != "wait") or not wait >= 0:  # NaN fails too
        raise RequestError(f"expected ?wait=SECONDS, got ?{query}")
    return min(wait, MAX_WAIT_S)


class _Handler(BaseHTTPRequestHandler):
    server: ServeHTTPServer
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Route http.server's per-request line into the request log.

        ``BaseHTTPRequestHandler`` calls this (via ``log_request``)
        once per response; instead of printing to stderr — or the old
        behaviour of discarding everything — emit a structured
        ``access`` event carrying the trace ID, so the request log is
        also the access log.  No-op unless ``--request-log`` is live.
        """
        telemetry = self.server.service.telemetry
        if not telemetry.log.enabled:
            return
        telemetry.emit(
            Access,
            trace_id=getattr(self, "_trace_id", ""),
            method=self.command or "",
            path=self.path or "",
            status=getattr(self, "_status", 0),
            wall_s=round(time.perf_counter() - getattr(self, "_t0", time.perf_counter()), 6),
        )

    def _begin(self) -> None:
        """Stamp per-request telemetry state at ingress."""
        self._t0 = time.perf_counter()
        self._trace_id = new_trace_id()
        self._status = 0

    def _send_json(
        self,
        status: int,
        payload: dict[str, Any],
        headers: Optional[dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", getattr(self, "_trace_id", ""))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, body: str, content_type: str) -> None:
        raw = body.encode()
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(raw)))
        self.send_header("X-Trace-Id", getattr(self, "_trace_id", ""))
        self.end_headers()
        self.wfile.write(raw)

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise RequestError("request body required")
        if length > MAX_BODY_BYTES:
            self.close_connection = True  # the unread body ends this stream
            raise RequestError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise RequestError(f"invalid JSON body: {error}") from None

    # -- routes -----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._begin()
        if self.path != "/v1/submit":
            self.close_connection = True  # its body is left unread
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        service = self.server.service
        try:
            request = parse_request(self._read_body())
            job, outcome = service.submit(request, trace_id=self._trace_id)
        except RequestError as error:
            self._send_json(400, {"error": str(error)})
        except QueueFull as error:
            self._send_json(
                429,
                {"error": "queue full", "retry_after_s": error.retry_after_s},
                headers={"Retry-After": format_retry_after(error.retry_after_s)},
            )
        except ServiceDraining as error:
            self._send_json(503, {"error": str(error)})
        else:
            status = 200 if outcome == "cached" else 202
            self._send_json(
                status,
                {
                    "job": job.key,
                    "status": job.state,
                    "outcome": outcome,
                    "trace": self._trace_id,
                },
            )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._begin()
        service = self.server.service
        if self.path == "/healthz":
            health = service.health()
            code = 200 if health["status"] == "ok" else 503
            self._send_json(code, health)
            return
        if self.path == "/metrics":
            snapshot = service.metrics_snapshot()
            if wants_prometheus(self.headers.get("Accept")):
                self._send_text(
                    200, render_prometheus(snapshot), PROMETHEUS_CONTENT_TYPE
                )
            else:
                self._send_json(200, snapshot)
            return
        if self.path.startswith("/v1/jobs/"):
            key = self.path[len("/v1/jobs/"):]
            self._send_json(200, service.status(key))
            return
        if self.path.startswith("/v1/result/"):
            key, _, query = self.path[len("/v1/result/"):].partition("?")
            try:
                wait = _parse_wait(query)
            except RequestError as error:
                self._send_json(400, {"error": str(error)})
                return
            service.wait(key, wait)
            payload = service.result(key)
            if payload is not None:
                self._send_json(200, payload)
                return
            status = service.status(key)
            code = {"pending": 409, "running": 409, "failed": 500}
            self._send_json(code.get(status["status"], 404), status)
            return
        self._send_json(404, {"error": f"unknown path {self.path}"})


def make_server(service: SimService) -> ServeHTTPServer:
    """Bind a server for the service (port 0 picks an ephemeral port)."""
    config = service.config
    return ServeHTTPServer((config.host, config.port), service)
