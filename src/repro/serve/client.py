"""Thin stdlib client for the ``repro serve`` HTTP API.

:class:`ServeClient` wraps the four verbs a caller needs — ``submit``,
``poll``, ``result`` and the blocking convenience ``run`` (submit,
honour backpressure, long-poll the result).  Errors map to typed
exceptions so callers can distinguish "try again later"
(:class:`Backpressure`) from "the request is wrong"
(:class:`ClientError`) from "the simulation failed" (:class:`JobFailed`).

Each thread keeps one kept-alive connection (``http.client`` sets
``TCP_NODELAY``), so a call costs no TCP handshake.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import threading
import time
from typing import Any, Optional
from urllib.parse import urlsplit

__all__ = [
    "Backpressure",
    "ClientError",
    "JobFailed",
    "ServeClient",
]


class ClientError(RuntimeError):
    """The server rejected the request (4xx other than 429)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class Backpressure(RuntimeError):
    """The server asked us to retry later (HTTP 429 / 503)."""

    def __init__(self, retry_after_s: float) -> None:
        super().__init__(f"server busy; retry after {retry_after_s}s")
        self.retry_after_s = retry_after_s


class JobFailed(RuntimeError):
    """The simulation behind a job key failed server-side."""


class ServeClient:
    """HTTP client for one service endpoint, shareable across threads.

    Args:
        base_url: e.g. ``http://127.0.0.1:8731`` (trailing slash ok).
        timeout: per-HTTP-call socket timeout in seconds (a long-poll
            adds its wait on top).
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._address = urlsplit(self.base_url)
        self._local = threading.local()

    # -- transport --------------------------------------------------------

    def _exchange(
        self, conn: http.client.HTTPConnection, method: str, path: str,
        data: Optional[bytes], timeout: Optional[float],
    ) -> tuple[http.client.HTTPResponse, bytes]:
        """One request and its reply on ``conn``; closed on any failure."""
        try:
            if conn.sock is None:
                conn.connect()  # sets TCP_NODELAY
            conn.sock.settimeout(self.timeout if timeout is None else timeout)
            conn.request(method, path, data, {"Content-Type": "application/json"})
            reply = conn.getresponse()
            return reply, reply.read()
        except BaseException:
            conn.close()  # a half-done exchange leaves it unusable
            raise

    def _call(
        self, method: str, path: str, body: Optional[dict[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> dict[str, Any]:
        data = json.dumps(body).encode() if body is not None else None
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self._address.hostname, self._address.port, timeout=self.timeout
            )
        reused = conn.sock is not None
        try:
            reply, raw = self._exchange(conn, method, path, data, timeout)
        except ConnectionError:
            if not reused:
                raise
            # The server dropped the idle connection.  Resending is safe:
            # a submit is keyed by its fingerprint, so a repeat dedups or
            # hits the store.
            reply, raw = self._exchange(conn, method, path, data, timeout)
        if reply.status < 400:
            return json.loads(raw)
        payload: dict[str, Any] = {}
        with contextlib.suppress(json.JSONDecodeError, UnicodeDecodeError):
            payload = json.loads(raw)
        if reply.status in (429, 503):
            retry_after = payload.get(
                "retry_after_s", reply.getheader("Retry-After", 1)
            )
            raise Backpressure(float(retry_after))
        raise ClientError(reply.status, str(payload.get("error") or reply.reason))

    # -- verbs ------------------------------------------------------------

    def submit(self, request: dict[str, Any]) -> dict[str, Any]:
        """Submit a request body; returns ``{"job", "status", "outcome"}``."""
        return self._call("POST", "/v1/submit", request)

    def poll(self, key: str) -> dict[str, Any]:
        """Job status for a key."""
        return self._call("GET", f"/v1/jobs/{key}")

    def result(self, key: str, wait: Optional[float] = None) -> dict[str, Any]:
        """The completed result payload for a key.

        With ``wait``, the server first waits up to that many seconds
        (it caps the wait) for an in-flight job to finish.

        Raises:
            JobFailed: the server reports the job failed.
            ClientError: the key is unknown (404) or still in flight (409).
        """
        path, timeout = f"/v1/result/{key}", None
        if wait is not None:
            path, timeout = f"{path}?wait={wait}", self.timeout + wait
        try:
            return self._call("GET", path, timeout=timeout)
        except ClientError as error:
            if error.status == 500:
                raise JobFailed(str(error)) from None
            raise

    def healthz(self) -> dict[str, Any]:
        try:
            return self._call("GET", "/healthz")
        except Backpressure:  # draining still answers /healthz with 503
            return {"status": "draining"}

    def metrics(self) -> dict[str, Any]:
        return self._call("GET", "/metrics")

    # -- convenience ------------------------------------------------------

    def run(self, request: dict[str, Any], timeout: float = 120.0) -> dict[str, Any]:
        """Submit and block until the result payload is available.

        Retries backpressured submits (honouring ``Retry-After``,
        fractional values included), then long-polls the result, each
        wait bounded by the time left, so ``run`` never blocks past
        ``timeout``.  A cached submit is fetched without waiting.
        """
        deadline = time.monotonic() + timeout
        while True:
            try:
                ticket = self.submit(request)
                break
            except Backpressure as error:
                wait = min(error.retry_after_s, max(0, deadline - time.monotonic()))
                if time.monotonic() + wait >= deadline:
                    raise TimeoutError(
                        f"submit still backpressured after {timeout}s"
                    ) from None
                time.sleep(wait)
        key = ticket["job"]
        if ticket["status"] == "done":
            return self.result(key)
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"job {key} not done after {timeout}s")
            try:
                return self.result(key, wait=remaining)
            except ClientError as error:
                if error.status != 409:
                    raise
