"""Full service lifecycle over a real socket (ephemeral port).

The acceptance scenario lives here: concurrent identical submits
trigger exactly one simulation and every client reads byte-identical
result bodies; a resubmit against a *restarted* service is served from
the on-disk store without re-simulating; the queue backpressures with
429 + ``Retry-After``; shutdown drains cleanly.  ``?wait=`` long-polls
and kept-alive connections are covered against the same live stack.
"""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve.client import Backpressure, ClientError, JobFailed, ServeClient
from repro.serve.http import make_server
from repro.serve.service import ServeConfig, SimService

K_STEPS = 3


def body(bs=0.3, nbs=0.6, **overrides):
    payload = {
        "kind": "point",
        "kernel": {"rows": 1, "cols": 1, "k_steps": K_STEPS},
        "machine": {"preset": "save"},
        "point": [bs, nbs],
    }
    payload.update(overrides)
    return {key: value for key, value in payload.items() if value is not None}


class LiveService:
    """A service + HTTP server on an ephemeral port, as a context."""

    def __init__(self, tmp_path, executor=None, **config_overrides):
        defaults = dict(port=0, store_dir=tmp_path, drain_timeout_s=30.0)
        defaults.update(config_overrides)
        self.service = SimService(ServeConfig(**defaults), executor=executor)
        self.server = None
        self.thread = None
        self.base_url = None

    def __enter__(self):
        self.service.start()
        self.server = make_server(self.service)
        host, port = self.server.server_address[:2]
        self.base_url = f"http://{host}:{port}"
        self.thread = threading.Thread(
            target=self.server.serve_forever, daemon=True
        )
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.service.close()

    def client(self):
        return ServeClient(self.base_url)

    def raw_result(self, key):
        """The exact bytes of a result body (bit-identity checks)."""
        with urllib.request.urlopen(
            f"{self.base_url}/v1/result/{key}", timeout=10
        ) as reply:
            return reply.read()

    def counter(self, name):
        return self.service.metrics.snapshot()["counters"].get(name, 0)


class TestLifecycle:
    def test_acceptance_scenario(self, tmp_path):
        request = body()
        with LiveService(tmp_path) as live:
            client = live.client()
            assert client.healthz()["status"] == "ok"

            # Two concurrent identical submits while the dispatcher is
            # held: exactly one simulation, one dedup hit.
            live.service.pause()
            tickets = []
            barrier = threading.Barrier(2)

            def submit():
                barrier.wait()
                tickets.append(client.submit(request))

            threads = [threading.Thread(target=submit) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            keys = {ticket["job"] for ticket in tickets}
            assert len(keys) == 1
            assert live.counter("serve.dedup_hits") == 1
            key = keys.pop()
            live.service.resume()
            while client.poll(key)["status"] not in ("done", "failed"):
                time.sleep(0.01)
            payload = client.result(key)
            assert payload["key"] == key
            assert live.counter("serve.simulated_points") == 1
            # Both clients read the result: byte-identical bodies.
            assert live.raw_result(key) == live.raw_result(key)

            metrics = client.metrics()
            assert metrics["counters"]["serve.batches"] == 1
            assert "serve.batch_width" in metrics["histograms"]

        # Restart on the same store: served from disk, no simulation.
        with LiveService(tmp_path) as reborn:
            ticket = reborn.client().submit(request)
            assert ticket["outcome"] == "cached"
            assert ticket["status"] == "done"
            assert reborn.counter("serve.simulated_points") == 0
            again = reborn.client().result(ticket["job"])
            assert again == payload

    def test_batching_width_over_http(self, tmp_path):
        with LiveService(tmp_path) as live:
            client = live.client()
            live.service.pause()
            keys = [
                client.submit(body(0.0, 0.3 * i))["job"] for i in range(3)
            ]
            live.service.resume()
            for key in keys:
                while client.poll(key)["status"] not in ("done", "failed"):
                    time.sleep(0.01)
            width = client.metrics()["histograms"]["serve.batch_width"]
            assert width["max"] >= 3
            assert live.counter("serve.batches") == 1


class TestHttpErrors:
    def test_bad_request_is_400(self, tmp_path):
        with LiveService(tmp_path) as live:
            with pytest.raises(ClientError) as exc:
                live.client().submit({"kind": "bogus"})
            assert exc.value.status == 400

    def test_unknown_paths_are_404(self, tmp_path):
        with LiveService(tmp_path) as live:
            with pytest.raises(ClientError) as exc:
                live.client()._call("GET", "/v1/nope")
            assert exc.value.status == 404

    def test_unknown_result_is_404(self, tmp_path):
        with LiveService(tmp_path) as live:
            with pytest.raises(ClientError) as exc:
                live.client().result("f" * 24)
            assert exc.value.status == 404

    def test_pending_result_is_409(self, tmp_path):
        with LiveService(tmp_path) as live:
            live.service.pause()
            key = live.client().submit(body())["job"]
            with pytest.raises(ClientError) as exc:
                live.client().result(key)
            assert exc.value.status == 409
            live.service.resume()

    def test_backpressure_is_429_with_retry_after(self, tmp_path):
        with LiveService(tmp_path, queue_limit=1, retry_after_s=3.0) as live:
            live.service.pause()
            live.client().submit(body(0.0, 0.0))
            request = urllib.request.Request(
                f"{live.base_url}/v1/submit",
                data=json.dumps(body(0.9, 0.9)).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(request, timeout=10)
            assert exc.value.code == 429
            assert exc.value.headers["Retry-After"] == "3"
            # The client maps it to Backpressure with the hint.
            with pytest.raises(Backpressure) as bp:
                live.client().submit(body(0.9, 0.9))
            assert bp.value.retry_after_s == 3.0
            live.service.resume()

    def test_draining_healthz_is_503(self, tmp_path):
        with LiveService(tmp_path) as live:
            assert live.service.drain()
            assert live.client().healthz()["status"] == "draining"
            with pytest.raises(Backpressure):
                live.client().submit(body())


class TestListenBacklog:
    CONNECTIONS = 16  # well past socketserver's default backlog of 5

    def test_burst_of_connects_never_waits_out_a_syn_retransmit(self, tmp_path):
        # Nothing accepts until every connect has finished, so each
        # connection must fit in the listen backlog.  A dropped SYN is
        # retried only after the 1 s initial RTO, hence the 1 s limit.
        service = SimService(ServeConfig(port=0, store_dir=tmp_path))
        server = make_server(service)
        sockets = []
        try:
            for _ in range(self.CONNECTIONS):
                start = time.perf_counter()
                try:
                    sockets.append(
                        socket.create_connection(
                            server.server_address[:2], timeout=1.0
                        )
                    )
                except OSError as error:
                    pytest.fail(f"connect {len(sockets) + 1} failed: {error}")
                assert time.perf_counter() - start < 1.0
        finally:
            for sock in sockets:
                sock.close()
            server.server_close()
            service.close()


class ExplodingExecutor:
    def map(self, jobs):
        raise RuntimeError("boom")

    def close(self):
        pass


def waiter(client, key, wait):
    """Start ``client.result(key, wait=...)`` on a thread; read ``.outcome``."""

    def run():
        try:
            thread.outcome = client.result(key, wait=wait)
        except Exception as error:  # noqa: BLE001 - asserted by the caller
            thread.outcome = error

    thread = threading.Thread(target=run)
    thread.outcome = None
    thread.start()
    return thread


class TestLongPoll:
    def test_waiter_returns_promptly_after_resume(self, tmp_path):
        with LiveService(tmp_path) as live:
            live.service.pause()
            key = live.client().submit(body())["job"]
            pending = waiter(live.client(), key, wait=5)
            time.sleep(0.2)
            assert pending.is_alive()  # held by the server, not answered 409
            resumed = time.perf_counter()
            live.service.resume()
            pending.join(timeout=10)
            assert not pending.is_alive()
            assert time.perf_counter() - resumed < 3.0
            assert pending.outcome["key"] == key

    def test_wait_expires_with_409_while_paused(self, tmp_path):
        with LiveService(tmp_path) as live:
            live.service.pause()
            client = live.client()
            key = client.submit(body())["job"]
            start = time.perf_counter()
            with pytest.raises(ClientError) as exc:
                client.result(key, wait=0.3)
            assert exc.value.status == 409
            assert 0.3 <= time.perf_counter() - start < 3.0
            live.service.resume()

    def test_unknown_key_is_404_without_waiting(self, tmp_path):
        with LiveService(tmp_path) as live:
            start = time.perf_counter()
            with pytest.raises(ClientError) as exc:
                live.client().result("f" * 24, wait=5)
            assert exc.value.status == 404
            assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "query", ["wait=abc", "wait=-1", "wait=nan", "wait=", "wait=1&wait=2", "w=1"]
    )
    def test_bad_wait_is_400(self, tmp_path, query):
        with LiveService(tmp_path) as live:
            with pytest.raises(ClientError) as exc:
                live.client()._call("GET", f"/v1/result/{'f' * 24}?{query}")
            assert exc.value.status == 400

    def test_failed_job_is_500_without_waiting_out_the_timeout(self, tmp_path):
        with LiveService(tmp_path, executor=ExplodingExecutor()) as live:
            live.service.pause()
            client = live.client()
            key = client.submit(body())["job"]
            pending = waiter(client, key, wait=10)
            time.sleep(0.2)
            start = time.perf_counter()
            live.service.resume()
            pending.join(timeout=15)
            assert not pending.is_alive()
            assert time.perf_counter() - start < 3.0
            assert isinstance(pending.outcome, JobFailed)
            assert "boom" in str(pending.outcome)
            # Asked again once failed, the answer is immediate.
            start = time.perf_counter()
            with pytest.raises(JobFailed):
                client.result(key, wait=10)
            assert time.perf_counter() - start < 1.0


@pytest.fixture
def connects(monkeypatch):
    """Count client-side TCP connects."""
    counted = []
    connect = http.client.HTTPConnection.connect

    def counting(self):
        counted.append(self)
        connect(self)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", counting)
    return counted


class TestKeepAlive:
    RUNS = 100

    def test_cached_runs_reuse_one_connection_quickly(self, tmp_path, connects):
        # With Nagle on either side each exchange waits out a delayed
        # ACK (~40-90 ms), so 100 runs would take seconds, not < 1 s.
        request = body()
        with LiveService(tmp_path) as live:
            client = live.client()
            client.run(request, timeout=30)
            start = time.perf_counter()
            for _ in range(self.RUNS):
                client.run(request, timeout=30)
            elapsed = time.perf_counter() - start
            assert len(connects) == 1
            assert elapsed < 1.0, f"{self.RUNS} cached runs took {elapsed:.2f}s"

    def test_reconnects_after_the_server_drops_the_connection(
        self, tmp_path, connects
    ):
        with LiveService(tmp_path) as live:
            accepted = []
            get_request = live.server.get_request

            def recording():
                conn, address = get_request()
                accepted.append(conn)
                return conn, address

            live.server.get_request = recording
            client = live.client()
            first = client.run(body(), timeout=30)
            assert len(accepted) == 1
            accepted[0].shutdown(socket.SHUT_RDWR)
            assert client.run(body(), timeout=30) == first
            assert len(connects) == 2

    def test_shutdown_is_prompt_with_an_idle_client(self, tmp_path):
        live = LiveService(tmp_path).__enter__()
        try:
            client = live.client()
            client.run(body(), timeout=30)
            assert client._local.conn.sock is not None  # kept alive, idle
            start = time.perf_counter()
            live.server.shutdown()
            live.server.server_close()
            assert time.perf_counter() - start < 2.0
        finally:
            live.thread.join(timeout=10)
            live.service.close()
