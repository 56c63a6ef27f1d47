"""Client backpressure and long-poll behaviour, with a fake clock throughout.

No sockets and no real sleeping: the transport (``_call``, or
``_exchange`` below it) is stubbed per scenario and
``repro.serve.client.time`` is replaced by a fake whose ``sleep``
advances a virtual clock.  A stubbed long-poll advances the clock by
as long as the server would hold it, so deadlines are asserted exactly.
"""

import json

import pytest

from repro.serve import client as client_mod
from repro.serve.client import (
    Backpressure,
    ClientError,
    JobFailed,
    ServeClient,
)

PENDING = {"job": "k", "status": "pending", "outcome": "accepted"}


class FakeTime:
    """Virtual clock: ``sleep`` advances ``monotonic`` and records."""

    def __init__(self):
        self.now = 1000.0
        self.sleeps = []

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr(client_mod, "time", fake)
    return fake


def scripted_client(script, clock):
    """A client whose ``_call`` pops canned responses/exceptions.

    ``script`` maps ``(method, path_prefix)`` to a list; exceptions are
    raised, callables are called with the ``?wait=`` seconds (``None``
    without one), everything else is returned.  Lists stick on their
    last entry.  Each call is recorded as ``(method, path, wait, now)``.
    """
    client = ServeClient("http://test")
    calls = []

    def _call(method, path, body=None, timeout=None):
        path, _, query = path.partition("?")
        wait = float(query.split("=", 1)[1]) if query else None
        calls.append((method, path, wait, clock.now))
        for (m, prefix), responses in script.items():
            if method == m and path.startswith(prefix):
                response = responses.pop(0) if len(responses) > 1 else responses[0]
                if callable(response):
                    response = response(wait)
                if isinstance(response, Exception):
                    raise response
                return response
        raise AssertionError(f"unexpected call {method} {path}")

    client._call = _call
    client.calls = calls
    return client


def held(clock, seconds, reply):
    """A long-poll answer: the server holds it ``min(wait, seconds)``."""

    def answer(wait):
        clock.now += min(wait, seconds)
        return reply

    return answer


def still_running():
    return ClientError(409, "Conflict")


class FakeReply:
    def __init__(self, status, reason, headers=None):
        self.status = status
        self.reason = reason
        self.headers = headers or {}

    def getheader(self, name, default=None):
        return self.headers.get(name, default)


class TestSubmitBackpressure:
    def test_retry_after_is_honoured_including_fractions(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [Backpressure(0.25), Backpressure(0.25), PENDING],
            ("GET", "/v1/result/"): [{"values": [1.0]}],
        }, clock)
        assert client.run({"r": 1}, timeout=60) == {"values": [1.0]}
        # The two backpressured submits slept exactly the server's hint.
        assert clock.sleeps == [0.25, 0.25]

    def test_backpressured_submit_times_out_cleanly(self, clock):
        client = scripted_client(
            {("POST", "/v1/submit"): [Backpressure(10.0)]}, clock
        )
        with pytest.raises(TimeoutError, match="still backpressured"):
            client.run({"r": 1}, timeout=1.0)
        # The wait was clamped to the deadline, never the full 10s hint.
        assert sum(clock.sleeps) <= 1.0
        assert clock.now - 1000.0 <= 1.0 + 1e-9

    def test_draining_503_surfaces_backpressure(self, monkeypatch):
        client = ServeClient("http://test")
        payload = json.dumps({"error": "draining", "retry_after_s": 1.0}).encode()
        monkeypatch.setattr(
            client,
            "_exchange",
            lambda *args: (FakeReply(503, "Service Unavailable"), payload),
        )
        with pytest.raises(Backpressure) as info:
            client.submit({"r": 1})
        assert info.value.retry_after_s == 1.0


class TestLongPoll:
    def test_cached_ticket_fetches_without_waiting(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [{"job": "k", "status": "done", "outcome": "cached"}],
            ("GET", "/v1/result/"): [{"ok": True}],
        }, clock)
        assert client.run({"r": 1}, timeout=60) == {"ok": True}
        assert [(m, p, w) for m, p, w, _ in client.calls] == [
            ("POST", "/v1/submit", None),
            ("GET", "/v1/result/k", None),
        ]
        assert clock.sleeps == []

    def test_conflict_rewaits_with_only_the_remaining_deadline(self, clock):
        # The server caps each wait at 30 s and answers 409 once.
        client = scripted_client({
            ("POST", "/v1/submit"): [PENDING],
            ("GET", "/v1/result/"): [
                held(clock, 30.0, still_running()),
                held(clock, 0.5, {"ok": True}),
            ],
        }, clock)
        assert client.run({"r": 1}, timeout=60) == {"ok": True}
        waits = [w for _, p, w, _ in client.calls if p.startswith("/v1/result/")]
        assert waits == pytest.approx([60.0, 30.0])
        # No status polls and no client-side sleeps: the server waited.
        assert not any(p.startswith("/v1/jobs/") for _, p, _, _ in client.calls)
        assert clock.sleeps == []

    def test_no_wait_exceeds_the_remaining_time(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [PENDING],
            ("GET", "/v1/result/"): [held(clock, 0.5, still_running())],
        }, clock)
        with pytest.raises(TimeoutError):
            client.run({"r": 1}, timeout=5.25)
        deadline = 1000.0 + 5.25
        waits = [(w, t) for _, p, w, t in client.calls if p.startswith("/v1/result/")]
        # Ten 0.5 s holds, then one last wait for the quarter second left.
        assert len(waits) == 11 and waits[-1][0] == 0.25
        assert all(0 < w <= deadline - t + 1e-9 for w, t in waits)
        assert clock.now <= deadline + 1e-9

    def test_timeout_raised_at_the_deadline(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [PENDING],
            ("GET", "/v1/result/"): [held(clock, 30.0, still_running())],
        }, clock)
        with pytest.raises(TimeoutError, match="not done after"):
            client.run({"r": 1}, timeout=2.0)
        assert clock.now == pytest.approx(1002.0)
        assert clock.sleeps == []


class TestTerminalStates:
    def test_failed_job_raises_job_failed(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [PENDING],
            ("GET", "/v1/result/"): [ClientError(500, "boom")],
        }, clock)
        with pytest.raises(JobFailed, match="boom"):
            client.run({"r": 1}, timeout=10)
        assert clock.now == 1000.0

    def test_vanished_job_raises_client_error(self, clock):
        client = scripted_client({
            ("POST", "/v1/submit"): [PENDING],
            ("GET", "/v1/result/"): [ClientError(404, "unknown")],
        }, clock)
        with pytest.raises(ClientError) as info:
            client.run({"r": 1}, timeout=10)
        assert info.value.status == 404
