"""Tests for the service core: dedup, batching, caching, drain."""

import threading
import time

import pytest

from repro.obs import hist_stats
from repro.serve.schema import parse_request
from repro.serve.service import (
    QueueFull,
    ServeConfig,
    ServiceDraining,
    SimService,
)

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


def make_service(tmp_path, **config_overrides):
    defaults = dict(store_dir=tmp_path, drain_timeout_s=30.0)
    defaults.update(config_overrides)
    return SimService(ServeConfig(**defaults))


def counter(service, name):
    return service.metrics.snapshot()["counters"].get(name, 0)


class TestLifecycle:
    def test_point_round_trip(self, tmp_path):
        with make_service(tmp_path) as service:
            job, outcome = service.submit(parse_request(body()))
            assert outcome == "accepted"
            assert job.wait(30)
            assert job.state == "done"
            assert len(job.payload["values"]) == 1
            assert job.payload["values"][0] > 0

    def test_fast_engine_round_trip(self, tmp_path):
        with make_service(tmp_path) as service:
            job, outcome = service.submit(parse_request(body(engine="fast")))
            assert outcome == "accepted"
            assert job.wait(30)
            assert job.state == "done"
            assert job.payload["engine"] == "fast"
            assert job.payload["values"][0] > 0

    def test_engine_tiers_do_not_share_cache_entries(self, tmp_path):
        # An exact result must never be served for a fast request (or
        # vice versa): the engine tag is part of the fingerprint.
        with make_service(tmp_path) as service:
            exact_job, _ = service.submit(parse_request(body()))
            assert exact_job.wait(30)
            fast_job, outcome = service.submit(
                parse_request(body(engine="fast"))
            )
            assert outcome == "accepted"  # not "cached"
            assert fast_job.key != exact_job.key
            assert fast_job.wait(30)
            assert fast_job.payload["engine"] == "fast"
            assert exact_job.payload["engine"] == "exact"

    def test_sweep_round_trip(self, tmp_path):
        with make_service(tmp_path) as service:
            request = parse_request(
                body(kind="sweep", point=None, levels=[0.0, 0.9])
            )
            job, _ = service.submit(request)
            assert job.wait(30)
            assert len(job.payload["values"]) == 4
            assert job.payload["levels"] == [0.0, 0.9]

    def test_close_drains_queued_work(self, tmp_path):
        service = make_service(tmp_path).start()
        service.pause()
        job, _ = service.submit(parse_request(body()))
        assert service.close()  # drain resumes the dispatcher
        assert job.state == "done"

    def test_status_transitions(self, tmp_path):
        with make_service(tmp_path) as service:
            service.pause()
            job, _ = service.submit(parse_request(body()))
            assert service.status(job.key)["status"] == "pending"
            service.resume()
            assert job.wait(30)
            assert service.status(job.key)["status"] == "done"
        assert service.status(job.key)["status"] == "done"  # from the store

    def test_unknown_key(self, tmp_path):
        with make_service(tmp_path) as service:
            assert service.status("f" * 24)["status"] == "unknown"
            assert service.result("f" * 24) is None


class TestDedup:
    def test_concurrent_identical_submits_share_one_job(self, tmp_path):
        with make_service(tmp_path) as service:
            service.pause()
            request = parse_request(body())
            first, outcome_a = service.submit(request)
            second, outcome_b = service.submit(parse_request(body()))
            assert (outcome_a, outcome_b) == ("accepted", "dedup")
            assert second is first
            service.resume()
            assert first.wait(30)
            assert counter(service, "serve.dedup_hits") == 1
            assert counter(service, "serve.simulated_points") == 1
            # Both "clients" read the same payload object: bit-identical.
            assert second.payload is first.payload

    def test_concurrent_submits_from_threads(self, tmp_path):
        with make_service(tmp_path) as service:
            service.pause()
            results = []
            barrier = threading.Barrier(4)

            def submit():
                barrier.wait()
                results.append(service.submit(parse_request(body())))

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            service.resume()
            jobs = {id(job) for job, _ in results}
            assert len(jobs) == 1
            assert sorted(outcome for _, outcome in results) == [
                "accepted", "dedup", "dedup", "dedup",
            ]
            assert counter(service, "serve.dedup_hits") == 3


class TestBatching:
    def test_queued_requests_coalesce_into_one_batch(self, tmp_path):
        with make_service(tmp_path) as service:
            service.pause()
            a, _ = service.submit(parse_request(body(0.0, 0.0)))
            b, _ = service.submit(parse_request(body(0.0, 0.9)))
            c, _ = service.submit(parse_request(body(0.9, 0.9)))
            service.resume()
            assert a.wait(30) and b.wait(30) and c.wait(30)
            assert counter(service, "serve.batches") == 1
            width = hist_stats(
                service.metrics.snapshot()["histograms"]["serve.batch_width"]
            )
            assert width["max"] >= 3

    def test_overlapping_points_simulated_once(self, tmp_path):
        with make_service(tmp_path) as service:
            service.pause()
            point, _ = service.submit(parse_request(body(0.0, 0.0)))
            sweep, _ = service.submit(
                parse_request(body(kind="sweep", point=None, levels=[0.0, 0.9]))
            )
            service.resume()
            assert point.wait(30) and sweep.wait(30)
            # 1 + 4 requested points, but (0.0, 0.0) is shared.
            assert counter(service, "serve.simulated_points") == 4
            assert point.payload["values"][0] == sweep.payload["values"][0]

    def test_distinct_machines_split_batches(self, tmp_path):
        with make_service(tmp_path) as service:
            service.pause()
            a, _ = service.submit(parse_request(body()))
            b, _ = service.submit(
                parse_request(body(machine={"preset": "baseline"}))
            )
            service.resume()
            assert a.wait(30) and b.wait(30)
            assert counter(service, "serve.batches") == 2


class TestCaching:
    def test_resubmit_is_served_from_store(self, tmp_path):
        with make_service(tmp_path) as service:
            job, _ = service.submit(parse_request(body()))
            assert job.wait(30)
            again, outcome = service.submit(parse_request(body()))
            assert outcome == "cached"
            assert again.state == "done"
            assert again.payload == job.payload
            assert counter(service, "serve.cache_hits") == 1
            assert counter(service, "serve.simulated_points") == 1

    def test_restart_serves_from_disk_without_resimulating(self, tmp_path):
        with make_service(tmp_path) as service:
            job, _ = service.submit(parse_request(body()))
            assert job.wait(30)
            payload = job.payload
        with make_service(tmp_path) as reborn:
            again, outcome = reborn.submit(parse_request(body()))
            assert outcome == "cached"
            assert again.payload == payload
            assert counter(reborn, "serve.simulated_points") == 0


class TestBackpressureAndDrain:
    def test_queue_full_raises(self, tmp_path):
        with make_service(tmp_path, queue_limit=1, retry_after_s=2.5) as service:
            service.pause()
            service.submit(parse_request(body(0.0, 0.0)))
            with pytest.raises(QueueFull) as exc:
                service.submit(parse_request(body(0.9, 0.9)))
            assert exc.value.retry_after_s == 2.5
            assert counter(service, "serve.rejected") == 1
            service.resume()

    def test_duplicate_of_queued_job_bypasses_backpressure(self, tmp_path):
        with make_service(tmp_path, queue_limit=1) as service:
            service.pause()
            first, _ = service.submit(parse_request(body()))
            twin, outcome = service.submit(parse_request(body()))
            assert outcome == "dedup" and twin is first
            service.resume()

    def test_draining_rejects_new_work(self, tmp_path):
        service = make_service(tmp_path).start()
        assert service.drain()
        with pytest.raises(ServiceDraining):
            service.submit(parse_request(body()))
        assert service.health()["status"] == "draining"
        service.close()

    def test_wait_blocks_only_on_in_flight_keys(self, tmp_path):
        with make_service(tmp_path) as service:
            service.pause()
            job, _ = service.submit(parse_request(body()))
            start = time.perf_counter()
            service.wait(job.key, 0.2)  # in flight: waits the timeout out
            assert time.perf_counter() - start >= 0.2
            assert job.state == "pending"
            threading.Timer(0.1, service.resume).start()
            service.wait(job.key, 30)  # returns when the job finishes
            assert job.state == "done"
            start = time.perf_counter()
            service.wait(job.key, 30)  # stored
            service.wait("f" * 24, 30)  # unknown
            assert time.perf_counter() - start < 1.0

    def test_failed_jobs_report_their_error(self, tmp_path):
        class ExplodingExecutor:
            def map(self, jobs):
                raise RuntimeError("boom")

            def close(self):
                pass

        service = SimService(
            ServeConfig(store_dir=tmp_path), executor=ExplodingExecutor()
        ).start()
        try:
            job, _ = service.submit(parse_request(body()))
            assert job.wait(30)
            assert job.state == "failed"
            assert "boom" in job.error
            assert service.status(job.key)["status"] == "failed"
            assert counter(service, "serve.failures") == 1
            # A retry after the failure is accepted fresh, not deduped.
            retry, outcome = service.submit(parse_request(body()))
            assert outcome == "accepted"
        finally:
            service.close()
