"""Mechanism isolation: no cache/store identity is shared across
mechanisms, anywhere results are keyed by content address."""

import json

import pytest

from repro.core.config import SAVE_2VPU
from repro.experiments.executor import PointJob
from repro.kernels.library import get_kernel
from repro.serve.schema import RequestError, parse_request
from repro.store import StoreError, SweepStore, SweepWriter
from repro.store.schema import sweep_fingerprint


def serve_body(**overrides):
    body = {
        "kind": "point",
        "kernel": {"rows": 2, "cols": 2, "k_steps": 4},
        "machine": {"preset": "save"},
        "point": [0.3, 0.6],
    }
    body.update(overrides)
    return body


def store_series(mechanism):
    return PointJob(
        config=get_kernel("nm24_fwd").config(k_steps=8),
        machine=SAVE_2VPU,
        engine="exact",
        mechanism=mechanism,
    )


class TestServeFingerprints:
    def test_mechanisms_never_share_a_fingerprint(self):
        save = parse_request(serve_body())
        explicit_save = parse_request(serve_body(mechanism="save"))
        sparce = parse_request(serve_body(mechanism="sparce"))
        # Omitting the field defaults to save — the same dedup key —
        # while sparce gets a disjoint one.
        assert save.fingerprint() == explicit_save.fingerprint()
        assert sparce.fingerprint() != save.fingerprint()

    def test_batch_keys_disjoint_too(self):
        save = parse_request(serve_body())
        sparce = parse_request(serve_body(mechanism="sparce"))
        assert save.batch_key() != sparce.batch_key()

    def test_jobs_carry_the_mechanism(self):
        request = parse_request(serve_body(mechanism="sparce"))
        assert all(job.mechanism == "sparce" for job in request.jobs())

    def test_indexmac_rejected_by_serve(self):
        with pytest.raises(RequestError, match="mechanism"):
            parse_request(serve_body(mechanism="indexmac"))

    def test_rival_with_fast_engine_rejected(self):
        with pytest.raises(RequestError, match="exact"):
            parse_request(serve_body(mechanism="sparce", engine="fast"))


class TestStoreFingerprints:
    def test_mechanisms_never_share_a_sweep_key(self):
        prints = {
            mechanism: sweep_fingerprint(store_series(mechanism))
            for mechanism in ("save", "sparce", "indexmac")
        }
        assert len(set(prints.values())) == 3

    def test_manifest_without_mechanism_refused(self, tmp_path):
        with SweepWriter(tmp_path, store_series("sparce")) as writer:
            writer.append(0.0, 0.0, 1.0)
        path = tmp_path / writer.fingerprint / "manifest.json"
        payload = json.loads(path.read_text())
        del payload["meta"]["mechanism"]
        path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="missing fields: mechanism"):
            SweepStore(tmp_path).count(mechanism="save")
