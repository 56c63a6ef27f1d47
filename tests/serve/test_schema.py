"""Tests for the service request model: validation + fingerprints."""

import pytest

from repro.core.config import CoalescingScheme, SAVE_2VPU
from repro.kernels.tiling import BroadcastPattern, Precision
from repro.serve import schema
from repro.serve.schema import (
    SERVE_SCHEMA_VERSION,
    RequestError,
    parse_request,
)


def point_body(**overrides):
    body = {
        "kind": "point",
        "kernel": {"rows": 2, "cols": 2, "k_steps": 4},
        "machine": {"preset": "save"},
        "point": [0.3, 0.6],
    }
    body.update(overrides)
    return {key: value for key, value in body.items() if value is not None}


class TestParsing:
    def test_point_defaults(self):
        request = parse_request(point_body())
        assert request.kind == "point"
        assert request.series.config.tile.pattern == BroadcastPattern.EXPLICIT
        assert request.series.config.precision == Precision.FP32
        assert request.series.metric == "ns_per_fma"
        assert request.points == ((0.3, 0.6),)
        assert request.levels is None

    def test_sweep_expands_row_major(self):
        request = parse_request(
            point_body(kind="sweep", point=None, levels=[0.0, 0.9])
        )
        assert request.points == ((0.0, 0.0), (0.0, 0.9), (0.9, 0.0), (0.9, 0.9))
        assert request.levels == (0.0, 0.9)

    def test_sweep_point_order_matches_surface_build(self):
        # SparsitySurface.build iterates `for bs in levels for nbs in
        # levels`; the service must agree so values reshape into the
        # same grid.
        levels = (0.0, 0.3, 0.9)
        request = parse_request(
            point_body(kind="sweep", point=None, levels=list(levels))
        )
        expected = tuple((bs, nbs) for bs in levels for nbs in levels)
        assert request.points == expected

    def test_machine_overrides_resolve(self):
        request = parse_request(
            point_body(
                machine={
                    "preset": "save",
                    "save": {"coalescing": "vc", "lane_wise_dependence": False},
                    "core": {"num_vpus": 1},
                }
            )
        )
        machine = request.series.machine
        assert machine.save.coalescing == CoalescingScheme.VERTICAL
        assert machine.save.lane_wise_dependence is False
        assert machine.core.num_vpus == 1

    def test_default_machine_is_save(self):
        body = point_body()
        del body["machine"]
        assert parse_request(body).series.machine == SAVE_2VPU

    def test_jobs_one_per_point(self):
        request = parse_request(
            point_body(kind="sweep", point=None, levels=[0.0, 0.9])
        )
        jobs = request.jobs()
        assert len(jobs) == 4
        assert jobs[1].config.broadcast_sparsity == 0.0
        assert jobs[1].config.nonbroadcast_sparsity == 0.9
        assert all(job.metric == "ns_per_fma" for job in jobs)


class TestValidation:
    @pytest.mark.parametrize(
        "mutate",
        [
            {"kind": "diagonal"},
            {"metric": "flops"},
            {"point": [0.3]},
            {"point": [0.3, 1.5]},
            {"bogus": 1},
            {"kernel": {"rows": 2, "cols": 2, "bogus": 1}},
            {"kernel": {"rows": 0, "cols": 2}},
            {"kernel": {"rows": 2, "cols": 2, "k_steps": 0}},
            {"machine": {"preset": "tpu"}},
            {"machine": {"preset": "save", "save": {"bogus": 1}}},
            {"machine": {"preset": "save", "save": {"coalescing": "zigzag"}}},
            {"machine": {"preset": "save", "save": {"rotation_states": 2}}},
            {"engine": "turbo"},
        ],
    )
    def test_bad_bodies_rejected(self, mutate):
        with pytest.raises(RequestError):
            parse_request(point_body(**mutate))

    def test_sweep_rejects_point_field(self):
        with pytest.raises(RequestError, match="point"):
            parse_request(point_body(kind="sweep", levels=[0.0, 0.9]))

    def test_point_rejects_levels_field(self):
        with pytest.raises(RequestError, match="levels"):
            parse_request(point_body(levels=[0.0]))

    def test_duplicate_levels_rejected(self):
        with pytest.raises(RequestError, match="duplicates"):
            parse_request(point_body(kind="sweep", point=None, levels=[0.3, 0.3]))

    def test_non_object_body_rejected(self):
        with pytest.raises(RequestError):
            parse_request([1, 2, 3])


class TestFingerprints:
    def test_identical_requests_identical_fingerprints(self):
        a = parse_request(point_body())
        # Same content, different field order / float spelling.
        b = parse_request(
            {
                "point": [0.30, 0.60],
                "machine": {"preset": "save"},
                "kernel": {"k_steps": 4, "cols": 2, "rows": 2},
                "kind": "point",
            }
        )
        assert a.fingerprint() == b.fingerprint()

    def test_distinct_requests_distinct_fingerprints(self):
        a = parse_request(point_body())
        b = parse_request(point_body(point=[0.3, 0.7]))
        c = parse_request(point_body(machine={"preset": "baseline"}))
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_same_machine_named_two_ways_shares_a_fingerprint(self):
        preset = parse_request(point_body(machine={"preset": "save"}))
        overridden = parse_request(
            point_body(
                machine={"preset": "baseline", "save": {"enabled": True}}
            )
        )
        assert preset.fingerprint() == overridden.fingerprint()
        assert preset.batch_key() == overridden.batch_key()
        assert preset.series.machine == overridden.series.machine

    def test_schema_version_in_canonical(self, monkeypatch):
        before = parse_request(point_body()).fingerprint()
        monkeypatch.setattr(
            schema, "SERVE_SCHEMA_VERSION", SERVE_SCHEMA_VERSION + 1
        )
        assert parse_request(point_body()).fingerprint() != before

    def test_engine_tiers_never_share_a_fingerprint(self):
        # The identical point on different engine tiers must not
        # collide in the result store: the tag is part of the
        # canonical form.
        exact = parse_request(point_body())
        fast = parse_request(point_body(engine="fast"))
        analytic = parse_request(point_body(engine="analytic"))
        prints = {
            exact.fingerprint(), fast.fingerprint(), analytic.fingerprint()
        }
        assert len(prints) == 3
        assert exact.series.engine == "exact"  # the default tier
        assert fast.series.canonical_series()["engine"] == "fast"

    def test_engine_reaches_point_jobs(self):
        jobs = parse_request(point_body(engine="fast")).jobs()
        assert all(job.engine == "fast" for job in jobs)

    def test_batch_key_ignores_points_only(self):
        a = parse_request(point_body())
        b = parse_request(point_body(point=[0.9, 0.0]))
        sweep = parse_request(point_body(kind="sweep", point=None, levels=[0.3]))
        other = parse_request(point_body(machine={"preset": "baseline"}))
        assert a.batch_key() == b.batch_key() == sweep.batch_key()
        assert a.batch_key() != other.batch_key()
        assert a.fingerprint() != b.fingerprint()
