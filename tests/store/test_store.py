"""The columnar sweep store: writer, manifest, query engine, export."""

import io
import json
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BASELINE_2VPU, SAVE_2VPU, machine_label
from repro.experiments.executor import METRIC_NS_PER_FMA, PointJob
from repro.experiments.streamsweep import stream_sweep
from repro.fsio import FileLock, LockTimeout
from repro.kernels.library import get_kernel
from repro.kernels.tiling import Precision
from repro.store import (
    FILTER_FIELDS,
    QUERY_FIELDS,
    STORE_SCHEMA_VERSION,
    SWEEP_COLUMNS,
    SWEEP_META_FIELDS,
    StoreError,
    SweepStore,
    SweepWriter,
    sweep_fingerprint,
    read_segment,
    sweep_meta,
    validate_meta,
    write_segment,
)
from repro.store.writer import read_manifest

CONFIG = get_kernel("resnet2_2_fwd").config(precision=Precision.FP32, k_steps=8)


def job(**overrides):
    """A sweep's series job; overrides replace PointJob fields."""
    fields = {
        "config": CONFIG,
        "machine": SAVE_2VPU,
        "engine": "fast",
        "metric": "time_ns",
    }
    fields.update(overrides)
    return PointJob(**fields)


def write_points(root, points, series=None, **writer_kwargs):
    with SweepWriter(root, series or job(), **writer_kwargs) as writer:
        for bs, nbs, value in points:
            writer.append(bs, nbs, value)
    return writer


POINTS = [(0.0, 0.0, 10.0), (0.0, 0.5, 8.0), (0.5, 0.0, 6.5), (0.5, 0.5, 4.0)]


class TestSchema:
    def test_fingerprint_deterministic(self):
        assert sweep_fingerprint(job()) == sweep_fingerprint(job())
        assert len(sweep_fingerprint(job())) == 24

    def test_fingerprint_covers_every_meta_field(self):
        variants = {
            "kernel": job(config=replace(CONFIG, name="other")),
            "machine": job(machine=BASELINE_2VPU),
            "engine": job(engine="exact"),
            "mechanism": job(mechanism="sparce"),
            "metric": job(metric="ns_per_fma"),
            "precision": job(config=replace(CONFIG, precision=Precision.MIXED)),
            "k_steps": job(config=replace(CONFIG, k_steps=9)),
            "seed": job(config=replace(CONFIG, seed=99)),
        }
        base = job()
        for field in SWEEP_META_FIELDS:
            changed = variants[field]
            assert sweep_meta(changed)[field] != sweep_meta(base)[field], field
            assert sweep_fingerprint(changed) != sweep_fingerprint(base), field

    def test_validate_meta_missing_field(self):
        incomplete = sweep_meta(job())
        del incomplete["seed"]
        with pytest.raises(ValueError, match="missing fields: seed"):
            validate_meta(incomplete)

    def test_validate_meta_unknown_field(self):
        with pytest.raises(ValueError, match="unknown fields: extra"):
            validate_meta({**sweep_meta(job()), "extra": 1})

    def test_query_fields_cover_columns_and_identity(self):
        assert set(SWEEP_COLUMNS) <= set(QUERY_FIELDS)
        assert set(QUERY_FIELDS) - set(SWEEP_COLUMNS) <= set(SWEEP_META_FIELDS)
        assert QUERY_FIELDS == FILTER_FIELDS + tuple(SWEEP_COLUMNS)


class TestWriter:
    def test_roundtrip(self, tmp_path):
        writer = write_points(tmp_path, POINTS)
        rows = list(SweepStore(tmp_path).query())
        assert [(r["bs"], r["nbs"], r["value"]) for r in rows] == POINTS
        assert all(r["kernel"] == "resnet2_2_fwd" for r in rows)
        assert writer.rows_written == len(POINTS)

    def test_manifest_complete_after_clean_close(self, tmp_path):
        writer = write_points(tmp_path, POINTS)
        manifest = read_manifest(tmp_path / writer.fingerprint)
        assert manifest["complete"] is True
        assert manifest["rows"] == len(POINTS)
        assert manifest["schema"] == STORE_SCHEMA_VERSION
        assert manifest["columns"] == list(SWEEP_COLUMNS)

    def test_exception_leaves_sweep_incomplete(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with SweepWriter(tmp_path, job()) as writer:
                writer.append(0.1, 0.2, 3.0)
                raise RuntimeError("boom")
        manifest = read_manifest(tmp_path / writer.fingerprint)
        assert manifest["complete"] is False
        assert manifest["rows"] == 1  # the flushed tail is still queryable

    def test_segment_rollover(self, tmp_path):
        points = [(i * 0.01, i * 0.02, float(i)) for i in range(10)]
        writer = write_points(tmp_path, points, segment_rows=4)
        manifest = read_manifest(tmp_path / writer.fingerprint)
        assert [s["rows"] for s in manifest["segments"]] == [4, 4, 2]
        values = [r["value"] for r in SweepStore(tmp_path).query()]
        assert values == [float(i) for i in range(10)]

    def test_append_batch_matches_append(self, tmp_path):
        write_points(tmp_path / "one", POINTS)
        with SweepWriter(tmp_path / "two", job()) as writer:
            writer.append_batch(
                [p[0] for p in POINTS],
                [p[1] for p in POINTS],
                [p[2] for p in POINTS],
            )
        assert list(SweepStore(tmp_path / "one").query()) == list(
            SweepStore(tmp_path / "two").query()
        )

    def test_append_batch_rejects_ragged_columns(self, tmp_path):
        with SweepWriter(tmp_path, job()) as writer:
            with pytest.raises(ValueError, match="equal lengths"):
                writer.append_batch([0.1], [0.2, 0.3], [1.0])

    def test_closed_writer_rejects_appends(self, tmp_path):
        writer = write_points(tmp_path, POINTS)
        with pytest.raises(StoreError, match="closed"):
            writer.append(0.1, 0.1, 1.0)

    def test_version_mismatch_refused(self, tmp_path):
        writer = write_points(tmp_path, POINTS)
        manifest_path = tmp_path / writer.fingerprint / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        # A newer layout, and a v1 manifest from before the mechanism
        # column existed: both are refused, never read with defaults.
        pre_mechanism = {
            key: value for key, value in payload["meta"].items()
            if key != "mechanism"
        }
        for schema, meta in (
            (STORE_SCHEMA_VERSION + 1, payload["meta"]),
            (1, pre_mechanism),
        ):
            manifest_path.write_text(
                json.dumps({**payload, "schema": schema, "meta": meta})
            )
            with pytest.raises(StoreError, match="store schema"):
                list(SweepStore(tmp_path).query())


class TestGrowingSweep:
    """A sweep is a growing set of points, each held at most once."""

    def test_reopen_keeps_segments_and_exposes_stored_points(self, tmp_path):
        write_points(tmp_path, POINTS[:2], segment_rows=1)
        with SweepWriter(tmp_path, job()) as writer:
            assert writer.stored == {(bs, nbs): v for bs, nbs, v in POINTS[:2]}
            writer.append_batch(*zip(*POINTS[2:]))
        manifest = read_manifest(tmp_path / writer.fingerprint)
        assert [s["rows"] for s in manifest["segments"]] == [1, 1, 2]
        assert manifest["rows"] == len(POINTS) and manifest["complete"]
        rows = list(SweepStore(tmp_path).query())
        assert [(r["bs"], r["nbs"], r["value"]) for r in rows] == POINTS
        assert SweepStore(tmp_path).points(job()) == {
            (bs, nbs): v for bs, nbs, v in POINTS
        }

    def test_appending_a_stored_point_is_refused(self, tmp_path):
        write_points(tmp_path, POINTS)
        with SweepWriter(tmp_path, job()) as writer:
            with pytest.raises(StoreError, match="already holds"):
                writer.append(0.5, 0.0, 1.0)
        assert SweepStore(tmp_path).count() == len(POINTS)

    def test_writer_holds_the_sweep_lock_until_close(self, tmp_path):
        writer = SweepWriter(tmp_path, job(), segment_rows=1)
        lock = FileLock(
            tmp_path / writer.fingerprint / "manifest.json.lock", timeout=0.05
        )
        with pytest.raises(LockTimeout):
            lock.acquire()
        writer.append(0.1, 0.1, 1.0)  # a flush under the held lock
        writer.close()
        lock.acquire().release()

    def test_waiting_writer_sees_the_holders_points(self, tmp_path):
        first = SweepWriter(tmp_path, job())
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(SweepWriter(tmp_path, job()).stored)
        )
        thread.start()
        thread.join(timeout=0.3)
        assert thread.is_alive()  # blocked on the sweep's lock
        first.append(0.2, 0.3, 5.0)
        first.close()
        thread.join(timeout=10)
        assert seen == [{(0.2, 0.3): 5.0}]

    def test_missing_sweep_reads_no_points(self, tmp_path):
        assert SweepStore(tmp_path).points(job()) == {}
        assert not tmp_path.joinpath(sweep_fingerprint(job())).exists()


GRID = (0.0, 0.25, 0.5, 0.75)
#: The series ``stream_sweep("resnet2_2_fwd", ..., engine="analytic",
#: k_steps=4)`` fills.
ANALYTIC = PointJob(
    config=get_kernel("resnet2_2_fwd").config(k_steps=4),
    machine=SAVE_2VPU,
    metric=METRIC_NS_PER_FMA,
    engine="analytic",
)


@settings(max_examples=12)
@given(
    fills=st.lists(
        st.tuples(
            st.lists(st.sampled_from(GRID), min_size=1, max_size=4),
            st.lists(st.sampled_from(GRID), min_size=1, max_size=4),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=4,
    )
)
def test_overlapping_fills_store_each_point_once(fills):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        wanted = set()
        for bs_levels, nbs_levels, batch in fills:
            stream_sweep(
                "resnet2_2_fwd", SAVE_2VPU, bs_levels, nbs_levels, root,
                engine="analytic", k_steps=4, batch_points=batch,
            )
            wanted |= {(bs, nbs) for bs in bs_levels for nbs in nbs_levels}
        rows = list(SweepStore(root).query())
        assert len(rows) == len(wanted)
        for row in rows:
            assert row["value"] == ANALYTIC.at(row["bs"], row["nbs"]).run()


def test_concurrent_overlapping_fills_store_each_point_once(tmp_path):
    # More fillers than cores, switching often: the sweep's lock and the
    # re-check under it must leave each point stored exactly once.
    import sys

    grids = [GRID[i:] + GRID[:i] for i in range(6)]
    errors = []

    def fill(levels):
        try:
            stream_sweep(
                "resnet2_2_fwd", SAVE_2VPU, levels, GRID[:2], tmp_path,
                engine="analytic", k_steps=4, batch_points=1,
            )
        except Exception as error:  # reported below, not swallowed
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=fill, args=(g,)) for g in grids]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    rows = list(SweepStore(tmp_path).query())
    assert len(rows) == len(GRID) * 2
    assert len({(row["bs"], row["nbs"]) for row in rows}) == len(rows)


class TestSegmentIo:
    """The one read/write pair refuses any drift from SWEEP_COLUMNS."""

    def columns(self, n=3):
        return {
            name: np.arange(n, dtype=dtype) for name, dtype in SWEEP_COLUMNS.items()
        }

    def save(self, path, arrays):
        np.savez(path, **arrays)
        return path

    def test_roundtrip_every_column(self, tmp_path):
        columns = self.columns()
        write_segment(tmp_path / "seg.npz", columns)
        arrays = read_segment(tmp_path / "seg.npz")
        assert list(arrays) == list(SWEEP_COLUMNS)
        for name, dtype in SWEEP_COLUMNS.items():
            assert arrays[name].dtype == np.dtype(dtype)
            assert np.array_equal(arrays[name], columns[name])

    def test_extra_array_refused(self, tmp_path):
        path = self.save(tmp_path / "seg.npz", {**self.columns(), "extra": np.ones(3)})
        with pytest.raises(StoreError, match=r"extra \['extra'\]"):
            read_segment(path)

    @pytest.mark.parametrize("column", list(SWEEP_COLUMNS))
    def test_missing_array_refused(self, tmp_path, column):
        arrays = self.columns()
        del arrays[column]
        path = self.save(tmp_path / "seg.npz", arrays)
        with pytest.raises(StoreError, match=f"missing \\['{column}'\\]"):
            read_segment(path)

    @pytest.mark.parametrize("column", list(SWEEP_COLUMNS))
    def test_wrong_dtype_refused(self, tmp_path, column):
        arrays = {**self.columns(), column: np.arange(3, dtype="float32")}
        path = self.save(tmp_path / "seg.npz", arrays)
        with pytest.raises(StoreError, match=f"column '{column}' is float32"):
            read_segment(path)

    def test_unequal_lengths_refused(self, tmp_path):
        arrays = {**self.columns(), "value": np.arange(2, dtype="float64")}
        path = self.save(tmp_path / "seg.npz", arrays)
        with pytest.raises(StoreError, match="unequal lengths"):
            read_segment(path)
        with pytest.raises(ValueError, match="equal lengths"):
            write_segment(tmp_path / "other.npz", arrays)

    def test_damaged_file_refused(self, tmp_path):
        write_segment(tmp_path / "seg.npz", self.columns())
        raw = (tmp_path / "seg.npz").read_bytes()
        (tmp_path / "seg.npz").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StoreError, match="unreadable segment"):
            read_segment(tmp_path / "seg.npz")

    def test_every_column_reaches_query_rows(self, tmp_path):
        writer = write_points(tmp_path, POINTS)
        for name in SWEEP_COLUMNS:
            (sweep_dir,) = tmp_path.iterdir()
            stored = read_segment(sweep_dir / "seg-000000.npz")[name]
            rows = list(SweepStore(tmp_path).query(fingerprint=writer.fingerprint))
            assert [row[name] for row in rows] == stored.tolist()


class TestQuery:
    @pytest.fixture()
    def store(self, tmp_path):
        write_points(tmp_path, POINTS)
        write_points(
            tmp_path,
            [(0.3, 0.3, 99.0)],
            job(machine=BASELINE_2VPU, engine="exact"),
        )
        return SweepStore(tmp_path)

    def test_identity_filters(self, store):
        assert store.count(machine="baseline-2vpu@1.7") == 1
        assert store.count(engine="fast") == len(POINTS)
        assert store.count(kernel="resnet2_2_fwd") == len(POINTS) + 1
        assert store.count(kernel="absent") == 0

    def test_range_filters_inclusive(self, store):
        assert store.count(bs_range=(0.0, 0.0)) == 2
        assert store.count(bs_range=(0.5, 0.5), nbs_range=(0.5, 0.5)) == 1
        assert store.count(engine="fast", bs_range=(0.4, 1.0)) == 2

    def test_fingerprint_filter(self, store):
        fingerprint = sweep_fingerprint(job())
        assert store.count(fingerprint=fingerprint) == len(POINTS)

    def test_describe_lists_both_sweeps(self, store):
        summaries = store.describe()
        assert len(summaries) == 2
        assert {s["engine"] for s in summaries} == {"fast", "exact"}
        assert all(s["complete"] for s in summaries)

    def test_rows_carry_exactly_the_query_fields(self, store):
        rows = list(store.query())
        assert rows
        assert all(tuple(row) == QUERY_FIELDS for row in rows)

    def test_empty_root_queries_empty(self, tmp_path):
        empty = SweepStore(tmp_path / "missing")
        assert list(empty.query()) == []
        assert empty.describe() == []


class TestAggregate:
    @pytest.fixture()
    def store(self, tmp_path):
        write_points(tmp_path, POINTS)
        write_points(
            tmp_path,
            [(0.0, 0.0, 20.0), (0.5, 0.5, 2.0)],
            job(mechanism="sparce"),
        )
        return SweepStore(tmp_path)

    def test_mean_by_mechanism(self, store):
        rows = store.aggregate(("mechanism",), reduce="mean")
        by_mechanism = {row["mechanism"]: row["value"] for row in rows}
        assert by_mechanism["save"] == pytest.approx(28.5 / 4)
        assert by_mechanism["sparce"] == pytest.approx(11.0)
        assert all(row["reduce"] == "mean" for row in rows)

    def test_count_by_mechanism(self, store):
        rows = store.aggregate(("mechanism",), reduce="count")
        assert {(r["mechanism"], r["value"]) for r in rows} == {
            ("save", 4.0),
            ("sparce", 2.0),
        }

    def test_min_max(self, store):
        low = store.aggregate(("kernel",), reduce="min")
        high = store.aggregate(("kernel",), reduce="max")
        assert low[0]["value"] == 2.0
        assert high[0]["value"] == 20.0

    def test_multi_column_groups_sorted(self, store):
        rows = store.aggregate(("mechanism", "bs"), reduce="mean")
        keys = [(row["mechanism"], row["bs"]) for row in rows]
        assert keys == sorted(keys)
        assert len(keys) == 4  # two mechanisms x two bs levels

    def test_filters_apply_before_grouping(self, store):
        rows = store.aggregate(
            ("mechanism",), reduce="count", mechanism="sparce"
        )
        assert rows == [
            {"mechanism": "sparce", "reduce": "count", "value": 2.0}
        ]

    def test_unknown_column_rejected(self, store):
        with pytest.raises(ValueError, match="group-by column"):
            store.aggregate(("flavour",))

    def test_unknown_reduction_rejected(self, store):
        with pytest.raises(ValueError, match="reduction"):
            store.aggregate(("mechanism",), reduce="median")

    def test_empty_group_by_rejected(self, store):
        with pytest.raises(ValueError, match="at least one"):
            store.aggregate(())

    def test_empty_store_aggregates_empty(self, tmp_path):
        assert SweepStore(tmp_path / "none").aggregate(("kernel",)) == []


class TestExport:
    def test_csv_header_and_rows(self, tmp_path):
        write_points(tmp_path, POINTS)
        out = io.StringIO()
        count = SweepStore.write_csv(SweepStore(tmp_path).query(), out)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == ",".join(QUERY_FIELDS)
        assert count == len(POINTS)
        assert len(lines) == len(POINTS) + 1
        label = machine_label(SAVE_2VPU)
        assert lines[1].startswith(f"resnet2_2_fwd,{label},fast,save,time_ns,")

    def test_csv_refuses_unknown_column(self, tmp_path):
        write_points(tmp_path, POINTS)
        rows = [{**row, "flavour": 1} for row in SweepStore(tmp_path).query()]
        with pytest.raises(ValueError, match="not QUERY_FIELDS"):
            SweepStore.write_csv(rows, io.StringIO())

    def test_json_field_order(self, tmp_path):
        write_points(tmp_path, POINTS)
        rows = json.loads(
            SweepStore.rows_to_json(SweepStore(tmp_path).query())
        )
        assert len(rows) == len(POINTS)
        assert list(rows[0]) == list(QUERY_FIELDS)
