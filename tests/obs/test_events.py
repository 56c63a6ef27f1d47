"""Typed event records: construction, the strict reader, round trips,
and a simulation that emits every simulator record class."""

import dataclasses
import json

import pytest

from repro.core import SAVE_2VPU, simulate
from repro.kernels.library import generate_trace, get_kernel
from repro.kernels.tiling import Precision
from repro.obs import Instrumentation, ListSink, MetricsRegistry
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    SERVE_EVENTS,
    SIM_EVENTS,
    Access,
    BcacheHit,
    BcacheMiss,
    BsSkip,
    ChainAppend,
    Complete,
    Dispatch,
    Elm,
    EventWriter,
    Ingress,
    Issue,
    LwdStall,
    Merge,
    Phase,
    Retire,
    ServeEvent,
    Sim,
    SimEvent,
    Snapshot,
    TraceFormatError,
    read_events,
)

_SIM = dict(cycle=3, kernel="k", mechanism="save")

#: One record of every class, nested values included.
SAMPLES = [
    Dispatch(**_SIM, seq=1, kind="vfma"),
    Retire(**_SIM, seq=1),
    Elm(**_SIM, seq=1, elm=0b1011),
    BsSkip(**_SIM, seq=2),
    Issue(**_SIM, kind="lanes", lanes=12, uops=3, latency=4),
    Merge(
        **_SIM,
        scheme="rotate_vertical",
        entries=[
            {"seq": 1, "lane": 0, "slot": 0, "rstate": "r0"},
            {"root": 4, "lane": 2, "slot": 2, "mls": [[5, 0], [6, 1]]},
        ],
    ),
    ChainAppend(**_SIM, seq=5, root=4, lane=2, mls=[0, 1]),
    LwdStall(**_SIM, seq=5, lane=7),
    BcacheHit(**_SIM, addr=4096, zero=True, l1_access=False),
    BcacheMiss(**_SIM, addr=8192, zero=False, l1_access=True),
    Ingress(ts=1.5, trace_id="t1", key="k1", outcome="accepted"),
    Phase(ts=1.5, trace_id="t1", phase="queue_wait", wall_s=0.1),
    Sim(ts=1.5, trace_ids=["t1", "t2"], point=[0.1, 0.2], wall_s=0.1,
        engine="exact"),
    Complete(ts=1.5, trace_id="t1", key="k1", status="done", wall_s=0.2),
    Access(ts=1.5, trace_id="t1", method="POST", path="/v1/submit",
           status=202, wall_s=0.01),
    Snapshot(ts=1.5, queue_depth=2, active=1, oldest_age_s=0.3,
             counters={"serve.requests": 4, "serve.batches": 1}),
]

_FIELDS = [
    (type(record).__name__, record, f.name)
    for record in SAMPLES
    for f in dataclasses.fields(record)
]


def test_samples_cover_every_record_class():
    assert [type(r) for r in SAMPLES] == list(SIM_EVENTS + SERVE_EVENTS)


class TestConstruction:
    @pytest.mark.parametrize(
        "record,name", [(r, n) for _, r, n in _FIELDS], ids=[
            f"{cls}-{name}" for cls, _, name in _FIELDS
        ],
    )
    def test_dropping_any_field_is_a_type_error(self, record, name):
        values = dict(vars(record))
        del values[name]
        with pytest.raises(TypeError, match=name):
            type(record)(**values)

    @pytest.mark.parametrize(
        "record", SAMPLES, ids=[type(r).__name__ for r in SAMPLES]
    )
    def test_unknown_field_is_a_type_error(self, record):
        with pytest.raises(TypeError, match="bogus"):
            type(record)(**vars(record), bogus=1)

    def test_records_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SAMPLES[0].cycle = 9


class TestRoundTrip:
    def test_every_class_reads_back_equal(self, tmp_path):
        path = tmp_path / "all.jsonl"
        with EventWriter(path) as writer:
            for record in SAMPLES:
                writer.emit(record)
        assert list(read_events(str(path))) == SAMPLES

    def test_lines_are_compact_and_stamped(self, tmp_path):
        path = tmp_path / "one.jsonl"
        with EventWriter(path) as writer:
            writer.emit(SAMPLES[0])
        raw = path.read_text()
        assert raw.count("\n") == 1
        line = json.loads(raw)
        assert (line["v"], line["event"]) == (EVENT_SCHEMA_VERSION, "dispatch")
        assert ": " not in raw and ", " not in raw


def _line(**overrides):
    base = {"v": EVENT_SCHEMA_VERSION, "event": "retire", **_SIM, "seq": 1}
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


class TestReader:
    @pytest.mark.parametrize(
        "line,needle",
        [
            (_line(event="retier"), "unknown event kind 'retier'"),
            (_line(seq=None), "missing field(s) seq"),
            (_line(extra=1), "unexpected field(s) extra"),
            (_line(v=None), "missing schema version stamp 'v'"),
            (_line(v=1), "schema version 1 is not"),
            (_line(v=2), "schema version 2 is not"),
            (_line(cycle=-1), "cycle must be a non-negative"),
            ({"v": EVENT_SCHEMA_VERSION, "event": "ingress", "ts": True,
              "trace_id": "t", "key": "k", "outcome": "accepted"},
             "ts must be a non-negative"),
        ],
        ids=["unknown-kind", "missing-field", "extra-field", "missing-v",
             "v1", "v2", "negative-cycle", "bool-ts"],
    )
    def test_rejects_with_path_and_line(self, tmp_path, line, needle):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(_line())
        path.write_text(good + "\n" + json.dumps(line) + "\n")
        with pytest.raises(TraceFormatError) as info:
            list(read_events(str(path)))
        assert f"{path}:2: " in str(info.value)
        assert needle in info.value.reason

    def test_wrong_family_is_refused(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        with EventWriter(path) as writer:
            writer.emit(SAMPLES[-1])
        with pytest.raises(TraceFormatError, match="not a SimEvent record"):
            list(read_events(str(path), SimEvent))
        assert list(read_events(str(path), ServeEvent)) == [SAMPLES[-1]]


def test_traced_mixed_run_emits_every_simulator_class():
    # Mixed BF16 exercises the accumulator chains and LWD stalls; the
    # 0.5/0.5 point gives BS skips, merges and B$ misses.
    config = get_kernel("resnet2_2_fwd").config(
        broadcast_sparsity=0.5,
        nonbroadcast_sparsity=0.5,
        precision=Precision.MIXED,
        k_steps=4,
    )
    sink = ListSink()
    obs = Instrumentation(metrics=MetricsRegistry(), sink=sink)
    simulate(generate_trace(config), SAVE_2VPU, keep_state=False, obs=obs)
    emitted = {type(record) for record in sink.events}
    assert emitted == set(SIM_EVENTS)
