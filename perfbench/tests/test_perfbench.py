"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They run each workload on small inputs (about a minute in all) and the
command line for one second per workload and seed.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys

import pytest

import exact_grid
import fast_sweep
import serve_mix
import worker
from common import ROOT, Outcome
from tracer import Tracer

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MODULES = {"exact_grid": exact_grid, "fast_sweep": fast_sweep, "serve_mix": serve_mix}
#: Per-layer metrics ``run.py`` adds itself rather than a workload.
ADDED_BY_RUNNER = {"failed_frac"}


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload's inputs so a test runs in seconds."""
    monkeypatch.setattr(exact_grid, "CELLS", 1)
    monkeypatch.setattr(fast_sweep, "LEVELS", 8)
    monkeypatch.setattr(fast_sweep, "QUERIES", 40)
    monkeypatch.setattr(fast_sweep, "TRACED_QUERIES", 40)
    monkeypatch.setattr(serve_mix, "TRACED_REQUESTS", 60)


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names)
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_declarations_cover_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(MODULES)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert end_to_end == set(worker.END_TO_END) | {"setup_s"}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    measured = set().union(*(set(m.PER_LAYER) for m in MODULES.values()))
    assert measured | ADDED_BY_RUNNER == per_layer


@pytest.mark.parametrize("name", list(MODULES))
def test_workload_emits_every_metric_it_declares(name, tmp_path, small):
    workload = MODULES[name].Workload(1, tmp_path)
    try:
        timed, outcome = workload.timed(1.0)
        assert set(timed) == set(worker.END_TO_END)
        assert outcome.attempted > 0 and outcome.failed == 0, outcome.errors
        if name == "serve_mix":
            workload.server = workload.start_server()
        traced, outcome, tracer = workload.traced()
    finally:
        workload.close()
    assert set(traced) == set(MODULES[name].PER_LAYER)
    assert outcome.failed == 0, outcome.errors
    assert tracer.spans
    assert all(value > 0 for value in timed.values())


def test_exact_grid_counts_a_point_off_the_reference(tmp_path):
    runner = exact_grid.Runner(exact_grid.load_reference())
    outcome = Outcome()
    off_lattice = exact_grid.Point("explicit_wide", "SAVE_2VPU", 0.33, 0.5)
    with Tracer(record=False) as tracer:
        runner.watch(tracer)
        _, records = runner.run_points([off_lattice], tracer, outcome)
    runner.verify(records, outcome)
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_exact_grid_counts_a_wrong_statistic():
    runner = exact_grid.Runner(exact_grid.load_reference())
    point = exact_grid.make_inputs(1)[0]
    outcome = Outcome()
    with Tracer(record=False) as tracer:
        runner.watch(tracer)
        _, records = runner.run_points([point], tracer, outcome)
    [(point, value, result)] = records
    result.skipped_fmas += 1
    runner.verify([(point, value, result)], outcome)
    assert outcome.failed == 1


def test_fast_sweep_counts_a_store_that_disagrees(tmp_path, small):
    inputs = fast_sweep.make_inputs(1)
    fast_sweep.write_round(inputs, tmp_path / "store")
    other = fast_sweep.make_inputs(2)
    outcome = Outcome()
    fast_sweep.verify_round(other, tmp_path / "store", random.Random(0), outcome)
    assert outcome.failed == len(fast_sweep.SWEEPS)
    reader = fast_sweep.Reader(other, tmp_path / "store", outcome)
    for index, query in enumerate(other.queries):
        reader.query(query, Tracer(record=False), index)
    assert outcome.failed > len(fast_sweep.SWEEPS)


def test_serve_mix_counts_an_invalid_request(tmp_path):
    # nbs = 1.04 is what ``loadgen.build_requests("scan", n)`` emits for n > 110.
    bad = serve_mix._request(1, "save", (0.05, 1.04))
    good = serve_mix.make_requests(1, 5)
    server = serve_mix.Server(tmp_path / "store")
    try:
        _, samples = serve_mix.drive(server.url, iter(good + [bad]), Tracer(record=False))
    finally:
        server.stop()
    outcome = Outcome()
    serve_mix.verify(samples, outcome)
    assert (outcome.attempted, outcome.failed) == (6, 1)
    assert "HTTP 400" in outcome.errors[0]


def test_serve_mix_counts_a_wrong_answer():
    [request] = serve_mix.make_requests(3, 1)
    answer = {"points": [request["point"]], "values": [1.0]}
    sample = serve_mix.Sample(0, request, 0.01, "accepted", answer, None)
    outcome = Outcome()
    assert serve_mix.verify([sample], outcome) == []
    assert outcome.failed == 1


def test_seeds_change_inputs_and_stay_in_range():
    assert exact_grid.make_inputs(1) != exact_grid.make_inputs(2)
    assert fast_sweep.make_inputs(1) != fast_sweep.make_inputs(2)
    assert serve_mix.make_requests(1, 50) != serve_mix.make_requests(2, 50)
    assert exact_grid.make_inputs(7) == exact_grid.make_inputs(7)
    for request in serve_mix.make_requests(1, 2000):
        assert all(0.0 <= level <= 0.95 for level in request["point"])
    for bs, nbs in fast_sweep.make_inputs(1).levels:
        assert all(0.0 <= level <= 0.95 for level in bs + nbs)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("name", list(MODULES))
def test_two_seeds_print_the_same_metrics(name):
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    seen = []
    for seed in (1, 2):
        done = _run("--workload", name, "--seed", str(seed), "--seconds", "1")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        assert all(v["value"] > 0 for v in result["metrics"].values())
        seen.append(set(result["metrics"]))
    assert seen[0] == seen[1]


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "exact_grid", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


class _Layer:
    calls = 0

    @classmethod
    def build(cls, value):
        cls.calls += 1
        return value * 2


def test_tracer_records_self_time_and_restores_originals():
    import types

    module = types.SimpleNamespace(outer=lambda: _Layer.build(2) + _Layer.build(3))
    originals = (module.outer, _Layer.__dict__["build"])
    seen = []
    with Tracer() as tracer:
        tracer.wrap(module, "outer", "outer")
        tracer.wrap(_Layer, "build", "build", on_result=seen.append)
        with tracer.span("request", ident=7):
            assert module.outer() == 10
    assert (module.outer, _Layer.__dict__["build"]) == originals
    assert seen == [4, 6]
    [outer] = tracer.named("outer")
    builds = tracer.named("build")
    assert [span.ident for span in builds] == [7, 7]
    assert all(span.parent is outer for span in builds)
    assert outer.self_ns == outer.duration_ns - sum(s.duration_ns for s in builds)
