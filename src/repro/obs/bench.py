"""The performance ledger: ``repro bench`` and ``BENCH_<seq>.json``.

PR 1 made the simulator 4.5-7.5x faster; nothing since would notice if
a change gave that back.  This module closes the loop: a *fixed* suite
of simulator workloads (one SAVE point, a coarse sweep, the same sweep
through a 2-worker pool) is timed and appended to an on-disk ledger of
``BENCH_0001.json``, ``BENCH_0002.json``, ... entries.  Every run
compares itself against the previous entry and **exits non-zero when
wall time regresses beyond the threshold** — the CI ``bench-smoke``
job runs ``repro bench --quick`` on every PR.

Each workload records three things:

* ``wall_s`` — best-of-``repeats`` wall time of the *uninstrumented*
  run (what users feel; instrumentation is off so the hot path is the
  one being guarded),
* ``cycles_per_sec`` — simulated cycles per host second, the
  scale-free throughput number that survives workload renames,
* ``counters`` — key metric counters from one separately-run
  *instrumented* pass (never timed).  Counter drift between entries
  means the simulated machine itself changed — reported as a warning,
  not a regression, since model changes are sometimes the point.

``single_save_point`` and ``coarse_sweep`` also record ``layers``: self
time in ms per package (``repro.core``, ``repro.core.save``,
``repro.kernels``, ...) from one *profiled* pass (never timed), so a
comparison between entries names the layer that moved.

The ``fastsim_sweep`` workload times the same coarse sweep on the
exact and fast engine tiers and records ``speedup_over_exact`` — the
ledger is where the fast tier's headline speedup is demonstrated and
guarded.  ``repro bench report`` renders the committed entries as a
per-workload trajectory so the repo's perf history reads at a glance.

The ``sweep_throughput`` workload is the out-of-core scale guard: it
runs a large fast-tier sweep through :func:`repro.experiments.\
streamsweep.stream_sweep` into a throwaway columnar store — each sweep
in its own subprocess so ``ru_maxrss`` measures that sweep alone — and
records points/second plus peak RSS next to the peak RSS of a 1k-point
reference sweep.  ``rss_ratio`` staying small (the CI streaming-smoke
job pins it under 2x) is the evidence that sweep memory is bounded by
the batch and segment sizes, not the grid.

The ``serve_roundtrip`` workload guards the *service* path: it boots a
full self-hosted server (HTTP stack, dedup, bounded queue, micro-batch
dispatcher, 2-worker pool, result store) against a cold store and
replays the three :mod:`repro.serve.loadgen` traffic mixes through it,
recording per-mix throughput and exact p50/p95/p99 end-to-end latency.
``sim_cycles`` is recomputed deterministically from the unique request
fingerprints (cold store + dedup means each is simulated exactly once),
so cycle drift still means the simulated machine changed, not the
serving layer.

The ``check_wall`` workload guards the static-analysis engine itself:
``repro check`` over the shipped source tree, cold then warm against
the same cache directory.  ``warm_speedup`` is the incremental
engine's headline number — the CI check job pins it at >= 3x.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any, Optional

from repro._version import __version__

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_LEDGER_DIR",
    "DEFAULT_THRESHOLD",
    "MIX_P95_THRESHOLD",
    "bench_main",
    "compare_entries",
    "format_report",
    "ledger_paths",
    "next_seq",
    "report_main",
    "run_suite",
    "validate_entry",
    "write_entry",
]

BENCH_SCHEMA_VERSION = 1

#: Wall-time increase (fractional) that counts as a regression.
DEFAULT_THRESHOLD = 0.25

#: Per-mix p95 or p99 latency increase (fractional) that counts as a
#: regression for workloads carrying ``mixes`` (``serve_roundtrip``).
#: Tighter than the wall-time gate: summed wall time can hide one mix's
#: tail latency blowing up while the others absorb the average.
MIX_P95_THRESHOLD = 0.20

#: Ledger location, relative to the invoking directory.
DEFAULT_LEDGER_DIR = Path("benchmarks") / "ledger"

_ENTRY_NAME = re.compile(r"^BENCH_(\d{4,})\.json$")

#: Counters copied into the ledger when the instrumented pass saw them.
KEY_COUNTERS = (
    "sim_cycles",
    "sim_runs",
    "bs_skips",
    "lwd_stalls",
    "effectual_lanes",
    "pass_through_lanes",
    "bcache_hits",
    "bcache_misses",
)

#: Workloads that carry a ``layers`` map.
LAYER_WORKLOADS = ("single_save_point", "coarse_sweep")

#: Layer moves printed per workload when two entries are compared.
LAYER_MOVES_SHOWN = 3


# ---------------------------------------------------------------------------
# Workload suite
# ---------------------------------------------------------------------------


def _suite(quick: bool) -> list[tuple[str, int, Any]]:
    """(name, jobs, job-list builder) triples — fixed order, fixed seeds."""
    from repro.core.config import SAVE_2VPU
    from repro.experiments.executor import METRIC_TIME_NS, PointJob
    from repro.kernels.library import get_kernel

    spec = get_kernel("resnet2_2_fwd")

    def point_jobs(levels, k_steps):
        return [
            PointJob(
                config=spec.config(
                    broadcast_sparsity=bs,
                    nonbroadcast_sparsity=nbs,
                    k_steps=k_steps,
                    seed=0,
                ),
                machine=SAVE_2VPU,
                metric=METRIC_TIME_NS,
            )
            for bs in levels
            for nbs in levels
        ]

    if quick:
        single = point_jobs((0.6,), 6)
        sweep = point_jobs((0.0, 0.9), 4)
    else:
        single = point_jobs((0.6,), 24)
        sweep = point_jobs((0.0, 0.3, 0.6, 0.9), 8)
    return [
        ("single_save_point", 1, single),
        ("coarse_sweep", 1, sweep),
        ("parallel_sweep", 2, sweep),
        ("fastsim_sweep", 1, sweep),
        ("sweep_throughput", 1, None),
        ("serve_roundtrip", 2, None),
        ("check_wall", 1, None),
    ]


def _run_workload(
    name: str, jobs: int, point_jobs: list[Any], repeats: int
) -> dict[str, Any]:
    """Time one workload and collect its instrumented counters."""
    from repro.experiments.executor import SimExecutor
    from repro.obs import MetricsRegistry

    # Timed passes: uninstrumented, best-of-N (the guard on the
    # obs=None hot path the observability layer promises not to touch).
    executor = SimExecutor(jobs=jobs)
    best: Optional[float] = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        executor.map(point_jobs)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None  # the range above is never empty

    # Counter pass: instrumented, never timed.
    registry = MetricsRegistry()
    SimExecutor(jobs=1, metrics=registry).map(point_jobs)
    counters = registry.snapshot()["counters"]
    sim_cycles = int(counters.get("sim_cycles", 0))
    result = {
        "wall_s": round(best, 6),
        "jobs": jobs,
        "points": len(point_jobs),
        "sim_cycles": sim_cycles,
        "cycles_per_sec": round(sim_cycles / best, 1) if best else 0.0,
        "counters": {
            key: int(counters[key]) for key in KEY_COUNTERS if key in counters
        },
    }
    if name in LAYER_WORKLOADS:
        result["layers"] = _layer_profile(point_jobs)
    return result


def _layer_profile(point_jobs: list[Any]) -> dict[str, float]:
    """Self time (ms) per package over one profiled serial pass.

    ``repro`` code is bucketed by its package directory (``repro.core``,
    ``repro.core.save``, ...); numpy's Python code is ``numpy`` and the
    rest of the interpreter (stdlib, C builtins) is ``python``.  Time
    inside numpy's C ufuncs is charged to the Python function that
    called them, so vectorised FP semantics count in their caller's
    layer.  Profiling slows the pass down, so only the shares compare
    across entries, and the pass is never the timed one.
    """
    import cProfile
    import pstats

    from repro.experiments.executor import SimExecutor

    profile = cProfile.Profile()
    profile.runcall(SimExecutor(jobs=1).map, point_jobs)
    layers: dict[str, float] = {}
    for (filename, _line, _func), row in pstats.Stats(profile).stats.items():
        layer = _layer_of(filename)
        layers[layer] = layers.get(layer, 0.0) + row[2]  # tottime
    return {layer: round(seconds * 1000.0, 1) for layer, seconds in sorted(layers.items())}


def _layer_of(filename: str) -> str:
    parts = Path(filename).parts
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[start:-1])
    return "numpy" if "numpy" in parts else "python"


def _layer_moves(prior: dict[str, Any], workload: dict[str, Any]) -> list[dict[str, Any]]:
    """Per-layer self-time changes between two records, largest first."""
    before = prior.get("layers") or {}
    after = workload.get("layers") or {}
    moves = [
        {
            "layer": layer,
            "prev_ms": before.get(layer, 0.0),
            "ms": after.get(layer, 0.0),
            "change_ms": round(after.get(layer, 0.0) - before.get(layer, 0.0), 1),
        }
        for layer in sorted(set(before) | set(after))
    ]
    return sorted(moves, key=lambda move: -abs(move["change_ms"]))


def _run_fastsim_workload(point_jobs: list[Any], repeats: int) -> dict[str, Any]:
    """Time the same sweep on the exact and fast engine tiers.

    ``wall_s`` is the *fast* tier's wall time — the number the
    regression gate guards — while ``exact_wall_s`` and
    ``speedup_over_exact`` record how far the fast tier stays ahead of
    the cycle-level pipeline on identical points.  Counters come from
    the fast results themselves: the fast tier computes them
    statically, so a separate instrumented pass would add nothing.
    """
    from dataclasses import replace

    from repro.experiments.executor import SimExecutor
    from repro.fastsim import simulate_config

    fast_jobs = [replace(job, engine="fast") for job in point_jobs]
    executor = SimExecutor(jobs=1)

    def best_of(jobs: list[Any]) -> float:
        best: Optional[float] = None
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            executor.map(jobs)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        assert best is not None  # the range above is never empty
        return best

    # Warm-up: the first fast call pays the one-time calibration-table
    # load; charge neither tier for it.
    executor.map(fast_jobs[:1])
    fast_wall = best_of(fast_jobs)
    exact_wall = best_of(point_jobs)

    sim_cycles = sim_runs = effectual = pass_through = 0
    for job in fast_jobs:
        result = simulate_config(job.config, job.machine, job.engine)
        sim_cycles += result.cycles
        sim_runs += 1
        effectual += result.effectual_lanes
        pass_through += result.pass_through_lanes
    return {
        "wall_s": round(fast_wall, 6),
        "exact_wall_s": round(exact_wall, 6),
        "speedup_over_exact": (
            round(exact_wall / fast_wall, 2) if fast_wall else 0.0
        ),
        "jobs": 1,
        "points": len(point_jobs),
        "sim_cycles": sim_cycles,
        "cycles_per_sec": round(sim_cycles / fast_wall, 1) if fast_wall else 0.0,
        "counters": {
            "sim_cycles": sim_cycles,
            "sim_runs": sim_runs,
            "effectual_lanes": effectual,
            "pass_through_lanes": pass_through,
        },
    }


#: Child script for one isolated streaming sweep.  Runs in its own
#: interpreter so ``ru_maxrss`` (monotone over a process's lifetime)
#: measures exactly one sweep; prints a single JSON line.
_SWEEP_CHILD = """\
import json, resource, sys
spec = json.loads(sys.argv[1])
from repro.core.config import SAVE_2VPU
from repro.experiments.streamsweep import stream_sweep
from repro.store import SweepStore
step = 0.9 / max(spec["grid"] - 1, 1)
levels = [round(i * step, 6) for i in range(spec["grid"])]
summary = stream_sweep(
    "resnet2_2_fwd", SAVE_2VPU, levels, levels, spec["store"],
    engine="fast", metric="time_ns", k_steps=spec["k_steps"],
)
total_ns = sum(
    row["value"]
    for row in SweepStore(spec["store"]).query(
        fingerprint=summary["fingerprint"]
    )
)
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "points": summary["points"],
    "total_ns": total_ns,
    "ru_maxrss_kb": rss_kb,
}))
"""


def _sweep_child(grid: int, k_steps: int, store: str) -> dict[str, Any]:
    """Run one streaming sweep in a subprocess; returns its JSON report."""
    import os
    import subprocess

    import repro

    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    spec = json.dumps({"grid": grid, "k_steps": k_steps, "store": store})
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_CHILD, spec],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    report: dict[str, Any] = json.loads(proc.stdout.strip().splitlines()[-1])
    report["wall_s"] = time.perf_counter() - start
    return report


def _run_sweep_throughput(quick: bool) -> dict[str, Any]:
    """Time one large out-of-core sweep and bound its memory.

    Unlike the ms-scale workloads this one is timed once, not
    best-of-``repeats`` — throughput variance amortises over the grid.
    The 1k-point reference sweep runs first (its own subprocess) so
    ``rss_ratio`` compares two independent peak-RSS readings; on Linux
    ``ru_maxrss`` is in kilobytes.
    """
    import tempfile

    from repro.core.config import SAVE_2VPU  # the swept machine

    grid, k_steps = (100, 6) if quick else (317, 8)
    with tempfile.TemporaryDirectory(prefix="sweepbench-") as tmp:
        small = _sweep_child(32, k_steps, str(Path(tmp) / "small"))
        big = _sweep_child(grid, k_steps, str(Path(tmp) / "big"))
    freq_ghz = SAVE_2VPU.core.freq_ghz
    sim_cycles = int(round(big["total_ns"] * freq_ghz))
    wall = big["wall_s"]
    return {
        "wall_s": round(wall, 6),
        "jobs": 1,
        "points": int(big["points"]),
        "points_per_sec": round(big["points"] / wall, 1) if wall else 0.0,
        "peak_rss_mb": round(big["ru_maxrss_kb"] / 1024.0, 1),
        "small_points": int(small["points"]),
        "small_rss_mb": round(small["ru_maxrss_kb"] / 1024.0, 1),
        "rss_ratio": (
            round(big["ru_maxrss_kb"] / small["ru_maxrss_kb"], 3)
            if small["ru_maxrss_kb"]
            else 0.0
        ),
        "sim_cycles": sim_cycles,
        "cycles_per_sec": round(sim_cycles / wall, 1) if wall else 0.0,
        "counters": {
            "sim_cycles": sim_cycles,
            "sim_runs": int(big["points"]),
        },
    }


def _run_serve_roundtrip(quick: bool) -> dict[str, Any]:
    """Round-trip the loadgen traffic mixes through a self-hosted server.

    Timed once (like ``sweep_throughput``): per-request latency variance
    amortises over the mixes, and re-running against a warm store would
    measure the cache, not the service.  ``wall_s`` — the regression
    gate's number — is the summed wall time of the three mixes.
    """
    import tempfile

    from repro.fastsim import simulate_config
    from repro.serve.loadgen import (
        MIXES,
        build_requests,
        run_loadgen,
        self_hosted_server,
    )
    from repro.serve.schema import parse_request

    requests_per_mix, concurrency, k_steps = (
        (16, 4, 2) if quick else (40, 8, 3)
    )
    with tempfile.TemporaryDirectory(prefix="servebench-") as tmp:
        store = str(Path(tmp) / "store")
        with self_hosted_server(store, jobs=2) as base_url:
            stats = run_loadgen(
                base_url,
                mixes=MIXES,
                requests_per_mix=requests_per_mix,
                concurrency=concurrency,
                k_steps=k_steps,
                engine="fast",
            )
    errors = sum(mix["errors"] for mix in stats.values())
    if errors:
        first = next(
            mix["first_error"] for mix in stats.values() if mix["errors"]
        )
        raise RuntimeError(
            f"serve_roundtrip: {errors} request(s) failed ({first})"
        )

    # Deterministic cycle count: against a cold store with dedup, each
    # unique request fingerprint is simulated exactly once.
    unique: dict[str, Any] = {}
    for mix in MIXES:
        for body in build_requests(mix, requests_per_mix, k_steps, "fast"):
            request = parse_request(body)
            unique[request.fingerprint()] = request
    sim_cycles = sim_runs = 0
    for request in unique.values():
        for job in request.jobs():
            sim_cycles += simulate_config(
                job.config, job.machine, job.engine
            ).cycles
            sim_runs += 1

    wall = sum(mix["wall_s"] for mix in stats.values())
    return {
        "wall_s": round(wall, 6),
        "jobs": 2,
        "points": sim_runs,
        "requests": sum(mix["requests"] for mix in stats.values()),
        "mixes": {
            name: {
                key: mix[key]
                for key in (
                    "requests", "throughput_rps", "p50_ms", "p95_ms", "p99_ms"
                )
            }
            for name, mix in stats.items()
        },
        "sim_cycles": sim_cycles,
        "cycles_per_sec": round(sim_cycles / wall, 1) if wall else 0.0,
        "counters": {"sim_cycles": sim_cycles, "sim_runs": sim_runs},
    }


def _run_check_wall(quick: bool) -> dict[str, Any]:
    """Time ``repro check`` over the shipped source tree, cold then warm.

    The static-analysis engine promises incrementality: a warm run
    against an unchanged tree replays the memoised result instead of
    re-parsing anything.  This workload is where that promise is
    guarded — ``wall_s`` (the regression gate's number) is the cold
    wall, and ``warm_speedup`` records how far the cache keeps warm
    re-runs ahead (the CI check job pins it at >= 3x).  There is no
    simulator in the loop, so ``sim_cycles`` is fixed at 0; counter
    drift here means the *checked tree* changed size, which is
    expected, not a model change.
    """
    import tempfile

    import repro
    from repro.check import run_checks

    src_root = Path(repro.__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory(prefix="checkbench-") as tmp:
        cache_dir = Path(tmp) / "cache"
        start = time.perf_counter()
        cold = run_checks(src_root, cache_dir=cache_dir)
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_checks(src_root, cache_dir=cache_dir)
        warm_wall = time.perf_counter() - start
    if warm.files_checked != cold.files_checked:
        raise RuntimeError(
            "check_wall: warm run saw a different tree "
            f"({warm.files_checked} vs {cold.files_checked} files)"
        )
    return {
        "wall_s": round(cold_wall, 6),
        "warm_wall_s": round(warm_wall, 6),
        "warm_speedup": round(cold_wall / warm_wall, 2) if warm_wall else 0.0,
        "jobs": 1,
        "files": cold.files_checked,
        "diagnostics": len(cold.diagnostics),
        "sim_cycles": 0,
        "cycles_per_sec": 0.0,
        "counters": {
            "files_checked": cold.files_checked,
            "diagnostics": len(cold.diagnostics),
            "suppressed": cold.suppressed,
        },
    }


def run_suite(
    quick: bool = False,
    repeats: int = 2,
    echo: Optional[Callable[[str], Any]] = None,
) -> dict[str, Any]:
    """Run the fixed suite; returns a schema-valid (seq-less) entry."""
    workloads: dict[str, Any] = {}
    for name, jobs, point_jobs in _suite(quick):
        if name == "fastsim_sweep":
            result = _run_fastsim_workload(point_jobs, repeats)
        elif name == "sweep_throughput":
            result = _run_sweep_throughput(quick)
        elif name == "serve_roundtrip":
            result = _run_serve_roundtrip(quick)
        elif name == "check_wall":
            result = _run_check_wall(quick)
        else:
            result = _run_workload(name, jobs, point_jobs, repeats)
        workloads[name] = result
        if echo is not None:
            extra = ""
            if "speedup_over_exact" in result:
                extra = f", {result['speedup_over_exact']:.1f}x vs exact"
            if "points_per_sec" in result:
                extra = (
                    f", {result['points_per_sec']:.0f} pts/s, "
                    f"rss {result['peak_rss_mb']:.0f}MB "
                    f"({result['rss_ratio']:.2f}x vs "
                    f"{result['small_points']}-pt sweep)"
                )
            if "mixes" in result:
                extra = ", " + "  ".join(
                    f"{mix} p99 {record['p99_ms']:.0f}ms"
                    for mix, record in result["mixes"].items()
                )
            if "warm_speedup" in result:
                extra = (
                    f", {result['files']} files, warm "
                    f"{result['warm_wall_s']:.3f}s "
                    f"({result['warm_speedup']:.0f}x)"
                )
            echo(
                f"  {name}: {result['wall_s']:.3f}s wall, "
                f"{result['sim_cycles']} cycles "
                f"({result['cycles_per_sec']:.0f} cyc/s, jobs={jobs}{extra})"
            )
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "created_unix": round(time.time(), 3),
        "quick": bool(quick),
        "repeats": int(repeats),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "version": __version__,
        "workloads": workloads,
    }


# ---------------------------------------------------------------------------
# Ledger on disk
# ---------------------------------------------------------------------------


def ledger_paths(directory: Path) -> list[tuple[int, Path]]:
    """All ``BENCH_<seq>.json`` entries under ``directory``, seq order."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = []
    for path in directory.iterdir():
        match = _ENTRY_NAME.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def next_seq(directory: Path) -> int:
    entries = ledger_paths(directory)
    return entries[-1][0] + 1 if entries else 1


def write_entry(
    directory: Path, entry: dict[str, Any], seq: Optional[int] = None
) -> Path:
    """Persist one entry under ``seq`` (default: next in sequence).

    An explicit ``seq`` pins the entry number — the committed per-PR
    entries use the PR number — and refuses to overwrite an existing
    entry rather than silently rewriting history.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if seq is None:
        seq = next_seq(directory)
    elif any(existing == seq for existing, _ in ledger_paths(directory)):
        raise ValueError(f"ledger entry with seq {seq} already exists")
    entry = dict(entry, seq=int(seq))
    validate_entry(entry)
    path = directory / f"BENCH_{seq:04d}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def validate_entry(entry: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``entry`` matches the ledger schema."""
    if not isinstance(entry, dict):
        raise ValueError("ledger entry must be a JSON object")
    if entry.get("schema") != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"ledger entry schema {entry.get('schema')!r} is not the "
            f"supported version {BENCH_SCHEMA_VERSION}"
        )
    for key, kind in (
        ("seq", int),
        ("quick", bool),
        ("python", str),
        ("workloads", dict),
    ):
        if not isinstance(entry.get(key), kind):
            raise ValueError(f"ledger entry field {key!r} must be {kind.__name__}")
    if not entry["workloads"]:
        raise ValueError("ledger entry has no workloads")
    for name, workload in entry["workloads"].items():
        for key in ("wall_s", "sim_cycles", "cycles_per_sec", "counters"):
            if key not in workload:
                raise ValueError(f"workload {name!r} missing field {key!r}")
        if workload["wall_s"] <= 0:
            raise ValueError(f"workload {name!r} wall_s must be positive")


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _compare_mixes(
    prior: dict[str, Any],
    workload: dict[str, Any],
    threshold: float,
) -> list[dict[str, Any]]:
    """Per-mix p95 (``change``) and p99 (``p99_change``) deltas for
    workloads that carry ``mixes``; either beyond ``threshold`` regresses."""
    deltas: list[dict[str, Any]] = []
    prev_mixes = prior.get("mixes") or {}
    for mix, record in (workload.get("mixes") or {}).items():
        prev = prev_mixes.get(mix)
        if prev is None or not prev.get("p95_ms") or not prev.get("p99_ms"):
            continue
        p95, p99 = ((record[q] - prev[q]) / prev[q] for q in ("p95_ms", "p99_ms"))
        deltas.append(
            {
                "mix": mix,
                "prev_p95_ms": prev["p95_ms"],
                "p95_ms": record["p95_ms"],
                "change": round(p95, 4),
                "prev_p99_ms": prev["p99_ms"],
                "p99_ms": record["p99_ms"],
                "p99_change": round(p99, 4),
                "regressed": max(p95, p99) > threshold,
            }
        )
    return deltas


def compare_entries(
    previous: dict[str, Any],
    current: dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
    mix_threshold: float = MIX_P95_THRESHOLD,
) -> list[dict[str, Any]]:
    """Per-workload deltas of ``current`` vs ``previous``.

    A workload regresses when its wall time grew by more than
    ``threshold`` (fractional), or — for workloads recording per-mix
    latency (``serve_roundtrip``) — when any single mix's p95 or p99
    grew by more than ``mix_threshold``.  Comparing a ``--quick`` entry
    against a full one would be meaningless; callers should compare
    entries of the same flavour (``bench_main`` compares against the
    latest entry with matching ``quick``).
    """
    deltas: list[dict[str, Any]] = []
    prev_workloads = previous.get("workloads", {})
    for name, workload in current.get("workloads", {}).items():
        prior = prev_workloads.get(name)
        if prior is None:
            deltas.append({"workload": name, "status": "new", "regressed": False})
            continue
        prev_wall, cur_wall = prior["wall_s"], workload["wall_s"]
        change = (cur_wall - prev_wall) / prev_wall if prev_wall else 0.0
        drift = prior.get("sim_cycles") != workload.get("sim_cycles")
        mixes = _compare_mixes(prior, workload, mix_threshold)
        regressed = change > threshold or any(m["regressed"] for m in mixes)
        delta = {
            "workload": name,
            "status": "regressed" if regressed else "ok",
            "regressed": regressed,
            "prev_wall_s": prev_wall,
            "wall_s": cur_wall,
            "change": round(change, 4),
            "sim_drift": drift,
        }
        if mixes:
            delta["mixes"] = mixes
        if prior.get("layers") and workload.get("layers"):
            delta["layers"] = _layer_moves(prior, workload)
        deltas.append(delta)
    return deltas


def _latest_comparable(
    directory: Path, quick: bool
) -> Optional[tuple[Path, dict[str, Any]]]:
    """The newest existing entry with the same quick/full flavour."""
    for _seq, path in reversed(ledger_paths(directory)):
        try:
            entry = json.loads(path.read_text())
            validate_entry(entry)
        except ValueError as error:
            print(f"warning: skipping unreadable ledger entry {path}: {error}",
                  file=sys.stderr)
            continue
        if entry.get("quick") == quick:
            return path, entry
    return None


# ---------------------------------------------------------------------------
# CLI: ``repro bench`` and ``repro bench report``
# ---------------------------------------------------------------------------


def format_report(
    entries: list[dict[str, Any]], workload: Optional[str] = None
) -> str:
    """Per-workload wall-time trajectory over ledger entries.

    Change is computed against the previous entry of the *same*
    flavour — comparing a ``--quick`` run against a full one would be
    meaningless.
    """
    names: list[str] = []
    for entry in entries:
        for name in entry["workloads"]:
            if name not in names:
                names.append(name)
    if workload is not None:
        if workload not in names:
            raise ValueError(
                f"unknown workload {workload!r}; ledger has: {', '.join(names)}"
            )
        names = [workload]

    lines: list[str] = []
    for name in names:
        lines.append(f"{name}:")
        lines.append(
            f"  {'seq':>4} {'flavour':>7} {'wall_s':>9} "
            f"{'cyc/s':>12} {'change':>8}"
        )
        previous: dict[str, float] = {}
        for entry in entries:
            record = entry["workloads"].get(name)
            if record is None:
                continue
            flavour = "quick" if entry.get("quick") else "full"
            prior = previous.get(flavour)
            change = (
                ""
                if prior is None
                else f"{(record['wall_s'] - prior) / prior:+.1%}"
            )
            previous[flavour] = record["wall_s"]
            extra = ""
            if "speedup_over_exact" in record:
                extra = f"  {record['speedup_over_exact']:.1f}x vs exact"
            lines.append(
                f"  {entry['seq']:>4} {flavour:>7} {record['wall_s']:>9.3f} "
                f"{record['cycles_per_sec']:>12.0f} {change:>8}{extra}".rstrip()
            )
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def report_main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro bench report``."""
    parser = argparse.ArgumentParser(
        prog="save-repro bench report",
        description=(
            "Render the ledger's committed BENCH_<seq>.json entries as "
            "a per-workload wall-time trajectory."
        ),
    )
    parser.add_argument(
        "--ledger",
        metavar="DIR",
        default=str(DEFAULT_LEDGER_DIR),
        help=f"ledger directory (default: {DEFAULT_LEDGER_DIR})",
    )
    parser.add_argument(
        "--workload",
        default=None,
        help="limit the report to one workload",
    )
    args = parser.parse_args(argv)

    directory = Path(args.ledger)
    entries: list[dict[str, Any]] = []
    for _seq, path in ledger_paths(directory):
        try:
            entry = json.loads(path.read_text())
            validate_entry(entry)
        except ValueError as error:
            print(
                f"warning: skipping unreadable ledger entry {path}: {error}",
                file=sys.stderr,
            )
            continue
        entries.append(entry)
    if not entries:
        print(f"no ledger entries under {directory}", file=sys.stderr)
        return 1
    try:
        print(format_report(entries, workload=args.workload))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0


def bench_main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro bench``."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "report":
        return report_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="save-repro bench",
        description=(
            "Run the fixed simulator benchmark suite, append a "
            "BENCH_<seq>.json entry to the ledger, and compare against "
            "the previous entry; exits 1 on a wall-time regression."
        ),
    )
    parser.add_argument(
        "--ledger",
        metavar="DIR",
        default=str(DEFAULT_LEDGER_DIR),
        help=f"ledger directory (default: {DEFAULT_LEDGER_DIR})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads for CI smoke runs (compared only against "
        "other --quick entries)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        metavar="FRAC",
        help="fractional wall-time increase that fails the run "
        f"(default: {DEFAULT_THRESHOLD})",
    )
    parser.add_argument(
        "--mix-threshold",
        type=float,
        default=MIX_P95_THRESHOLD,
        metavar="FRAC",
        help="fractional per-mix p95 or p99 latency increase that fails "
        f"serve_roundtrip (default: {MIX_P95_THRESHOLD})",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        metavar="N",
        help="timed repetitions per workload; best is recorded (default: 2)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="run and compare but do not append a ledger entry",
    )
    parser.add_argument(
        "--seq",
        type=int,
        default=None,
        metavar="N",
        help="pin the written entry's sequence number instead of taking "
        "the next one (refuses to overwrite an existing entry)",
    )
    args = parser.parse_args(argv)
    if args.threshold < 0:
        parser.error("--threshold must be non-negative")
    if args.mix_threshold < 0:
        parser.error("--mix-threshold must be non-negative")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    directory = Path(args.ledger)
    print(f"bench: running {'quick ' if args.quick else ''}suite "
          f"(repeats={args.repeats})")
    entry = run_suite(quick=args.quick, repeats=args.repeats, echo=print)

    previous = _latest_comparable(directory, args.quick)
    exit_code = 0
    if previous is None:
        print("bench: no previous comparable entry; baseline recorded")
    else:
        prev_path, prev_entry = previous
        print(f"bench: comparing against {prev_path.name}")
        deltas = compare_entries(
            prev_entry,
            dict(entry, seq=0),
            threshold=args.threshold,
            mix_threshold=args.mix_threshold,
        )
        for delta in deltas:
            if delta["status"] == "new":
                print(f"  {delta['workload']}: new workload (no baseline)")
                continue
            drift = "  [sim-cycle drift: simulated machine changed]" \
                if delta["sim_drift"] else ""
            print(
                f"  {delta['workload']}: {delta['prev_wall_s']:.3f}s -> "
                f"{delta['wall_s']:.3f}s ({delta['change']:+.1%}) "
                f"{delta['status']}{drift}"
            )
            for move in delta.get("layers", ())[:LAYER_MOVES_SHOWN]:
                print(
                    f"    layer {move['layer']}: {move['prev_ms']:.1f}ms -> "
                    f"{move['ms']:.1f}ms self ({move['change_ms']:+.1f}ms)"
                )
            for mix in delta.get("mixes", ()):
                verdict = "REGRESSED" if mix["regressed"] else "ok"
                print(
                    f"    {mix['mix']} p95: {mix['prev_p95_ms']:.1f}ms -> "
                    f"{mix['p95_ms']:.1f}ms ({mix['change']:+.1%}), p99: "
                    f"{mix['prev_p99_ms']:.1f}ms -> {mix['p99_ms']:.1f}ms "
                    f"({mix['p99_change']:+.1%}) {verdict}"
                )
        if any(delta["regressed"] for delta in deltas):
            print(
                f"bench: REGRESSION beyond +{args.threshold:.0%} threshold",
                file=sys.stderr,
            )
            exit_code = 1

    if not args.no_write:
        path = write_entry(directory, entry, seq=args.seq)
        print(f"bench: ledger entry -> {path}")
    return exit_code
