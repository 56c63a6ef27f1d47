"""Golden digest: the exact engine's results stay bit-identical.

``golden_digest.json`` pins, per case, a digest of every ``SimResult``
counter plus the final vector registers:

* every GEMM library kernel on ``SAVE_2VPU``, ``SAVE_1VPU`` and
  ``BASELINE_2VPU`` over a 3 x 3 sparsity grid that includes 0 and 1,
  plus one point with write masks;
* every kernel on ``SAVE_1VPU`` under every coalescing scheme,
  dependence model, mixed-precision technique and B$ design
  (``machine_variants()`` of the fast tier's golden test), at two
  interior sparsity pairs;
* the mixed-precision kernels at a deeper ``k_steps`` on horizontal
  compression with lane-wise dependences and no MP technique, at
  points where the horizontal queue's same-``seq`` tiebreak (the order
  in which one µop's lanes became ready) decides which op a lane
  joins: ascending lane order instead moves ``cycles`` there;
* the instrumented ``SimResult.metrics`` snapshot (wait histograms,
  lane-occupancy distributions, ``lwd_stalls`` ...) of every kernel on
  the three machines and of the mixed-precision kernels on every
  variant.

Same-cycle orderings inside the engine (which µop completes first,
which of one µop's lanes a horizontal op takes first) move ``cycles``
by one here and there, so these digests catch reorderings that the
transparency tests cannot see.  Small ``k_steps`` keeps the file to
seconds.

Regenerate only on a deliberate timing-model change::

    PYTHONPATH=src python -m tests.core.test_golden --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.config import BASELINE_2VPU, SAVE_1VPU, SAVE_2VPU
from repro.core.pipeline import SimResult, simulate
from repro.kernels.library import KERNEL_LIBRARY, trace_stream
from repro.kernels.tiling import Precision
from repro.obs import Instrumentation
from tests.fastsim.test_golden import gemm_kernels, machine_variants

GOLDEN = Path(__file__).with_name("golden_digest.json")
MACHINES = {
    "SAVE_2VPU": SAVE_2VPU,
    "SAVE_1VPU": SAVE_1VPU,
    "BASELINE_2VPU": BASELINE_2VPU,
}
LEVELS = (0.0, 0.5, 1.0)
K_STEPS = 4
VARIANT_POINTS = ((0.3, 0.6), (0.6, 0.3))
METRICS_POINT = (0.4, 0.5)
TIEBREAK_K_STEPS = 16
TIEBREAK_POINTS = ((0.4, 0.5), (0.7, 0.4), (0.1, 0.7), (0.6, 0.5))
#: Fields left out of the counter digest: identity labels, the metrics
#: snapshot (digested separately) and the state object.
_NOT_COUNTERS = {"name", "metrics", "final_state", "engine", "mechanism"}
COUNTERS = tuple(f.name for f in fields(SimResult) if f.name not in _NOT_COUNTERS)


def run(
    kernel: str,
    bs: float,
    nbs: float,
    machine,
    obs=None,
    masks: bool = False,
    k_steps: int = K_STEPS,
) -> SimResult:
    config = KERNEL_LIBRARY[kernel].config(
        broadcast_sparsity=bs,
        nonbroadcast_sparsity=nbs,
        k_steps=k_steps,
        use_write_masks=masks,
    )
    return simulate(trace_stream(config), machine, obs=obs)


def result_record(result: SimResult) -> list:
    """Every counter, then the final vector registers as raw bits."""
    record: list = [getattr(result, name) for name in COUNTERS]
    state = result.final_state
    record += [state.read_vreg(reg).tobytes().hex() for reg in range(32)]
    return record


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]


def mixed_kernels() -> list[str]:
    return [
        name
        for name in gemm_kernels()
        if KERNEL_LIBRARY[name].default_precision == Precision.MIXED
    ]


def grid_digest(kernel: str, machine: str) -> str:
    records = [
        result_record(run(kernel, bs, nbs, MACHINES[machine]))
        for bs in LEVELS
        for nbs in LEVELS
    ]
    masked = run(kernel, *METRICS_POINT, MACHINES[machine], masks=True)
    return digest(records + [result_record(masked)])


def variant_digest(variant: str) -> str:
    machine = machine_variants()[variant]
    return digest(
        [
            result_record(run(kernel, bs, nbs, machine))
            for kernel in gemm_kernels()
            for bs, nbs in VARIANT_POINTS
        ]
    )


def tiebreak_variants() -> list[str]:
    return [name for name in machine_variants() if name.startswith("hc|lwd=True|mp=False|")]


def tiebreak_digest(variant: str) -> str:
    machine = machine_variants()[variant]
    return digest(
        [
            result_record(run(kernel, bs, nbs, machine, k_steps=TIEBREAK_K_STEPS))
            for kernel in mixed_kernels()
            for bs, nbs in TIEBREAK_POINTS
        ]
    )


def metrics_digest(kernel: str, machine) -> str:
    result = run(kernel, *METRICS_POINT, machine, obs=Instrumentation())
    return digest([result_record(result), result.metrics])


def grid_cases() -> list[tuple[str, str]]:
    return [(kernel, machine) for kernel in gemm_kernels() for machine in MACHINES]


def metrics_cases() -> list[tuple[str, str]]:
    variants = [(kernel, name) for kernel in mixed_kernels() for name in machine_variants()]
    return grid_cases() + variants


def metrics_machine(name: str):
    return MACHINES[name] if name in MACHINES else machine_variants()[name]


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    names = [f"grid|{k}|{m}" for k, m in grid_cases()]
    names += [f"variant|{v}" for v in machine_variants()]
    names += [f"tiebreak|{v}" for v in tiebreak_variants()]
    names += [f"metrics|{k}|{m}" for k, m in metrics_cases()]
    assert sorted(_golden()) == sorted(names)


@pytest.mark.parametrize("kernel,machine", grid_cases())
def test_grid_matches_golden(kernel, machine):
    assert grid_digest(kernel, machine) == _golden()[f"grid|{kernel}|{machine}"]


@pytest.mark.parametrize("variant", list(machine_variants()))
def test_machine_variant_matches_golden(variant):
    assert variant_digest(variant) == _golden()[f"variant|{variant}"]


@pytest.mark.parametrize("variant", tiebreak_variants())
def test_horizontal_tiebreak_matches_golden(variant):
    assert tiebreak_digest(variant) == _golden()[f"tiebreak|{variant}"]


@pytest.mark.parametrize("kernel,machine", metrics_cases())
def test_metrics_snapshot_matches_golden(kernel, machine):
    assert (
        metrics_digest(kernel, metrics_machine(machine))
        == _golden()[f"metrics|{kernel}|{machine}"]
    )


def _write() -> None:
    golden = {f"grid|{k}|{m}": grid_digest(k, m) for k, m in grid_cases()}
    golden.update({f"variant|{v}": variant_digest(v) for v in machine_variants()})
    golden.update({f"tiebreak|{v}": tiebreak_digest(v) for v in tiebreak_variants()})
    golden.update(
        {
            f"metrics|{k}|{m}": metrics_digest(k, metrics_machine(m))
            for k, m in metrics_cases()
        }
    )
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.core.test_golden --write")
    _write()
