"""Golden digest: the fast and analytic tiers' results stay bit-identical.

``golden_digest.json`` holds one digest per (kernel, machine, k_steps,
engine) case over a 12 x 12 sparsity grid, plus one per engine and
machine variant (every coalescing scheme, dependence model,
mixed-precision setting and B$ design on SAVE_1VPU) over every kernel
on a coarser grid.  It was computed point by point, before the fast
tier gained its point axis, so the stacked evaluation these tests drive
must reproduce every counter and every ``time_ns`` bit of the per-point
estimator it replaced.  The grids include sparsity 0 and 1, so zero
masks of size 0 and of the whole matrix are covered.

Regenerate only on a deliberate model change (bump
``FASTSIM_MODEL_VERSION`` with it)::

    PYTHONPATH=src python tests/fastsim/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import (
    BASELINE_2VPU,
    SAVE_1VPU,
    SAVE_2VPU,
    CoalescingScheme,
    MachineConfig,
)
from repro.fastsim import simulate_config
from repro.kernels.library import KERNEL_LIBRARY, KernelSpec
from repro.memory.broadcast_cache import BroadcastCacheKind

GOLDEN = Path(__file__).with_name("golden_digest.json")
LEVELS = tuple(i / 11 for i in range(12))
MACHINES = {
    "SAVE_2VPU": SAVE_2VPU,
    "SAVE_1VPU": SAVE_1VPU,
    "BASELINE_2VPU": BASELINE_2VPU,
}
K_STEPS = (24, 8)
VARIANT_LEVELS = (0.0, 0.4, 0.7, 1.0)
VARIANT_K_STEPS = 10
ENGINES = ("fast", "analytic")
FIELDS = (
    "cycles",
    "vpu_ops",
    "effectual_lanes",
    "pass_through_lanes",
    "skipped_fmas",
    "l1_port_accesses",
    "time_ns",
)


def gemm_kernels() -> list[str]:
    """Library kernels with unstructured GEMM configs (no N:M rivals)."""
    return [name for name, spec in KERNEL_LIBRARY.items() if type(spec) is KernelSpec]


def grid_configs(kernel: str, k_steps: int, levels=LEVELS) -> list:
    spec = KERNEL_LIBRARY[kernel]
    return [
        spec.config(broadcast_sparsity=bs, nonbroadcast_sparsity=nbs, k_steps=k_steps)
        for bs in levels
        for nbs in levels
    ]


def machine_variants() -> dict[str, MachineConfig]:
    """SAVE_1VPU under every coalescing scheme, dependence model,
    mixed-precision setting and B$ design."""
    variants = {}
    for scheme in CoalescingScheme:
        for lane_wise in (True, False):
            for mp_technique in (True, False):
                for cache in BroadcastCacheKind:
                    save = replace(
                        SAVE_1VPU.save,
                        coalescing=scheme,
                        lane_wise_dependence=lane_wise,
                        mixed_precision_technique=mp_technique,
                        broadcast_cache=cache,
                    )
                    name = f"{scheme.value}|lwd={lane_wise}|mp={mp_technique}|{cache.name.lower()}"
                    variants[name] = replace(SAVE_1VPU, save=save)
    return variants


def case_name(kernel: str, machine: str, k_steps: int, engine: str) -> str:
    return f"{kernel}|{machine}|k{k_steps}|{engine}"


def results_digest(results) -> str:
    digest = hashlib.sha256()
    for result in results:
        fields = tuple(getattr(result, field) for field in FIELDS)
        digest.update(repr(fields).encode())
    return digest.hexdigest()[:16]


def cases():
    for kernel in gemm_kernels():
        for machine in MACHINES:
            for k_steps in K_STEPS:
                for engine in ENGINES:
                    yield kernel, machine, k_steps, engine


def variant_cases():
    for variant in machine_variants():
        for engine in ENGINES:
            yield variant, engine


def variant_case_name(variant: str, engine: str) -> str:
    return f"variant|{variant}|{engine}"


def variant_results(variant: str, engine: str, simulate) -> list:
    """Every kernel's coarse grid on one machine variant, in order."""
    machine = machine_variants()[variant]
    return [
        result
        for kernel in gemm_kernels()
        for result in simulate(
            grid_configs(kernel, VARIANT_K_STEPS, VARIANT_LEVELS), machine, engine
        )
    ]


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    names = [case_name(*case) for case in cases()]
    names += [variant_case_name(*case) for case in variant_cases()]
    assert sorted(_golden()) == sorted(names)


@pytest.mark.parametrize("kernel,machine,k_steps,engine", list(cases()))
def test_stacked_grid_matches_golden(kernel, machine, k_steps, engine):
    results = simulate_config(grid_configs(kernel, k_steps), MACHINES[machine], engine)
    assert results_digest(results) == _golden()[
        case_name(kernel, machine, k_steps, engine)
    ]


@pytest.mark.parametrize("variant,engine", list(variant_cases()))
def test_stacked_machine_variants_match_golden(variant, engine):
    results = variant_results(variant, engine, simulate_config)
    assert results_digest(results) == _golden()[variant_case_name(variant, engine)]


def _per_point(configs, machine, engine) -> list:
    return [simulate_config(config, machine, engine) for config in configs]


@pytest.mark.parametrize("engine", ENGINES)
def test_one_point_case_matches_golden(engine):
    kernel, machine, k_steps = "resnet2_2_fwd", "SAVE_1VPU", 8
    results = _per_point(grid_configs(kernel, k_steps), MACHINES[machine], engine)
    assert results_digest(results) == _golden()[
        case_name(kernel, machine, k_steps, engine)
    ]


def _write() -> None:
    """Recompute the digest point by point and overwrite the golden file."""
    golden = {
        case_name(kernel, machine, k_steps, engine): results_digest(
            _per_point(grid_configs(kernel, k_steps), MACHINES[machine], engine)
        )
        for kernel, machine, k_steps, engine in cases()
    }
    for variant, engine in variant_cases():
        golden[variant_case_name(variant, engine)] = results_digest(
            variant_results(variant, engine, _per_point)
        )
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    _write()
