"""Calibration of the fast tier against the exact pipeline.

Accuracy is a managed contract: the harness runs the exact engine over
the paper's full 10%-interval sparsity grid for every kernel class in
the library × every machine preset, fits per-class linear weights over
the fast tier's bound features (minimising *relative* cycle error), and
records the residual error distribution into a committed
``calibration.json`` next to this module.  Tests enforce the budget the
ISSUE sets — fast tier ≤ 5% median / ≤ 15% p95 relative cycle error on
that grid — and CI re-validates the committed weights on a reduced
grid, so the artifact can never silently go stale.

The artifact carries a content *fingerprint* over everything the fit
depends on (trace-generator version, fastsim model version, feature
vector, grid, kernel classes).  Recomputing the fingerprint needs no
simulation, so staleness checks are cheap.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.config import BASELINE_2VPU, SAVE_1VPU, SAVE_2VPU, MachineConfig
from repro.fastsim import engine as fast_engine
from repro.fastsim.soa import TraceArrays
from repro.kernels import TRACE_GENERATOR_VERSION
from repro.kernels.library import KERNEL_LIBRARY, KernelSpec

__all__ = [
    "CALIBRATION_PATH",
    "CALIBRATION_SCHEMA_VERSION",
    "MACHINE_PRESETS",
    "calibration_classes",
    "expected_fingerprint",
    "load_calibration",
    "run_calibration",
    "validate_budget",
    "weights_for",
]

CALIBRATION_SCHEMA_VERSION = 1

#: The committed artifact, shipped with the package.
CALIBRATION_PATH = Path(__file__).parent / "calibration.json"

#: Machine presets the calibration grid covers.
MACHINE_PRESETS: tuple[tuple[str, MachineConfig], ...] = (
    ("baseline", BASELINE_2VPU),
    ("save", SAVE_2VPU),
    ("save_1vpu", SAVE_1VPU),
)

#: The paper's grid: 0%–90% sparsity at 10% intervals, both axes.
FULL_LEVELS: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(10))

#: Reduced grid for CI smoke validation.
QUICK_LEVELS: tuple[float, ...] = (0.0, 0.4, 0.8)

#: Error budget on the full calibration grid (ISSUE acceptance).
BUDGET_MEDIAN = 0.05
BUDGET_P95 = 0.15

_DEFAULT_K_STEPS = 24
_DEFAULT_SEED = 0


def calibration_classes() -> dict[str, tuple[KernelSpec, MachineConfig]]:
    """Unique (tile shape, precision, machine) classes, keyed like
    :func:`repro.fastsim.engine.class_key`.

    Library kernels sharing a shape/pattern/precision collapse into one
    class — the fast model sees identical structure for them.
    """
    classes: dict[str, tuple[KernelSpec, MachineConfig]] = {}
    for spec in KERNEL_LIBRARY.values():
        for _, machine in MACHINE_PRESETS:
            key = fast_engine.class_key(
                spec.tile, spec.default_precision, machine
            )
            classes.setdefault(key, (spec, machine))
    return classes


def expected_fingerprint(
    levels: tuple[float, ...] = FULL_LEVELS,
    k_steps: int = _DEFAULT_K_STEPS,
    seed: int = _DEFAULT_SEED,
) -> str:
    """Content hash of everything the committed fit depends on."""
    basis = {
        "schema": CALIBRATION_SCHEMA_VERSION,
        "trace_generator": TRACE_GENERATOR_VERSION,
        "fastsim_model": fast_engine.FASTSIM_MODEL_VERSION,
        "features": list(fast_engine.FEATURE_NAMES),
        "levels": [float(level) for level in levels],
        "k_steps": k_steps,
        "seed": seed,
        "classes": sorted(calibration_classes()),
    }
    blob = json.dumps(basis, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:24]


def _exact_cycles(
    spec: KernelSpec,
    machine: MachineConfig,
    levels: tuple[float, ...],
    k_steps: int,
    seed: int,
    executor,
) -> tuple[list, np.ndarray]:
    """Run the exact engine over the sparsity grid for one class."""
    from repro.experiments.executor import METRIC_TIME_NS, PointJob

    configs = [
        spec.config(
            broadcast_sparsity=bs,
            nonbroadcast_sparsity=nbs,
            k_steps=k_steps,
            seed=seed,
        )
        for bs in levels
        for nbs in levels
    ]
    jobs = [
        PointJob(config, machine, metric=METRIC_TIME_NS) for config in configs
    ]
    times_ns = executor.map(jobs)
    cycles = np.array(times_ns, dtype=np.float64) * machine.core.freq_ghz
    return configs, cycles


def _fit_weights(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares minimising *relative* error: scale each row by 1/y
    and regress onto 1."""
    scaled = x / y[:, None]
    target = np.ones_like(y)
    weights, *_ = np.linalg.lstsq(scaled, target, rcond=None)
    return weights


def _error_stats(rel: np.ndarray) -> dict[str, float]:
    return {
        "median_rel_err": float(np.median(rel)),
        "p95_rel_err": float(np.percentile(rel, 95)),
        "max_rel_err": float(rel.max()),
    }


def run_calibration(
    levels: tuple[float, ...] = FULL_LEVELS,
    k_steps: int = _DEFAULT_K_STEPS,
    seed: int = _DEFAULT_SEED,
    executor=None,
    fit: bool = True,
    weights: Optional[dict[str, np.ndarray]] = None,
    echo=None,
) -> dict:
    """Cross-validate (and optionally refit) fast vs exact per class.

    With ``fit=True`` (the default) per-class weights are fitted on the
    grid and the payload is a fresh calibration artifact.  With
    ``fit=False`` the provided ``weights`` (e.g. the committed ones)
    are *evaluated* on the grid instead — that is the staleness smoke
    check.
    """
    if executor is None:
        from repro.experiments.executor import SERIAL_EXECUTOR

        executor = SERIAL_EXECUTOR
    classes: dict[str, dict] = {}
    pooled: list[np.ndarray] = []
    for key, (spec, machine) in sorted(calibration_classes().items()):
        configs, exact = _exact_cycles(
            spec, machine, levels, k_steps, seed, executor
        )
        breakdowns = fast_engine.bounds(TraceArrays.from_config(configs), machine)
        x = np.stack([fast_engine.features(breakdown) for breakdown in breakdowns])
        if fit:
            w = _fit_weights(x, exact)
        else:
            if weights is None or key not in weights:
                raise ValueError(f"no committed weights for class {key!r}")
            w = np.asarray(weights[key], dtype=np.float64)
        predicted = np.maximum(x @ w, 1.0)
        rel = np.abs(predicted - exact) / exact
        pooled.append(rel)
        classes[key] = {
            "kernel": spec.name,
            "points": int(rel.size),
            "weights": [float(value) for value in w],
            **_error_stats(rel),
        }
        if echo is not None:
            echo(
                f"  {key}: median {classes[key]['median_rel_err']:.3%} "
                f"p95 {classes[key]['p95_rel_err']:.3%} "
                f"max {classes[key]['max_rel_err']:.3%}"
            )
    all_rel = np.concatenate(pooled)
    return {
        "schema": CALIBRATION_SCHEMA_VERSION,
        "fingerprint": expected_fingerprint(levels, k_steps, seed),
        "engine": fast_engine.ENGINE_FAST,
        "feature_names": list(fast_engine.FEATURE_NAMES),
        "levels": [float(level) for level in levels],
        "k_steps": k_steps,
        "seed": seed,
        "budget": {"median": BUDGET_MEDIAN, "p95": BUDGET_P95},
        "classes": classes,
        "summary": {
            "classes": len(classes),
            "points": int(all_rel.size),
            **_error_stats(all_rel),
        },
    }


def validate_budget(
    payload: dict,
    max_median: float = BUDGET_MEDIAN,
    max_p95: float = BUDGET_P95,
) -> list[str]:
    """Budget violations in a calibration payload (empty == pass)."""
    problems = []
    summary = payload.get("summary", {})
    median = summary.get("median_rel_err")
    p95 = summary.get("p95_rel_err")
    if median is None or p95 is None:
        return ["payload has no summary error statistics"]
    if median > max_median:
        problems.append(
            f"median relative error {median:.3%} exceeds budget "
            f"{max_median:.0%}"
        )
    if p95 > max_p95:
        problems.append(
            f"p95 relative error {p95:.3%} exceeds budget {max_p95:.0%}"
        )
    return problems


# ---------------------------------------------------------------------------
# Committed-artifact access
# ---------------------------------------------------------------------------

_CACHE: dict[str, Optional[dict]] = {}


def load_calibration(path: Path = CALIBRATION_PATH) -> Optional[dict]:
    """The committed calibration payload, or ``None`` if absent/invalid.

    Cached per path: the fast tier consults this on every simulated
    point.
    """
    cache_key = str(path)
    if cache_key not in _CACHE:
        payload: Optional[dict] = None
        try:
            loaded = json.loads(path.read_text())
            if loaded.get("schema") == CALIBRATION_SCHEMA_VERSION:
                payload = loaded
        except (OSError, ValueError):
            payload = None
        _CACHE[cache_key] = payload
    return _CACHE[cache_key]


def weights_for(key: str) -> Optional[np.ndarray]:
    """Committed weights for one kernel class (``None`` → raw bounds)."""
    payload = load_calibration()
    if payload is None:
        return None
    entry = payload["classes"].get(key)
    if entry is None:
        return None
    return np.asarray(entry["weights"], dtype=np.float64)


def committed_weights(payload: dict) -> dict[str, np.ndarray]:
    """Extract the per-class weight vectors from a payload."""
    return {
        key: np.asarray(entry["weights"], dtype=np.float64)
        for key, entry in payload["classes"].items()
    }
