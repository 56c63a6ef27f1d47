"""Request model of the simulation service.

A :class:`SimRequest` names a batch of grid-point simulations — one
kernel (tile geometry, precision, reduction depth, seed) on one machine
configuration, evaluated at one ``(bs, nbs)`` point or over a sparsity
sweep grid.  Everything the service does hangs off two identities,
both derived from :meth:`repro.experiments.executor.PointJob.canonical_series`
of the request's ``series`` job:

* :meth:`SimRequest.fingerprint` — a content address over the series,
  the kind and the points (plus :data:`SERVE_SCHEMA_VERSION`).  Equal
  fingerprints ⇒ bit-identical results, so the fingerprint is the
  dedup key, the job id, and the result-store key all at once.
* :meth:`SimRequest.batch_key` — the series alone.  Requests sharing a
  batch key differ only in which grid points they evaluate, so the
  service coalesces them into a single
  :meth:`repro.experiments.executor.SimExecutor.map` call.

Requests arrive as JSON; :func:`parse_request` validates and
canonicalises (unknown fields are rejected — silent typos would
fragment the content address space).
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from enum import Enum
from typing import Any, Optional
from collections.abc import Sequence

from repro.core.config import (
    BASELINE_2VPU,
    SAVE_1VPU,
    SAVE_2VPU,
    CoalescingScheme,
    MachineConfig,
)
from repro.experiments.executor import (
    METRIC_NS_PER_FMA,
    METRIC_TIME_NS,
    PointJob,
)
from repro.fastsim import ENGINES
from repro.fsio import canonical, canonical_fingerprint
from repro.kernels.tiling import BroadcastPattern, Precision, RegisterTile
from repro.memory.broadcast_cache import BroadcastCacheKind
from repro.model.surface import point_config

__all__ = [
    "MACHINE_PRESETS",
    "SERVE_SCHEMA_VERSION",
    "RequestError",
    "SimRequest",
    "parse_request",
]

#: Code/schema version of the service protocol *and* the result store.
#: Part of every fingerprint, so entries persisted by an older build
#: are never served to a newer one.  Bump on any change to the request
#: canonical form, the result payload layout, or the simulator itself.
#: v2: per-request ``engine`` tier (exact/fast/analytic) in the
#: canonical form — results from different tiers never share a
#: fingerprint, so they never collide in the result store.
#: v3: per-request ``mechanism`` (save/sparce) in the canonical form —
#: mechanism variants never share a fingerprint or a dedup batch.
#: v4: the fingerprint covers the canonical form of the whole series
#: job (every kernel config and machine field), not a preset name plus
#: overrides.
SERVE_SCHEMA_VERSION = 4

#: Machine configurations clients can name (Table I presets).
MACHINE_PRESETS: dict[str, MachineConfig] = {
    "baseline": BASELINE_2VPU,
    "save": SAVE_2VPU,
    "save_1vpu": SAVE_1VPU,
}

_METRICS = (METRIC_NS_PER_FMA, METRIC_TIME_NS)

_REQUEST_FIELDS = {
    "kind", "kernel", "machine", "metric", "point", "levels", "engine",
    "mechanism",
}

#: Mechanisms the service accepts.  ``indexmac`` is excluded: the serve
#: kernel spec describes dense register tiles, and indexed-MAC requires
#: an N:M structured kernel (use ``repro compare`` for those).
_SERVE_MECHANISMS = ("save", "sparce")
_KERNEL_FIELDS = {"rows", "cols", "pattern", "precision", "k_steps", "seed"}
_MACHINE_FIELDS = {"preset", "core", "save"}

#: ``save`` override fields whose JSON value names an enum member.
_SAVE_ENUMS: dict[str, type[Enum]] = {
    "coalescing": CoalescingScheme,
    "broadcast_cache": BroadcastCacheKind,
}


class RequestError(ValueError):
    """A malformed or out-of-range request (HTTP 400)."""


def _enum_value(enum_cls: type[Enum], raw: Any, field: str) -> Any:
    """Resolve a JSON string to an enum member, by value then by name."""
    for member in enum_cls:
        if raw == member.value or (
            isinstance(raw, str) and raw.upper() == member.name
        ):
            return member
    choices = ", ".join(
        str(m.value) if not isinstance(m.value, int) else m.name.lower()
        for m in enum_cls
    )
    raise RequestError(f"{field}: unknown value {raw!r} (choices: {choices})")


def _check_fields(payload: dict[str, Any], allowed: set, where: str) -> None:
    unknown = set(payload) - allowed
    if unknown:
        raise RequestError(
            f"{where}: unknown field(s) {sorted(unknown)} "
            f"(allowed: {sorted(allowed)})"
        )


def _machine(spec: Any) -> MachineConfig:
    """Validate a machine spec and build the machine it names."""
    if not isinstance(spec, dict):
        raise RequestError("machine: must be an object")
    _check_fields(spec, _MACHINE_FIELDS, "machine")
    preset = spec.get("preset", "save")
    if preset not in MACHINE_PRESETS:
        raise RequestError(
            f"machine.preset: unknown preset {preset!r} "
            f"(choices: {sorted(MACHINE_PRESETS)})"
        )
    machine = MACHINE_PRESETS[preset]
    for section, target in (("core", machine.core), ("save", machine.save)):
        overrides = spec.get(section)
        if overrides is None:
            continue
        if not isinstance(overrides, dict):
            raise RequestError(f"machine.{section}: must be an object")
        kwargs: dict[str, Any] = {}
        for name, value in overrides.items():
            if not hasattr(target, name):
                raise RequestError(
                    f"machine.{section}: unknown field {name!r}"
                )
            if section == "save" and name in _SAVE_ENUMS:
                value = _enum_value(
                    _SAVE_ENUMS[name], value, f"machine.save.{name}"
                )
            kwargs[name] = value
        try:
            if section == "core":
                machine = machine.with_core(**kwargs)
            else:
                machine = machine.with_save(**kwargs)
        except (TypeError, ValueError) as error:
            raise RequestError(f"machine.{section}: {error}") from None
    return machine


def _sparsity(raw: Any, field: str) -> float:
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise RequestError(f"{field}: must be a number, got {raw!r}")
    value = round(float(raw), 6)
    if not 0.0 <= value <= 1.0:
        raise RequestError(f"{field}: sparsity {value} outside [0, 1]")
    return value


@dataclass(frozen=True)
class SimRequest:
    """One validated, canonical simulation request.

    ``series`` is the job every point shares: kernel, machine, metric,
    engine and mechanism (its config's sparsity levels are
    placeholders).  ``points`` is the expanded evaluation set: a single
    pair for ``kind="point"``, the full ``levels × levels`` cross
    product (in row-major ``(bs, nbs)`` order, matching
    :meth:`repro.model.surface.SparsitySurface.build`) for sweeps.
    """

    kind: str
    series: PointJob
    points: tuple[tuple[float, float], ...]
    levels: Optional[tuple[float, ...]] = None

    def fingerprint(self) -> str:
        """Content address: dedup key, job id and store key in one."""
        return canonical_fingerprint(
            {
                "schema": SERVE_SCHEMA_VERSION,
                "series": self.series.canonical_series(),
                "kind": self.kind,
                "points": canonical(self.points),
            }
        )

    def batch_key(self) -> str:
        """The series alone: requests sharing it coalesce into one batch."""
        return canonical_fingerprint(self.series.canonical_series())

    def jobs(self) -> list[PointJob]:
        """The executor work units, one per evaluation point."""
        return [self.series.at(bs, nbs) for bs, nbs in self.points]

    def with_points(
        self, points: Sequence[tuple[float, float]]
    ) -> SimRequest:
        return dc_replace(self, points=tuple(points))


def parse_request(payload: Any) -> SimRequest:
    """Validate a JSON request body into a :class:`SimRequest`.

    Raises:
        RequestError: on any malformed, unknown or out-of-range field.
    """
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    _check_fields(payload, _REQUEST_FIELDS, "request")
    kind = payload.get("kind", "point")
    if kind not in ("point", "sweep"):
        raise RequestError(f"kind: must be 'point' or 'sweep', got {kind!r}")

    kernel = payload.get("kernel")
    if not isinstance(kernel, dict):
        raise RequestError("kernel: must be an object")
    _check_fields(kernel, _KERNEL_FIELDS, "kernel")
    rows = kernel.get("rows", 2)
    cols = kernel.get("cols", 2)
    k_steps = kernel.get("k_steps", 24)
    seed = kernel.get("seed", 0)
    for name, value in (("rows", rows), ("cols", cols),
                        ("k_steps", k_steps), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise RequestError(f"kernel.{name}: must be an integer")
    pattern = _enum_value(
        BroadcastPattern, kernel.get("pattern", "explicit"), "kernel.pattern"
    )
    precision = _enum_value(
        Precision, kernel.get("precision", "fp32"), "kernel.precision"
    )
    try:
        tile = RegisterTile(rows, cols, pattern)
    except ValueError as error:
        raise RequestError(f"kernel: {error}") from None
    if k_steps <= 0:
        raise RequestError("kernel.k_steps: must be positive")

    machine = _machine(payload.get("machine", {"preset": "save"}))

    metric = payload.get("metric", METRIC_NS_PER_FMA)
    if metric not in _METRICS:
        raise RequestError(
            f"metric: must be one of {list(_METRICS)}, got {metric!r}"
        )

    engine = payload.get("engine", "exact")
    if engine not in ENGINES:
        raise RequestError(
            f"engine: must be one of {list(ENGINES)}, got {engine!r}"
        )

    mechanism = payload.get("mechanism", "save")
    if mechanism not in _SERVE_MECHANISMS:
        raise RequestError(
            f"mechanism: must be one of {list(_SERVE_MECHANISMS)}, "
            f"got {mechanism!r}"
        )
    if mechanism != "save" and engine != "exact":
        raise RequestError(
            f"mechanism: {mechanism!r} supports only engine='exact' "
            "(the fast tier is calibrated against SAVE only)"
        )

    levels: Optional[tuple[float, ...]] = None
    if kind == "point":
        if "levels" in payload:
            raise RequestError("levels: only valid for kind='sweep'")
        point = payload.get("point")
        if (
            not isinstance(point, (list, tuple))
            or len(point) != 2
        ):
            raise RequestError("point: must be a [bs, nbs] pair")
        points = (
            (_sparsity(point[0], "point[0]"), _sparsity(point[1], "point[1]")),
        )
    else:
        if "point" in payload:
            raise RequestError("point: only valid for kind='point'")
        raw_levels = payload.get("levels")
        if not isinstance(raw_levels, (list, tuple)) or not raw_levels:
            raise RequestError("levels: must be a non-empty list of sparsities")
        levels = tuple(
            _sparsity(level, f"levels[{i}]") for i, level in enumerate(raw_levels)
        )
        if len(set(levels)) != len(levels):
            raise RequestError("levels: must not contain duplicates")
        points = tuple((bs, nbs) for bs in levels for nbs in levels)

    series = PointJob(
        config=point_config(tile, precision, 0.0, 0.0, k_steps, seed),
        machine=machine,
        metric=metric,
        engine=engine,
        mechanism=mechanism,
    )
    return SimRequest(kind=kind, series=series, points=points, levels=levels)
