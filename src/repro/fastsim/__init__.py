"""Batched fast-path simulation tiers (the ROADMAP's 10–100× item).

Three engine tiers, selected by the ``engine=`` parameter threaded
through :func:`repro.core.pipeline.simulate`, :class:`PointJob`,
:class:`RunContext`, surfaces, sweeps, ``repro.serve`` and the CLI:

* ``"exact"`` — the cycle-level out-of-order pipeline in
  :mod:`repro.core` (bit-for-bit reference, unchanged);
* ``"fast"`` — structure-of-arrays bound-and-bottleneck estimation
  (:mod:`repro.fastsim.engine`), calibrated per kernel class against
  the exact model (:mod:`repro.fastsim.calibration`); error budget
  ≤ 5% median / ≤ 15% p95 relative cycle error on the full grid;
* ``"analytic"`` — the closed-form steady-state model
  (:mod:`repro.model.analytic`), cheapest and documented looser.

Every :class:`repro.core.pipeline.SimResult` carries an ``engine`` tag
so tiers never mix silently in surfaces or stores.
"""

from repro.fastsim.engine import (
    ENGINE_ANALYTIC,
    ENGINE_EXACT,
    ENGINE_FAST,
    ENGINES,
    FASTSIM_MODEL_VERSION,
    BoundBreakdown,
    bounds,
    class_key,
    simulate_arrays,
    simulate_config,
    simulate_stream,
    simulate_trace,
    validate_engine,
)
from repro.fastsim.soa import TraceArrays, stack_key

__all__ = [
    "ENGINES",
    "ENGINE_ANALYTIC",
    "ENGINE_EXACT",
    "ENGINE_FAST",
    "FASTSIM_MODEL_VERSION",
    "BoundBreakdown",
    "TraceArrays",
    "bounds",
    "class_key",
    "simulate_arrays",
    "simulate_config",
    "simulate_stream",
    "simulate_trace",
    "stack_key",
    "validate_engine",
]
