"""The unified experiment-run API: one frozen context object.

Every experiment runner takes a single :class:`RunContext` instead of a
private mix of keyword arguments.  The context carries *how* to run
(grid resolution, reduction depth, execution backend, observability
hooks) while the experiment itself decides *what* to run.  Unknown
options fail loudly at the :func:`repro.experiments.registry.run_experiment`
boundary — nothing is silently swallowed.

The context is frozen: experiments may not mutate shared run state.
Derive variants with :meth:`RunContext.with_options`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional
from collections.abc import Sequence

if TYPE_CHECKING:  # imports only for annotations; keeps this module cycle-free
    from pathlib import Path

    from repro.experiments.executor import SimExecutor
    from repro.obs import MetricsRegistry, SpanRecorder


@dataclass(frozen=True)
class RunContext:
    """Options shared by every experiment runner.

    Args:
        full_grid: sweep the paper's 10%-step sparsity grid instead of
            the quick 4-level grid (slow; figure-quality output).
        k_steps: reduction steps per simulated kernel.  ``None`` means
            "use the experiment's own default" — experiments resolve it
            with :meth:`resolve_k_steps` because their defaults differ
            (kernel sweeps default deeper than surface-backed models).
        executor: execution backend for grid-point simulations; ``None``
            falls back to the serial module default.  Observability
            (metrics registry / trace sink) is configured *on the
            executor* — see :class:`repro.experiments.executor.SimExecutor`.
        panel: which Fig. 14 panel to render (``"a"``..``"d"`` or
            ``"all"``).  Ignored by every other experiment; the CLI
            warns when it would be.
        metrics: shared metrics registry for this run, if the caller
            wants aggregate counters/histograms back.  Conventionally
            the same registry installed on ``executor``.
        spans: host wall-clock :class:`repro.obs.SpanRecorder` for
            phase attribution (build / simulate / merge / report).
            Conventionally the same recorder installed on ``executor``;
            ``run_experiment`` opens an ``experiment:<id>`` span on it
            around each runner.
        store: root of the sweep store that surface-backed
            experiments (fig14/fig16/scaling) read their grid points
            from and fill; ``None`` means the repo-level
            ``.sweep_store/`` (:data:`repro.store.DEFAULT_STORE_ROOT`).
        levels: explicit sparsity levels for kernel sweeps, overriding
            the quick/full grid choice.
        samples: per-layer sparsity samples for Fig. 14's dynamic
            activation model.
        engine: simulation engine tier for every grid point —
            ``"exact"`` (cycle-level pipeline), ``"fast"`` (calibrated
            structure-of-arrays bounds) or ``"analytic"`` (closed-form
            model).  Results and cached surfaces carry the tag, so
            tiers never mix.
        mechanism: skip-mechanism variant for every grid point —
            ``"save"`` (the paper's engine), ``"sparce"`` (scalar
            whole-instruction skip) or ``"indexmac"`` (indexed-MAC over
            N:M kernels).  Rival mechanisms are exact-engine only; see
            :mod:`repro.rivals.mechanisms`.
    """

    full_grid: bool = False
    k_steps: Optional[int] = None
    executor: Optional["SimExecutor"] = None
    panel: str = "all"
    metrics: Optional["MetricsRegistry"] = None
    spans: Optional["SpanRecorder"] = None
    store: Optional["Path"] = None
    levels: Optional[Sequence[float]] = None
    samples: int = 5
    engine: str = "exact"
    mechanism: str = "save"

    def resolve_k_steps(self, default: int) -> int:
        """The context's ``k_steps``, or the experiment's ``default``."""
        return default if self.k_steps is None else self.k_steps

    def with_options(self, **changes) -> RunContext:
        """A copy with the given fields replaced (frozen-safe update)."""
        return dataclasses.replace(self, **changes)


#: Field names accepted as ``run_experiment`` overrides.
CONTEXT_FIELDS = tuple(f.name for f in dataclasses.fields(RunContext))

__all__ = ["CONTEXT_FIELDS", "RunContext"]
