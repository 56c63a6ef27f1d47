"""SAVE vs. rival skip mechanisms on the shared sparsity grid.

The comparison the related-work section invites: the same N:M
structured-sparse kernel, the same operand data, the same dense
baseline — evaluated under every skip mechanism the repo models
(:data:`repro.rivals.mechanisms.MECHANISMS`).  One executor batch
covers the whole mechanism × (BS, NBS) product, so parallel runs are
bit-identical to serial ones like every other sweep.

Fair-comparison policy (docs/methodology.md): the baseline is a single
dense-pipeline run of the *same kernel* on the paper's baseline
machine.  With SAVE disabled the pipeline's timing is data-independent,
so one baseline point serves every mechanism and every grid point; each
mechanism's speedup is ``baseline_time / mechanism_time``.

The grid axes are *requested* sparsity levels.  For an N:M kernel the
broadcast axis is quantised onto the pattern lattice (2:4 forces at
least 50% broadcast sparsity even at a requested 0.0) — the report
carries the realised level so figures stay honest.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from typing import Any, Optional, Union
from collections.abc import Sequence

from repro.core.config import BASELINE_2VPU, SAVE_2VPU, MachineConfig
from repro.experiments.context import RunContext
from repro.experiments.executor import PointJob, SimExecutor, default_executor
from repro.experiments.report import ExperimentReport
from repro.experiments.sweeps import PAPER_SWEEP_LEVELS, QUICK_LEVELS
from repro.kernels.library import KernelSpec, get_kernel
from repro.obs import maybe_span
from repro.rivals.mechanisms import MECHANISMS, resolve_mechanism
from repro.store import SweepStore, SweepWriter, sweep_fingerprint

__all__ = ["compare_mechanisms", "run"]

#: The comparison's default kernel: structured, so every mechanism
#: (including IndexMAC) can run on it.
DEFAULT_KERNEL = "nm24_fwd"


def compare_mechanisms(
    kernel: Union[str, KernelSpec] = DEFAULT_KERNEL,
    mechanisms: Sequence[str] = MECHANISMS,
    levels: Sequence[float] = QUICK_LEVELS,
    machine: MachineConfig = SAVE_2VPU,
    baseline: MachineConfig = BASELINE_2VPU,
    k_steps: int = 24,
    seed: int = 0,
    executor: Optional[SimExecutor] = None,
    store_root: Optional[Union[str, Path]] = None,
) -> dict[str, Any]:
    """Sweep every mechanism over the shared grid; one executor batch.

    Returns a dict with the grid ``levels``, the baseline time, and per
    mechanism the speedup grid and raw times.  With ``store_root`` set,
    each mechanism's raw point times live in the columnar sweep store
    under its own mechanism-tagged fingerprint (metric ``time_ns``):
    stored points are read back and only the missing ones join the
    batch, so a rerun simulates just the dense baseline, and
    ``repro query --group-by mechanism`` can aggregate the comparison.
    """
    spec = get_kernel(kernel)
    if not mechanisms:
        raise ValueError("mechanisms must not be empty")
    points = [(float(bs), float(nbs)) for bs in levels for nbs in levels]
    base = spec.config(k_steps=k_steps, seed=seed)
    series = [
        PointJob(config=base, machine=machine, engine="exact", mechanism=m)
        for m in dict.fromkeys(mechanisms)
    ]
    # Validate every mechanism/kernel pairing before simulating
    # anything — a bad pairing should fail in milliseconds.
    for job in series:
        resolve_mechanism(job.mechanism, base, machine, "exact")

    unique = list(dict.fromkeys(points))
    known: dict[str, dict[tuple[float, float], float]] = {j.mechanism: {} for j in series}
    writers: dict[str, SweepWriter] = {}
    with contextlib.ExitStack() as stack:
        if store_root is not None:
            # Writers open in fingerprint order, so concurrent
            # comparisons take the sweeps' locks in one global order.
            for job in sorted(series, key=sweep_fingerprint):
                known[job.mechanism] = SweepStore(store_root).points(job)
                if any(point not in known[job.mechanism] for point in unique):
                    writer = stack.enter_context(SweepWriter(store_root, job))
                    writers[job.mechanism] = writer
                    known[job.mechanism] = dict(writer.stored)
        missing = {
            m: [point for point in unique if point not in known[m]] for m in known
        }
        jobs = [PointJob(config=base, machine=baseline, engine="exact")]
        for job in series:
            jobs.extend(job.at(bs, nbs) for bs, nbs in missing[job.mechanism])
        runner = default_executor(executor)
        values = runner.map(jobs)
        base_time, fresh = values[0], iter(values[1:])
        for mechanism, todo in missing.items():
            simulated = [next(fresh) for _ in todo]
            known[mechanism].update(zip(todo, simulated))
            if mechanism in writers:
                writers[mechanism].append_batch(
                    [bs for bs, _ in todo], [nbs for _, nbs in todo], simulated
                )

    speedups: dict[str, dict[tuple[float, float], float]] = {}
    times: dict[str, list[float]] = {}
    with maybe_span(runner.spans, "compare.assemble", kernel=spec.name):
        for mechanism in mechanisms:
            times[mechanism] = [known[mechanism][point] for point in points]
            speedups[mechanism] = {
                (round(bs, 2), round(nbs, 2)): base_time / time
                for (bs, nbs), time in zip(points, times[mechanism])
            }
    return {
        "kernel": spec.name,
        "pattern": getattr(spec, "pattern", None),
        "effective_bs_floor": getattr(
            base, "effective_broadcast_sparsity", 0.0
        ),
        "levels": [float(level) for level in levels],
        "k_steps": k_steps,
        "seed": seed,
        "mechanisms": list(mechanisms),
        "base_time_ns": base_time,
        "speedups": speedups,
        "times": times,
    }


def run(ctx: Optional[RunContext] = None) -> ExperimentReport:
    """Render the SAVE-vs-rivals comparison table."""
    ctx = ctx if ctx is not None else RunContext()
    levels = ctx.levels
    if levels is None:
        levels = PAPER_SWEEP_LEVELS if ctx.full_grid else QUICK_LEVELS
    result = compare_mechanisms(
        kernel=DEFAULT_KERNEL,
        levels=levels,
        k_steps=ctx.resolve_k_steps(24),
        executor=ctx.executor,
    )
    rows = []
    for mechanism in result["mechanisms"]:
        for (bs, nbs), speedup in sorted(result["speedups"][mechanism].items()):
            rows.append((mechanism, f"{bs:.0%}", f"{nbs:.0%}", speedup))
    top = max(levels)
    peaks = ", ".join(
        f"{mechanism} {result['speedups'][mechanism][(top, top)]:.2f}x"
        for mechanism in result["mechanisms"]
    )
    notes = [
        f"baseline: dense {result['kernel']} on the 2-VPU baseline "
        f"machine ({result['base_time_ns']:.0f} ns, data-independent)",
        f"peak speedups at ({top:.0%}, {top:.0%}): {peaks}",
    ]
    if result["pattern"]:
        notes.append(
            f"BS axis is quantised onto the {result['pattern']} lattice "
            f"(floor {result['effective_bs_floor']:.0%}); "
            "requested levels shown"
        )
    return ExperimentReport(
        experiment="rivals",
        title=f"Skip-mechanism comparison on {result['kernel']}",
        headers=("Mechanism", "BS", "NBS", "Speedup"),
        rows=rows,
        notes=notes,
        data=result,
    )
