"""User-facing validation helpers.

SAVE's defining property is *software transparency*: the hardware may
skip, coalesce, rotate and chain-compress, but the architectural result
must be exactly what an in-order machine computes.
:func:`check_transparency` packages the comparison the test suite uses
so downstream users can validate their own traces and configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.config import MachineConfig, machine_label
from repro.core.pipeline import SimResult, simulate
from repro.isa.registers import ArchState
from repro.kernels.trace import KernelTrace


@dataclass
class TransparencyReport:
    """Outcome of one transparency check."""

    trace_name: str
    machine_label: str
    transparent: bool
    mismatches: list[str] = field(default_factory=list)
    result: Optional[SimResult] = None

    def raise_if_failed(self) -> None:
        """Raise ``AssertionError`` with details on any divergence."""
        if not self.transparent:
            details = "; ".join(self.mismatches[:5])
            raise AssertionError(
                f"{self.trace_name} on {self.machine_label} diverged: {details}"
            )


def compare_states(reference: ArchState, state: ArchState) -> list[str]:
    """List every register/memory divergence between two states."""
    mismatches: list[str] = []
    for reg in range(32):
        ref_val = reference.read_vreg(reg)
        got = state.read_vreg(reg)
        if ref_val.shape != got.shape or not np.array_equal(ref_val, got):
            mismatches.append(f"zmm{reg}")
    for kreg in range(8):
        if reference.read_kreg(kreg) != state.read_kreg(kreg):
            mismatches.append(f"k{kreg}")
    ref_mem = reference.memory.snapshot()
    sim_mem = state.memory.snapshot()
    for addr in sorted(set(ref_mem) | set(sim_mem)):
        if np.float32(ref_mem.get(addr, 0.0)) != np.float32(sim_mem.get(addr, 0.0)):
            mismatches.append(f"mem[0x{addr:x}]")
    return mismatches


def check_transparency(
    trace: KernelTrace,
    machine: MachineConfig,
    warm_level: Optional[str] = "l2",
) -> TransparencyReport:
    """Run ``trace`` on ``machine`` and compare against the reference.

    Returns a report rather than raising, so sweeps can collect
    failures; call :meth:`TransparencyReport.raise_if_failed` to assert.
    """
    reference = trace.reference_result()
    result = simulate(trace, machine, warm_level=warm_level)
    mismatches = compare_states(reference, result.final_state)
    return TransparencyReport(
        trace_name=trace.name,
        machine_label=machine_label(machine),
        transparent=not mismatches,
        mismatches=mismatches,
        result=result,
    )
