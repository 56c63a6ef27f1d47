"""Shared helpers of the benchmark: paths, statistics, result records and
the fast-vs-exact accuracy check."""

from __future__ import annotations

import math
import resource
import statistics
import sys
from pathlib import Path
from typing import Any
from collections.abc import Sequence

#: The checkout root: the benchmark lives in ``<root>/perfbench``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch stores and servers' result stores; removed after each run.
WORK_ROOT = ROOT / ".perfbench_work"
#: Span files of traced runs, kept after the run for inspection.
OUT_ROOT = ROOT / ".perfbench_out"


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's own ``src/`` tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the same rule as the service's recorder)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def windowed_percentile(samples: Sequence[float], q: float, windows: int) -> float:
    """Median, over consecutive windows of ``samples``, of each one's percentile.

    A burst of host slowness lands in one window and barely moves the
    median; a slowdown of the program shows in every window.
    """
    size = max(1, len(samples) // windows)
    return statistics.median(
        percentile(samples[start : start + size], q)
        for start in range(0, len(samples) - size + 1, size)
    )


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def fast_rel_error(config: Any, machine: Any) -> float:
    """Fast-vs-exact relative cycle error of one point."""
    # Imported here: run.py uses this module and must not load the program.
    from repro.core.pipeline import simulate
    from repro.fastsim import simulate_config
    from repro.kernels.library import trace_stream

    exact = simulate(trace_stream(config), machine, keep_state=False).cycles
    fast = simulate_config(config, machine, "fast").cycles
    return abs(fast - exact) / exact


class Outcome:
    """Counts of attempted and failed operations, with the first errors.

    A failed operation is a wrong output or an exception; both count,
    and neither is ever dropped from ``attempted``.
    """

    MAX_KEPT = 10

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < self.MAX_KEPT:
            self.errors.append(message)

    def check(self, condition: bool, message: str) -> bool:
        if condition:
            self.attempted += 1
        else:
            self.fail(message)
        return condition

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }
