"""``repro compare`` — the SAVE-vs-rivals comparison harness.

Sweeps every requested skip mechanism over the shared (BS, NBS) grid
(one executor batch, exact engine), prints the comparison figure and
summary table, and optionally:

* records each mechanism's raw point times into a columnar sweep store
  (``--store``), under mechanism-disjoint fingerprints;
* writes a committed comparison artifact (``--out`` + ``--tag``): a
  deterministic JSON result plus the rendered markdown figure/table.

Results are simulated cycle counts, so the artifact is byte-stable for
a given seed/grid — it diffs meaningfully across PRs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Optional

__all__ = ["compare_main"]


def _levels(count: int) -> list[float]:
    """``count`` evenly spaced sparsity levels over [0, 0.9]."""
    if count < 2:
        raise ValueError("grid must be >= 2")
    step = 0.9 / (count - 1)
    return [round(i * step, 6) for i in range(count)]


def _jsonable(result: dict[str, Any]) -> dict[str, Any]:
    """The comparison result with tuple-keyed grids flattened."""
    out = dict(result)
    out["speedups"] = {
        mechanism: [
            {"bs": bs, "nbs": nbs, "speedup": value}
            for (bs, nbs), value in sorted(grid.items())
        ]
        for mechanism, grid in result["speedups"].items()
    }
    return out


def compare_main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro compare``."""
    parser = argparse.ArgumentParser(
        prog="save-repro compare",
        description=(
            "Compare SAVE against rival skip mechanisms (SparCE, "
            "IndexMAC) on one kernel over a shared sparsity grid."
        ),
    )
    parser.add_argument(
        "--kernel", default="nm24_fwd",
        help=(
            "library kernel name (default: nm24_fwd; must be an N:M "
            "kernel when indexmac is among the mechanisms)"
        ),
    )
    parser.add_argument(
        "--mechanisms", default=None, metavar="M[,M...]",
        help="mechanisms to compare (default: save,sparce,indexmac)",
    )
    parser.add_argument(
        "--grid", type=int, default=4, metavar="N",
        help="N×N requested-sparsity grid over [0, 0.9] (default: 4)",
    )
    parser.add_argument("--k-steps", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: REPRO_JOBS, else serial)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help=(
            "read and fill per-mechanism sweeps in this sweep store "
            "(stored points are not simulated again)"
        ),
    )
    parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write the comparison artifact (JSON + markdown) here",
    )
    parser.add_argument(
        "--tag", default="compare", metavar="NAME",
        help="artifact file stem under --out (default: compare)",
    )
    parser.add_argument(
        "--no-chart", action="store_true",
        help="print only the summary table, not the ASCII figure",
    )
    args = parser.parse_args(argv)

    from repro.experiments.charts import compare_charts
    from repro.experiments.executor import SimExecutor
    from repro.experiments.report import ExperimentReport
    from repro.experiments.rivals import compare_mechanisms
    from repro.kernels.library import UnknownKernelError
    from repro.rivals.mechanisms import MECHANISMS, MechanismError

    if args.mechanisms is None:
        mechanisms = list(MECHANISMS)
    else:
        mechanisms = [
            m.strip() for m in args.mechanisms.split(",") if m.strip()
        ]
    try:
        levels = _levels(args.grid)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        result = compare_mechanisms(
            kernel=args.kernel,
            mechanisms=mechanisms,
            levels=levels,
            k_steps=args.k_steps,
            seed=args.seed,
            executor=SimExecutor(jobs=args.jobs),
            store_root=args.store,
        )
    except (UnknownKernelError, MechanismError) as error:
        # KeyError reprs its message in quotes; print the bare text.
        message = error.args[0] if error.args else str(error)
        print(str(message), file=sys.stderr)
        return 2

    top = max(levels)
    rows = []
    for mechanism in result["mechanisms"]:
        grid = result["speedups"][mechanism]
        dense = grid[(0.0, 0.0)]
        peak = grid[(round(top, 2), round(top, 2))]
        mean = sum(grid.values()) / len(grid)
        rows.append((
            mechanism, f"{dense:.2f}x", f"{mean:.2f}x", f"{peak:.2f}x",
        ))
    report = ExperimentReport(
        experiment="compare",
        title=f"Skip-mechanism comparison on {result['kernel']}",
        headers=("Mechanism", "Dense", "Mean", f"Peak ({top:.0%},{top:.0%})"),
        rows=rows,
        notes=[
            f"speedup over the dense baseline "
            f"({result['base_time_ns']:.0f} ns); grid {args.grid}x{args.grid} "
            f"requested levels, k_steps={args.k_steps}, seed={args.seed}",
        ],
        data=result,
    )
    if result["pattern"]:
        report.notes.append(
            f"BS axis quantised onto the {result['pattern']} lattice "
            f"(floor {result['effective_bs_floor']:.0%})"
        )

    chart = compare_charts(result)
    if not args.no_chart:
        print(chart)
        print()
    report.show()

    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        json_path = out_dir / f"{args.tag}.json"
        json_path.write_text(
            json.dumps(_jsonable(result), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        md_path = out_dir / f"{args.tag}.md"
        md_path.write_text(
            f"# Skip-mechanism comparison: {result['kernel']}\n\n"
            "```\n" + chart + "\n```\n\n"
            "```\n" + report.render() + "\n```\n",
            encoding="utf-8",
        )
        print(f"\nwrote {json_path} and {md_path}")
    return 0
