"""``repro sweep`` and ``repro query`` — the sweep-store CLI.

``sweep`` runs an out-of-core sparsity sweep (any grid size, bounded
memory) straight into a columnar store directory; ``query`` filters
that store by kernel/machine/engine/metric and sparsity range, printing
rows as text, CSV or JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

__all__ = ["query_main", "sweep_main"]

#: Machine presets offered by ``repro sweep --machine``.
MACHINE_PRESETS = ("baseline", "save", "save-1vpu")


def _resolve_machine(name: str):
    from repro.core.config import BASELINE_2VPU, SAVE_1VPU, SAVE_2VPU

    return {
        "baseline": BASELINE_2VPU,
        "save": SAVE_2VPU,
        "save-1vpu": SAVE_1VPU,
    }[name]


def _levels(count: int) -> list[float]:
    """``count`` evenly spaced sparsity levels over [0, 0.9]."""
    if count < 1:
        raise ValueError("level count must be >= 1")
    if count == 1:
        return [0.0]
    step = 0.9 / (count - 1)
    return [round(i * step, 6) for i in range(count)]


def sweep_main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro sweep``."""
    parser = argparse.ArgumentParser(
        prog="save-repro sweep",
        description=(
            "Run an out-of-core sparsity sweep into a columnar sweep "
            "store; memory stays bounded however large the grid."
        ),
    )
    parser.add_argument("kernel", help="library kernel name (see 'list')")
    parser.add_argument(
        "--store", required=True, metavar="DIR", help="sweep-store root directory"
    )
    parser.add_argument(
        "--machine", default="save", choices=MACHINE_PRESETS,
        help="machine preset to sweep under (default: save)",
    )
    parser.add_argument(
        "--engine", default="fast", choices=("exact", "fast", "analytic"),
        help="simulation tier per point (default: fast)",
    )
    parser.add_argument(
        "--mechanism", default="save", choices=("save", "sparce", "indexmac"),
        help=(
            "skip mechanism to sweep under (default: save; rivals "
            "require --engine exact)"
        ),
    )
    parser.add_argument(
        "--grid", type=int, default=32, metavar="N",
        help="N×N sparsity grid over [0, 0.9] (default: 32)",
    )
    parser.add_argument(
        "--metric", default="ns_per_fma", choices=("ns_per_fma", "time_ns"),
        help="per-point value recorded (default: ns_per_fma)",
    )
    parser.add_argument("--k-steps", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: REPRO_JOBS, else serial)",
    )
    parser.add_argument(
        "--batch", type=int, default=None, metavar="POINTS",
        help="points simulated per executor batch",
    )
    args = parser.parse_args(argv)

    from repro.experiments.executor import SimExecutor
    from repro.experiments.streamsweep import DEFAULT_BATCH_POINTS, stream_sweep
    from repro.kernels.library import get_kernel
    from repro.rivals.mechanisms import MechanismError
    from repro.store import StoreError

    try:
        spec = get_kernel(args.kernel)
    except KeyError as error:
        print(str(error), file=sys.stderr)
        return 2
    levels = _levels(args.grid)
    try:
        summary = stream_sweep(
            spec,
            _resolve_machine(args.machine),
            levels,
            levels,
            args.store,
            engine=args.engine,
            mechanism=args.mechanism,
            metric=args.metric,
            k_steps=args.k_steps,
            seed=args.seed,
            executor=SimExecutor(jobs=args.jobs),
            batch_points=args.batch if args.batch else DEFAULT_BATCH_POINTS,
        )
    except MechanismError as error:
        print(str(error), file=sys.stderr)
        return 2
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 1
    print(
        f"swept {summary['points']} points, {summary['simulated']} simulated "
        f"({summary['kernel']} on {summary['machine']}, "
        f"engine={summary['engine']}) -> {args.store}/{summary['fingerprint']}"
    )
    return 0


def query_main(argv: Optional[list[str]] = None) -> int:
    """Entry point for ``python -m repro query``."""
    parser = argparse.ArgumentParser(
        prog="save-repro query",
        description=(
            "Query a columnar sweep store: filter by kernel, machine, "
            "engine, metric and sparsity range; export CSV/JSON."
        ),
    )
    parser.add_argument("store", metavar="DIR", help="sweep-store root directory")
    parser.add_argument("--kernel", default=None)
    parser.add_argument("--machine", default=None, help="machine label filter")
    parser.add_argument("--engine", default=None)
    parser.add_argument("--mechanism", default=None, help="skip-mechanism filter")
    parser.add_argument("--metric", default=None)
    parser.add_argument(
        "--bs", default=None, metavar="LO:HI",
        help="inclusive broadcasted-sparsity range, e.g. 0.3:0.6",
    )
    parser.add_argument(
        "--nbs", default=None, metavar="LO:HI",
        help="inclusive non-broadcasted-sparsity range",
    )
    parser.add_argument(
        "--format", default="text", choices=("text", "csv", "json"),
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="list the store's sweeps (identity, rows, state) and exit",
    )
    parser.add_argument(
        "--count", action="store_true",
        help="print only the matching row count",
    )
    parser.add_argument(
        "--group-by", default=None, metavar="COL[,COL...]",
        help=(
            "aggregate instead of listing rows: group by these result "
            "columns (e.g. mechanism or kernel,bs)"
        ),
    )
    parser.add_argument(
        "--reduce", default="mean", choices=("mean", "min", "max", "count"),
        help="reduction over each group's values (default: mean)",
    )
    args = parser.parse_args(argv)

    from repro.store import SweepStore
    from repro.store.writer import StoreError

    def parse_range(text: Optional[str], flag: str):
        if text is None:
            return None
        try:
            lo, hi = text.split(":", 1)
            return (float(lo), float(hi))
        except ValueError:
            parser.error(f"{flag}: expected LO:HI, got {text!r}")

    store = SweepStore(args.store)
    try:
        if args.list:
            for summary in store.describe():
                state = "complete" if summary["complete"] else "INCOMPLETE"
                print(
                    f"{summary['fingerprint']}  {summary['kernel']}  "
                    f"{summary['machine']}  engine={summary['engine']}  "
                    f"mechanism={summary['mechanism']}  "
                    f"metric={summary['metric']}  rows={summary['rows']}  "
                    f"{state}"
                )
            return 0
        filters = dict(
            kernel=args.kernel,
            machine=args.machine,
            engine=args.engine,
            mechanism=args.mechanism,
            metric=args.metric,
            bs_range=parse_range(args.bs, "--bs"),
            nbs_range=parse_range(args.nbs, "--nbs"),
        )
        if args.group_by is not None:
            columns = tuple(
                c.strip() for c in args.group_by.split(",") if c.strip()
            )
            try:
                groups = store.aggregate(columns, args.reduce, **filters)
            except ValueError as error:
                print(str(error), file=sys.stderr)
                return 2
            if args.format == "json":
                import json

                print(json.dumps(groups))
                return 0
            for group in groups:
                label = "  ".join(
                    f"{column}={group[column]}" for column in columns
                )
                print(f"{label}  {args.reduce}={group['value']:.6g}")
            print(f"({len(groups)} groups)")
            return 0
        rows = store.query(**filters)
        if args.count:
            print(sum(1 for _ in rows))
            return 0
        if args.format == "csv":
            SweepStore.write_csv(rows, sys.stdout)
            return 0
        if args.format == "json":
            print(SweepStore.rows_to_json(rows))
            return 0
        count = 0
        for row in rows:
            print(
                f"{row['kernel']}  {row['machine']}  {row['engine']}  "
                f"{row['metric']}  bs={row['bs']:.3f}  nbs={row['nbs']:.3f}  "
                f"value={row['value']:.6g}"
            )
            count += 1
        print(f"({count} rows)")
        return 0
    except StoreError as error:
        print(str(error), file=sys.stderr)
        return 1
