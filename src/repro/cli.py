"""Command-line entry point: ``python -m repro <experiment>``.

Besides the experiment runners, two observability subcommands live
here — ``python -m repro bench`` (the performance ledger, see
:mod:`repro.obs.bench`) and ``python -m repro trace-report FILE``
(offline trace analytics, see :mod:`repro.obs.analyze`) — plus the
serving layer (see :mod:`repro.serve`): ``python -m repro serve``,
``... submit``, ``... store {stats,gc}`` and ``... loadgen`` /
``... serve-report`` (load generation + request-log analytics, see
:mod:`repro.serve.loadgen` / :mod:`repro.obs.servereport`), the static analyzer
(see :mod:`repro.check`): ``python -m repro check [ROOT]``, and the
columnar sweep store (see :mod:`repro.store`): ``python -m repro sweep``
/ ``python -m repro query``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from repro._version import __version__
from repro.experiments.registry import EXPERIMENTS, RunContext, run_experiment

#: Experiments the ``--chart`` flag can render.
CHART_EXPERIMENTS = ("fig15", "fig18")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="save-repro",
        description=(
            "Reproduction of SAVE (MICRO 2020): run an experiment to "
            "regenerate one of the paper's tables or figures."
        ),
    )
    parser.add_argument(
        "experiment",
        help=(
            "experiment id (e.g. fig15, table2), 'list' / 'all', or a "
            "subcommand: 'bench' (performance ledger), "
            "'trace-report FILE' (trace analytics), 'serve-report REQLOG' (serve telemetry analytics), 'serve' (simulation "
            "service), 'submit' (client round-trip), 'store' "
            "(result-store stats/gc), 'check' (static analysis), "
            "'fastsim-calibrate' (fast-tier calibration), 'loadgen' (traffic-replay load generator), 'sweep' "
            "(out-of-core sweep into the columnar store), 'query' "
            "(filter/export stored sweeps), 'compare' (SAVE vs. rival "
            "skip mechanisms)"
        ),
    )
    parser.add_argument(
        "--full-grid",
        action="store_true",
        help="use the paper's 10%%-step sparsity grid (slow)",
    )
    parser.add_argument(
        "--k-steps",
        type=int,
        default=None,
        help="reduction steps per simulated kernel (trade accuracy/speed)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for grid-point simulations (default: the "
            "REPRO_JOBS environment variable, else serial); results are "
            "identical to a serial run"
        ),
    )
    parser.add_argument(
        "--panel",
        default=None,
        help="fig14 only: panel a/b/c/d (default: all)",
    )
    parser.add_argument(
        "--engine",
        default="exact",
        choices=("exact", "fast", "analytic"),
        help=(
            "simulation tier: 'exact' is the cycle-level pipeline; "
            "'fast' is the calibrated structure-of-arrays estimator "
            "(~10-100x faster per point); 'analytic' is the closed-form "
            "model (fastest, loosest)"
        ),
    )
    parser.add_argument(
        "--mechanism",
        default="save",
        choices=("save", "sparce", "indexmac"),
        help=(
            "skip mechanism for machine-point simulations (default: "
            "save); rivals require --engine exact, and 'indexmac' "
            "requires an N:M structured kernel"
        ),
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render fig15/fig18 as terminal charts",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect pipeline metrics and print the aggregate after each run",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help=(
            "write a JSONL event trace of every simulated cycle to FILE "
            "(forces serial simulation)"
        ),
    )
    parser.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="write each report to DIR as <id>.txt, <id>.json and <id>.csv",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "record host wall-clock spans (build/simulate/merge/report) "
            "and print the phase table after the run"
        ),
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="FILE",
        default=None,
        help=(
            "write the run's span profile (plus the --trace events, when "
            "collected) as Chrome trace-event JSON viewable in Perfetto"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    return parser


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    raw = list(sys.argv[1:] if argv is None else argv)
    # Subcommands take their own options, so they dispatch before the
    # experiment parser sees (and rejects) those flags.
    if raw and raw[0] == "bench":
        from repro.obs.bench import bench_main

        return bench_main(raw[1:])
    if raw and raw[0] == "trace-report":
        from repro.obs.analyze import trace_report_main

        return trace_report_main(raw[1:])
    if raw and raw[0] == "serve-report":
        from repro.obs.servereport import serve_report_main

        return serve_report_main(raw[1:])
    if raw and raw[0] == "loadgen":
        from repro.serve.loadgen import loadgen_main

        return loadgen_main(raw[1:])
    if raw and raw[0] == "serve":
        from repro.serve.cli import serve_main

        return serve_main(raw[1:])
    if raw and raw[0] == "submit":
        from repro.serve.cli import submit_main

        return submit_main(raw[1:])
    if raw and raw[0] == "store":
        from repro.serve.cli import store_main

        return store_main(raw[1:])
    if raw and raw[0] == "check":
        from repro.check.cli import check_main

        return check_main(raw[1:])
    if raw and raw[0] == "fastsim-calibrate":
        from repro.fastsim.cli import calibrate_main

        return calibrate_main(raw[1:])
    if raw and raw[0] == "sweep":
        from repro.store.cli import sweep_main

        return sweep_main(raw[1:])
    if raw and raw[0] == "query":
        from repro.store.cli import query_main

        return query_main(raw[1:])
    if raw and raw[0] == "compare":
        from repro.rivals.cli import compare_main

        return compare_main(raw[1:])

    args = build_parser().parse_args(raw)
    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    if args.experiment != "all" and args.experiment not in EXPERIMENTS:
        available = ", ".join(sorted(EXPERIMENTS))
        print(
            f"unknown experiment {args.experiment!r}; available: {available}",
            file=sys.stderr,
        )
        return 2

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    if args.panel is not None and "fig14" not in names:
        _warn(f"--panel only applies to fig14; ignored for {', '.join(names)}")
    if args.chart and not any(name in CHART_EXPERIMENTS for name in names):
        _warn(
            f"--chart only applies to {'/'.join(CHART_EXPERIMENTS)}; "
            f"ignored for {', '.join(names)}"
        )

    from repro.experiments.executor import SimExecutor
    from repro.obs import MetricsRegistry, SpanRecorder, maybe_span

    registry = MetricsRegistry() if args.metrics else None
    spans = SpanRecorder() if (args.profile or args.chrome_trace) else None
    if args.trace and registry is None:
        registry = MetricsRegistry()

    reports = []
    failures: list[str] = []
    sink = None
    try:
        # The sink opens inside the try so *every* exit path — including
        # a failure while building the executor or an experiment raising
        # under a non-'all' run — flushes and closes the trace file
        # rather than leaving a truncated last line behind.
        if args.trace:
            from repro.obs import EventWriter

            sink = EventWriter(args.trace)
        executor = SimExecutor(
            jobs=args.jobs, metrics=registry, trace_sink=sink, spans=spans
        )
        ctx = RunContext(
            full_grid=args.full_grid,
            k_steps=args.k_steps,
            executor=executor,
            panel=args.panel if args.panel is not None else "all",
            metrics=registry,
            spans=spans,
            engine=args.engine,
            mechanism=args.mechanism,
        )

        for name in names:
            start = time.time()
            try:
                report = run_experiment(name, ctx)
            except Exception as error:  # noqa: BLE001 - 'all' must keep going
                if args.experiment != "all":
                    raise
                failures.append(name)
                print(f"[{name} FAILED: {error}]\n", file=sys.stderr)
                continue
            with maybe_span(spans, "report", experiment=name):
                report.show()
                if args.chart and name == "fig15":
                    from repro.experiments.charts import fig15_charts

                    print(fig15_charts(report.data))
                if args.chart and name == "fig18":
                    from repro.experiments.charts import fig18_charts

                    print(fig18_charts(report.data))
            reports.append(report)
            print(f"[{name} completed in {time.time() - start:.1f}s]\n")
    finally:
        if sink is not None:
            sink.close()
            print(f"trace: {sink.events_written} events -> {args.trace}")
    if registry is not None:
        from repro.obs import format_metrics

        print(format_metrics(registry.snapshot()))
    if spans is not None and args.profile:
        from repro.obs import phase_table

        print(phase_table(spans))
    if args.chrome_trace:
        from repro.obs.chrometrace import write_chrome_trace

        events = None
        if args.trace:
            from repro.obs import SimEvent, read_events

            try:
                events = list(read_events(args.trace, SimEvent))
            except (OSError, ValueError) as error:
                print(f"error: {error}", file=sys.stderr)
                return 2
        write_chrome_trace(
            args.chrome_trace,
            spans=spans.records if spans is not None else None,
            events=events,
        )
        print(f"chrome trace -> {args.chrome_trace}")
    if args.export:
        from repro.experiments.export import export_all

        manifest = export_all(
            reports,
            args.export,
            metrics=registry.snapshot() if registry is not None else None,
        )
        print(f"exported {len(manifest)} report(s) to {args.export}")
    if failures:
        print(
            f"{len(failures)} experiment(s) failed: {', '.join(failures)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
