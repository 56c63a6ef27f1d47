"""One workload in a fresh process: set up, print ``READY``, then measure.

``run.py`` starts this script and times it from launch to the ``READY``
line, which is the workload's set-up time.  With ``--setup-only`` the
worker stops there.  Otherwise it runs the timed (``--trace 0``) or the
traced (``--trace 1``) measurement and prints one JSON line: the
metrics it measured plus its attempted and failed operation counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

from common import OUT_ROOT, use_source_tree

WORKLOADS = ("exact_grid", "fast_sweep", "serve_mix")
END_TO_END = ("points_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    use_source_tree()
    module = importlib.import_module(args.workload)
    args.work.mkdir(parents=True, exist_ok=True)
    workload = module.Workload(args.seed, args.work)
    try:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            metrics, outcome, tracer = workload.traced()
            tracer.write(OUT_ROOT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        else:
            metrics, outcome = workload.timed(args.seconds)
    finally:
        workload.close()
    declared = module.PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"{args.workload} measured {sorted(metrics)}, declares {sorted(declared)}"
        )
    print(json.dumps({"metrics": metrics, **outcome.as_dict()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
