"""The repository benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload exact_grid --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  Each workload runs in a fresh
process (``worker.py``), so its peak memory is its own.  ``--trace 0``
prints the end-to-end metrics of ``BENCHMARK.json``: set-up time is the
median of five launches timed to their ``READY`` line, the other
figures come from the last launch, which measures for ``--seconds``.
``--trace 1`` prints the per-layer metrics from a separate run that
times the same work untraced and traced (see ``NOTES.md``).

The last line of standard output is the JSON result; diagnostics go to
standard error.  The exit code is non-zero, and no result is printed,
when the program's source tree is missing or the benchmark itself fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import ROOT, SRC, WORK_ROOT

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
#: Every launch of one run must end by then (the limit is 180 s).
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _reader(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def launch(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Run one worker; returns (seconds to ``READY``, its later stdout lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,  # one process group: the worker and its servers
    )
    lines: queue.Queue = queue.Queue()
    reader = threading.Thread(target=_reader, args=(proc.stdout, lines))
    reader.start()
    try:
        first = lines.get(timeout=max(0.0, deadline - time.monotonic()))
        ready = time.perf_counter() - start
        if first != "READY\n":
            raise BenchError(f"worker did not get ready (said {first!r})")
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except (queue.Empty, subprocess.TimeoutExpired):
        raise BenchError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        try:  # anything the worker left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        reader.join()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    rest = []
    while (line := lines.get()) is not None:
        rest.append(line)
    return ready, rest


def measure(args: argparse.Namespace, work: Path) -> tuple[dict, list[float]]:
    deadline = time.monotonic() + DEADLINE_S
    base = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    setup = []
    if not args.trace:
        for index in range(SETUP_RUNS - 1):
            ready, _ = launch(
                base + ["--work", str(work / f"setup-{index}"), "--setup-only"],
                deadline,
            )
            setup.append(ready)
    ready, lines = launch(base + ["--work", str(work / "main")], deadline)
    setup.append(ready)
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1]), setup


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program source under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        result, setup = measure(args, work)
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left only if another run uses it
            WORK_ROOT.rmdir()

    for message in result["errors"]:
        print(f"run.py: failed: {message}", file=sys.stderr)
    metrics = result["metrics"]
    if args.trace:
        # A layer this workload does not run did none of that work.
        for metric in declared:
            metrics.setdefault(metric["name"], 0)
        metrics["failed_frac"] = result["failed"] / result["attempted"]
    else:
        metrics["setup_s"] = statistics.median(setup)
    names = {metric["name"] for metric in declared}
    if set(metrics) != names:
        print(
            f"run.py: metrics differ from BENCHMARK.json: missing "
            f"{sorted(names - set(metrics))}, extra {sorted(set(metrics) - names)}",
            file=sys.stderr,
        )
        return 1
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric["name"]: {
                        "value": metrics[metric["name"]],
                        "unit": metric["unit"],
                    }
                    for metric in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
