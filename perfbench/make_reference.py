"""Write ``reference/exact_grid.json``: the digest of every lattice point.

``exact_grid`` checks each point it simulates against this file, so it
must cover every (kernel, machine, bs, nbs) any seed can draw.  Run it
only when the exact engine's results are meant to change, and commit
the new file with that change:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from common import use_source_tree

use_source_tree()

import exact_grid  # noqa: E402 - needs the source tree on sys.path
from tracer import Tracer  # noqa: E402

#: Worker processes; the points are independent.
JOBS = 2


def _digests(points: list) -> list[tuple[str, str]]:
    runner = exact_grid.Runner(reference={})
    out = []
    with Tracer(record=False) as tracer:
        runner.watch(tracer)
        for point in points:
            _, (_, value, result) = runner.run(point, tracer, None)
            if value != result.time_ns:
                raise RuntimeError(f"{point.key}: map and result disagree")
            out.append((point.key, exact_grid.digest(result)))
    return out


def main() -> int:
    lattice = list(exact_grid.LATTICE)
    points = exact_grid.grid(lattice, lattice)
    chunks = [points[i :: JOBS * 8] for i in range(JOBS * 8)]
    start = time.perf_counter()
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=JOBS, mp_context=context) as pool:
        pairs = [pair for chunk in pool.map(_digests, chunks) for pair in chunk]
    payload = {
        "k_steps": exact_grid.K_STEPS,
        "lattice": lattice,
        "fields": list(exact_grid.STAT_FIELDS),
        "digests": dict(sorted(pairs)),
    }
    exact_grid.REFERENCE.parent.mkdir(exist_ok=True)
    exact_grid.REFERENCE.write_text(json.dumps(payload, indent=0) + "\n")
    print(
        f"{len(pairs)} digests in {time.perf_counter() - start:.1f}s "
        f"-> {exact_grid.REFERENCE}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
