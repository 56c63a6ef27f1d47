"""Query engine over the columnar sweep store.

Reads are manifest-first: sweep-level filters (kernel, machine, engine,
metric) prune whole directories before a single segment is opened, and
matching sweeps are then scanned one segment at a time with vectorised
range filters — so queries over a million-point store run in O(segment)
memory.

Row output follows ``QUERY_FIELDS`` (the consumer-side contract table):
manifest identity columns first, then the per-point segment columns.
CSV export shares the same field order.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, TextIO, Union
from collections.abc import Iterable, Iterator

import numpy as np

from repro.store.schema import (
    FILTER_FIELDS,
    QUERY_FIELDS,
    SWEEP_COLUMNS,
    read_segment,
    sweep_fingerprint,
)
from repro.store.writer import Point, read_manifest, stored_points

if TYPE_CHECKING:
    from repro.experiments.executor import PointJob

__all__ = ["SweepStore"]


class SweepStore:
    """Read-side handle on a sweep-store root directory."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    # -- discovery --------------------------------------------------------

    def manifests(self) -> Iterator[dict[str, Any]]:
        """All readable sweep manifests, in fingerprint order."""
        if not self.root.is_dir():
            return
        for sweep_dir in sorted(self.root.iterdir()):
            manifest = sweep_dir / "manifest.json"
            if not manifest.is_file():
                continue
            yield read_manifest(sweep_dir)

    def points(self, series: PointJob) -> dict[Point, float]:
        """One series' stored points, ``{(bs, nbs): value}``; lock-free."""
        return stored_points(self.root / sweep_fingerprint(series))

    def describe(self) -> list[dict[str, Any]]:
        """One summary dict per sweep (identity + row count + state)."""
        out = []
        for manifest in self.manifests():
            summary = dict(manifest["meta"])
            summary["fingerprint"] = manifest["fingerprint"]
            summary["rows"] = manifest["rows"]
            summary["complete"] = manifest["complete"]
            out.append(summary)
        return out

    # -- querying ---------------------------------------------------------

    def query(
        self,
        kernel: Optional[str] = None,
        machine: Optional[str] = None,
        engine: Optional[str] = None,
        mechanism: Optional[str] = None,
        metric: Optional[str] = None,
        bs_range: Optional[tuple[float, float]] = None,
        nbs_range: Optional[tuple[float, float]] = None,
        fingerprint: Optional[str] = None,
    ) -> Iterator[dict[str, Any]]:
        """Yield matching point rows, segment by segment.

        Sweep-level filters are exact string matches on the manifest
        meta columns; ``bs_range``/``nbs_range`` are inclusive bounds on
        the per-point sparsity columns.  Rows come out in (sweep
        fingerprint, segment, row) order — deterministic for a given
        store state.
        """
        filters = dict(
            zip(FILTER_FIELDS, (kernel, machine, engine, mechanism, metric))
        )
        for manifest in self.manifests():
            meta = manifest["meta"]
            if fingerprint is not None and manifest["fingerprint"] != fingerprint:
                continue
            if any(
                value is not None and meta[name] != value
                for name, value in filters.items()
            ):
                continue
            sweep_dir = self.root / manifest["fingerprint"]
            identity = [meta[name] for name in FILTER_FIELDS]
            for entry in manifest["segments"]:
                segment = read_segment(sweep_dir / entry["file"])
                keep = np.ones(len(segment["bs"]), dtype=bool)
                if bs_range is not None:
                    bs = segment["bs"]
                    keep &= (bs >= bs_range[0]) & (bs <= bs_range[1])
                if nbs_range is not None:
                    nbs = segment["nbs"]
                    keep &= (nbs >= nbs_range[0]) & (nbs <= nbs_range[1])
                columns = [segment[name][keep].tolist() for name in SWEEP_COLUMNS]
                for values in zip(*columns):
                    yield dict(zip(QUERY_FIELDS, (*identity, *values)))

    def count(self, **filters: Any) -> int:
        """Number of rows a :meth:`query` with these filters would yield."""
        return sum(1 for _ in self.query(**filters))

    # -- aggregation ------------------------------------------------------

    #: Reductions ``aggregate`` supports over the ``value`` column.
    REDUCERS = ("mean", "min", "max", "count")

    def aggregate(
        self,
        group_by: "tuple[str, ...] | list[str]",
        reduce: str = "mean",
        **filters: Any,
    ) -> list[dict[str, Any]]:
        """Group matching rows by columns and reduce their values.

        Streams :meth:`query` rows through O(groups) running
        accumulators — raw rows are never collected, so aggregating a
        million-point store costs one segment of memory plus one
        accumulator per distinct group.  Results come back sorted by
        group key, each row carrying the group columns, ``reduce`` and
        the reduced ``value`` (row count for ``reduce="count"``).
        """
        columns = tuple(group_by)
        if not columns:
            raise ValueError("group_by needs at least one column")
        for column in columns:
            if column not in QUERY_FIELDS:
                raise ValueError(
                    f"unknown group-by column {column!r}; "
                    f"available: {', '.join(QUERY_FIELDS)}"
                )
        if reduce not in self.REDUCERS:
            raise ValueError(
                f"unknown reduction {reduce!r}; "
                f"available: {', '.join(self.REDUCERS)}"
            )
        # group key → [count, sum, min, max]
        groups: dict[tuple, list[float]] = {}
        for row in self.query(**filters):
            key = tuple(row[column] for column in columns)
            value = row["value"]
            acc = groups.get(key)
            if acc is None:
                groups[key] = [1, value, value, value]
            else:
                acc[0] += 1
                acc[1] += value
                acc[2] = min(acc[2], value)
                acc[3] = max(acc[3], value)
        out = []
        for key in sorted(groups):
            count, total, low, high = groups[key]
            if reduce == "count":
                value = float(count)
            elif reduce == "mean":
                value = total / count
            elif reduce == "min":
                value = low
            else:
                value = high
            result = dict(zip(columns, key))
            result["reduce"] = reduce
            result["value"] = value
            out.append(result)
        return out

    # -- export -----------------------------------------------------------

    @staticmethod
    def write_csv(rows: Iterable[dict[str, Any]], out: TextIO) -> int:
        """Write query rows as CSV in ``QUERY_FIELDS`` order; returns count.

        A row whose fields are not exactly ``QUERY_FIELDS`` is refused.
        """
        writer = csv.writer(out)
        writer.writerow(QUERY_FIELDS)
        count = 0
        for row in rows:
            if tuple(row) != QUERY_FIELDS:
                raise ValueError(
                    f"row fields {list(row)} are not QUERY_FIELDS "
                    f"{list(QUERY_FIELDS)}"
                )
            writer.writerow(row.values())
            count += 1
        return count

    @staticmethod
    def rows_to_json(rows: Iterable[dict[str, Any]]) -> str:
        """Serialize query rows as a JSON array (field order preserved)."""
        return json.dumps(
            [{field: row[field] for field in QUERY_FIELDS} for row in rows]
        )
