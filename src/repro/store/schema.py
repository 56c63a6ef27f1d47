"""Schema of the columnar sweep store.

One sweep = one fingerprint-keyed directory holding a ``manifest.json``
plus append-only NPZ *segments* of fixed-schema columns.  A sweep is
one series of :class:`repro.experiments.executor.PointJob` (every job
field except the two sparsity levels); its directory is named by the
series fingerprint, the manifest records the query columns derived
from the series, and per-point data lives in the segments.  A sweep
is a growing set of points, each held at most once.  The split is what
makes the store out-of-core: a query touches one segment at a time and
a writer on a fresh sweep holds one segment's buffer.

``SWEEP_COLUMNS`` is the segment contract: :func:`write_segment` and
:func:`read_segment` are the only code that touches a segment file, and
both iterate the table, so a column added here is written, read and
queried (``QUERY_FIELDS`` ends with the columns) without another edit.
:func:`read_segment` refuses a file whose arrays, dtypes or lengths do
not match the table.
"""

from __future__ import annotations

import io
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.config import machine_label
from repro.fsio import atomic_write_bytes, canonical_fingerprint
from repro.kernels import TRACE_GENERATOR_VERSION

if TYPE_CHECKING:
    from repro.experiments.executor import PointJob

#: Version of the on-disk sweep-store layout.  Bump on any change to
#: the manifest structure, the segment column set, or their dtypes;
#: the store refuses to read mismatched versions (stores are caches —
#: re-sweeping is always safe, silently misreading is not).
#: v2: ``mechanism`` joined the sweep identity, so sweeps run under
#: different skip mechanisms never share a fingerprint.
#: v3: the fingerprint is the canonical series of the sweep's jobs
#: (every config and machine field); the meta columns are derived from
#: it for queries only.
#: v4: a sweep is a growing set of points, each held at most once, and
#: the fingerprint carries the trace-generator version.
STORE_SCHEMA_VERSION = 4

#: Per-point segment columns: name → numpy dtype string.  Every segment
#: NPZ contains exactly these arrays, all of one common length.
SWEEP_COLUMNS: dict[str, str] = {
    "bs": "float64",
    "nbs": "float64",
    "value": "float64",
}

#: Manifest query columns describing one sweep, as :func:`sweep_meta`
#: derives them from its series.  They are display values (the machine
#: column is :func:`repro.core.config.machine_label`), not its key.
SWEEP_META_FIELDS = (
    "kernel",
    "machine",
    "engine",
    "mechanism",
    "metric",
    "precision",
    "k_steps",
    "seed",
)

#: The meta fields a query filters on and copies into each row.
FILTER_FIELDS = ("kernel", "machine", "engine", "mechanism", "metric")

#: Fields of one query result row, in output order (CSV export shares
#: it): the filter fields, then the per-point segment columns.
QUERY_FIELDS = FILTER_FIELDS + tuple(SWEEP_COLUMNS)


class StoreError(RuntimeError):
    """A sweep-store invariant was violated (version, state, or schema)."""


def sweep_fingerprint(series: PointJob) -> str:
    """Content address of one sweep: its canonical series plus versions."""
    return canonical_fingerprint(
        {
            "schema": STORE_SCHEMA_VERSION,
            "generator": TRACE_GENERATOR_VERSION,
            "series": series.canonical_series(),
        }
    )


def sweep_meta(series: PointJob) -> dict[str, Any]:
    """The manifest's query columns, read off the sweep's series job."""
    config = series.config
    return {
        "kernel": config.name,
        "machine": machine_label(series.machine),
        "engine": series.engine,
        "mechanism": series.mechanism,
        "metric": series.metric,
        "precision": config.precision.value,
        "k_steps": config.k_steps,
        "seed": config.seed,
    }


def validate_meta(meta: dict[str, Any]) -> dict[str, Any]:
    """Check a manifest's meta columns; returns them in field order."""
    missing = [f for f in SWEEP_META_FIELDS if f not in meta]
    if missing:
        raise ValueError(f"sweep meta missing fields: {', '.join(missing)}")
    unknown = [f for f in meta if f not in SWEEP_META_FIELDS]
    if unknown:
        raise ValueError(f"sweep meta has unknown fields: {', '.join(unknown)}")
    return {field: meta[field] for field in SWEEP_META_FIELDS}


def write_segment(path: Path, columns: dict[str, Any]) -> None:
    """Publish one segment: every ``SWEEP_COLUMNS`` array, one length."""
    arrays = {
        name: np.asarray(columns[name], dtype=dtype)
        for name, dtype in SWEEP_COLUMNS.items()
    }
    if len({len(array) for array in arrays.values()}) != 1:
        raise ValueError("segment columns must have equal lengths")
    blob = io.BytesIO()
    np.savez_compressed(blob, **arrays)
    atomic_write_bytes(path, blob.getvalue())


def read_segment(path: Path) -> dict[str, np.ndarray]:
    """Load one segment, refusing any drift from ``SWEEP_COLUMNS``."""
    try:
        with np.load(path) as segment:
            arrays = {name: segment[name] for name in segment.files}
    except (OSError, ValueError, zipfile.BadZipFile) as error:
        raise StoreError(f"{path}: unreadable segment: {error}") from None
    if set(arrays) != set(SWEEP_COLUMNS):
        missing = sorted(set(SWEEP_COLUMNS) - set(arrays))
        extra = sorted(set(arrays) - set(SWEEP_COLUMNS))
        raise StoreError(
            f"{path}: segment arrays differ from SWEEP_COLUMNS "
            f"(missing {missing}, extra {extra})"
        )
    for name, dtype in SWEEP_COLUMNS.items():
        if arrays[name].dtype != np.dtype(dtype):
            raise StoreError(
                f"{path}: column {name!r} is {arrays[name].dtype}, not {dtype}"
            )
    if len({len(array) for array in arrays.values()}) != 1:
        raise StoreError(f"{path}: segment columns have unequal lengths")
    return arrays
