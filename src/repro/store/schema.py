"""Schema of the columnar sweep store.

One sweep = one fingerprint-keyed directory holding a ``manifest.json``
plus append-only NPZ *segments* of fixed-schema columns.  A sweep is
one series of :class:`repro.experiments.executor.PointJob` (every job
field except the two sparsity levels); its directory is named by the
series fingerprint, the manifest records the query columns derived
from the series, and per-point data lives in the segments.  The split
is what makes the store out-of-core: a query touches one segment at a
time, a writer holds one segment's buffer, and neither ever needs the
whole sweep in memory.

``SWEEP_COLUMNS`` is the **producer/consumer contract table**: the
writer emits exactly these columns per segment and the query engine
reads exactly these.  The ``repro.check`` schema-drift rule cross-checks
both sides against this table, so adding a column here without updating
the consumers (or vice versa) fails static analysis, not a sweep at
hour three.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.config import machine_label
from repro.fsio import canonical_fingerprint

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
STORE_SCHEMA_VERSION = 3

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

#: Fields of one query result row: the manifest identity columns
#: followed by the per-point segment columns, in output order.  This is
#: the consumer-side contract table (CSV export shares it).
QUERY_FIELDS = (
    "kernel",
    "machine",
    "engine",
    "mechanism",
    "metric",
    "bs",
    "nbs",
    "value",
)


def sweep_fingerprint(series: PointJob) -> str:
    """Content address of one sweep: its canonical series plus version."""
    return canonical_fingerprint(
        {"schema": STORE_SCHEMA_VERSION, "series": series.canonical_series()}
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
