"""Out-of-core columnar sweep store.

Sweeps used to land as single surface JSONs — fine for a 10×10 grid,
hopeless for the ROADMAP's million-point target.  This package shards
sweep results into an **append-only columnar store**:

* one fingerprint-keyed directory per sweep (identity = the canonical
  series of the sweep's jobs, addressed by the same sha256
  convention as serve fingerprints),
* fixed-schema NPZ segments (:data:`repro.store.schema.SWEEP_COLUMNS`)
  published atomically via :mod:`repro.fsio` and referenced from a
  ``manifest.json``,
* a manifest-first query engine (:class:`SweepStore`) with sweep-level
  and sparsity-range filters and CSV export, surfaced as the
  ``repro query`` CLI.

Writers (:class:`SweepWriter`) buffer one segment at a time; readers
scan one segment at a time — both sides run in O(segment) memory
however large the sweep.
"""

from repro.store.query import SweepStore
from repro.store.schema import (
    QUERY_FIELDS,
    STORE_SCHEMA_VERSION,
    SWEEP_COLUMNS,
    SWEEP_META_FIELDS,
    sweep_fingerprint,
    sweep_meta,
    validate_meta,
)
from repro.store.writer import DEFAULT_SEGMENT_ROWS, StoreError, SweepWriter

__all__ = [
    "DEFAULT_SEGMENT_ROWS",
    "QUERY_FIELDS",
    "STORE_SCHEMA_VERSION",
    "SWEEP_COLUMNS",
    "SWEEP_META_FIELDS",
    "StoreError",
    "SweepStore",
    "SweepWriter",
    "sweep_fingerprint",
    "sweep_meta",
    "validate_meta",
]
