"""Out-of-core columnar sweep store.

The one cache of simulated sparsity points: streamed sweeps
(``repro sweep``), the rival comparison (``repro compare --store``) and
the figures' interpolation surfaces
(:class:`~repro.model.surface.SparsitySurface`) all read and fill it.
It is an **append-only columnar store**:

* one fingerprint-keyed directory per sweep (identity = the canonical
  series of the sweep's jobs, addressed by the same sha256
  convention as serve fingerprints),
* fixed-schema NPZ segments (:data:`repro.store.schema.SWEEP_COLUMNS`)
  published atomically via :mod:`repro.fsio` and referenced from a
  ``manifest.json``,
* one sweep per series, growing point by point: every writer reads
  what the sweep holds, simulates only the missing points and appends
  them, so each point is stored at most once and a rerun simulates
  nothing,
* a manifest-first query engine (:class:`SweepStore`) with sweep-level
  and sparsity-range filters and CSV export, surfaced as the
  ``repro query`` CLI.

Readers scan one segment at a time, in O(segment) memory however large
the sweep.  A writer on a fresh sweep buffers one segment; a writer on
an existing sweep also holds the points it already stores.
"""

from repro.store.query import SweepStore
from repro.store.schema import (
    FILTER_FIELDS,
    QUERY_FIELDS,
    STORE_SCHEMA_VERSION,
    SWEEP_COLUMNS,
    SWEEP_META_FIELDS,
    StoreError,
    read_segment,
    sweep_fingerprint,
    sweep_meta,
    validate_meta,
    write_segment,
)
from repro.store.writer import DEFAULT_SEGMENT_ROWS, DEFAULT_STORE_ROOT, SweepWriter

__all__ = [
    "DEFAULT_SEGMENT_ROWS",
    "DEFAULT_STORE_ROOT",
    "FILTER_FIELDS",
    "QUERY_FIELDS",
    "STORE_SCHEMA_VERSION",
    "SWEEP_COLUMNS",
    "SWEEP_META_FIELDS",
    "StoreError",
    "SweepStore",
    "SweepWriter",
    "read_segment",
    "sweep_fingerprint",
    "sweep_meta",
    "validate_meta",
    "write_segment",
]
