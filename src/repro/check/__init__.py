"""Project-invariant static analysis: ``repro check``.

The reproduction's headline claims rest on invariants that unit tests
can only sample: the cycle-accurate core must stay deterministic
(parallel == serial bit-for-bit), every metric a consumer reads must
have a producer, and the threaded serving layer must touch shared
state only under its locks.  (Trace and request-log events need no
rule: they are typed records in :mod:`repro.obs.events`.)
This package machine-checks those invariants on every change with a
whole-program analysis engine over ``src/``:

* :mod:`repro.check.engine` — the runner: file walking, suppression
  comments, diagnostics, the :class:`Rule`/:class:`FactRule` base
  classes, and the incremental analysis cache hookup.
* :mod:`repro.check.program` — per-file fact extraction (symbol
  table, classes, call graph) and the assembled program index the
  cross-module rules query.
* :mod:`repro.check.cache` — content-hash-keyed on-disk cache; warm
  re-runs only re-parse changed files.
* :mod:`repro.check.determinism` — wall-clock reads, unseeded RNGs,
  hash-order-dependent logic and float equality in simulation code.
* :mod:`repro.check.schema_drift` — every metric name a consumer
  reads has a ``MetricsRegistry`` producer, and the sweep store's
  column/query tables agree with its readers.
* :mod:`repro.check.locks` — attribute writes outside the owning
  lock, lock-free calls to ``*_locked`` helpers (call-graph-aware),
  and bare ``acquire()`` without try/finally.
* :mod:`repro.check.contracts` — ``*_FIELDS``/``*_COLUMNS``/
  ``*_PHASES`` edits must come with a ``*_SCHEMA_VERSION`` bump,
  enforced against the committed ``contracts.json`` snapshot.
* :mod:`repro.check.boundary` — objects crossing the ``SimExecutor``
  process-pool boundary must be frozen dataclasses; no lambdas or
  closures into ``pool.submit``.
* :mod:`repro.check.sarif` — SARIF 2.1.0 rendering for CI annotation.
* :mod:`repro.check.baseline` — known-diagnostic baseline so CI gates
  on *new* findings only.
* :mod:`repro.check.cli` — the ``repro check`` command.

Suppress an intentional violation with a trailing
``# repro: no-check[rule-id]`` comment (see ``docs/architecture.md``
§ Static analysis for the full syntax and the rule catalogue).
Suppressions that stop matching anything are themselves flagged
(``unused-suppression``).
"""

from __future__ import annotations

from repro.check.boundary import ProcessBoundaryRule
from repro.check.contracts import ContractVersionRule
from repro.check.determinism import DETERMINISM_RULES
from repro.check.engine import (
    UNUSED_SUPPRESSION_ID,
    CheckedFile,
    CheckResult,
    Diagnostic,
    FactRule,
    Rule,
    UnknownRuleError,
    run_checks,
)
from repro.check.locks import LockDisciplineRule
from repro.check.schema_drift import SchemaDriftRule

__all__ = [
    "ALL_RULES",
    "CheckResult",
    "CheckedFile",
    "Diagnostic",
    "FactRule",
    "Rule",
    "UnknownRuleError",
    "all_rules",
    "run_checks",
]


class _UnusedSuppressionRule(Rule):
    """Catalogue entry for the engine's own stale-marker diagnostics.

    The engine emits these itself (they bypass suppression filtering);
    this registration makes the id listable and ``--rule``-addressable.
    """

    id = UNUSED_SUPPRESSION_ID
    description = (
        "`# repro: no-check` comments that no longer suppress any "
        "diagnostic (list them with --prune-suppressions)"
    )


#: Every registered rule, in catalogue order.
ALL_RULES: tuple = (
    *DETERMINISM_RULES,
    SchemaDriftRule(),
    LockDisciplineRule(),
    ContractVersionRule(),
    ProcessBoundaryRule(),
    _UnusedSuppressionRule(),
)


def all_rules() -> tuple:
    """The default rule set (a fresh reference to :data:`ALL_RULES`)."""
    return ALL_RULES
