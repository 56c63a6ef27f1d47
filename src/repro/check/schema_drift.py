"""Schema drift: metric consumers and the sweep-store tables must agree.

A renamed counter or column slips through unit tests easily — the
producer and consumer each stay self-consistent while silently
disagreeing.  This project-wide rule extracts both vocabularies
statically and cross-checks them:

Metrics
    * every metric name a consumer reads (``counters.get("...")`` or a
      ``KEY_COUNTERS`` table) must be produced by some
      ``MetricsRegistry`` ``counter``/``gauge``/``histogram`` call
      site.  Dynamic producer names (f-strings like
      ``f"vpu_ops_{kind}"``) count as prefix wildcards.  The converse
      (produced-but-unconsumed) is *not* an error: every metric is
      exported wholesale via ``--metrics`` and ``/metrics``.

Sweep store
    The columnar sweep store has a three-party shape: the
    producer/consumer contract tables (``SWEEP_COLUMNS``,
    ``SWEEP_META_FIELDS``, ``QUERY_FIELDS`` in
    :mod:`repro.store.schema`), the segment writer, and the query/CSV
    consumers.  The rule cross-checks them:

    * the tables must be internally consistent — every ``QUERY_FIELDS``
      entry is a segment column or a meta field, and every segment
      column is queryable;
    * every literal segment-column subscript (``segment["..."]`` /
      ``_buffer["..."]``) in a store file must name a declared column,
      and every declared column must be read somewhere;
    * every literal query-row subscript (``row["..."]``) in a store
      file must name a ``QUERY_FIELDS`` entry.

Trace and request-log events need no rule here: they are typed records
(:mod:`repro.obs.events`), so a misspelt field fails at construction,
an unknown record class is an undefined name, and the reader refuses
lines whose kind, fields or version stamp do not match.

This rule is a :class:`~repro.check.engine.FactRule`:
:meth:`SchemaDriftRule.extract` distils one file into a picklable
:class:`SchemaDriftFacts` record (with
:class:`~repro.check.engine_types.Loc` anchors instead of AST nodes);
:meth:`SchemaDriftRule.check_facts` cross-references the records.
Unchanged files thus never need re-parsing on warm runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional
from collections.abc import Iterable

from repro.check.engine import CheckedFile, Diagnostic, FactRule, ProgramContext
from repro.check.engine_types import Loc

__all__ = ["SchemaDriftRule"]

#: Module-level tuple/list tables whose items are consumed metric names.
METRIC_TABLES = ("KEY_COUNTERS",)

#: Receiver names whose ``.get("...")`` reads a metric.
_METRIC_RECEIVERS = ("counters",)

#: ``MetricsRegistry`` factory methods that produce a named instrument.
_INSTRUMENT_FACTORIES = ("counter", "gauge", "histogram")

#: Subscript receivers whose literal keys are sweep-store segment
#: columns (the query engine's loaded NPZ and the writer's buffer).
_SEGMENT_RECEIVERS = ("segment", "_buffer")

#: Subscript receivers whose literal keys are query-row fields.
_ROW_RECEIVERS = ("row",)

#: Module prefix that marks a file as a sweep-store participant.
_STORE_MODULE_PREFIX = "repro/store/"


def _const_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _receiver_name(func: ast.expr) -> Optional[str]:
    """Terminal name of a method call's receiver: ``a.b.get`` → ``b``."""
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _string_values(node: ast.expr) -> Optional[set[str]]:
    """All string values a constant-ish expression can take, else None."""
    value = _const_str(node)
    if value is not None:
        return {value}
    if isinstance(node, ast.IfExp):
        body = _string_values(node.body)
        orelse = _string_values(node.orelse)
        if body is not None and orelse is not None:
            return body | orelse
    return None


def _loc(node: ast.AST) -> Loc:
    return Loc(
        lineno=getattr(node, "lineno", 0),
        col_offset=getattr(node, "col_offset", -1),
    )


@dataclass
class StoreSchemaFact:
    """Sweep-store contract tables (``repro.store.schema``)."""

    columns: dict[str, int]
    query_fields: tuple[str, ...]
    query_line: int
    meta_fields: tuple[str, ...]


@dataclass
class SchemaDriftFacts:
    """Everything one file contributes to the drift cross-check."""

    produced_exact: tuple[str, ...] = ()
    produced_prefixes: tuple[str, ...] = ()
    consumed_metrics: list[tuple[Loc, str]] = field(default_factory=list)
    store: Optional[StoreSchemaFact] = None
    segment_reads: list[tuple[Loc, str]] = field(default_factory=list)
    row_reads: list[tuple[Loc, str]] = field(default_factory=list)

    def empty(self) -> bool:
        return not any(
            (
                self.produced_exact,
                self.produced_prefixes,
                self.consumed_metrics,
                self.store,
                self.segment_reads,
                self.row_reads,
            )
        )


def _tuple_strings(value: ast.expr) -> tuple[str, ...]:
    return tuple(
        name
        for name in (_const_str(item) for item in getattr(value, "elts", ()))
        if name is not None
    )


def _module_assign(
    node: ast.stmt,
) -> tuple[Optional[str], Optional[ast.expr]]:
    """``(name, value)`` of a module-level (ann-)assignment, else Nones."""
    target: Optional[ast.expr] = None
    value: Optional[ast.expr] = None
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target, value = node.targets[0], node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        target, value = node.target, node.value
    if isinstance(target, ast.Name) and value is not None:
        return target.id, value
    return None, None


def _find_store_schema(tree: ast.Module) -> Optional[StoreSchemaFact]:
    columns: dict[str, int] = {}
    query_fields: tuple[str, ...] = ()
    query_line = 0
    meta_fields: tuple[str, ...] = ()
    found = False
    for node in tree.body:
        name, value = _module_assign(node)
        if name is None or value is None:
            continue
        if name == "SWEEP_COLUMNS" and isinstance(value, ast.Dict):
            found = True
            for key in value.keys:
                col = _const_str(key) if key is not None else None
                if col is not None:
                    columns[col] = key.lineno if key is not None else node.lineno
        elif name == "QUERY_FIELDS":
            query_fields = _tuple_strings(value)
            query_line = node.lineno
        elif name == "SWEEP_META_FIELDS":
            meta_fields = _tuple_strings(value)
    if not found:
        return None
    return StoreSchemaFact(
        columns=columns,
        query_fields=query_fields,
        query_line=query_line,
        meta_fields=meta_fields,
    )


def _produced_metrics(tree: ast.Module) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """``(exact_names, prefixes)`` of metric-producing call sites."""
    exact: set[str] = set()
    prefixes: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in _INSTRUMENT_FACTORIES
        ):
            continue
        arg = node.args[0]
        values = _string_values(arg)
        if values is not None:
            exact |= values
        elif isinstance(arg, ast.JoinedStr) and arg.values:
            head = arg.values[0]
            prefix = _const_str(head) if isinstance(head, ast.Constant) else None
            if prefix:
                prefixes.add(prefix)
        # Non-literal names (registry plumbing like merge_snapshot
        # re-registering snapshot keys) are skipped, not errors.
    return tuple(sorted(exact)), tuple(sorted(prefixes))


def _consumed_metrics(tree: ast.Module) -> list[tuple[Loc, str]]:
    consumed: list[tuple[Loc, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and _receiver_name(node.func) in _METRIC_RECEIVERS
                and node.args
            ):
                name = _const_str(node.args[0])
                if name is not None:
                    consumed.append((_loc(node), name))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in METRIC_TABLES:
                    for item in getattr(node.value, "elts", ()):
                        name = _const_str(item)
                        if name is not None:
                            consumed.append((_loc(item), name))
    return consumed


def _subscript_receiver(node: ast.Subscript) -> Optional[str]:
    """Terminal name of a subscript's receiver: ``a.b["k"]`` → ``b``."""
    value = node.value
    if isinstance(value, ast.Attribute):
        return value.attr
    if isinstance(value, ast.Name):
        return value.id
    return None


def _store_field_reads(
    checked: CheckedFile,
) -> tuple[list[tuple[Loc, str]], list[tuple[Loc, str]]]:
    """``(segment_reads, row_reads)`` if the file is a store participant.

    Only files under :data:`_STORE_MODULE_PREFIX` or importing from
    ``repro.store`` count — that keeps ``row["count"]`` in unrelated
    code (the span profiler's table rows) from being misread as a
    query-row access.
    """
    is_store = checked.mod.startswith(_STORE_MODULE_PREFIX) or any(
        isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("repro.store")
        for node in ast.walk(checked.tree)
    )
    if not is_store:
        return [], []
    segment_reads: list[tuple[Loc, str]] = []
    row_reads: list[tuple[Loc, str]] = []
    for node in ast.walk(checked.tree):
        if not isinstance(node, ast.Subscript):
            continue
        name = _const_str(node.slice)
        if name is None:
            continue
        receiver = _subscript_receiver(node)
        if receiver in _SEGMENT_RECEIVERS:
            segment_reads.append((_loc(node), name))
        elif receiver in _ROW_RECEIVERS:
            row_reads.append((_loc(node), name))
    return segment_reads, row_reads


def _first(
    facts: dict[str, SchemaDriftFacts], attr: str
) -> tuple[Optional[str], Optional[object]]:
    """First (by path) file whose facts carry ``attr``, plus the value."""
    for rel in sorted(facts):
        value = getattr(facts[rel], attr)
        if value is not None:
            return rel, value
    return None, None


class SchemaDriftRule(FactRule):
    id = "schema-drift"
    description = (
        "metric reads without a producer, and sweep-store columns "
        "drifting from their contract tables"
    )

    def extract(self, checked: CheckedFile) -> Optional[SchemaDriftFacts]:
        # The analyzer's own modules quote schema names in rule tables
        # and tests; they are not schema participants.
        if checked.mod.startswith("repro/check/"):
            return None
        segment_reads, row_reads = _store_field_reads(checked)
        exact, prefixes = _produced_metrics(checked.tree)
        facts = SchemaDriftFacts(
            produced_exact=exact,
            produced_prefixes=prefixes,
            consumed_metrics=_consumed_metrics(checked.tree),
            store=_find_store_schema(checked.tree),
            segment_reads=segment_reads,
            row_reads=row_reads,
        )
        return None if facts.empty() else facts

    def check_facts(self, ctx: ProgramContext) -> Iterable[Diagnostic]:
        facts: dict[str, SchemaDriftFacts] = ctx.facts(self.id)
        yield from self._check_store(facts)
        yield from self._check_metrics(facts)

    def _check_metrics(
        self, facts: dict[str, SchemaDriftFacts]
    ) -> Iterable[Diagnostic]:
        produced: set[str] = set()
        prefixes: set[str] = set()
        for rel in sorted(facts):
            produced |= set(facts[rel].produced_exact)
            prefixes |= set(facts[rel].produced_prefixes)
        if not produced and not prefixes:
            return  # no registry call sites in this file set to check against
        for rel in sorted(facts):
            for loc, name in facts[rel].consumed_metrics:
                if name in produced:
                    continue
                if any(name.startswith(prefix) for prefix in prefixes):
                    continue
                yield self.diag_at(
                    rel,
                    loc,
                    f"reads metric {name!r} which no MetricsRegistry "
                    "counter/gauge/histogram call site produces",
                )

    # -- sweep store ------------------------------------------------------

    def _check_store(
        self, facts: dict[str, SchemaDriftFacts]
    ) -> Iterable[Diagnostic]:
        store_rel, store = _first(facts, "store")
        if store_rel is None or not isinstance(store, StoreSchemaFact):
            return  # no sweep store in this file set

        known_query = set(store.columns) | set(store.meta_fields)
        for field_name in store.query_fields:
            if field_name not in known_query:
                yield self.diag_at(
                    store_rel,
                    Loc(lineno=store.query_line),
                    f"QUERY_FIELDS entry {field_name!r} is neither a "
                    "SWEEP_COLUMNS column nor a SWEEP_META_FIELDS "
                    "field; no query row can ever carry it",
                )
        for column, line in store.columns.items():
            if column not in store.query_fields:
                yield self.diag_at(
                    store_rel,
                    Loc(lineno=line),
                    f"segment column {column!r} is missing from "
                    "QUERY_FIELDS; it would be stored but never "
                    "queryable or exported",
                )

        consumed_columns: set[str] = set()
        any_segment_reads = False
        for rel in sorted(facts):
            for loc, name in facts[rel].segment_reads:
                any_segment_reads = True
                consumed_columns.add(name)
                if name not in store.columns:
                    yield self.diag_at(
                        rel,
                        loc,
                        f"reads segment column {name!r} which is not in "
                        "SWEEP_COLUMNS; no segment ever stores it",
                    )
            for loc, name in facts[rel].row_reads:
                if name not in store.query_fields:
                    yield self.diag_at(
                        rel,
                        loc,
                        f"reads query-row field {name!r} which is not in "
                        "QUERY_FIELDS; no query row ever carries it",
                    )
        if any_segment_reads:
            for column in sorted(set(store.columns) - consumed_columns):
                yield self.diag_at(
                    store_rel,
                    Loc(lineno=store.columns[column]),
                    f"segment column {column!r} is never read by any "
                    "segment/_buffer subscript; dead columns hide "
                    "drift — remove it or consume it",
                )
