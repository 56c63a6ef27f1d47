"""Schema drift: every metric a consumer reads must have a producer.

A renamed counter slips through unit tests easily — the producer and
consumer each stay self-consistent while silently disagreeing.  This
project-wide rule extracts both vocabularies statically and
cross-checks them: every metric name a consumer reads
(``counters.get("...")`` or a ``KEY_COUNTERS`` table) must be produced
by some ``MetricsRegistry`` ``counter``/``gauge``/``histogram`` call
site.  Dynamic producer names (f-strings like ``f"vpu_ops_{kind}"``)
count as prefix wildcards.  The converse (produced-but-unconsumed) is
*not* an error: every metric is exported wholesale via ``--metrics``
and ``/metrics``.

Trace and request-log events need no rule here: they are typed records
(:mod:`repro.obs.events`), so a misspelt field fails at construction,
an unknown record class is an undefined name, and the reader refuses
lines whose kind, fields or version stamp do not match.  Nor does the
sweep store: one read/write pair (:func:`repro.store.read_segment`,
:func:`repro.store.write_segment`) iterates ``SWEEP_COLUMNS``, query
rows are built from ``QUERY_FIELDS``, and the reader refuses a segment
whose arrays, dtypes or lengths drift from the table.

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
class SchemaDriftFacts:
    """Everything one file contributes to the drift cross-check."""

    produced_exact: tuple[str, ...] = ()
    produced_prefixes: tuple[str, ...] = ()
    consumed_metrics: list[tuple[Loc, str]] = field(default_factory=list)

    def empty(self) -> bool:
        return not any(
            (self.produced_exact, self.produced_prefixes, self.consumed_metrics)
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


class SchemaDriftRule(FactRule):
    id = "schema-drift"
    description = "metric reads without a producer"

    def extract(self, checked: CheckedFile) -> Optional[SchemaDriftFacts]:
        # The analyzer's own modules quote schema names in rule tables
        # and tests; they are not schema participants.
        if checked.mod.startswith("repro/check/"):
            return None
        exact, prefixes = _produced_metrics(checked.tree)
        facts = SchemaDriftFacts(
            produced_exact=exact,
            produced_prefixes=prefixes,
            consumed_metrics=_consumed_metrics(checked.tree),
        )
        return None if facts.empty() else facts

    def check_facts(self, ctx: ProgramContext) -> Iterable[Diagnostic]:
        facts: dict[str, SchemaDriftFacts] = ctx.facts(self.id)
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
