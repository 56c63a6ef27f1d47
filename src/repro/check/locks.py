"""Lock discipline: shared state in the serving layer stays locked.

The ``repro.serve`` service is the one place in the tree where multiple
threads touch the same object (HTTP request threads + the dispatcher).
Its convention: a class that owns a ``threading.Lock``/``RLock``/
``Condition`` attribute must write its other attributes only inside a
``with self.<lock>`` block.

**Lexical check** (v1, unchanged): attribute (re)binds — ``self.x =
...``, ``self.x += ...``, ``self.x[k] = ...`` — in methods of
lock-holding classes that are not under any of the class's locks.
Exemptions that encode the codebase's own conventions:

* ``__init__`` — the object is not shared before construction returns;
* methods named ``*_locked`` — the caller-holds-the-lock helper
  convention (``_rotate_locked``);
* reads (never flagged) and writes through non-``self`` names.

**Call-graph checks** (v2, via the program index): the ``*_locked``
convention is now *enforced*, not just exempted.  Across the serving
layer, the request-log and the sweep-store writer:

* a call to ``self.<helper>_locked`` must happen while a ``with
  self.<lock>`` of the owning class is lexically held, or from a
  method that is itself ``*_locked`` (its caller holds the lock) —
  otherwise the helper runs lock-free, one indirection away from the
  data race the convention exists to prevent.  The diagnostic names an
  example unlocked entry path from the intra-class call graph.
* a direct ``self.<lock>.acquire()`` must sit inside a ``try/finally``
  (or just use ``with``); a raised exception between ``acquire`` and
  ``release`` otherwise deadlocks every other thread.

v2 also recognises **lock factories**: a method that returns a
``FileLock`` (the sweep-store writer's ``def _lock(self)``) counts as
a lock, so ``with self._lock():`` marks its body as held and
``*_locked`` helpers of that class are covered by the same rules.

The lexical write check stays scoped to the serving layer; the
call-graph checks additionally cover ``repro/store/`` and the request
log, where ``*_locked`` helpers exist.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional
from collections.abc import Iterable

from repro.check.engine import (
    CheckedFile,
    Diagnostic,
    FactRule,
    ProgramContext,
    dotted_call_name,
    import_map,
)
from repro.check.engine_types import Loc
from repro.check.program import FunctionInfo, ProgramFacts

__all__ = ["LockDisciplineRule", "lock_attributes"]

#: Constructors whose result makes an attribute "a lock" for this rule.
_LOCK_CONSTRUCTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
    }
)

#: Dotted suffixes that mark a factory method's return value as a lock.
_LOCK_FACTORY_RETURNS = ("FileLock",)

#: Modules under the lexical write-discipline check (v1 scope).
_WRITE_SCOPE = ("repro/serve/", "repro/fsio.py")

#: Modules under the call-graph checks (everywhere ``*_locked`` helpers
#: and lock factories live).
_GRAPH_SCOPE = (
    "repro/serve/",
    "repro/fsio.py",
    "repro/store/",
    "repro/obs/events.py",
)


def _self_attr(node: ast.expr) -> Optional[str]:
    """``self.<name>`` → name, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def lock_attributes(cls: ast.ClassDef, names: dict) -> set[str]:
    """Attributes of ``cls`` assigned a lock constructor anywhere."""
    locks: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        if dotted_call_name(node.value.func, names) not in _LOCK_CONSTRUCTORS:
            continue
        for target in node.targets:
            attr = _self_attr(target)
            if attr is not None:
                locks.add(attr)
    return locks


def _factory_locks(cls: ast.ClassDef) -> set[str]:
    """Methods of ``cls`` that return a lock object (``FileLock``).

    ``with self._lock():`` then holds the factory's name exactly like a
    lock attribute.
    """
    factories: set[str] = set()
    for node in cls.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(node):
            if not (
                isinstance(stmt, ast.Return)
                and isinstance(stmt.value, ast.Call)
            ):
                continue
            func = stmt.value.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None
            )
            if name in _LOCK_FACTORY_RETURNS:
                factories.add(node.name)
    return factories


def _write_targets(stmt: ast.stmt) -> list[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    return []


def _written_attr(target: ast.expr) -> Optional[str]:
    """The ``self`` attribute a target writes, unwrapping subscripts."""
    node = target
    while isinstance(node, (ast.Subscript, ast.Starred)):
        node = node.value
    return _self_attr(node)


@dataclass
class LockClassFact:
    """One lock-holding class, as the call-graph checks see it."""

    name: str
    loc: Loc
    lock_attrs: tuple[str, ...]
    factory_locks: tuple[str, ...]

    def all_locks(self) -> frozenset[str]:
        return frozenset(self.lock_attrs) | frozenset(self.factory_locks)


@dataclass
class LockFileFacts:
    """Per-file distillation for the lock rule (cacheable)."""

    #: Lexical write-discipline diagnostics (v1 check, precomputed).
    write_diags: list[Diagnostic] = field(default_factory=list)
    classes: list[LockClassFact] = field(default_factory=list)


class LockDisciplineRule(FactRule):
    id = "lock-discipline"
    description = (
        "attribute writes outside `with self.<lock>`, lock-free calls "
        "to *_locked helpers, and bare acquire() in lock-holding classes"
    )

    # -- extraction (per file, cached) ------------------------------------

    def _in_scope(self, mod: str) -> bool:
        return any(mod.startswith(prefix) for prefix in _GRAPH_SCOPE)

    def extract(self, checked: CheckedFile) -> Optional[LockFileFacts]:
        if not self._in_scope(checked.mod):
            return None
        names = import_map(checked.tree)
        facts = LockFileFacts()
        check_writes = any(
            checked.mod.startswith(prefix) for prefix in _WRITE_SCOPE
        )
        for node in ast.walk(checked.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            locks = lock_attributes(node, names)
            factories = _factory_locks(node)
            if not locks and not factories:
                continue
            facts.classes.append(
                LockClassFact(
                    name=node.name,
                    loc=Loc(node.lineno, node.col_offset),
                    lock_attrs=tuple(sorted(locks)),
                    factory_locks=tuple(sorted(factories)),
                )
            )
            if locks and check_writes:
                facts.write_diags.extend(
                    self._check_class_writes(checked, node, locks)
                )
        if not facts.classes and not facts.write_diags:
            return None
        return facts

    def _check_class_writes(
        self, checked: CheckedFile, cls: ast.ClassDef, locks: set[str]
    ) -> Iterable[Diagnostic]:
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__" or method.name.endswith("_locked"):
                continue
            yield from self._check_body(
                checked, method.body, locks, method.name, held=False
            )

    def _check_body(
        self,
        checked: CheckedFile,
        body: list[ast.stmt],
        locks: set[str],
        method: str,
        held: bool,
    ) -> Iterable[Diagnostic]:
        for stmt in body:
            for target in _write_targets(stmt):
                attr = _written_attr(target)
                if attr is None or held:
                    continue
                if attr in locks:
                    message = (
                        f"{method}() rebinds the lock attribute "
                        f"self.{attr}; locks are created once in __init__"
                    )
                else:
                    message = (
                        f"{method}() writes self.{attr} outside "
                        f"`with self.{{{', '.join(sorted(locks))}}}`; "
                        "shared state must be written under the lock"
                    )
                yield self.diagnostic(checked, stmt, message)
            yield from self._check_children(checked, stmt, locks, method, held)

    def _check_children(
        self,
        checked: CheckedFile,
        stmt: ast.stmt,
        locks: set[str],
        method: str,
        held: bool,
    ) -> Iterable[Diagnostic]:
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquires = any(
                self._with_item_lock(item.context_expr) in locks
                for item in stmt.items
            )
            yield from self._check_body(
                checked, stmt.body, locks, method, held or acquires
            )
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes run who-knows-when; out of scope
        for field_name, value in ast.iter_fields(stmt):
            if field_name in ("body", "orelse", "finalbody"):
                if isinstance(value, list):
                    yield from self._check_body(
                        checked, value, locks, method, held
                    )
            elif field_name == "handlers" and isinstance(value, list):
                for handler in value:
                    yield from self._check_body(
                        checked, handler.body, locks, method, held
                    )

    @staticmethod
    def _with_item_lock(expr: ast.expr) -> str:
        """Lock name a with-item pins: attribute or factory-call form."""
        if isinstance(expr, ast.Call):
            expr = expr.func
        return _self_attr(expr) or ""

    # -- cross-module phase (call graph) ----------------------------------

    def check_facts(self, ctx: ProgramContext) -> Iterable[Diagnostic]:
        facts_by_rel: dict[str, LockFileFacts] = ctx.facts(self.id)
        for rel in sorted(facts_by_rel):
            file_facts = facts_by_rel[rel]
            yield from file_facts.write_diags
            program = ctx.index.files.get(rel)
            if program is None:
                continue
            for cls_fact in file_facts.classes:
                yield from self._check_class_graph(rel, cls_fact, program, ctx)

    def _check_class_graph(
        self,
        rel: str,
        cls_fact: LockClassFact,
        program: ProgramFacts,
        ctx: ProgramContext,
    ) -> Iterable[Diagnostic]:
        locks = cls_fact.all_locks()
        for fn in program.functions:
            if fn.cls != cls_fact.name:
                continue
            yield from self._check_function(rel, cls_fact, locks, fn, program, ctx)

    def _check_function(
        self,
        rel: str,
        cls_fact: LockClassFact,
        locks: frozenset[str],
        fn: FunctionInfo,
        program: ProgramFacts,
        ctx: ProgramContext,
    ) -> Iterable[Diagnostic]:
        caller_exempt = fn.name == "__init__" or fn.name.endswith("_locked")
        for call in fn.calls:
            if not call.callee.startswith("self."):
                continue
            target = call.callee[len("self."):]
            holds = bool(set(call.held) & locks)
            if (
                "." not in target
                and target.endswith("_locked")
                and target in {
                    m
                    for c in program.classes
                    if c.name == cls_fact.name
                    for m in c.methods
                }
            ):
                if holds or caller_exempt:
                    continue
                chains = ctx.index.call_paths_to(
                    fn.name, cls_fact.name, program
                )
                via = (
                    f" (example unlocked path: {' -> '.join(chains[0] + (fn.name,))})"
                    if chains
                    else ""
                )
                lock_names = " or ".join(
                    f"`with self.{name}:`" for name in sorted(locks)
                )
                yield self.diag_at(
                    rel,
                    call.loc,
                    f"{fn.name}() calls self.{target}() without holding "
                    f"{lock_names}; *_locked helpers "
                    f"require the caller to hold the lock{via}",
                )
            elif target.endswith(".acquire"):
                attr = target[: -len(".acquire")]
                # The accepted manual shape puts the acquire *before*
                # the try; a release inside a finally of the same
                # function is the evidence the idiom is in play.
                releases_in_finally = any(
                    other.callee == f"self.{attr}.release"
                    and other.in_try_finally
                    for other in fn.calls
                )
                if (
                    attr in locks
                    and not call.in_try_finally
                    and not releases_in_finally
                    and not holds
                ):
                    yield self.diag_at(
                        rel,
                        call.loc,
                        f"{fn.name}() calls self.{attr}.acquire() outside "
                        "try/finally; a raised exception would leave the "
                        "lock held forever — use `with self."
                        f"{attr}:` or wrap the acquire in try/finally",
                    )
