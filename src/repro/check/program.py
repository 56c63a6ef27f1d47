"""Whole-program facts: the symbol table and call graph of one tree.

``repro check`` v2 runs its cross-module rule families
(contract-version coupling, call-graph lock discipline,
process-boundary escape) over a **program index** instead of raw ASTs.
Each file is distilled once into a :class:`ProgramFacts` record — the
module-level assignments (with literal values and an AST content
hash), the class definitions (decorators, bases, annotated fields),
and every function with its outgoing call sites — and the records are
assembled into a :class:`ProgramIndex`.

Two properties make this the engine's unit of caching
(:mod:`repro.check.cache`):

* facts are plain frozen dataclasses of strings and ints — they pickle
  in microseconds, where re-parsing and re-walking an AST costs
  milliseconds per file;
* facts are a pure function of one file's bytes, so a content-hash
  cache entry can never go stale while its file is unchanged.

The call graph is deliberately honest about Python: edges carry the
*textual* callee (``self._rotate_locked``, ``repro.fsio.FileLock``
after import resolution, or a bare local name) and resolution happens
at query time against the index.  Dynamic dispatch that cannot be
resolved statically stays unresolved rather than guessed.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Optional
from collections.abc import Iterable, Sequence

from repro.check.engine_types import Loc

__all__ = [
    "AssignInfo",
    "CallSite",
    "ClassInfo",
    "FieldInfo",
    "FunctionInfo",
    "ProgramFacts",
    "ProgramIndex",
    "extract_program_facts",
    "literal_value",
]

#: Bump when the extraction below changes shape or semantics; part of
#: every cache key, so stale facts can never leak across versions.
PROGRAM_FACTS_VERSION = 1


# ---------------------------------------------------------------------------
# Fact records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AssignInfo:
    """One module-level (ann-)assignment."""

    name: str
    loc: Loc
    #: Extracted literal (str/int/float/bool/None and tuples/lists/sets/
    #: dicts of those, containers normalised to tuples / sorted tuples /
    #: key-sorted tuples of pairs).  ``None`` when not a pure literal.
    literal: object
    #: Whether ``literal`` is meaningful (a literal ``None`` is legal).
    is_literal: bool
    #: sha256 over ``ast.dump`` of the value expression — a content
    #: address of the *declaration text*, defined even for computed
    #: values like ``tuple(f.name for f in fields(RunContext))``.
    dump_sha: str


@dataclass(frozen=True)
class FieldInfo:
    """One annotated class-body field (dataclass field, typically)."""

    name: str
    annotation: str  # source text of the annotation, "" when absent
    loc: Loc


@dataclass(frozen=True)
class ClassInfo:
    name: str
    loc: Loc
    decorators: tuple[str, ...]  # e.g. ("dataclass(frozen=True)",)
    bases: tuple[str, ...]
    fields: tuple[FieldInfo, ...]
    methods: tuple[str, ...]

    def is_frozen_dataclass(self) -> bool:
        return any(
            dec == "dataclass(frozen=True)"
            or (dec.startswith("dataclass(") and "frozen=True" in dec)
            for dec in self.decorators
        )

    def is_dataclass(self) -> bool:
        return any(
            dec == "dataclass" or dec.startswith("dataclass(")
            for dec in self.decorators
        )

    def field_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.fields)


@dataclass(frozen=True)
class CallSite:
    """One outgoing call from a function body.

    ``callee`` is the dotted textual target after import resolution
    (``self._helper``, ``threading.Lock``, ``repro.fsio.FileLock``, a
    bare name).  ``held`` lists the ``self.<attr>`` context managers —
    attribute *and* ``self.<attr>()`` factory forms — lexically active
    at the call site, which is what lock-discipline reasons over.
    ``first_str_arg`` is the first positional argument when it is a
    string literal (``payload.pop("points")``).
    """

    callee: str
    loc: Loc
    held: tuple[str, ...] = ()
    first_str_arg: Optional[str] = None
    #: Shapes of the positional arguments: "lambda", "name:<id>" or "".
    arg_shapes: tuple[str, ...] = ()
    #: Whether the call sits inside a ``try`` that has a ``finally``
    #: block (the other accepted shape for manual lock acquisition).
    in_try_finally: bool = False


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method, with its outgoing call sites."""

    name: str
    cls: Optional[str]  # owning class name, None for module level
    loc: Loc
    decorators: tuple[str, ...]
    calls: tuple[CallSite, ...]
    #: Names of functions defined *inside* this function (closures —
    #: relevant to the process-boundary rule: they do not pickle).
    nested_defs: tuple[str, ...] = ()
    #: String keys of the dict literal this function returns, when its
    #: return statement is (or resolves to) a dict display.
    returned_dict_keys: Optional[tuple[str, ...]] = None

    @property
    def qualname(self) -> str:
        return f"{self.cls}.{self.name}" if self.cls else self.name


@dataclass(frozen=True)
class ProgramFacts:
    """Everything the cross-module rules need from one file."""

    rel: str
    mod: str
    imports: tuple[tuple[str, str], ...]  # (local name, dotted path)
    assigns: tuple[AssignInfo, ...]
    classes: tuple[ClassInfo, ...]
    functions: tuple[FunctionInfo, ...]

    def import_map(self) -> dict[str, str]:
        return dict(self.imports)

    def assign(self, name: str) -> Optional[AssignInfo]:
        for info in self.assigns:
            if info.name == name:
                return info
        return None

    def cls(self, name: str) -> Optional[ClassInfo]:
        for info in self.classes:
            if info.name == name:
                return info
        return None

    def function(
        self, name: str, cls: Optional[str] = None
    ) -> Optional[FunctionInfo]:
        for info in self.functions:
            if info.name == name and info.cls == cls:
                return info
        return None


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def literal_value(node: ast.expr) -> tuple[object, bool]:
    """``(value, ok)`` for a pure-literal expression.

    Containers come back hashable and order-stable: tuples/lists as
    tuples, sets as sorted tuples, dicts as key-sorted tuples of
    ``(key, value)`` pairs.  ``ok`` is False for anything computed.
    """
    if isinstance(node, ast.Constant):
        return node.value, True
    if isinstance(node, (ast.Tuple, ast.List)):
        items = []
        for elt in node.elts:
            value, ok = literal_value(elt)
            if not ok:
                return None, False
            items.append(value)
        return tuple(items), True
    if isinstance(node, ast.Set):
        items = []
        for elt in node.elts:
            value, ok = literal_value(elt)
            if not ok:
                return None, False
            items.append(value)
        try:
            return tuple(sorted(items, key=repr)), True
        except TypeError:  # pragma: no cover - unsortable literals
            return None, False
    if isinstance(node, ast.Dict):
        pairs = []
        for key, val in zip(node.keys, node.values):
            if key is None:
                return None, False  # ``**splat`` — not a literal
            kv, ok = literal_value(key)
            if not ok:
                return None, False
            vv, ok = literal_value(val)
            if not ok:
                return None, False
            pairs.append((kv, vv))
        try:
            return tuple(sorted(pairs, key=lambda p: repr(p[0]))), True
        except TypeError:  # pragma: no cover - unsortable keys
            return None, False
    return None, False


def _dump_sha(node: ast.expr) -> str:
    return hashlib.sha256(ast.dump(node).encode("utf-8")).hexdigest()[:24]


def _loc(node: ast.AST) -> Loc:
    return Loc(getattr(node, "lineno", 0), getattr(node, "col_offset", -1))


def _decorator_repr(node: ast.expr) -> str:
    """``@dataclass(frozen=True)`` → ``"dataclass(frozen=True)"``."""
    if isinstance(node, ast.Call):
        head = _dotted_repr(node.func)
        parts = [_dotted_repr(a) or "?" for a in node.args]
        parts += [
            f"{kw.arg}={ast.unparse(kw.value)}" if kw.arg else "**"
            for kw in node.keywords
        ]
        return f"{head}({', '.join(parts)})"
    return _dotted_repr(node) or "?"


def _dotted_repr(node: ast.expr) -> Optional[str]:
    """``a.b.c`` / bare-name textual form, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if isinstance(node, ast.Constant):
        return repr(node.value)
    return None


def _resolve_callee(func: ast.expr, imports: dict[str, str]) -> Optional[str]:
    """Textual call target with the import map applied to its head."""
    dotted = _dotted_repr(func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    if head == "self":
        return dotted
    resolved = imports.get(head)
    if resolved is not None:
        return f"{resolved}.{rest}" if rest else resolved
    return dotted


def _module_assigns(tree: ast.Module) -> Iterable[AssignInfo]:
    for node in tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if not isinstance(target, ast.Name) or value is None:
            continue
        literal, ok = literal_value(value)
        yield AssignInfo(
            name=target.id,
            loc=_loc(node),
            literal=literal if ok else None,
            is_literal=ok,
            dump_sha=_dump_sha(value),
        )


def _held_contexts(stack: Sequence[ast.AST]) -> tuple[str, ...]:
    """``self.<attr>`` context managers active for a node stack."""
    held: list[str] = []
    for node in stack:
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        for item in node.items:
            expr = item.context_expr
            # ``with self._lock:`` and the factory form ``with
            # self._lock():`` both pin the attribute name.
            if isinstance(expr, ast.Call):
                expr = expr.func
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                held.append(expr.attr)
    return tuple(held)


def _arg_shape(node: ast.expr) -> str:
    if isinstance(node, ast.Lambda):
        return "lambda"
    if isinstance(node, ast.Name):
        return f"name:{node.id}"
    return ""


def _function_body_walk(
    fn: ast.AST,
) -> Iterable[tuple[ast.AST, tuple[ast.AST, ...]]]:
    """``(node, with_stack)`` pairs, not entering nested scopes."""

    def walk(node: ast.AST, stack: tuple[ast.AST, ...]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_TYPES):
                continue
            yield child, stack
            new_stack = (
                stack + (child,)
                if isinstance(child, (ast.With, ast.AsyncWith, ast.Try))
                else stack
            )
            yield from walk(child, new_stack)

    yield from walk(fn, ())


def _in_try_finally(stack: Sequence[ast.AST]) -> bool:
    return any(
        isinstance(node, ast.Try) and node.finalbody for node in stack
    )


def _returned_dict_keys(fn: ast.AST) -> Optional[tuple[str, ...]]:
    """String keys of the dict this function returns, if statically clear.

    Handles ``return {...}`` directly and the one-hop form ``x = {...};
    return x`` (a payload built in place, then returned).
    """
    returns: list[ast.expr] = []
    assigns: dict[str, ast.expr] = {}
    for node, _stack in _function_body_walk(fn):
        if isinstance(node, ast.Return) and node.value is not None:
            returns.append(node.value)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assigns[target.id] = node.value
    for expr in returns:
        if isinstance(expr, ast.Name) and expr.id in assigns:
            expr = assigns[expr.id]
        if isinstance(expr, ast.Dict):
            keys = tuple(
                key.value
                for key in expr.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
            if keys:
                return keys
    return None


def _extract_function(
    fn: ast.AST, cls: Optional[str], imports: dict[str, str]
) -> FunctionInfo:
    calls: list[CallSite] = []
    nested: list[str] = []
    for child in ast.iter_child_nodes(fn):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.append(child.name)
    for node, stack in _function_body_walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested.append(node.name)
        if not isinstance(node, ast.Call):
            continue
        callee = _resolve_callee(node.func, imports)
        if callee is None:
            continue
        first_str = None
        if node.args and isinstance(node.args[0], ast.Constant):
            if isinstance(node.args[0].value, str):
                first_str = node.args[0].value
        calls.append(
            CallSite(
                callee=callee,
                loc=_loc(node),
                held=_held_contexts(stack),
                first_str_arg=first_str,
                arg_shapes=tuple(_arg_shape(a) for a in node.args),
                in_try_finally=_in_try_finally(stack),
            )
        )
    return FunctionInfo(
        name=fn.name,  # type: ignore[attr-defined]
        cls=cls,
        loc=_loc(fn),
        decorators=tuple(
            _decorator_repr(d)
            for d in fn.decorator_list  # type: ignore[attr-defined]
        ),
        calls=tuple(calls),
        nested_defs=tuple(dict.fromkeys(nested)),
        returned_dict_keys=_returned_dict_keys(fn),
    )


def _extract_class(cls: ast.ClassDef, imports: dict[str, str]) -> ClassInfo:
    fields: list[FieldInfo] = []
    methods: list[str] = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            try:
                annotation = ast.unparse(node.annotation)
            except Exception:  # pragma: no cover - unparse is total on 3.9+
                annotation = ""
            fields.append(
                FieldInfo(node.target.id, annotation, _loc(node))
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.append(node.name)
    return ClassInfo(
        name=cls.name,
        loc=_loc(cls),
        decorators=tuple(_decorator_repr(d) for d in cls.decorator_list),
        bases=tuple(b for b in (_dotted_repr(b) for b in cls.bases) if b),
        fields=tuple(fields),
        methods=tuple(methods),
    )


def extract_program_facts(rel: str, mod: str, tree: ast.Module) -> ProgramFacts:
    """Distil one parsed file into its :class:`ProgramFacts`."""
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )

    classes: list[ClassInfo] = []
    functions: list[FunctionInfo] = []

    def visit(body: Sequence[ast.stmt], cls: Optional[str]) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                if cls is None:  # nested classes stay out of the index
                    classes.append(_extract_class(node, imports))
                    visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append(_extract_function(node, cls, imports))

    visit(tree.body, None)

    return ProgramFacts(
        rel=rel,
        mod=mod,
        imports=tuple(sorted(imports.items())),
        assigns=tuple(_module_assigns(tree)),
        classes=tuple(classes),
        functions=tuple(functions),
    )


# ---------------------------------------------------------------------------
# Index
# ---------------------------------------------------------------------------


@dataclass
class ProgramIndex:
    """The assembled whole-program view rules query.

    Lookup is name-based and returns every definition site — the rules
    decide how to handle homonyms (most symbols of interest here are
    unique by construction: one ``PointJob``, one ``SWEEP_META_FIELDS``).
    """

    files: dict[str, ProgramFacts] = field(default_factory=dict)

    @classmethod
    def build(cls, facts: Iterable[ProgramFacts]) -> ProgramIndex:
        return cls(files={f.rel: f for f in facts})

    def find_assign(self, name: str) -> list[tuple[ProgramFacts, AssignInfo]]:
        out = []
        for rel in sorted(self.files):
            info = self.files[rel].assign(name)
            if info is not None:
                out.append((self.files[rel], info))
        return out

    def find_class(self, name: str) -> list[tuple[ProgramFacts, ClassInfo]]:
        out = []
        for rel in sorted(self.files):
            info = self.files[rel].cls(name)
            if info is not None:
                out.append((self.files[rel], info))
        return out

    def find_function(
        self, name: str, cls: Optional[str] = None
    ) -> list[tuple[ProgramFacts, FunctionInfo]]:
        out = []
        for rel in sorted(self.files):
            info = self.files[rel].function(name, cls)
            if info is not None:
                out.append((self.files[rel], info))
        return out

    # -- call graph -------------------------------------------------------

    def callers_of(
        self, method: str, cls: str, facts: ProgramFacts
    ) -> list[tuple[FunctionInfo, CallSite]]:
        """Intra-class callers of ``self.<method>`` within one file."""
        out = []
        for fn in facts.functions:
            if fn.cls != cls:
                continue
            for call in fn.calls:
                if call.callee == f"self.{method}":
                    out.append((fn, call))
        return out

    def call_paths_to(
        self,
        method: str,
        cls: str,
        facts: ProgramFacts,
        max_depth: int = 4,
    ) -> list[tuple[str, ...]]:
        """Reverse call chains ending at ``cls.method`` (intra-class).

        Each chain is ``(entry, ..., direct_caller)`` of method names;
        used to show *how* an unlocked path reaches a ``*_locked``
        helper.  Depth-bounded and cycle-safe.
        """
        chains: list[tuple[str, ...]] = []

        def ascend(target: str, chain: tuple[str, ...]) -> None:
            callers = self.callers_of(target, cls, facts)
            if not callers or len(chain) >= max_depth:
                if chain:
                    chains.append(chain)
                return
            for fn, _call in callers:
                if fn.name in chain or fn.name == target:
                    chains.append((fn.name, *chain))
                    continue
                ascend(fn.name, (fn.name, *chain))

        ascend(method, ())
        return sorted(set(chains))
