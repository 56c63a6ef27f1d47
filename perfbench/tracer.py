"""Spans recorded from the benchmark's side, around the program's public calls.

The program is never edited to be measured.  :meth:`Tracer.wrap`
replaces a public function or method with a wrapper that records one
span per call (name, start, end, parent span, point or request id) and
:meth:`Tracer.restore` puts the original back.  Spans stay in memory
until :meth:`Tracer.write` dumps them as JSON lines at the end of a run.

A tracer built with ``record=False`` installs the same wrappers but
records nothing: the timed runs use it only to see the results a layer
returns (``on_result``), which the output checks need.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional
from collections.abc import Iterator


class Span:
    __slots__ = ("name", "start", "end", "parent", "ident", "child_ns")

    def __init__(
        self, name: str, start: int, parent: Optional[Span], ident: Any
    ) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.ident = ident
        self.child_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        """Duration minus the time covered by child spans."""
        return self.duration_ns - self.child_ns


class Tracer:
    def __init__(self, record: bool = True) -> None:
        self.record = record
        self.spans: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, ident: Any = None) -> Iterator[None]:
        """Record one span; it inherits the enclosing span's id if unset."""
        if not self.record:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if ident is None and parent is not None:
            ident = parent.ident
        span = Span(name, time.perf_counter_ns(), parent, ident)
        stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()
            if parent is not None:
                parent.child_ns += span.duration_ns
            self.spans.append(span)  # list.append is atomic under the GIL

    # -- wrapping ---------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # -- readout ----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def total_ms(self, name: str) -> float:
        return sum(span.duration_ns for span in self.named(name)) / 1e6

    def self_ms(self, name: str) -> float:
        return sum(span.self_ns for span in self.named(name)) / 1e6

    def durations_ms(self, name: str) -> list[float]:
        return [span.duration_ns / 1e6 for span in self.named(name)]

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line, parents by index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for i, span in enumerate(self.spans):
                parent = index.get(id(span.parent)) if span.parent else None
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": span.name,
                            "start_ns": span.start,
                            "end_ns": span.end,
                            "parent": parent,
                            "ident": span.ident,
                        }
                    )
                    + "\n"
                )
