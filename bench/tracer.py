"""In-memory span tracer that wraps functions at every module binding.

A span has a name, a start, an end and a parent.  Its self time is its
duration minus the time its child spans cover, minus the time the tracer
itself spent computing counters for those children, so instrumentation
cost does not land in a layer's self time.  Spans stay in memory until
:func:`dump` writes them out as JSON lines.

The program is single-threaded, so one stack of open spans is enough and
child spans never overlap.
"""

from __future__ import annotations

import functools
import json
import marshal
import sys
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("index", "name", "parent", "start", "end", "child_s", "excluded_s", "counters", "error")

    def __init__(self, index: int, name: str, parent: int | None):
        self.index = index
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.excluded_s = 0.0
        self.counters = None
        self.error = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].index if self._stack else None
        span = Span(len(self.spans), name, parent)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span, error: bool) -> None:
        span.end = perf_counter()
        span.error = error
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self.open(name)
        try:
            yield span
        except BaseException:
            self.close(span, error=True)
            raise
        self.close(span, error=False)

    def wrap(self, fn, name: str, count=None):
        """Traced stand-in for fn.  count(args, kwargs, result) -> dict of
        counters runs after the span closes; its time is excluded from the
        enclosing span's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, error=True)
                raise
            self.close(span, error=False)
            if count is not None:
                t0 = perf_counter()
                span.counters = count(args, kwargs, result)
                if self._stack:
                    self._stack[-1].excluded_s += perf_counter() - t0
            return result

        return traced

    def adopt(self, rows: list[tuple], parent: Span) -> None:
        """Attach spans recorded by another process (see :meth:`rows`)
        under ``parent``."""
        base = len(self.spans)
        for index, up, name, start, end, self_s, counters, error in rows:
            span = Span(base + index, name, parent.index if up is None else base + up)
            span.start, span.end = start, end
            span.excluded_s = (end - start) - self_s
            span.counters = counters
            span.error = error
            self.spans.append(span)
            if up is None:
                parent.child_s += end - start

    def rows(self) -> list[tuple]:
        """(id, parent, name, start, end, self_s, counters, error) per span."""
        return [
            (s.index, s.parent, s.name, s.start, s.end, (s.end - s.start) - s.child_s - s.excluded_s,
             s.counters, s.error)
            for s in self.spans
        ]

    def records(self) -> list[dict]:
        keys = ("id", "parent", "name", "start", "end", "self_s", "counters", "error")
        return [dict(zip(keys, row)) for row in self.rows()]

    def install(self, targets) -> None:
        """Replace every module binding of each target by a traced wrapper.

        targets: (module, attribute path, span name, counter or None); an
        attribute path "Cls.__init__" patches the method on the class.
        Every loaded module is scanned, so a function imported by name into
        several modules is wrapped in each of them.  Raises if any binding
        of an original survives.
        """
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        methods = []
        for module, path, name, count in targets:
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if outer else getattr(owner, attr)
            wrapper = self.wrap(fn, name, count)
            if outer:
                setattr(owner, attr, wrapper)
                methods.append((owner, attr, wrapper))
            else:
                originals[id(fn)] = fn
                wrappers[id(fn)] = wrapper
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if id(value) in originals and originals[id(value)] is value:
                    setattr(mod, attr, wrappers[id(value)])
        _check_installed(originals, methods)


def _check_installed(originals: dict[int, object], methods) -> None:
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not namespace:
            continue
        for attr, value in list(namespace.items()):
            if id(value) in originals and originals[id(value)] is value:
                raise RuntimeError(f"{mod.__name__}.{attr} still holds an untraced original")
    for owner, attr, wrapper in methods:
        if owner.__dict__[attr] is not wrapper:
            raise RuntimeError(f"{owner.__qualname__}.{attr} is not traced")


def dump(records: list[dict], path) -> None:
    """Write spans as JSON lines."""
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def save_rows(rows: list[tuple], path) -> None:
    """Hand spans to the parent process; marshal is far cheaper than JSON,
    which keeps the traced process close to the untraced one."""
    with open(path, "wb") as fh:
        marshal.dump(rows, fh)


def load_rows(path) -> list[tuple]:
    with open(path, "rb") as fh:
        return marshal.load(fh)
