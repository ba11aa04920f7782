"""Spans and counts recorded around calls into kasamilab, from outside it.

A `Tracer` wraps functions so that each call records a span: its name, the
span that caused it, its start and end, and optional work counts computed
from the call's arguments. `installed` swaps the wrappers into every module
namespace that holds the original function, so calls through `from x import
f` aliases are traced too, and puts the originals back on exit. Spans stay in
memory; the summaries below turn them into busy time, self time and counts.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "parent", "start", "end", "work")

    def __init__(self, name, parent, start, work=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.work = work


class Tracer:
    """Records spans in memory; times are `perf_counter_ns` values."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        # A thread with nothing open (a pool worker) attributes its spans to
        # the innermost span open in the thread that created the tracer.
        self._root_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, work=None):
        """Return `fn` recording one span per call under `name`.

        `work(*args, **kwargs)` returns a dict of counts attached to the span;
        it runs before the span's clock starts.
        """
        clock = time.perf_counter_ns
        spans = self.spans
        root = self._root_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                tail = root[-1:]
                parent = tail[0] if tail else None
            counts = work(*args, **kwargs) if work is not None else None
            span = Span(name, parent, clock(), counts)
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        return traced


def _method_target(raw):
    """(function, rewrap) for a class attribute that is a public method."""
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__, type(raw)
    if inspect.isfunction(raw):
        return raw, None
    return None, None


@contextmanager
def installed(tracer, modules, functions, classes=None, work=None):
    """Trace `functions` (name -> function) and the public methods of
    `classes` (name -> class) while the block runs.

    Every attribute of `modules` that is one of the functions is replaced by
    its wrapper. `work` maps a traced name to its work-count function.
    """
    classes = classes or {}
    work = work or {}
    wrappers = {id(fn): tracer.wrap(name, fn, work.get(name))
                for name, fn in functions.items()}
    patched = []
    try:
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    patched.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        for cname, cls in classes.items():
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_"):
                    continue
                fn, rewrap = _method_target(raw)
                if fn is None:
                    continue
                name = f"{cname}.{attr}"
                wrapper = tracer.wrap(name, fn, work.get(name))
                patched.append((cls, attr, raw))
                setattr(cls, attr, rewrap(wrapper) if rewrap else wrapper)
        yield tracer
    finally:
        for owner, attr, val in reversed(patched):
            setattr(owner, attr, val)


def union_ns(intervals):
    """Total length covered by a collection of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def by_name(spans):
    """Spans grouped by name, so each summary reads only the spans it needs."""
    index = {}
    for s in spans:
        index.setdefault(s.name, []).append(s)
    return index


def busy_s(index, names):
    """Wall seconds during which a span named in `names` was open."""
    return union_ns((s.start, s.end) for name in names
                    for s in index.get(name, ())) / 1e9


def self_s(spans, index, names):
    """Summed self time of the spans named in `names`: each span's duration
    minus the part of it covered by its child spans."""
    targets = {id(s): s for name in names for s in index.get(name, ())}
    children = {}
    for s in spans:
        if s.parent is not None and id(s.parent) in targets:
            children.setdefault(id(s.parent), []).append(s)
    total = 0
    for key, s in targets.items():
        covered = union_ns((max(c.start, s.start), min(c.end, s.end))
                           for c in children.get(key, ())
                           if c.end > s.start and c.start < s.end)
        total += (s.end - s.start) - covered
    return total / 1e9


def calls(index, names):
    return sum(len(index.get(name, ())) for name in names)


def work_sum(index, names, key):
    return sum(s.work[key] for name in names for s in index.get(name, ())
               if s.work is not None)
