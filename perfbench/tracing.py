"""In-memory span tracing and the patching that installs it.

A span records a name, the thread that ran it, its start and end on
one monotonic clock, and its parent: the innermost span open on the
same thread. A span opened on a thread with nothing open (a worker of
a thread pool) takes as parent the innermost span open on the thread
that created the tracer, which is the thread waiting for the pool.

Spans stay in memory until the run ends. A span's self time is its
duration minus the part of its interval covered by its children; the
children may run on other threads and may overlap each other.

`Patcher` wraps functions at the module attributes their callers look
up, and methods at their class attribute, and puts the originals back
on `restore`.
"""

import functools
import itertools
import sys
import threading
import time


class Span:
    __slots__ = ("id", "name", "thread", "parent", "start", "end", "attrs")

    def __init__(self, id_, name, thread, parent, start):
        self.id = id_
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = None
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._home = threading.get_ident()

    def open(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1].id
        else:
            home = self._stacks.get(self._home)
            parent = home[-1].id if home and tid != self._home else None
        span = Span(next(self._ids), name, tid, parent, time.perf_counter())
        stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        stack = self._stacks[span.thread]
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        self.spans.append(span)


def spanned(tracer, name, attrs=None):
    """Wrapper factory: run the callable inside a span called `name`.

    `attrs(args, kwargs, result)`, if given, runs after the span has
    closed and its dict is stored on the span.
    """
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return wrapper
    return factory


class Patcher:
    """Replace callables in place and remember how to put them back."""

    def __init__(self, package):
        self.package = package
        self._saved = []

    def function(self, module, attr, factory):
        """Wrap module.attr in every module of the package that binds it."""
        original = getattr(module, attr)
        wrapped = factory(original)
        prefix = self.package + "."
        for name, mod in list(sys.modules.items()):
            if mod is None or (name != self.package and not name.startswith(prefix)):
                continue
            for key in [k for k, v in vars(mod).items() if v is original]:
                self._saved.append((mod, key, original))
                setattr(mod, key, wrapped)

    def method(self, cls, attr, factory):
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, factory(original))

    def restore(self):
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)


def covered(intervals, lo, hi):
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Map span id -> duration minus the time its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def summary(spans):
    """Per span name: call count, total and self seconds."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += s.duration
        entry["self_s"] += selfs[s.id]
    return out


def coverage(spans, windows):
    """Share of the windows' total length that root spans cover."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    length = sum(b - a for a, b in windows)
    if length <= 0:
        return 0.0
    return sum(covered(roots, a, b) for a, b in windows) / length
