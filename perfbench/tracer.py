"""Span tracer that instruments fbse from the outside.

``Tracer.install()`` replaces public class methods and module functions of
the ``fbse`` package with wrappers that record one span per call: name,
start, end, parent span and the benchmark operation (push, file or training
step) the call belongs to. Nothing under ``src/`` knows about it.
``uninstall()`` restores every original.

Spans are kept in memory and written out once, when the run ends. A span's
self time is its duration minus the durations of its child spans; calls in
one thread never overlap, so the children of a span are disjoint.
"""

import functools
import json
import sys
from time import perf_counter

# span record layout (plain lists keep the per-call cost low)
NAME, START, END, PARENT, OP, COST = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.op = -1              # -1 while setting up, then the operation index
        self._stack = []
        self._undo = []

    # -- instrumentation ----------------------------------------------------

    def _record(self, name, fn, args, kwargs, cost):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._stack.pop()
            if cost is not None:
                span[COST] = cost(*args, **kwargs)

    def wrap_method(self, cls, attr, name, cost=None):
        """Span around ``cls.attr``; ``name`` may be a function of ``self``."""
        orig = cls.__dict__[attr]
        record = self._record
        if callable(name):
            def wrapper(self_, *args, **kwargs):
                return record(name(self_), orig, (self_,) + args, kwargs, cost)
        else:
            def wrapper(*args, **kwargs):
                return record(name, orig, args, kwargs, cost)
        setattr(cls, attr, functools.wraps(orig)(wrapper))
        self._undo.append((cls, attr, orig))

    def wrap_function(self, module, attr, name, cost=None, count_only=False):
        """Span (or a bare call count) around ``module.attr``.

        Every ``fbse`` module that imported the function by name is rebound
        too, so calls through ``from .x import f`` are seen as well.
        """
        orig = getattr(module, attr)
        if count_only:
            counts = self.counts
            counts.setdefault(name, 0)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return orig(*args, **kwargs)
        else:
            record = self._record

            def wrapper(*args, **kwargs):
                return record(name, orig, args, kwargs, cost)
        wrapper = functools.wraps(orig)(wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "fbse" and getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Per span: duration minus the summed duration of its children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)], child

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP]}) + "\n")
