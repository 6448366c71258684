"""Span tracer that wraps the library's public functions from outside.

Every public function defined in one of the layer modules is replaced, in
every loaded scalefree module that binds it, by a wrapper that records a
span: name, start, end, parent span, series label, whether it raised, and
for the DWT the number of input samples.  Spans stay in memory; the caller
writes them out once, after the run.  Only the process that installed the
tracer records spans: forked pool workers run the original functions.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

LAYER_MODULES = ("synth", "wavelet", "scaling", "leaders_mf", "grouptests",
                 "pipeline")
# Functions whose first argument's length is the work done, for a rate.
SIZED = frozenset({"wavelet.dwt"})

NAME, START, END, PARENT, LABEL, RAISED, SIZE = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._pid = os.getpid()
        self._patched = []

    def _wrap(self, fn, name):
        spans, stack, pid = self.spans, self._stack, self._pid
        sized = name in SIZED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            label = getattr(args[0], "label", None) if args else None
            if not isinstance(label, str) or not label:
                label = spans[parent][LABEL] if parent >= 0 else ""
            span = [name, perf_counter(), 0.0, parent, label, False,
                    len(args[0]) if sized else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public layer function in every module that binds it."""
        layer = {f"scalefree.{m}" for m in LAYER_MODULES}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("scalefree.") and m is not None]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in layer):
                    continue
                if obj not in wrappers:
                    short = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(obj, f"{short}.{obj.__name__}")
                setattr(module, attr, wrappers[obj])
                self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()

    def dump(self, path) -> None:
        fields = ("name", "start", "end", "parent", "label", "raised", "size")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


class SpanIndex:
    """Aggregates over one run's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.children_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                self.children_time[s[PARENT]] += s[END] - s[START]

    def _outermost(self, names):
        """Spans named in names with no ancestor named in names."""
        out = []
        for s in self.spans:
            if s[NAME] not in names:
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] not in names:
                p = self.spans[p][PARENT]
            if p < 0:
                out.append(s)
        return out

    def calls(self, *names) -> int:
        return len(self._outermost(set(names)))

    def busy(self, *names) -> float:
        """Wall time covered by the named functions, nested calls once."""
        return sum(s[END] - s[START] for s in self._outermost(set(names)))

    def errors(self, *names) -> int:
        return sum(s[RAISED] for s in self._outermost(set(names)))

    def self_time(self, name) -> float:
        """Duration minus the time its child spans cover."""
        return sum(s[END] - s[START] - self.children_time[i]
                   for i, s in enumerate(self.spans) if s[NAME] == name)

    def size(self, name) -> int:
        return sum(s[SIZE] for s in self._outermost({name}))
