"""In-memory spans around symoc functions, installed from outside the package.

A span records its name, start, end and parent span.  Each function is
replaced in every module that holds it under the wrapped name, because
callers look names up in their own module (``symoc.cli.solve`` is the same
object as ``symoc.solver.solve`` but a separate binding).  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import logging
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def wrap(self, modules, attr, name, on_result=None):
        """Replace ``attr`` in every module or class of ``modules`` holding the
        same object by a spanned call.  ``name`` is a span name or a function
        of the call's arguments returning one; ``on_result(args, result)``
        records counts from the call."""
        original = inspect.getattr_static(modules[0], attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        tracer = self

        def spanned(*args, **kwargs):
            with tracer.span(name if isinstance(name, str) else name(args)):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        replacement = classmethod(spanned) if is_classmethod else spanned
        for owner in modules:
            if inspect.getattr_static(owner, attr) is original:
                setattr(owner, attr, replacement)

    def count_log(self, logger_name, prefix, key):
        """Count records of ``logger_name`` whose message starts with ``prefix``."""
        counts = self.counts

        class Counter(logging.Handler):
            def emit(self, record):
                if record.msg.startswith(prefix):
                    counts[key] += 1

        logging.getLogger(logger_name).addHandler(Counter())

    def total(self, name):
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_time(self, name):
        child = defaultdict(float)
        for n, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return sum(
            end - start - child[i]
            for i, (n, start, end, _) in enumerate(self.spans)
            if n == name
        )

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        t._stack.append(len(t.spans))
        t.spans.append([self.name, time.perf_counter(), None, parent])
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[t._stack.pop()][2] = time.perf_counter()
        return False
