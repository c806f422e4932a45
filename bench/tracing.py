"""Spans and work counts recorded by the benchmark around calls into vdse.

Every call the benchmark makes into a layer's public function goes through
`tracer.call(name, fn, ...)`. Span names are `<module>.<function>`; the
module is the layer. `NullTracer` makes the call directly, so untraced runs
pay nothing beyond one extra Python call.
"""
from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

LAYERS = ("dsl", "graph", "validate", "analysis", "export", "cli")


class NullTracer:
    on = False
    op_id = None

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def count(key, amount) -> None:
        pass


class Tracer:
    """Keeps every span in memory: [name, start, end, parent index, op id]."""

    on = True

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.op_id = None
        self._open: list = []

    def call(self, name, fn, *args, **kwargs):
        span = [name, perf_counter(), 0.0, self._open[-1] if self._open else None, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._open.pop()

    def record(self, name, start, end) -> None:
        """A span timed by the caller, such as a probe subprocess."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, end, parent, self.op_id])

    def count(self, key, amount) -> None:
        self.counts[key] += amount

    def busy(self) -> tuple:
        """Total and self time (s) per span name; self time excludes the
        part of a span's interval that its child spans cover."""
        total: dict = defaultdict(float)
        children: dict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                children[parent] += end - start
        own: dict = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - children[index]
        return total, own

    def calls(self) -> dict:
        counted: dict = defaultdict(int)
        for span in self.spans:
            counted[span[0]] += 1
        return counted

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op})
                    + "\n"
                )
