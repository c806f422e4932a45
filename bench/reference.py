"""A fixed pure-Python reference job that gauges the host's speed.

On a shared virtual machine the host's speed changes by up to about 2x
for seconds to minutes at a time, for every process at once, and CPU time
slows with it, so raw timings of the same code taken minutes apart do not
agree. The benchmark therefore times this job next to what it measures and
scales each timing to a host on which one unit of the job takes REF_MS.
The job is the benchmark's own code and never calls vdse, so a faster vdse
still shows as a shorter scaled time.

The job does what vdse's ops mostly do: a depth-first walk that builds
tuples, dict and list updates, string formatting, joining and splitting.
It uses builtins only: the set-up gauge runs before the cold import of
vdse, and must not import a module vdse would load.
"""
from __future__ import annotations

import gc
from time import perf_counter

# Nominal duration of one unit; about its median on the baseline host.
REF_MS = 0.6

_NODES = 24
_GRAPH = {n: [(n * 5 + k) % _NODES for k in (1, 2, 7)] for n in range(_NODES)}


def _walk(node: int, depth: int, path: list, out: list) -> None:
    if depth == 0:
        out.append(tuple(path))
        return
    for succ in _GRAPH[node]:
        if succ not in path:
            path.append(succ)
            _walk(succ, depth - 1, path, out)
            path.pop()


def unit() -> int:
    """One unit of the reference job; returns a checksum."""
    paths: list = []
    _walk(0, 5, [0], paths)
    index: dict = {}
    for path in paths:
        key = f"n{path[-1]}"
        index.setdefault(key, []).append(" -> ".join(f"f{n}" for n in path))
    lines = [f"{key}: {len(found)} {found[0]}" for key, found in sorted(index.items())]
    return sum(len(line.split()) for line in "\n".join(lines).splitlines())


class Gauge:
    """Times `reps` units at a time; `read()` gives the host's slowdown
    against the nominal host (2.0: everything takes twice as long)."""

    nominal_ms = REF_MS

    def __init__(self, reps: int = 1):
        self.reps = reps
        self.unit()  # the first call also warms the interpreter's caches

    def unit(self) -> None:
        unit()

    def read(self) -> float:
        # Without the cyclic collector, what the program left in memory
        # cannot slow a reading and be taken for a slow host.
        gc.disable()
        try:
            start = perf_counter()
            for _ in range(self.reps):
                self.unit()
            return (perf_counter() - start) * 1e3 / (self.reps * self.nominal_ms)
        finally:
            gc.enable()

    def reps_for(self, seconds: float, share: float) -> None:
        """Size a reading to take about `share` of `seconds`."""
        self.reps = max(1, round(share * seconds * 1e3 / (self.read() * self.nominal_ms)))
