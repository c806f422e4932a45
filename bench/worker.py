"""One benchmark process: set up a workload in a fresh interpreter and,
in `measure` mode, run its closed loop and check every op's output.

    python3 bench/worker.py setup|measure WORKLOAD SEED SECONDS TRACE WORK_DIR

Prints one JSON object on its last stdout line. `bench/run.py` starts it
with `src/` on PYTHONPATH; bench/WORKLOADS.md describes the metrics.

Every time it reports is scaled by the host's slowdown, read from the
reference job in bench/reference.py next to what was timed.
"""
from __future__ import annotations

import os
import sys
from time import perf_counter

# The gauge uses builtins only, so the import of vdse below stays cold.
from reference import Gauge

# One CPU for this process and the `vdse` subprocesses it starts, so the
# gauge reads the speed of the CPU the timed work runs on.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

# Units per set-up gauge reading, about 30 ms on the baseline host.
SETUP_REPS = 50
_setup_gauge = Gauge(SETUP_REPS)
SETUP_SLOWDOWN = _setup_gauge.read()

# Set-up time starts with the cold import of vdse, before the benchmark
# loads any module of its own, so every module vdse pulls in is charged to it.
_start = perf_counter()
import vdse  # noqa: E402,F401
IMPORT_S = perf_counter() - _start

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402

import workloads  # noqa: E402
from tracing import LAYERS, NullTracer, Tracer  # noqa: E402

# Enough ops that at least ten lie beyond p90, even on a slow host.
MIN_OPS = 100
# Share of op time spent reading the gauge after each op.
GAUGE_SHARE = 0.1
# Inputs whose ops the traced run repeats under tracemalloc.
ALLOC_KEYS = 3


# Marks the record of an op that raised instead of its output summary.
RAISED = ("raised",)


def timed_loop(workload, seconds: float, tracers: tuple, seen: dict, gauge: Gauge) -> list:
    """Run ops back to back for `seconds`, for at least MIN_OPS ops and
    for whole passes over the inputs, so every input weighs the same and
    each pass holds the same mix of ops. Tracers alternate op by op, and
    the order flips each pass, so every input runs under each. The gauge
    is read after every op; an op's slowdown is the mean of the readings
    just before and after it. One record per op: (key, latency, results,
    summary, traced, slowdown), the latency scaled by the slowdown. `seen`
    keeps the summary of the first op on each key; a later op keeps its
    own only if it differs (or is RAISED), so kept outputs do not grow with
    the run. A run stops early once MIN_OPS ops have raised: it is wrong
    already, and ops that raise at once would otherwise pile up records."""
    records = []
    i = errors = 0
    before = gauge.read()
    deadline = perf_counter() + seconds
    while (i % workload.size or i < MIN_OPS or perf_counter() < deadline) and errors < MIN_OPS:
        t = tracers[(i + i // workload.size) % len(tracers)]
        workload.prepare(i)
        key = workload.key(i)
        t.op_id = i
        start = perf_counter()
        try:
            out = t.call("op", workload.op, i, t) if t.on else workload.op(i, t)
        except Exception as exc:  # an op that raises is a wrong op, not a crash
            elapsed, results, own = perf_counter() - start, 0, RAISED
            if not errors:
                print(f"op on input {key} raised {exc!r}", file=sys.stderr)
            errors += 1
        else:
            elapsed = perf_counter() - start
            results, checked, stable = workload.summarize(i, out, t)
            summary = seen.setdefault(key, (checked, stable))
            own = None if (checked, stable) == summary else (checked, stable)
        after = gauge.read()
        slowdown = (before + after) / 2
        records.append((key, elapsed / slowdown, results, own, t.on, slowdown))
        before = after
        if t.on and own is not RAISED and hasattr(workload, "probe"):
            workload.probe(i, t)
            before = gauge.read()  # the probe ran after the last reading
        i += 1
    return records


def raised(record) -> bool:
    return record[3] is RAISED


def verify(workload, records: list, seen: dict) -> Counter:
    """Classify ops as ok, error (the workload's known, expected failure)
    or wrong. No op is expected to raise, so one that does is wrong."""
    outcome = Counter()
    problems = workload.check_inputs()
    for message in problems:
        print(f"input check: {message}", file=sys.stderr)
    expected = {key: workload.expected(key) for key in seen}
    for record in records:
        key, own = record[0], record[3]
        if raised(record):
            outcome["wrong"] += 1
            continue
        checked, stable = own or seen[key]
        if problems or stable != seen[key][1]:
            outcome["wrong"] += 1
        elif checked != expected[key]:
            outcome[workload.failure_kind(key, checked, expected[key])] += 1
        else:
            outcome["ok"] += 1
    return outcome


def latency_metrics(records: list) -> dict:
    """Rates come from per-input means, so a run cut short by raised ops
    does not over-weight the inputs it reached."""
    latencies = [r[1] for r in records]
    by_key: dict = defaultdict(list)
    for key, latency, results, *_ in records:
        by_key[key].append((latency, results))
    mean = lambda pairs, k: sum(p[k] for p in pairs) / len(pairs)  # noqa: E731
    pass_s = sum(mean(pairs, 0) for pairs in by_key.values())
    pass_results = sum(mean(pairs, 1) for pairs in by_key.values())
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "ops_per_s": len(by_key) / pass_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "results_per_s": pass_results / pass_s,
    }


# Work counts a workload records per op; reported on every workload.
COUNTS = (
    "dsl.parse.lines", "dsl.serialize.bytes", "validate.validate.violations",
    "analysis.exposure_report.paths", "analysis.enumerate_paths_strict.paths",
    "analysis.enumerate_paths_lineage.traces", "export.bytes",
)


def layer_metrics(t: Tracer, ops: int, slowdown: float) -> dict:
    """Per-op busy time (scaled by the traced ops' median slowdown), call
    and work counts per traced function, plus each layer's self time and
    share of op time."""
    total, own = t.busy()
    calls = t.calls()
    per_op = lambda seconds: seconds * 1e3 / ops / slowdown  # noqa: E731
    op_ms = per_op(total["op"])
    m = {"op.ms": op_ms, "op.count": ops}
    for name in (
        "dsl.parse", "dsl.serialize", "validate.validate", "graph.mutate",
        "analysis.exposure_report", "analysis.enumerate_paths_strict",
        "analysis.enumerate_paths_lineage", "export.graph_to_dot", "export.graph_to_json",
        "export.report_to_json", "export.paths_to_json", "cli.python_start", "cli.run",
    ):
        m[f"{name}.ms"] = per_op(total[name])
        m[f"{name}.calls"] = calls[name] / ops
    # The import probe also starts an interpreter; the import is the rest.
    m["cli.import.ms"] = per_op(total["cli.import"] - total["cli.python_start"])
    for key in COUNTS:
        m[key] = t.counts.get(key, 0) / ops
    reachable = t.counts.get("analysis.exposure_report.reachable", 0)
    sinks = t.counts.get("analysis.exposure_report.sinks", 0)
    m["analysis.exposure_report.sink_yield"] = sinks / reachable if reachable else 0.0
    layer_own = defaultdict(float)
    for name, seconds in own.items():
        if name != "cli.python_start":  # contained in the import probe
            layer_own[name.split(".")[0]] += seconds
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = per_op(layer_own[layer])
        m[f"{layer}.share"] = per_op(layer_own[layer]) / op_ms
    # Share of op time held by what each workload is meant to isolate.
    for other in workloads.WORKLOADS.values():
        held = sum(layer_own[p] if p in LAYERS else own[p] for p in other.primary)
        m[f"isolation.{other.name}_share"] = per_op(held) / op_ms
    return m


def alloc_peak_mb(workload, keys) -> float:
    """Mean over `keys` of the peak memory allocated while one op runs, as
    tracemalloc sees it: what the op's results and temporaries hold, apart
    from the rest of the process. Taken after the timed loop, because
    tracemalloc slows every allocation."""
    import tracemalloc

    peaks = []
    for i in keys:
        workload.prepare(i)
        tracemalloc.start()
        try:
            out = workload.op(i, NullTracer)
        except Exception:  # counted as wrong by the timed loop already
            continue
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        peaks.append(peak)
        del out
    return statistics.mean(peaks) / 2**20 if peaks else 0.0


def main(argv: list) -> int:
    mode, name, seed, seconds, trace, work_dir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    # Set-up is the import of vdse plus building the inputs; importing the
    # benchmark's own modules in between is not timed.
    start = perf_counter()
    workload = workloads.WORKLOADS[name](seed, work_dir)
    raw_setup_s = IMPORT_S + perf_counter() - start
    setup_slowdown = (SETUP_SLOWDOWN + _setup_gauge.read()) / 2
    setup = {"setup_s": raw_setup_s / setup_slowdown, "raw_setup_s": raw_setup_s}
    if mode == "setup":
        print(json.dumps(setup))
        return 0

    null = NullTracer()
    workload.prepare(0)
    start = perf_counter()
    try:
        workload.op(0, null)  # warm-up, untimed
    except Exception:  # the timed loop runs this input again and counts it
        pass
    gauge = workload.gauge()
    gauge.reps_for(perf_counter() - start, GAUGE_SHARE)
    # The inputs live for the whole run; keep the collector from rescanning
    # them during ops, as it would not in a process holding only vdse's data.
    gc.collect()
    gc.freeze()
    seen: dict = {}
    t = Tracer()
    # Traced runs alternate untraced and traced ops, so both see the same
    # state of the host and their difference is the tracing overhead.
    records = timed_loop(workload, seconds, (null, t) if trace else (null,), seen, gauge)
    if trace:
        traces = os.path.join(os.path.dirname(work_dir), "traces")
        os.makedirs(traces, exist_ok=True)
        t.dump(os.path.join(traces, f"{name}_{seed}.jsonl"))
    usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024
    outcome = verify(workload, records, seen)
    result = {
        **setup,
        "attempted": len(records),
        "failed": outcome["error"] + outcome["wrong"],
        "wrong": outcome["wrong"],
    }
    # An op that raised did not do the op's work; it is counted as wrong
    # above and kept out of the latencies and rates.
    timed = [r for r in records if not raised(r)] or records
    untraced = [r for r in timed if not r[4]]
    result["slowdown"] = statistics.median(r[5] for r in records)
    result["raw_op_p50_ms"] = statistics.median(r[1] * r[5] for r in timed) * 1e3
    if trace:
        traced = [r for r in timed if r[4]]
        metrics = layer_metrics(t, len(traced), statistics.median(r[5] for r in traced))
        rate = lambda part: latency_metrics(part)["ops_per_s"]  # noqa: E731
        metrics["trace.overhead"] = rate(untraced) / rate(traced) - 1
        metrics["op.alloc_peak_mb"] = alloc_peak_mb(workload, range(min(ALLOC_KEYS, workload.size)))
        result["metrics"] = metrics
    else:
        result["metrics"] = dict(latency_metrics(untraced), peak_rss_mb=peak_rss_mb)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
