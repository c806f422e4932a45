"""vdse benchmark: seeded workloads, end-to-end and per-layer metrics.

One run:
    python3 bench/run.py --workload fleet|mesh|lineage|cli --seed N --seconds S --trace 0|1

prints every metric as `name = value unit`, then, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.

All workloads, untraced and traced, with the layer-isolation check:
    python3 bench/run.py --all [--seed N] [--seconds S]

It must run from a source checkout: vdse is imported from `src/` next to
this directory, never from an installed copy. Each run starts fresh
interpreters (bench/worker.py): SETUPS of them only time set-up, one also
measures. Every reported time is scaled to a nominal host speed, gauged by
a fixed reference job timed next to it (bench/reference.py); the raw
figures are printed too, as `info` lines. The workloads and metrics are
described in bench/WORKLOADS.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fleet", "mesh", "lineage", "cli")
SETUPS = 9
CHILD_TIMEOUT_S = 150

UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "results_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Which share of its op time a workload's own layer must hold, and the
# share below which a layer counts as small on another workload.
ISOLATED, SMALL = 0.5, 0.2


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + BENCH
    env["PYTHONHASHSEED"] = "0"
    # Imports load cached byte-code, as from an installed package; the
    # first set-up process of a fresh checkout writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(mode: str, workload: str, seed: int, seconds: float, trace: int, work_dir: str) -> dict:
    argv = [sys.executable, os.path.join(BENCH, "worker.py"), mode, workload,
            str(seed), str(seconds), str(trace), work_dir]
    try:
        proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} did not finish in {CHILD_TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not os.path.isfile(os.path.join(SRC, "vdse", "__init__.py")):
        raise BenchError(f"no vdse sources under {SRC}")
    work_dir = os.path.join(BUILD, f"work_{workload}_{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        # Only untraced runs report set-up time.
        setups = [] if trace else [
            spawn("setup", workload, seed, 0, 0, work_dir) for _ in range(SETUPS - 1)
        ]
        measured = spawn("measure", workload, seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    metrics = measured["metrics"]
    info = {"slowdown": measured["slowdown"], "raw_op_p50_ms": measured["raw_op_p50_ms"]}
    if not trace:
        setups.append(measured)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        info["raw_setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    return {
        "correct": measured["wrong"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
        "info": info,
    }


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith((".share", "_yield", "_share")) or name == "trace.overhead":
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def report(workload: str, result: dict) -> None:
    for name, value in result["metrics"].items():
        print(f"{workload} {name} = {value} {unit_of(name)}")
    for name, value in result["info"].items():
        unit = "x" if name == "slowdown" else unit_of(name.removeprefix("raw_"))
        print(f"{workload} info {name} = {value} {unit} (not scaled)")
    print(f"{workload} failed_ratio = {result['failed'] / result['attempted']} ratio "
          f"({result['failed']} of {result['attempted']} ops)")


def isolation(traced: dict) -> list:
    """Each workload's own layer holds most of its op time, and takes a
    small share on at least one other workload."""
    problems = []
    for owner in traced:
        share = {w: r["metrics"][f"isolation.{owner}_share"] for w, r in traced.items()}
        others = {w: s for w, s in share.items() if w != owner}
        print(f"isolation {owner}: {share[owner]:.3f} of its own op time; elsewhere "
              + ", ".join(f"{w} {s:.3f}" for w, s in others.items()))
        if share[owner] < ISOLATED:
            problems.append(f"{owner} layer holds only {share[owner]:.3f} of {owner} op time")
        if others and min(others.values()) >= SMALL:
            problems.append(f"{owner} layer is not small on any other workload")
    return problems


def run_all(seed: int, seconds: float) -> int:
    traced, ok = {}, True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_once(workload, seed, seconds, trace)
            report(workload, result)
            ok = ok and result["correct"]
            if trace:
                traced[workload] = result
    problems = isolation(traced)
    for problem in problems:
        print(f"isolation check failed: {problem}")
    print("all outputs correct" if ok else "some outputs were wrong")
    return 0 if ok and not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds)
        result = run_once(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, result)
    metrics = {n: {"value": v, "unit": unit_of(n)} for n, v in result["metrics"].items()}
    result.pop("info")
    print(json.dumps(dict(result, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
