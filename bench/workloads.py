"""The four benchmark workloads.

A workload builds its inputs from the seed in __init__ (this is what
`setup_s` times, together with the cold import of vdse). The harness then
calls, per op:

    prepare(i)          untimed; resets files an op rewrites
    op(i, tracer)       timed; every call into vdse goes through tracer.call
    summarize(i, out)   untimed; -> (results, checked, stable)
    key(i)              the input op i ran on

After the timed loop, `expected(key)` gives the `checked` part from an
independent source; `stable` must be identical across ops on the same key.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from time import perf_counter

from vdse import (
    DEFAULT_MAX_PATH_LEN,
    DataPackage,
    ExportOptions,
    builtin_schema,
    enumerate_paths,
    exposure_report,
    graph_to_dot,
    graph_to_json,
    new_scenario,
    parse,
    paths_to_json,
    reachable_from,
    report_to_json,
    serialize,
    validate,
)

import gen
import oracle
from reference import Gauge
from tracing import NullTracer


def sha(text) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha1(data).hexdigest()


def strict_or_lineage(mode: str) -> str:
    return f"analysis.enumerate_paths_{mode}"


def traced_enumerate(t, graph, source, sink, max_len=DEFAULT_MAX_PATH_LEN, mode="strict"):
    return t.call(strict_or_lineage(mode), enumerate_paths, graph, source, sink, max_len, mode)


def _count_exposure(t, graph, report) -> None:
    """Paths found, and sinks reported against entities reachable at all."""
    t.count("analysis.exposure_report.paths", sum(len(s.paths) for s in report.sinks))
    t.count("analysis.exposure_report.sinks", len(report.sinks))
    t.count("analysis.exposure_report.reachable", len(reachable_from(graph, report.person)))


class Workload:
    name = ""
    # The spans (or whole layers) this workload is meant to isolate.
    primary: tuple = ()
    size = 1  # number of distinct inputs the ops cycle over

    def gauge(self) -> Gauge:
        """The gauge of host speed read next to each op."""
        return Gauge()

    def key(self, i: int) -> int:
        return i % self.size

    def prepare(self, i: int) -> None:
        pass

    def check_inputs(self) -> list:
        return []

    def failure_kind(self, key: int, checked, want) -> str:
        """How an op whose output differs from the expectation counts."""
        return "wrong"


def _apply(t, graph, step) -> None:
    """One fleet edit: a new organisation, or a flow into it."""
    if step[0] == "entity":
        t.call("graph.mutate", graph.add_entity, step[2], "O")
    else:
        _, _, flow_id, edge, source, target, package = step
        t.call("graph.mutate", graph.add_flow, flow_id, edge, source, target, DataPackage(package))


class Fleet(Workload):
    """N renamed copies of the bundled scenarios in one text: parse,
    validate, edit-and-recheck, serialize, export."""

    name = "fleet"
    primary = ("dsl", "validate", "export")

    def __init__(self, seed: int, work_dir: str):
        self.input = gen.fleet(seed)
        self.schema = builtin_schema()
        self.size = len(self.input.plans)

    def op(self, i: int, t):
        graph = t.call("dsl.parse", parse, self.input.text)
        report = t.call("validate.validate", validate, self.schema, graph)
        exposures = []
        for step in self.input.plans[self.key(i)]:
            _apply(t, graph, step)
            exposures.append(t.call("analysis.exposure_report", exposure_report, graph, step[1].person))
        text = t.call("dsl.serialize", serialize, graph)
        as_json = t.call("export.graph_to_json", graph_to_json, graph)
        as_dot = t.call("export.graph_to_dot", graph_to_dot, graph)
        return graph, report, exposures, text, as_json, as_dot

    def summarize(self, i: int, out, t):
        graph, report, exposures, text, as_json, as_dot = out
        document = json.loads(as_json)
        if t.on:
            t.count("dsl.parse.lines", self.input.text.count("\n"))
            t.count("dsl.serialize.bytes", len(text.encode("utf-8")))
            t.count("validate.validate.violations", len(report.violations))
            t.count("export.bytes", len(as_json.encode("utf-8")) + len(as_dot.encode("utf-8")))
            for exposure in exposures:
                _count_exposure(t, graph, exposure)
        checked = (
            frozenset((v.code.value, v.subject) for v in report.violations),
            tuple(json.dumps(oracle.report_doc(e)) for e in exposures),
            tuple(len(document[k]) for k in ("entities", "packages", "relations", "flows")),
            as_dot.count("\n"),
        )
        stable = (sha(text), sha(as_json), sha(as_dot))
        return sum(len(s.paths) for e in exposures for s in e.sinks), checked, stable

    def expected(self, key: int):
        """Each edited copy rebuilt on its own from the bundled scenario and
        queried with brute-force paths; counts from the graph contents."""
        graph = parse(self.input.text)
        alone: dict = {}
        docs = []
        for step in self.input.plans[key]:
            copy = step[1]
            if copy.prefix not in alone:
                alone[copy.prefix] = new_scenario("copy")
                gen.copy_into(alone[copy.prefix], self.input.bundled[copy.kind], copy.prefix)
            _apply(NullTracer, graph, step)
            _apply(NullTracer, alone[copy.prefix], step)
            docs.append(
                json.dumps(oracle.exposure_doc(alone[copy.prefix], copy.person, DEFAULT_MAX_PATH_LEN))
            )
        sections = (graph.entities, graph.packages, graph.relations, graph.flows)
        lines = 2 + len(graph.entities) + len(graph.relations) + len(graph.flows)
        if not _same_graph(parse(serialize(graph)), graph):
            lines = -1  # parse(serialize(g)) must give back g
        return (frozenset(self.input.planted), tuple(docs), tuple(len(s) for s in sections), lines)

    def check_inputs(self) -> list:
        """Every unedited copy reports like the bundled scenario, renamed;
        copies with a planted defect match brute force on the copy alone."""
        problems = []
        graph = parse(self.input.text)
        bundled = {
            kind: oracle.report_doc(exposure_report(base, gen.FLEET_KINDS[kind]["person"]))
            for kind, base in self.input.bundled.items()
        }
        for copy in self.input.copies:
            got = oracle.report_doc(exposure_report(graph, copy.person))
            if copy.defect is None:
                want = oracle.rename_doc(bundled[copy.kind], copy.prefix)
            else:
                alone = new_scenario("copy")
                gen.copy_into(alone, self.input.bundled[copy.kind], copy.prefix)
                gen.plant_defect(alone, copy)
                want = oracle.exposure_doc(alone, copy.person, DEFAULT_MAX_PATH_LEN)
            if got != want:
                problems.append(f"exposure of {copy.person} differs from its copy's expectation")
        return problems


def _same_graph(a, b) -> bool:
    return (a.name, a.entities, a.packages, a.relations, a.flows) == (
        b.name,
        b.entities,
        b.packages,
        b.relations,
        b.flows,
    )


class Mesh(Workload):
    """Pre-built dense meshes queried over and over: exposure report, one
    strict pair query, DOT with those paths highlighted, report JSON."""

    name = "mesh"
    primary = ("analysis.exposure_report", "analysis.enumerate_paths_strict")

    def __init__(self, seed: int, work_dir: str):
        self.queries = gen.mesh(seed)
        self.size = len(self.queries)

    def op(self, i: int, t):
        q = self.queries[self.key(i)]
        report = t.call("analysis.exposure_report", exposure_report, q.graph, q.person, q.max_len)
        paths = traced_enumerate(t, q.graph, q.source, q.sink, q.max_len)
        options = ExportOptions(highlight_paths=tuple(paths))
        as_dot = t.call("export.graph_to_dot", graph_to_dot, q.graph, options)
        as_json = t.call("export.report_to_json", report_to_json, report)
        return report, paths, as_dot, as_json

    def summarize(self, i: int, out, t):
        report, paths, as_dot, as_json = out
        if t.on:
            _count_exposure(t, self.queries[self.key(i)].graph, report)
            t.count("analysis.enumerate_paths_strict.paths", len(paths))
            t.count("export.bytes", len(as_dot.encode("utf-8")) + len(as_json.encode("utf-8")))
        results = sum(len(s.paths) for s in report.sinks) + len(paths)
        checked = (sha(as_json), tuple(p.flow_ids for p in paths), as_dot.count("color=red"))
        return results, checked, sha(as_dot)

    def expected(self, key: int):
        q = self.queries[key]
        doc = oracle.exposure_doc(q.graph, q.person, q.max_len)
        paths = oracle.brute_force_paths(q.graph, q.source, q.sink, q.max_len)
        highlighted = {f for p in paths for f in p.flow_ids}
        as_json = json.dumps(doc, separators=(",", ":"), ensure_ascii=False)
        return sha(as_json), tuple(p.flow_ids for p in paths), len(highlighted)


class Lineage(Workload):
    """Lineage traces over meshes with shared, derived packages, then JSON."""

    name = "lineage"
    primary = ("analysis.enumerate_paths_lineage",)

    def __init__(self, seed: int, work_dir: str):
        self.queries = gen.lineage(seed)
        self.size = len(self.queries)

    def op(self, i: int, t):
        q = self.queries[self.key(i)]
        traces = traced_enumerate(t, q.graph, q.source, q.sink, q.max_len, "lineage")
        return traces, t.call("export.paths_to_json", paths_to_json, traces)

    def summarize(self, i: int, out, t):
        traces, as_json = out
        if t.on:
            t.count("analysis.enumerate_paths_lineage.traces", len(traces))
            t.count("export.bytes", len(as_json.encode("utf-8")))
        return len(traces), sha(as_json), None

    def expected(self, key: int):
        q = self.queries[key]
        return sha(oracle.lineage_json(oracle.lineage_traces(q.graph, q.source, q.sink, q.max_len)))


# Runs the CLI entry point exactly as the installed `vdse` script does.
CLI_BOOT = "from vdse.cli import main; main()"
# Nominal time to start and stop a bare interpreter; about its median on
# the baseline host.
START_MS = 85.0


class StartGauge(Gauge):
    """Gauges the host by starting a bare interpreter, `python -c pass`.
    A `cli` op is mostly process start-up (exec, loading, unmarshalling
    byte-code), which the pure-Python reference job does not follow: timed
    next to `cli` ops, that job's readings were as noisy as the ops and
    doubled their spread per command, while this gauge halved it."""

    nominal_ms = START_MS

    def __init__(self, python: str, env: dict):
        self.python, self.env = python, env
        super().__init__()

    def unit(self) -> None:
        subprocess.run([self.python, "-c", "pass"], env=self.env, capture_output=True, timeout=60)


def _cli_commands(rng: random.Random, files: dict, fmt_files: dict) -> list:
    """The documented CLI surface on both bundled scenarios. Each entry is
    (argv, kind); kind says how the output is checked and counted. The seed
    picks the order, the highlighted pair and the `--max-len` value; the set
    of queries is fixed so that every seed returns the same results."""
    spec = {
        "uber": {
            "persons": ["passenger1", "passenger2", "driver"],
            "pairs": [("driver", "uber"), ("passenger1", "uber"), ("passenger2", "driver")],
            "lineage": [("driver", "uber"), ("passenger1", "uber")],
        },
        "speeding": {
            "persons": ["driver"],
            "pairs": [("driver", "insurer"), ("driver", "police"), ("car", "dvla")],
            "lineage": [("driver", "insurer"), ("driver", "police")],
        },
    }
    commands = []
    for name, path in files.items():
        s = spec[name]
        person = s["persons"][0]
        commands += [(["validate", path], "plain"), (["validate", path, "--json"], "plain")]
        commands += [
            (["paths", path, "--from", a, "--to", b], ("strict", a, b)) for a, b in s["pairs"]
        ]
        commands += [
            (["paths", path, "--from", a, "--to", b, "--mode", "lineage"], ("lineage", a, b))
            for a, b in s["lineage"]
        ]
        commands += [(["exposure", path, "--person", p], "exposure") for p in s["persons"]]
        highlight = ":".join(rng.choice(s["pairs"]))
        commands += [
            (["exposure", path, "--person", person, "--json"], "exposure_json"),
            (
                ["exposure", path, "--person", person, "--max-len", str(rng.randint(2, 6))],
                "exposure_max_len",
            ),
            (["export", path, "--highlight", highlight], "plain"),
            (["export", path, "--format", "json", "--show-packages"], "plain"),
            (["fmt", fmt_files[name]], ("fmt", name)),
        ]
    rng.shuffle(commands)
    return commands


def _cli_results(kind, stdout: str) -> int:
    if isinstance(kind, tuple) and kind[0] in ("strict", "lineage"):
        return len(stdout.splitlines())
    if kind in ("exposure", "exposure_max_len"):
        return sum(
            int(line.rsplit(": ", 1)[1].split()[0])
            for line in stdout.splitlines()
            if line.startswith("sink ")
        )
    if kind == "exposure_json":
        return sum(len(s["paths"]) for s in json.loads(stdout)["sinks"])
    return 0


class Cli(Workload):
    """One `vdse` subprocess per op, cycling over the documented commands."""

    name = "cli"
    primary = ("cli.import",)  # the import probe includes interpreter start-up

    def __init__(self, seed: int, work_dir: str):
        from vdse.scenarios import BUNDLED, load_scenario, scenario_text

        self.files, self.fmt_files, self.graphs = {}, {}, {}
        for name in BUNDLED:
            self.files[name] = os.path.join(work_dir, f"{name}.vdse")
            self.fmt_files[name] = os.path.join(work_dir, f"{name}_fmt.vdse")
            with open(self.files[name], "w", encoding="utf-8") as handle:
                handle.write(scenario_text(name))
            self.graphs[name] = load_scenario(name)
        self.commands = _cli_commands(random.Random(seed), self.files, self.fmt_files)
        self.size = len(self.commands)
        self.python = sys.executable
        self.env = dict(os.environ)

    def gauge(self) -> Gauge:
        return StartGauge(self.python, self.env)

    def prepare(self, i: int) -> None:
        kind = self.commands[self.key(i)][1]
        if isinstance(kind, tuple) and kind[0] == "fmt":
            shutil.copyfile(self.files[kind[1]], self.fmt_files[kind[1]])

    def _spawn(self, argv: list):
        return subprocess.run(
            [self.python, "-c", CLI_BOOT, *argv], env=self.env, capture_output=True, timeout=60
        )

    def op(self, i: int, t):
        argv, kind = self.commands[self.key(i)]
        proc = self._spawn(argv)
        written = None
        if isinstance(kind, tuple) and kind[0] == "fmt":
            with open(self.fmt_files[kind[1]], "rb") as handle:
                written = handle.read()
        return proc.returncode, proc.stdout.decode("utf-8"), written

    def summarize(self, i: int, out, t):
        code, stdout, written = out
        kind = self.commands[self.key(i)][1]
        checked = (code, sha(stdout) if isinstance(kind, tuple) and kind[0] != "fmt" else None)
        results = _cli_results(kind, stdout) if code == 0 else 0
        return results, checked, (sha(stdout), written and sha(written))

    def expected(self, key: int):
        argv, kind = self.commands[key]
        if not isinstance(kind, tuple) or kind[0] == "fmt":
            return (0, None)
        _, source, sink = kind
        graph = self.graphs[next(n for n, p in self.files.items() if p == argv[1])]
        if kind[0] == "strict":
            lines = [" -> ".join(p.flow_ids) for p in oracle.brute_force_paths(graph, source, sink)]
        else:
            lines = [
                " -> ".join(f) + "  [" + " -> ".join(p) + "]"
                for f, p in oracle.lineage_traces(graph, source, sink, DEFAULT_MAX_PATH_LEN)
            ]
        return (0, sha("".join(line + "\n" for line in lines)))

    def failure_kind(self, key: int, checked, want) -> str:
        """Only the known defect is a failed op: `exposure --max-len` exits
        3. Any other wrong exit code or output is a wrong output."""
        known = self.commands[key][1] == "exposure_max_len" and checked[0] == 3
        return "error" if known else "wrong"

    def probe(self, i: int, t) -> None:
        """Traced runs only: interpreter start, cold import of vdse.cli, and
        the same argv run in process with its layer calls traced."""
        import vdse.cli

        for name, code in (("cli.python_start", "pass"), ("cli.import", "import vdse.cli")):
            start = perf_counter()
            subprocess.run([self.python, "-c", code], env=self.env, capture_output=True, timeout=60)
            t.record(name, start, perf_counter())
        self.prepare(i)
        argv = self.commands[self.key(i)][0]
        with _traced_cli(t, vdse.cli):
            t.call("cli.run", vdse.cli.run, argv, io.StringIO(), io.StringIO())


class _traced_cli:
    """Routes the layer functions vdse.cli calls through the tracer."""

    NAMES = {
        "parse": "dsl.parse",
        "serialize": "dsl.serialize",
        "validate": "validate.validate",
        "exposure_report": "analysis.exposure_report",
        "graph_to_dot": "export.graph_to_dot",
        "graph_to_json": "export.graph_to_json",
        "report_to_json": "export.report_to_json",
        "paths_to_json": "export.paths_to_json",
    }

    def __init__(self, t, module):
        self.t, self.module, self.saved = t, module, {}

    def __enter__(self):
        t = self.t
        for attr, span in self.NAMES.items():
            fn = self.saved[attr] = getattr(self.module, attr)
            setattr(self.module, attr, lambda *a, _fn=fn, _span=span, **k: t.call(_span, _fn, *a, **k))
        paths = self.saved["enumerate_paths"] = self.module.enumerate_paths
        setattr(
            self.module,
            "enumerate_paths",
            lambda g, s, d, max_len=DEFAULT_MAX_PATH_LEN, mode="strict": t.call(
                strict_or_lineage(mode), paths, g, s, d, max_len, mode
            ),
        )
        return self

    def __exit__(self, *exc):
        for attr, fn in self.saved.items():
            setattr(self.module, attr, fn)
        return False


WORKLOADS = {w.name: w for w in (Fleet, Mesh, Lineage, Cli)}
