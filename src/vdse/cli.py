"""Command-line interface.

Exit codes: 0 success, 1 validation errors, 2 parse error, 3 usage error,
4 I/O error. Results go to stdout and are byte-identical across runs;
diagnostics and warnings go to stderr.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys

from vdse.analysis import DEFAULT_MAX_PATH_LEN, LineageTrace, enumerate_paths, exposure_report
from vdse.dsl import parse, serialize
from vdse.errors import AnalysisError, GraphError, MalformedGraphError, ParseError
from vdse.export import ExportOptions, graph_to_dot, graph_to_json, paths_to_json, report_to_json
from vdse.graph import InstanceGraph
from vdse.schema import builtin_schema, type_graph_to_dot
from vdse.validate import validate

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_IO = 4


class _UsageError(ValueError):
    pass


class _Formatter(argparse.HelpFormatter):
    """Writes "-o FILE, --output FILE" as Python 3.11 does, not "-o, --output FILE"."""

    def _format_action_invocation(self, action):
        if not action.option_strings or action.nargs == 0:
            return super()._format_action_invocation(action)
        args = self._format_args(action, self._get_default_metavar_for_optional(action))
        return ", ".join(f"{option} {args}" for option in action.option_strings)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)

    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)

    def _check_value(self, action, value):  # 3.13 would list the choices unquoted
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {value!r} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vdse", description="Vehicle data-sharing scenario analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario against the type graph")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("paths", help="enumerate data-flow paths between two entities")
    p.add_argument("file")
    p.add_argument("--from", dest="source", required=True, metavar="ID")
    p.add_argument("--to", dest="sink", required=True, metavar="ID")
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_PATH_LEN)
    p.add_argument("--mode", choices=("strict", "lineage"), default="strict")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("exposure", help="report where a person's data can end up")
    p.add_argument("file")
    p.add_argument("--person", required=True, metavar="ID")
    p.add_argument("--max-len", type=int, default=DEFAULT_MAX_PATH_LEN)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("export", help="render a scenario as DOT or JSON")
    p.add_argument("file")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--show-packages", action="store_true")
    p.add_argument("--highlight", metavar="FROM:TO")
    p.add_argument("-o", "--output", metavar="FILE")

    p = sub.add_parser("schema", help="print the built-in type graph")
    p.add_argument("--format", choices=("text", "dot"), default="text")

    p = sub.add_parser("fmt", help="rewrite a scenario file in canonical form")
    p.add_argument("file")
    return parser


def _load(path: str) -> InstanceGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:  # read whole: exc.object holds the file's bytes
        raise _not_utf8(exc) from None
    return parse(text)


def _not_utf8(exc: UnicodeDecodeError) -> ParseError:
    """A ParseError at the first byte that is not UTF-8, at the line and
    column text mode reads it at (a lone CR ends a line too)."""
    head = exc.object[: exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    line, column = head.count("\n") + 1, len(head) - head.rfind("\n")
    byte = exc.object[exc.start]
    return ParseError(f"byte 0x{byte:02x} is not UTF-8 ({exc.reason})", line, column)


def _cmd_validate(args, stdout, stderr) -> int:
    report = validate(builtin_schema(), _load(args.file))
    if args.json:
        print(report_to_json(report), file=stdout)
    else:
        for violation in report.violations:  # errors sort first
            print(
                f"{violation.severity} {violation.code.value} {violation.subject}: "
                f"{violation.message}",
                file=stdout if violation.severity == "error" else stderr,
            )
        if report.violations:
            print(
                f"{report.scenario}: {len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s)",
                file=stdout,
            )
        else:
            print(f"{report.scenario}: OK", file=stdout)
    return EXIT_VALIDATION if report.errors else EXIT_OK


def _cmd_paths(args, stdout, stderr) -> int:
    graph = _load(args.file)
    results = enumerate_paths(
        graph, args.source, args.sink, max_len=args.max_len, mode=args.mode
    )
    if args.json:
        print(paths_to_json(results), file=stdout)
        return EXIT_OK
    for result in results:
        line = " -> ".join(result.flow_ids)
        if isinstance(result, LineageTrace):
            line += "  [" + " -> ".join(result.package_ids) + "]"
        print(line, file=stdout)
    return EXIT_OK


def _cmd_exposure(args, stdout, stderr) -> int:
    graph = _load(args.file)
    report = exposure_report(graph, args.person, max_len=args.max_len)
    if args.json:
        print(report_to_json(report), file=stdout)
        return EXIT_OK
    print(f"exposure report for {report.person} (scenario {graph.name})", file=stdout)
    for sink in report.sinks:
        marker = (
            " [privacy-preserving]"
            if graph.entities[sink.sink].privacy_preserving
            else ""
        )
        count = len(sink.paths)
        plural = "path" if count == 1 else "paths"
        print(f"sink {sink.sink} ({sink.sink_type}): {count} {plural}{marker}", file=stdout)
        for path in sink.paths:
            print("  " + " -> ".join(path.flow_ids), file=stdout)
        print("  packages: " + ", ".join(sink.packages), file=stdout)
    if report.aggregation_points:
        print("aggregation points:", file=stdout)
        for point in report.aggregation_points:
            print(f"  {point.entity}: {point.path_count} paths", file=stdout)
    return EXIT_OK


def _cmd_export(args, stdout, stderr) -> int:
    graph = _load(args.file)
    highlight = ()
    if args.highlight:
        if args.format != "dot":  # before the search, which may fail or find nothing
            raise _UsageError("--highlight is only valid with --format dot")
        source, _, sink = args.highlight.partition(":")
        if not source or not sink:
            raise _UsageError("--highlight expects FROM:TO")
        highlight = tuple(enumerate_paths(graph, source, sink))
    options = ExportOptions(
        format=args.format,
        show_packages=args.show_packages,
        highlight_paths=highlight,
    )
    rendered = graph_to_dot(graph, options) if args.format == "dot" else graph_to_json(graph)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(rendered if rendered.endswith("\n") else rendered + "\n")
    else:
        print(rendered, end="" if rendered.endswith("\n") else "\n", file=stdout)
    return EXIT_OK


def _cmd_schema(args, stdout, stderr) -> int:
    schema = builtin_schema()
    if args.format == "dot":
        print(type_graph_to_dot(schema), end="", file=stdout)
        return EXIT_OK
    print("entity types:", file=stdout)
    for etype in sorted(schema.entity_types, key=lambda t: t.code):
        print(f"  {etype.code:<4} {etype.display_name}", file=stdout)
    print("subclass edges:", file=stdout)
    for child in sorted(schema.subclass_parent, key=lambda t: t.code):
        print(f"  {child.code} -> {schema.subclass_parent[child].code}", file=stdout)
    print("semantic relations:", file=stdout)
    for name in sorted(schema.semantic_relations):
        relation = schema.semantic_relations[name]
        pairs = ", ".join(
            f"{src.code} -> {dst.code}"
            for src, dst in sorted(
                relation.endpoint_pairs, key=lambda p: (p[0].code, p[1].code)
            )
        )
        required = ""
        if relation.required_attributes:
            required = " (requires " + ", ".join(sorted(relation.required_attributes)) + ")"
        print(f"  {name}: {pairs}{required}", file=stdout)
    print("flow edge types:", file=stdout)
    for edge_id in sorted(schema.flow_edge_types, key=lambda e: int(e[1:])):
        edge = schema.flow_edge_types[edge_id]
        arrow = "<->" if edge.bidirectional else "->"
        print(
            f"  {edge.id:<4} {edge.source.code} {arrow} {edge.target.code}  "
            f"{edge.directionality}",
            file=stdout,
        )
    return EXIT_OK


def _cmd_fmt(args, stdout, stderr) -> int:
    text = serialize(_load(args.file))  # before opening, which truncates the file
    with open(args.file, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "paths": _cmd_paths,
    "exposure": _cmd_exposure,
    "export": _cmd_export,
    "schema": _cmd_schema,
    "fmt": _cmd_fmt,
}


def run(argv, stdout=None, stderr=None) -> int:
    """Execute one CLI invocation and return its exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, stdout, stderr)
    except ParseError as exc:
        print(f"parse error: {exc}", file=stderr)
        return EXIT_PARSE
    except (AnalysisError, GraphError, MalformedGraphError, ValueError) as exc:
        print(f"usage error: {exc}", file=stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=stderr)
        return EXIT_IO
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


def main() -> None:
    """Run the command in sys.argv and end the process with its exit code.

    The `vdse` script and `python -m vdse` end the process here, without
    interpreter teardown: the heap is frozen, the atexit handlers run once
    over it, stdout and then stderr are flushed, and os._exit ends the
    process. A stdout whose reader is gone exits EXIT_IO. vdse starts no
    threads, and every file a command opens is closed before run() returns,
    so teardown would have nothing left to do. Code that runs a command
    inside a longer-lived process calls run(argv, stdout, stderr), which
    leaves the collector and the process alone.
    """
    code = run(sys.argv[1:])
    # Teardown would free, module by module, what the OS frees at exit; a
    # frozen heap also keeps the collector off the imports' objects while
    # the exit handlers run.
    gc.freeze()
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:  # None when the process started without fd 1
            sys.stdout.flush()
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = EXIT_IO
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass
    os._exit(code)
