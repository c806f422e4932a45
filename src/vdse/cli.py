"""Command-line interface.

Exit codes: 0 success, 1 validation errors, 2 parse error, 3 usage error,
4 I/O error. Results go to stdout and are byte-identical across runs;
diagnostics and warnings go to stderr.

Every subcommand's arguments are declared once, in _SUBCOMMANDS, and two
readers are built from it. `run` refuses an argv that is not a list of
str, as a usage error; then it tries `_read`, which takes an argv
only when its first token is exactly one of the six names and each later
token is exactly one of that subcommand's option strings, a value after a
value option, or the one FILE; a value does not start with "-", an int
value converts with int(), a choice is one of its choices, and every
required option is given. That covers each documented command form without
importing argparse. Only the other argvs (help, `--opt=value`,
abbreviations, `--`, `-`, negative numbers, repeated positionals, every
usage error) reach argparse, the only writer of help and error text:
`_build_parser` builds its one parser, with all six subcommands.
"""
from __future__ import annotations

import atexit
import gc
import os
import sys
from types import SimpleNamespace

from vdse.analysis import DEFAULT_MAX_PATH_LEN, LineageTrace, enumerate_paths, exposure_report
from vdse.dsl import parse, serialize
from vdse.errors import AnalysisError, GraphError, MalformedGraphError, ParseError
from vdse.export import ExportOptions, graph_to_dot, graph_to_json, paths_to_json, report_to_json
from vdse.graph import InstanceGraph
from vdse.schema import _shown, builtin_schema, type_graph_to_dot
from vdse.validate import validate

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_IO = 4


class _UsageError(ValueError):
    pass


# Each subcommand, in `vdse --help` order: its help, whether it takes FILE,
# and its options in `--help` order as (flags, dest, kind, default,
# required, metavar). kind is "flag" (store_true), int, a tuple of choices,
# or None for text.
_SUBCOMMANDS = {
    "validate": ("check a scenario against the type graph", True, (
        (("--json",), "json", "flag", False, False, None),
    )),
    "paths": ("enumerate data-flow paths between two entities", True, (
        (("--from",), "source", None, None, True, "ID"),
        (("--to",), "sink", None, None, True, "ID"),
        (("--max-len",), "max_len", int, DEFAULT_MAX_PATH_LEN, False, None),
        (("--mode",), "mode", ("strict", "lineage"), "strict", False, None),
        (("--json",), "json", "flag", False, False, None),
    )),
    "exposure": ("report where a person's data can end up", True, (
        (("--person",), "person", None, None, True, "ID"),
        (("--max-len",), "max_len", int, DEFAULT_MAX_PATH_LEN, False, None),
        (("--json",), "json", "flag", False, False, None),
    )),
    "export": ("render a scenario as DOT or JSON", True, (
        (("--format",), "format", ("dot", "json"), "dot", False, None),
        (("--show-packages",), "show_packages", "flag", False, False, None),
        (("--highlight",), "highlight", None, None, False, "FROM:TO"),
        (("-o", "--output"), "output", None, None, False, "FILE"),
    )),
    "schema": ("print the built-in type graph", False, (
        (("--format",), "format", ("text", "dot"), "text", False, None),
    )),
    "fmt": ("rewrite a scenario file in canonical form", True, ()),
}
_NAMES = tuple(_SUBCOMMANDS)


def _read(argv: list) -> SimpleNamespace | None:
    """The namespace argparse makes of argv, when argv has the plain form
    the module docstring gives; None otherwise, for argparse to read."""
    # A tuple, not the dict: an unhashable argv[0] must not raise. run()
    # refuses a token that is not a str; a direct caller gets None for one.
    if not argv or argv[0] not in _NAMES or not all(isinstance(t, str) for t in argv):
        return None
    _, takes_file, options = _SUBCOMMANDS[argv[0]]
    by_flag = {flag: option for option in options for flag in option[0]}
    values = {"command": argv[0]}
    values.update((dest, default) for _, dest, _, default, _, _ in options)
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        option = by_flag.get(token)
        if option is None:  # the one FILE
            if token.startswith("-") or not takes_file or "file" in values:
                return None
            values["file"] = token
            continue
        _, dest, kind, _, _, _ = option
        value = True
        if kind != "flag":
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            elif kind is not None and value not in kind:
                return None
        values[dest] = value
        given.add(dest)
    if takes_file and "file" not in values:
        return None
    if any(required and dest not in given for _, dest, _, _, required, _ in options):
        return None
    return SimpleNamespace(**values)


def _build_parser():
    """The argparse parser for `vdse`, with all six subcommands. Only help,
    usage errors and the forms _read leaves to it reach it."""
    import argparse

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

    parser = _Parser(prog="vdse", description="Vehicle data-sharing scenario analysis")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, takes_file, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if takes_file:
            p.add_argument("file")
        for flags, dest, kind, default, required, metavar in options:
            if kind == "flag":
                p.add_argument(*flags, dest=dest, action="store_true")
            else:
                p.add_argument(
                    *flags,
                    dest=dest,
                    type=int if kind is int else None,
                    choices=kind if isinstance(kind, tuple) else None,
                    default=default,
                    required=required,
                    metavar=metavar,
                )
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
    try:
        if argv is None:
            argv = sys.argv[1:]
        elif isinstance(argv, (str, bytes)) or not hasattr(argv, "__iter__"):
            raise _UsageError(f"argv must be a list of strings, not {_shown(argv)}")
        argv = list(argv)
        for token in argv:  # before either reader: argparse and open() assume str
            if not isinstance(token, str):
                raise _UsageError(f"argument {_shown(token)} is not a string")
        args = _read(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
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
    so teardown would have nothing left to do. The command runs with the
    cyclic collector off: queries make no reference cycles, and a collector
    pass over a large result list (hundreds of thousands of lineage traces)
    is pure cost. Code that runs a command inside a longer-lived process
    calls run(argv, stdout, stderr), which leaves the collector and the
    process alone.
    """
    gc.disable()
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
