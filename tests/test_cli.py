"""Command-line behavior: exit codes, stream separation, determinism."""
from __future__ import annotations

import argparse
import gc
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import vdse
from conftest import one_package_chain
from test_analysis import dense_mesh
from test_dsl import round_trip_mutants, token_mutants
from vdse.analysis import DEFAULT_MAX_PATH_LEN, exposure_report
from vdse.cli import _UsageError, _build_parser, _read, run
from vdse.dsl import parse, serialize
from vdse.export import graph_to_dot, report_to_json
from vdse.scenarios import load_scenario, scenario_text
from vdse.schema import builtin_schema
from vdse.validate import validate

BROKEN = (
    'scenario "broken"\n'
    "entity car: V\n"
    "entity cam: TMS\n"
    "package DP16_1\n"
    "flow e16_1: E16 cam -> car package DP16_1\n"
)

LINTY = (
    'scenario "linty"\n'
    "entity cam: AVS\n"
    "entity owner: P\n"
    "package DP\n"
    "relation r: ownedBy cam -> owner\n"
    "flow f: E8 owner -> cam package DP\n"
)


def invoke(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    code = run(argv, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


@pytest.fixture
def uber_file(tmp_path):
    path = tmp_path / "uber.vdse"
    path.write_text(scenario_text("uber"), encoding="utf-8")
    return str(path)


@pytest.fixture
def speeding_file(tmp_path):
    path = tmp_path / "speeding.vdse"
    path.write_text(scenario_text("speeding"), encoding="utf-8")
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.vdse"
    path.write_text(BROKEN, encoding="utf-8")
    return str(path)


# -- validate -----------------------------------------------------------------


def test_validate_clean_scenario(uber_file):
    code, out, err = invoke(["validate", uber_file])
    assert code == 0
    assert out == "uber_dashcam: OK\n"
    assert err == ""


def test_validate_reports_errors_with_exit_1(broken_file):
    code, out, err = invoke(["validate", broken_file])
    assert code == 1
    assert "DIRECTION_VIOLATION" in out
    assert "broken: 1 error(s), 0 warning(s)" in out


def test_validate_warnings_go_to_stderr_and_exit_0(tmp_path):
    path = tmp_path / "linty.vdse"
    path.write_text(LINTY, encoding="utf-8")
    code, out, err = invoke(["validate", str(path)])
    assert code == 0
    assert "OWNERSHIP_LINT" in err
    assert "OWNERSHIP_LINT" not in out
    assert "0 error(s), 1 warning(s)" in out


def test_validate_reports_a_list_role_and_exits_1(tmp_path):
    path = tmp_path / "listed.vdse"
    path.write_text(
        'scenario "listed"\n'
        "entity d: P\n"
        "entity c: V\n"
        'relation r1: occupy d -> c {role = ["driver"]}\n',
        encoding="utf-8",
    )
    ran = _python_m_vdse("validate", str(path))
    assert ran.returncode == 1
    assert b"has invalid role ['driver']" in ran.stdout
    assert b"Traceback" not in ran.stdout + ran.stderr


def test_validate_json_document(broken_file):
    code, out, err = invoke(["validate", broken_file, "--json"])
    assert code == 1
    document = json.loads(out)
    assert document["scenario"] == "broken"
    assert document["violations"][0]["code"] == "DIRECTION_VIOLATION"


# -- paths ---------------------------------------------------------------------


def test_paths_human_output(speeding_file):
    code, out, err = invoke(
        ["paths", speeding_file, "--from", "driver", "--to", "insurer"]
    )
    assert code == 0
    assert out == (
        "e1_1 -> e20_2\n"
        "e1_1 -> e20_1 -> e21_4\n"
        "e1_1 -> e6_1 -> e9_1\n"
        "e1_1 -> e16_1 -> e17_1 -> e21_1 -> e21_2 -> e21_4\n"
    )


def test_paths_json_output(speeding_file):
    code, out, err = invoke(
        ["paths", speeding_file, "--from", "driver", "--to", "insurer", "--json"]
    )
    assert code == 0
    assert json.loads(out)[0] == ["e1_1", "e20_2"]


def test_paths_lineage_mode(uber_file):
    code, out, err = invoke(
        [
            "paths",
            uber_file,
            "--from",
            "driver",
            "--to",
            "uber",
            "--mode",
            "lineage",
            "--max-len",
            "3",
        ]
    )
    assert code == 0
    assert "e1_1 -> e2_1 -> e4_1  [DP1_1 -> DP2_1 -> DP4_1]" in out


def test_paths_no_results_prints_nothing(uber_file):
    code, out, err = invoke(
        ["paths", uber_file, "--from", "dashcam_cloud", "--to", "driver"]
    )
    assert code == 0
    assert out == ""


def test_paths_max_len_flag(speeding_file):
    code, out, err = invoke(
        ["paths", speeding_file, "--from", "driver", "--to", "insurer", "--max-len", "2"]
    )
    assert code == 0
    assert out == "e1_1 -> e20_2\n"


# -- exposure -------------------------------------------------------------------


def test_exposure_human_output(speeding_file):
    code, out, err = invoke(["exposure", speeding_file, "--person", "driver"])
    assert code == 0
    assert out.startswith("exposure report for driver (scenario speeding_incident)\n")
    assert "sink insurer (SP): 4 paths" in out
    assert "aggregation points:\n" in out
    assert "  insurer: 4 paths\n" in out


def test_exposure_json_output(uber_file):
    code, out, err = invoke(["exposure", uber_file, "--person", "passenger1", "--json"])
    assert code == 0
    document = json.loads(out)
    assert document["person"] == "passenger1"
    assert {"id": "uber", "path_count": 6} in document["aggregation_points"]


def test_exposure_marks_privacy_preserving_sinks(tmp_path):
    path = tmp_path / "pp.vdse"
    path.write_text(
        'scenario "pp"\n'
        "entity p: P\n"
        "entity cam: AVS {privacy_preserving = true}\n"
        "package DP\n"
        "flow f: E7 p -> cam package DP\n",
        encoding="utf-8",
    )
    code, out, err = invoke(["exposure", str(path), "--person", "p"])
    assert code == 0
    assert "sink cam (AVS): 1 path [privacy-preserving]" in out


def test_exposure_max_len_flag(speeding_file):
    graph = load_scenario("speeding")
    for limit in (1, 2, 3, DEFAULT_MAX_PATH_LEN):
        code, out, err = invoke(
            ["exposure", speeding_file, "--person", "driver", "--max-len", str(limit), "--json"]
        )
        assert code == 0
        assert out == report_to_json(exposure_report(graph, "driver", max_len=limit)) + "\n"
    default = invoke(["exposure", speeding_file, "--person", "driver"])
    explicit = ["exposure", speeding_file, "--person", "driver", "--max-len"]
    assert invoke(explicit + [str(DEFAULT_MAX_PATH_LEN)]) == default
    assert invoke(explicit + ["1"]) != default
    code, out, err = invoke(explicit + ["0"])
    assert code == 3
    assert out == ""


# -- deep searches --------------------------------------------------------------

CHAIN = 1500


@pytest.fixture(scope="module")
def chain_file(tmp_path_factory):
    """A serialized chain d0 -> d1 -> ... of CHAIN data aggregators."""
    path = tmp_path_factory.mktemp("chain") / "chain.vdse"
    path.write_text(serialize(one_package_chain(CHAIN)), encoding="utf-8")
    return str(path)


def test_strict_paths_on_a_long_chain(chain_file):
    code, out, err = invoke(
        ["paths", chain_file, "--from", "d0", "--to", f"d{CHAIN - 1}", "--max-len", "5000"]
    )
    assert (code, err) == (0, "")
    assert out == " -> ".join(f"f{i}" for i in range(CHAIN - 1)) + "\n"


def test_too_deep_lineage_search_is_a_usage_error(chain_file):
    code, out, err = invoke(
        ["paths", chain_file, "--from", "d0", "--to", f"d{CHAIN - 1}",
         "--max-len", "5000", "--mode", "lineage"]
    )
    assert (code, out) == (3, "")
    assert err == "usage error: search too deep for --max-len 5000\n"


def test_a_huge_max_len_stops_with_the_graph(speeding_file):
    # Each search stops once it runs out of graph, so a max_len far past
    # the longest path costs nothing.
    huge = "99999999999999999999"
    for command in (
        ["paths", speeding_file, "--from", "driver", "--to", "insurer"],
        ["paths", speeding_file, "--from", "driver", "--to", "insurer", "--mode", "lineage"],
        ["exposure", speeding_file, "--person", "driver"],
    ):
        done = _python_m_vdse(*command, "--max-len", huge)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == _python_m_vdse(*command, "--max-len", "100").stdout != b""


# -- export ---------------------------------------------------------------------


def test_export_dot_to_stdout(uber_file):
    code, out, err = invoke(["export", uber_file, "--format", "dot"])
    assert code == 0
    assert out.startswith('digraph "uber_dashcam" {')
    assert out.endswith("}\n")


def test_export_defaults_to_dot(uber_file):
    code, out, _ = invoke(["export", uber_file])
    assert code == 0
    assert out == invoke(["export", uber_file, "--format", "dot"])[1]


def test_export_json_to_file(uber_file, tmp_path):
    target = tmp_path / "out.json"
    code, out, err = invoke(
        ["export", uber_file, "--format", "json", "-o", str(target)]
    )
    assert code == 0
    assert out == ""
    document = json.loads(target.read_text(encoding="utf-8"))
    assert document["scenario"] == "uber_dashcam"


def test_export_file_matches_stdout(uber_file, tmp_path):
    target = tmp_path / "out.dot"
    code, streamed, _ = invoke(["export", uber_file, "--format", "dot"])
    invoke(["export", uber_file, "--format", "dot", "-o", str(target)])
    assert target.read_text(encoding="utf-8") == streamed


def test_export_highlight(uber_file):
    code, out, err = invoke(
        ["export", uber_file, "--format", "dot", "--highlight", "driver:dashcam_cloud"]
    )
    assert code == 0
    assert "color=red" in out


def test_export_highlight_requires_two_ids(uber_file):
    code, out, err = invoke(
        ["export", uber_file, "--format", "dot", "--highlight", "driver"]
    )
    assert code == 3
    assert "FROM:TO" in err


def test_export_highlight_rejected_for_json(uber_file):
    # Whether a route exists, none does, or an id is unknown, the flag is
    # refused before any search.
    for pair in ("driver:uber", "uber:driver", "ghost:uber"):
        code, out, err = invoke(["export", uber_file, "--format", "json", "--highlight", pair])
        assert (code, out) == (3, ""), pair
        assert "--highlight is only valid with --format dot" in err


# -- schema and fmt ---------------------------------------------------------------


def test_schema_text_listing():
    code, out, err = invoke(["schema"])
    assert code == 0
    assert out.startswith("entity types:\n")
    assert "  E16  V -> TMS  uni\n" in out
    assert "  occupy: P -> V (requires role)\n" in out
    assert "  G -> O\n" in out


def test_schema_dot():
    code, out, err = invoke(["schema", "--format", "dot"])
    assert code == 0
    assert out.startswith('digraph "entity_types" {')


def test_fmt_rewrites_and_is_idempotent(tmp_path):
    path = tmp_path / "messy.vdse"
    path.write_text(
        '# comment\nscenario "t"\nentity  b :  V\nentity a: P\n'
        "package d\nflow f: E1 a -> b package d\n",
        encoding="utf-8",
    )
    code, out, err = invoke(["fmt", str(path)])
    assert code == 0 and out == ""
    once = path.read_text(encoding="utf-8")
    assert once.startswith('scenario "t"\n\nentity a: P\nentity b: V\n')
    invoke(["fmt", str(path)])
    assert path.read_text(encoding="utf-8") == once


def test_fmt_leaves_unparseable_file_alone(tmp_path):
    path = tmp_path / "bad.vdse"
    path.write_text("not a scenario\n", encoding="utf-8")
    code, out, err = invoke(["fmt", str(path)])
    assert code == 2
    assert path.read_text(encoding="utf-8") == "not a scenario\n"


def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "latin.vdse"
    data = b'scenario "x"\n\xff\n'
    path.write_bytes(data)
    done = _python_m_vdse("validate", str(path))
    assert done.returncode == 2
    err = done.stderr.decode()
    assert "Traceback" not in err
    assert err.startswith("parse error: line 2, column 1: byte 0xff is not UTF-8")
    code, out, err = invoke(["fmt", str(path)])
    assert code == 2 and "line 2, column 1" in err
    assert path.read_bytes() == data


def test_fmt_leaves_unserializable_file_alone(tmp_path):
    # "x" may not be both a plain flow and the base of a pair.
    text = (
        'scenario "t"\nentity a: P\nentity b: DA\npackage p\n'
        "flow x: E2 a -> b package p\nflow x: E2 b <-> a package p\n"
    )
    path = tmp_path / "clash.vdse"
    path.write_bytes(text.encode("utf-8"))
    code, out, err = invoke(["fmt", str(path)])
    assert code == 2
    assert "line 6, column 6: flow id 'x' already declared" in err
    assert path.read_bytes() == text.encode("utf-8")


def _child_env():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(vdse.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _python(*args):
    return subprocess.run([sys.executable, *args], capture_output=True, env=_child_env(), timeout=60)


def _python_m_vdse(*args):
    return _python("-m", "vdse", *args)


def test_cold_import_of_the_cli_loads_no_heavy_modules():
    # dataclasses (with inspect, ast, dis and tokenize) and json cost every
    # command several milliseconds of start-up.
    done = _python(
        "-c",
        "import sys; before = set(sys.modules); import vdse.cli; "
        "print(*sorted(set(sys.modules) - before))",
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.decode().split())
    assert "vdse.cli" in loaded
    assert not loaded & {"dataclasses", "heapq", "inspect", "json"}


def test_the_process_entry_ends_as_run_returns(tmp_path, uber_file, broken_file, monkeypatch, capsys):
    # `python -m vdse` gives what run() gives in process, for each exit code
    # and for more output than a pipe holds. main() freezes the heap before
    # the process exits, and run() never does.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
    mesh = tmp_path / "mesh.vdse"
    mesh.write_text(serialize(dense_mesh(7)), encoding="utf-8")
    unparsable = tmp_path / "bad.vdse"
    unparsable.write_text('scenario "a"\nentity x: ZZ\n', encoding="utf-8")
    argvs = [
        ["schema"],
        ["exposure", str(mesh), "--person", "p"],  # about 150 KB
        ["validate", broken_file],
        ["validate", str(unparsable)],
        ["paths", uber_file, "--from", "driver", "--to", "driver"],
        ["nonsense"],
        ["validate", str(tmp_path / "missing.vdse")],
    ]
    frozen = gc.get_freeze_count()
    given = []
    for argv in argvs:
        code = run(argv)
        out, err = capsys.readouterr()
        given.append((code, out.encode(), err))
        done = _python_m_vdse(*argv)
        assert (done.returncode, done.stdout, done.stderr.decode()) == given[-1], argv
    assert gc.get_freeze_count() == frozen
    assert {code for code, _, _ in given} == {0, 1, 2, 3, 4}
    assert len(given[1][1]) > 65536  # more than a Linux pipe buffer
    hooked = _python(
        "-c",
        "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count() > 0, gc.isenabled())); "
        "from vdse.cli import main; main()",
        "schema",
    )
    assert (hooked.returncode, hooked.stdout) == (0, given[0][1] + b"True False\n")


@pytest.mark.parametrize("enabled", [True, False])
def test_run_leaves_the_collector_as_it_found_it(enabled, uber_file):
    # main() turns the cyclic collector off for the life of the process;
    # run(), which a longer-lived process calls, must not touch it.
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for argv in (["paths", uber_file, "--from", "driver", "--to", "uber"], ["nonsense"], ["fmt", "-h"]):
            invoke(argv)
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()


HOOKED_MAIN = (
    "import atexit, sys\n"
    "def hook(name):\n"
    "    print(name)\n"
    "    print(name, file=sys.stderr)\n"
    "atexit.register(hook, 'first')\n"
    "atexit.register(hook, 'second')\n"
    "from vdse.cli import main\n"
    "main()\n"
)


def test_the_process_entry_runs_each_exit_handler_once_after_the_output(broken_file):
    # main() ends the process with os._exit, so it runs the exit handlers
    # itself: once each, last registered first, before the final flush.
    for argv, code in ((["schema"], 0), (["validate", broken_file], 1)):
        _, out, err = invoke(argv)
        done = _python("-c", HOOKED_MAIN, *argv)
        assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == (
            code, out + "second\nfirst\n", err + "second\nfirst\n"
        ), argv


def test_the_process_entry_writes_whole_files(tmp_path):
    # Larger than a file's write buffer, so bytes left in it would show.
    graph = dense_mesh(24)
    canonical = serialize(graph)
    messy = tmp_path / "mesh.vdse"
    messy.write_text(canonical.replace(" <-> ", "  <->  "), encoding="utf-8")
    dot = tmp_path / "mesh.dot"
    done = _python_m_vdse("export", str(messy), "-o", str(dot))
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert dot.read_bytes() == graph_to_dot(graph).encode("utf-8")
    done = _python_m_vdse("fmt", str(messy))
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert messy.read_bytes() == canonical.encode("utf-8")
    assert min(len(canonical), len(graph_to_dot(graph))) > 8192


def test_no_command_leaves_a_file_open(tmp_path, uber_file, broken_file):
    # A handle still open when main() calls os._exit would lose the bytes
    # in its buffer; under -X dev, collecting one warns.
    not_utf8 = tmp_path / "latin1.vdse"
    not_utf8.write_bytes('scenario "caf\xe9"\n'.encode("latin-1"))
    fmt_file = tmp_path / "fmt.vdse"
    fmt_file.write_text(scenario_text("speeding"), encoding="utf-8")
    argvs = [
        ["validate", uber_file],
        ["validate", broken_file, "--json"],
        ["validate", str(not_utf8)],
        ["validate", str(tmp_path / "missing.vdse")],
        ["paths", uber_file, "--from", "driver", "--to", "uber"],
        ["paths", uber_file, "--from", "driver", "--to", "uber", "--mode", "lineage", "--json"],
        ["exposure", uber_file, "--person", "passenger1"],
        ["exposure", uber_file, "--person", "passenger1", "--json"],
        ["export", uber_file, "--highlight", "driver:uber"],
        ["export", uber_file, "--format", "json", "-o", str(tmp_path / "uber.json")],
        ["schema"],
        ["schema", "--format", "dot"],
        ["fmt", str(fmt_file)],
    ]
    codes = set()
    for argv in argvs:
        done = _python(
            "-X", "dev", "-c",
            "import gc, sys; from vdse.cli import run; "
            "c = run(sys.argv[1:]); gc.collect(); sys.exit(c)",
            *argv,
        )
        assert "ResourceWarning" not in done.stderr.decode(), argv
        codes.add(done.returncode)
    assert codes == {0, 1, 2, 4}


def test_an_unwritable_stdout_exits_4(tmp_path):
    mesh = tmp_path / "mesh.vdse"
    mesh.write_text(serialize(dense_mesh(7)), encoding="utf-8")
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as by default
    # schema fits in the buffer and fails at the final flush; exposure fills
    # a pipe and fails inside run().
    for argv in (["schema"], ["exposure", str(mesh), "--person", "p"]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "vdse", *argv],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (4, b"i/o error: [Errno 32] Broken pipe\n"), argv
    # Started with fd 1 closed, the process has no sys.stdout to write to.
    done = subprocess.run(
        ["sh", "-c", '"$@" >&-', "sh", sys.executable, "-m", "vdse", "schema"],
        capture_output=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")


# -- exit codes and streams --------------------------------------------------------


def test_parse_error_exit_2(tmp_path):
    path = tmp_path / "bad.vdse"
    path.write_text('scenario "a"\nentity x: ZZ\n', encoding="utf-8")
    code, out, err = invoke(["validate", str(path)])
    assert code == 2
    assert out == ""
    assert "line 2, column 11" in err


def test_usage_error_exit_3(uber_file):
    code, out, err = invoke(["paths", uber_file, "--from", "driver", "--to", "driver"])
    assert code == 3
    assert "driver" in err
    code, out, err = invoke(["paths", uber_file, "--from", "ghost", "--to", "uber"])
    assert code == 3
    code, out, err = invoke(["nonsense"])
    assert code == 3
    code, out, err = invoke(["paths", uber_file, "--from", "driver"])
    assert code == 3


# Every help text and one usage error per command, with `vdse --help`,
# `vdse` alone and an unknown command. Help goes to sys.stdout, the rest to
# run's streams.
SUBCOMMANDS = ("validate", "paths", "exposure", "export", "schema", "fmt")
USAGE_ARGVS = [
    [],
    ["--help"],
    ["nonsense"],
    *([name, "--help"] for name in SUBCOMMANDS),
    ["validate"],
    ["paths", "s.vdse", "--from", "a"],
    ["exposure", "s.vdse", "--max-len", "x", "--person", "a"],
    ["export", "s.vdse", "--format", "svg"],
    ["schema", "--bogus"],
    ["fmt", "a.vdse", "b.vdse"],
]
USAGE_TRANSCRIPT = Path(__file__).parent / "canonical" / "cli_usage.txt"


def test_help_and_usage_errors_are_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    transcript = []
    for argv in USAGE_ARGVS:
        code, out, err = invoke(argv)
        printed = capsys.readouterr()
        transcript.append(
            f"$ vdse {' '.join(argv)}\nexit {code}\n"
            f"--- stdout\n{printed.out}{out}--- stderr\n{printed.err}{err}"
        )
    assert "".join(transcript) == USAGE_TRANSCRIPT.read_text(encoding="utf-8")


PASSING_ARGVS = [
    ["validate", "s.vdse", "--json"],
    ["paths", "s.vdse", "--to", "b", "--from", "a", "--max-len", "3", "--mode", "lineage"],
    ["exposure", "s.vdse", "--person", "a", "--max-len", "2", "--json"],
    ["export", "s.vdse", "--format", "dot", "--show-packages", "--highlight", "a:b", "-o", "x"],
    ["schema", "--format", "dot"],
    ["fmt", "a.vdse"],
]
ACTION_FIELDS = ("option_strings", "dest", "default", "type", "choices", "required", "metavar", "nargs")


def subparsers(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def action_fields(parser) -> list:
    return [[getattr(action, field) for field in ACTION_FIELDS] for action in parser._actions]


def test_a_subcommand_alone_parses_as_in_the_full_parser(monkeypatch, capsys):
    # run builds only the named subcommand's parser; it must read every argv
    # as the parser with all six does, help and usage errors included.
    monkeypatch.setenv("COLUMNS", "80")
    full = _build_parser()
    assert tuple(subparsers(full)) == SUBCOMMANDS

    def outcome(parser, argv):
        try:
            return parser.parse_args(argv)
        except _UsageError as exc:
            return "usage error", str(exc)
        except SystemExit as exc:  # --help
            return exc.code, capsys.readouterr()

    for name in SUBCOMMANDS:
        alone = _build_parser(name)
        assert list(subparsers(alone)) == [name]
        mine, theirs = subparsers(alone)[name], subparsers(full)[name]
        assert mine.format_help() == theirs.format_help()
        assert action_fields(mine) == action_fields(theirs)
        argvs = [argv for argv in USAGE_ARGVS + PASSING_ARGVS if argv[:1] == [name]]
        assert len(argvs) == 3  # its help, its usage error and one that parses
        for argv in argvs:
            assert outcome(alone, argv) == outcome(full, argv), argv
        assert isinstance(outcome(alone, argvs[-1]), argparse.Namespace)


def readme_synopsis() -> list:
    with open(README, encoding="utf-8") as handle:
        return re.search(r"## CLI\n\n```\n(.*?)```", handle.read(), re.S)[1].splitlines()


def documented_argvs(file: str) -> list:
    """Each README synopsis form, with every subset of its optional groups
    and each choice of a choice value. The placeholders are filled so that
    each command runs on the uber scenario in FILE; the two IDs of `paths`
    are taken in turn."""
    argvs = []
    for line in readme_synopsis():
        ids = iter(["driver", "uber"])
        filled = {"FILE": [file], "N": ["3"], "FROM:TO": ["driver:uber"], "OUT": ["out.dot"]}

        def values(word):
            return [next(ids)] if word == "ID" else filled.get(word) or word.split("|")

        slots = []
        for word in re.findall(r"\[[^]]*\]|\S+", line):
            if word[0] == "[":
                flag, *rest = word[1:-1].split()
                slots.append([[]] + [[flag, *v] for v in itertools.product(*map(values, rest))])
            else:
                slots.append([[value] for value in values(word)])
        argvs += [list(itertools.chain(*choice))[1:] for choice in itertools.product(*slots)]
    return argvs


# The argv shapes of the benchmark's `cli` workload.
WORKLOAD_ARGVS = [
    ["validate", "u.vdse"],
    ["validate", "u.vdse", "--json"],
    ["paths", "u.vdse", "--from", "driver", "--to", "uber"],
    ["paths", "u.vdse", "--from", "driver", "--to", "uber", "--mode", "lineage"],
    ["exposure", "u.vdse", "--person", "driver"],
    ["exposure", "u.vdse", "--person", "driver", "--json"],
    ["exposure", "u.vdse", "--person", "driver", "--max-len", "4"],
    ["export", "u.vdse", "--highlight", "driver:uber"],
    ["export", "u.vdse", "--format", "json", "--show-packages"],
    ["fmt", "u.vdse"],
]
# Tokens at the edges of the reader's rules: help, `--`, `-`, an attached
# value, an abbreviation, a negative number, values int() reads loosely,
# an empty token and one that is not a str.
ODD_TOKENS = ["-h", "--", "-", "--max-len=3", "--max", "-oX", "-3", " 4", "\u0663", "", 7]
VALUES = ["s.vdse", "a", "b", "a:b", "3", "0", "strict", "lineage", "dot", "json", "text"]


def random_argvs(rng, count):
    """argvs of a command and up to a dozen tokens. Half start from what the
    command requires (its FILE and required options, each with a value);
    random tokens are put among these, and an option that takes a value is
    mostly followed by a plain one, so many argvs are near the forms the
    reader takes."""
    units, required = {}, {}
    for name, parser in subparsers(_build_parser()).items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        units[name] = [(a.option_strings, a.nargs != 0) for a in actions if a.option_strings]
        required[name] = [a.option_strings or [None] for a in actions if a.required]
    every = sorted({flag for flags in units.values() for f, _ in flags for flag in f}) + ODD_TOKENS + VALUES
    for _ in range(count):
        name = rng.choice(SUBCOMMANDS + SUBCOMMANDS + ("nonsense", "pat", "-h", 5))
        argv = []
        if name in required and rng.random() < 0.5:
            argv = [[rng.choice(VALUES)] if flags == [None] else [rng.choice(flags), rng.choice(VALUES)]
                    for flags in required[name]]
        while len(argv) < 8 and rng.random() < 0.8:
            draw = rng.random()
            if draw < 0.5 and units.get(name):
                flags, takes_value = rng.choice(units[name])
                unit = [rng.choice(flags)]
                if takes_value and rng.random() < 0.85:
                    unit.append(rng.choice(VALUES))
            else:
                unit = [rng.choice(VALUES if draw < 0.7 else every)]
            argv.insert(rng.randint(0, len(argv)), unit)
        yield [name, *itertools.chain.from_iterable(argv)]


def test_the_reader_agrees_with_argparse():
    # Every argv the reader takes, argparse takes too, with the same
    # attributes of the same types; the rest go to argparse in run().
    parsers = {name: _build_parser(name) for name in SUBCOMMANDS}
    corpus = documented_argvs("s.vdse") + WORKLOAD_ARGVS + USAGE_ARGVS + PASSING_ARGVS
    taken = Counter()
    for argv in [*corpus, *random_argvs(random.Random(33), 100_000)]:
        ours = _read(argv)
        if ours is None:
            continue
        taken[argv[0]] += 1
        try:
            theirs = vars(parsers[argv[0]].parse_args(argv))
        except (_UsageError, SystemExit) as exc:
            pytest.fail(f"argparse refuses {argv!r} ({exc!r}), which the reader took")
        assert vars(ours) == theirs, argv
        assert {k: type(v) for k, v in vars(ours).items()} == {k: type(v) for k, v in theirs.items()}
    assert min(taken[name] for name in SUBCOMMANDS) > 1000, taken


def test_the_documented_forms_run_without_argparse(tmp_path, monkeypatch):
    uber = tmp_path / "uber.vdse"
    uber.write_text(scenario_text("uber"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)  # -o OUT writes here
    argvs = documented_argvs(str(uber))
    assert len(argvs) == 2 + 3 * 2 * 2 + 2 * 2 + 3 * 2 * 2 * 2 + 3 + 1
    for argv in argvs + WORKLOAD_ARGVS:
        assert _read(argv) is not None, argv
    script = (
        "import json, sys; from vdse.cli import run\n"
        "codes = [run(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(codes, 'argparse' in sys.modules, 'gettext' in sys.modules, file=sys.stderr)\n"
    )
    done = _python("-c", script, json.dumps(argvs))
    # export refuses --highlight with --format json itself, as a usage error.
    codes = [3 if {"json", "--highlight"} <= set(argv) else 0 for argv in argvs]
    assert codes.count(3) == 4
    assert done.stderr.decode().splitlines()[-1] == f"{codes} False False"
    hooked = _python(
        "-c",
        "import atexit, gc, sys; "
        "atexit.register(lambda: print('argparse' in sys.modules, 'gettext' in sys.modules, gc.isenabled())); "
        "from vdse.cli import main; main()",
        "paths", str(uber), "--from", "driver", "--to", "uber",
    )
    assert hooked.returncode == 0, hooked.stderr
    assert hooked.stdout.decode().splitlines()[-1] == "False False False"
    # An abbreviation and an attached value are argparse's to read.
    plain = invoke(["paths", str(uber), "--from", "driver", "--to", "uber", "--max-len", "3"])
    for spelled in (["--max", "3"], ["--max-len=3"]):
        argv = ["paths", str(uber), "--from", "driver", "--to", "uber", *spelled]
        assert _read(argv) is None
        assert invoke(argv) == plain
    assert plain[0] == 0 and plain[1]


def test_io_error_exit_4(tmp_path):
    code, out, err = invoke(["validate", str(tmp_path / "missing.vdse")])
    assert code == 4
    assert "i/o error" in err


def test_results_streams_are_byte_identical_across_runs(uber_file, speeding_file):
    commands = [
        ["validate", uber_file, "--json"],
        ["paths", speeding_file, "--from", "driver", "--to", "insurer"],
        ["paths", uber_file, "--from", "driver", "--to", "uber", "--json"],
        ["exposure", uber_file, "--person", "passenger1", "--json"],
        ["export", uber_file, "--format", "dot", "--show-packages"],
        ["export", speeding_file, "--format", "json"],
        ["schema"],
        ["schema", "--format", "dot"],
    ]
    for argv in commands:
        first = invoke(argv)
        second = invoke(argv)
        assert first == second
        assert first[0] == 0


def test_json_flag_matches_export_documents(uber_file):
    from vdse.export import graph_to_json, paths_to_json, report_to_json
    from vdse.analysis import enumerate_paths, exposure_report
    from vdse.schema import builtin_schema
    from vdse.scenarios import load_scenario
    from vdse.validate import validate

    graph = load_scenario("uber")
    _, out, _ = invoke(["validate", uber_file, "--json"])
    assert out == report_to_json(validate(builtin_schema(), graph)) + "\n"
    _, out, _ = invoke(["paths", uber_file, "--from", "driver", "--to", "uber", "--json"])
    assert out == paths_to_json(enumerate_paths(graph, "driver", "uber")) + "\n"
    _, out, _ = invoke(["exposure", uber_file, "--person", "driver", "--json"])
    assert out == report_to_json(exposure_report(graph, "driver")) + "\n"
    _, out, _ = invoke(["export", uber_file, "--format", "json"])
    assert out == graph_to_json(graph) + "\n"


README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


MAX_LENS = ("1", "3", "0", "-1", "abc")


def test_every_subcommand_keeps_the_exit_contract_on_mutated_scenarios(tmp_path):
    # A fixed sample of mutants of both bundled scenarios through every
    # subcommand: each run exits 0-4 and prints no traceback. An exception
    # that run does not handle fails the test where it is raised.
    rng = random.Random(16)
    codes = Counter()
    for name in ("uber", "speeding"):
        document = scenario_text(name)
        graph = load_scenario(name)
        ids = sorted(graph.entities)
        persons = [i for i in ids if graph.entities[i].entity_type.code == "P"]
        mutants = [*round_trip_mutants(rng, document, 40), *token_mutants(rng, document, 40)]
        for n, text in enumerate(mutants):
            path = tmp_path / f"{name}_{n}.vdse"
            path.write_text(text, encoding="utf-8")
            file, max_len = str(path), MAX_LENS[n % len(MAX_LENS)]
            source, sink = rng.sample(ids, 2)
            person = rng.choice(persons)
            for argv in (
                ["validate", file],
                ["validate", file, "--json"],
                ["paths", file, "--from", source, "--to", sink, "--max-len", max_len],
                ["paths", file, "--from", source, "--to", sink, "--max-len", max_len,
                 "--mode", "lineage", "--json"],
                ["exposure", file, "--person", person, "--max-len", max_len],
                ["exposure", file, "--person", person, "--max-len", max_len, "--json"],
                ["export", file, "--highlight", f"{source}:{sink}"],
                ["export", file, "--format", "json", "--show-packages"],
                ["schema", "--format", ("text", "dot")[n % 2]],
                ["fmt", file],  # last: it rewrites the file
            ):
                code, _, stderr = invoke(argv)
                assert 0 <= code <= 4 and "Traceback" not in stderr, (argv, stderr)
                codes[code] += 1
    assert {0, 1, 2, 3} <= set(codes), codes


def test_readme_scenario_file_example_parses_and_validates():
    with open(README, encoding="utf-8") as handle:
        block = re.search(r"## Scenario files\n.*?```\n(.*?)```", handle.read(), re.S)[1]
    graph = parse(block)
    assert validate(builtin_schema(), graph).ok
    assert sorted(graph.flows) == ["e1_1", "e2_1.fwd", "e2_1.rev"]


def test_readme_cli_block_matches_parser():
    documented = {}
    for line in readme_synopsis():
        words = line.split()
        assert words[0] == "vdse", line
        documented[words[1]] = set(re.findall(r"(?<![\w-])(--?[a-z][a-z-]*)", line))
    choices = subparsers(_build_parser())
    assert set(documented) == set(choices)
    for name, parser in choices.items():
        options = [
            set(action.option_strings)
            for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
        ]
        assert documented[name] <= set().union(*options), name
        assert all(documented[name] & flags for flags in options), name
