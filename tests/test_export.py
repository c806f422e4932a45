"""DOT and JSON rendering: pinned shapes, determinism, option handling."""
from __future__ import annotations

import gc
import hashlib
import json
import tracemalloc
from collections import UserList
from types import MappingProxyType, SimpleNamespace

import pytest

from conftest import build_random_graph, hand_set, hand_set_graphs, rekey, under_hash_seeds
from vdse.analysis import (
    AggregationPoint,
    ExposureReport,
    LineageTrace,
    Path,
    SinkExposure,
    enumerate_paths,
    exposure_report,
)
from vdse.errors import MalformedGraphError
from vdse.export import (
    ExportOptions,
    graph_to_dot,
    graph_to_json,
    paths_to_json,
    report_to_json,
)
from vdse.dsl import serialize
from vdse.graph import (
    DataPackage,
    EntityInstance,
    FlowInstance,
    SemanticRelationInstance,
    new_scenario,
)
from vdse.scenarios import load_scenario
from vdse.schema import EntityType, builtin_schema
from vdse.validate import (
    ValidationReport,
    Violation,
    ViolationCode,
    check_references,
    validate,
)


def tiny_graph():
    graph = new_scenario("x").add_entity("a", "P").add_entity("b", "V")
    graph.add_flow("f", "E1", "a", "b", DataPackage("d", "desc", ["i1"]))
    return graph


def test_export_options_validation():
    assert ExportOptions().format == "dot"
    with pytest.raises(ValueError):
        ExportOptions(format="svg")
    with pytest.raises(ValueError):
        ExportOptions(format="json", highlight_paths=(object(),))


def test_graph_to_json_compact_shape():
    assert graph_to_json(tiny_graph()) == (
        '{"scenario":"x",'
        '"entities":[{"id":"a","type":"P","attributes":{}},'
        '{"id":"b","type":"V","attributes":{}}],'
        '"packages":[{"id":"d","description":"desc","items":["i1"],"derives_from":[]}],'
        '"relations":[],'
        '"flows":[{"id":"f","edge_type":"E1","source":"a","target":"b","package":"d"}]}'
    )


def test_graph_to_json_pretty_is_indented_and_equivalent():
    compact = graph_to_json(tiny_graph())
    pretty = graph_to_json(tiny_graph(), pretty=True)
    assert pretty.endswith("\n") and "\n  " in pretty
    assert json.loads(pretty) == json.loads(compact)


def test_graph_to_json_sorted_by_id(uber_graph):
    document = json.loads(graph_to_json(uber_graph))
    for section in ("entities", "packages", "relations", "flows"):
        ids = [item["id"] for item in document[section]]
        assert ids == sorted(ids)
    assert document["scenario"] == "uber_dashcam"
    assert len(document["flows"]) == 15  # e3_1 contributes .fwd and .rev


def test_validation_report_json(schema):
    report = validate(schema, tiny_graph())
    assert report_to_json(report) == '{"scenario":"x","violations":[]}'
    graph = tiny_graph()
    graph.flows["g"] = FlowInstance("g", "E1", "b", "a", "d")
    document = json.loads(report_to_json(validate(schema, graph)))
    assert document["violations"] == [
        {
            "code": "DIRECTION_VIOLATION",
            "severity": "error",
            "subject": "g",
            "message": "uni-directional E1 (P -> V) used in reverse",
        }
    ]


def test_exposure_report_json(uber_graph):
    document = json.loads(report_to_json(exposure_report(uber_graph, "passenger2")))
    assert document["person"] == "passenger2"
    assert [s["id"] for s in document["sinks"]] == sorted(
        s["id"] for s in document["sinks"]
    )
    dashcam = next(s for s in document["sinks"] if s["id"] == "dashcam")
    assert dashcam == {
        "id": "dashcam",
        "type": "AVS",
        "paths": [["e7_2"]],
        "packages": ["DP7_2"],
    }
    assert {"id": "uber", "path_count": 4} in document["aggregation_points"]


def test_report_to_json_rejects_other_types():
    with pytest.raises(TypeError):
        report_to_json({"not": "a report"})


def test_paths_to_json_shapes(uber_graph):
    strict = paths_to_json(enumerate_paths(uber_graph, "driver", "dashcam_cloud"))
    assert strict == '[["e7_1","e9_1"]]'
    lineage = paths_to_json(
        enumerate_paths(uber_graph, "driver", "uber", max_len=2, mode="lineage")
    )
    assert lineage == '[{"flows":["e2_1","e4_1"],"packages":["DP2_1","DP4_1"]}]'
    assert paths_to_json([]) == "[]"


def paths_document_json(results: list, pretty: bool = False) -> str:
    """Path results as one json.dumps of the documented shape: the text
    paths_to_json must write, byte for byte, or the error it must raise."""
    document = []
    for result in results:
        if isinstance(result, Path):
            document.append(result.flow_ids)
        elif isinstance(result, LineageTrace):
            document.append({"flows": result.flow_ids, "packages": result.package_ids})
        else:
            raise TypeError(f"unsupported result type {type(result).__name__}")
    if pretty:
        return json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    return json.dumps(document, separators=(",", ":"), ensure_ascii=False)


class SubPath(Path):
    pass


class SubStr(str):
    pass


class Liar(str):
    """Text that hashes like "a" and equals every id: a check over distinct
    ids would see it as "a"."""

    def __hash__(self):
        return hash("a")

    def __eq__(self, other):
        return True


def bundled_results(mode: str) -> list:
    graph = load_scenario("uber")
    pairs = (("driver", "uber"), ("passenger1", "uber"), ("driver", "dashcam_cloud"))
    return [r for a, b in pairs for r in enumerate_paths(graph, a, b, mode=mode)]


PATHS_JSON_ROWS = {
    "strict": lambda: bundled_results("strict"),
    "lineage": lambda: bundled_results("lineage"),
    "mixed": lambda: [
        r for pair in zip(bundled_results("strict"), bundled_results("lineage")) for r in pair
    ] + bundled_results("lineage")[:3],
    "empty": lambda: [],
    "integer_ids": lambda: [Path((1, 2), ("a", "b", "c")), LineageTrace((1, 2), ("p", "q"))],
    # 1 == True, but JSON writes them apart: a memo keyed by value must not
    # hand one the other's text.
    "true_next_to_one": lambda: [
        LineageTrace((True, 1), (True, 1)),
        LineageTrace((1, True), (1, True)),
        LineageTrace(("f",), (1,)),
        LineageTrace(("g",), (True,)),
    ],
    "non_ascii_and_control_characters": lambda: [
        LineageTrace(("flöw", "流", "a\nb", "\x01\x1f", '"q"\\', "\u2028"), ("päck",) * 6),
        Path(("é\t",), ("a", "b")),
    ],
    "path_subclass": lambda: [
        SubPath(("f",), ("a", "b")), Path(("g",), ("a", "b")), SubPath(("h",), ("a", "b"))
    ],
    "list_valued_id": lambda: [
        LineageTrace(("f", ["g", "h"]), ("p", "q")), LineageTrace(("f",), ["p"])
    ],
    "tuple_valued_id": lambda: [LineageTrace((("p", "q"),), ("p", "q"))],
    # Two keys JSON writes alike: a re-indent must not merge them.
    "dict_id_with_keys_written_alike": lambda: [LineageTrace(({1: "a", "1": "b"},), ("p",))],
    "flow_ids_not_a_tuple": lambda: [
        LineageTrace("fg", ("p",)), LineageTrace(["f"], ("p",)), LineageTrace(("f",), "p")
    ],
    "extra_field": lambda: [tuple.__new__(LineageTrace, (("f",), ("p",), "extra"))],
    "unencodable_id": lambda: [LineageTrace(("f",), ("p",)), LineageTrace((object(),), ("p",))],
    # Rows at the edge of the joined-text check: each must be written as
    # the encoder writes it.
    "empty_flow_tuple": lambda: [
        LineageTrace(("f",), ("p",)), LineageTrace((), ()), Path((), ("a",)), Path(("g",), ("a",))
    ],
    # json writes U+007F and U+0085 raw, but str.isprintable() rejects them.
    "delete_and_next_line": lambda: [
        LineageTrace(("f\x7f",), ("p",)), LineageTrace(("g",), ("p\x85",)), Path(("\x85",), ("a",))
    ],
    "quote_without_backslash": lambda: [
        LineageTrace(('say "hi"',), ("p",)), Path(('"',), ("a", "b")), LineageTrace(("f",), ('"',))
    ],
    "str_subclass_id": lambda: [
        LineageTrace((SubStr("f"),), ("p",)),
        LineageTrace(("g",), (SubStr('q"'),)),
        Path((SubStr("h"), "i"), ("a", "b", "c")),
    ],
    "lying_str_subclass_id": lambda: [
        Path(("a", Liar('q"')), ("x", "y", "z")), LineageTrace(("a", Liar('q"')), ("p", "q"))
    ],
    "non_record": lambda: [Path(("f",), ("a", "b")), "f"],
    "non_record_after_unencodable_id": lambda: [LineageTrace((object(),), ("p",)), 5],
}


@pytest.mark.parametrize("pretty", (False, True))
@pytest.mark.parametrize("row", sorted(PATHS_JSON_ROWS))
def test_paths_to_json_writes_one_dumps_of_the_document(row, pretty):
    results = PATHS_JSON_ROWS[row]()
    try:
        want = paths_document_json(results, pretty)
    except (TypeError, ValueError) as error:
        with pytest.raises(type(error)) as exc:
            paths_to_json(results, pretty)
        assert str(exc.value) == str(error)
    else:
        got = paths_to_json(results, pretty)
        assert json.loads(got) == json.loads(want)
        assert got.encode("utf-8") == want.encode("utf-8")


def test_pretty_paths_json_keeps_every_key():
    results = [LineageTrace(({1: "a", "1": "b"},), ("p",))]
    compact, pretty = paths_to_json(results), paths_to_json(results, pretty=True)
    members = json.loads(compact, object_pairs_hook=list)
    assert json.loads(pretty, object_pairs_hook=list) == members
    assert members == [
        [("flows", [[("1", "a"), ("1", "b")]]), ("packages", ["p"])]
    ]


def report_document_json(report: ExposureReport, pretty: bool = False) -> str:
    """An exposure report as one json.dumps of the documented shape: the
    text report_to_json must write, byte for byte, or the error it must
    raise."""
    document = {
        "person": report.person,
        "sinks": [
            {
                "id": s.sink,
                "type": s.sink_type,
                "paths": [p.flow_ids for p in s.paths],
                "packages": s.packages,
            }
            for s in report.sinks
        ],
        "aggregation_points": [
            {"id": a.entity, "path_count": a.path_count} for a in report.aggregation_points
        ],
    }
    if pretty:
        return json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    return json.dumps(document, separators=(",", ":"), ensure_ascii=False)


def integer_flow_id_report() -> ExposureReport:
    """The report of a graph whose flow ids are all integers."""
    graph = tiny_graph().add_entity("c", "O")
    graph.add_flow("g", "E1", "b", "c", "d")
    graph.flows = {
        number: FlowInstance(number, flow.edge_type, flow.source, flow.target, flow.package)
        for number, flow in zip((2, 10), graph.flows.values())
    }
    return exposure_report(graph, "a")


def sink(sink_id="s", paths=(("f",),), packages=("p",), sink_type="O") -> SinkExposure:
    paths = tuple(Path(flow_ids, ("a",) * (len(flow_ids) + 1)) for flow_ids in paths)
    return SinkExposure(sink_id, sink_type, paths, packages)


SPECIAL_IDS = (
    'q"uote', "back\\slash", "a\nb", "\x01\x1f", " ", "del\x7f", "\x85", "\u2028", "flöw", "流"
)


REPORT_JSON_ROWS = {
    "bundled": lambda: exposure_report(load_scenario("uber"), "passenger2"),
    "speeding": lambda: exposure_report(load_scenario("speeding"), "driver"),
    "special_characters": lambda: ExposureReport(
        "p \"",
        tuple(sink(i, ((i, "f"), ("g", i)), (i, "p")) for i in SPECIAL_IDS)
        + (sink("plain"), sink("typed", sink_type="t\\\x7f")),
        tuple(AggregationPoint(i, 2) for i in SPECIAL_IDS),
    ),
    "integer_flow_ids": integer_flow_id_report,
    "integer_flow_ids_hand_set": lambda: ExposureReport(
        "p", (sink(paths=((1, 2), (3,))), sink("t", paths=(("f",),))), ()
    ),
    "empty_paths": lambda: ExposureReport("p", (sink(paths=(), packages=()), sink("t")), ()),
    "empty_report": lambda: ExposureReport("p", (), ()),
    "empty_flow_tuple": lambda: ExposureReport("p", (sink(paths=((), ("f",))),), ()),
    "flow_ids_as_list": lambda: ExposureReport(
        "p", (sink(paths=(["f", "g"], ("h",))), sink("t", paths=(["f"],), packages=["p"])), ()
    ),
    "flow_ids_as_str": lambda: ExposureReport(
        "p", (sink(paths=("fg", ("h",)), packages="pq"),), ()
    ),
    "true_next_to_one": lambda: ExposureReport(
        1,
        (sink(True, ((True, 1), (1, True)), (1, True), sink_type=1), sink(1, ((1,),), (True,))),
        (AggregationPoint(True, 1), AggregationPoint(1, True)),
    ),
    "str_subclass_ids": lambda: ExposureReport(
        SubStr("p"), (sink(SubStr("s"), ((SubStr("f"), "g"),), (SubStr("p"),)),), ()
    ),
    "lying_str_subclass_id": lambda: ExposureReport(
        "p", (sink(paths=(("a", Liar('q"')),)),), ()
    ),
    "path_subclass": lambda: ExposureReport(
        "p",
        (SinkExposure("s", "O", (SubPath(("f",), ("a", "b")), Path(("g",), ("a", "b"))), ("p",)),),
        (),
    ),
    "float_count": lambda: ExposureReport(
        "p", (sink(),), (AggregationPoint("s", float("nan")), AggregationPoint("t", 2.5))
    ),
    "dict_id_with_keys_written_alike": lambda: ExposureReport(
        "p", (sink(paths=(({1: "a", "1": "b"},),)),), ()
    ),
    "unencodable_flow_id": lambda: ExposureReport("p", (sink(paths=(("f", object()),)),), ()),
    "unencodable_person": lambda: ExposureReport({"p"}, (sink(),), ()),
    "unencodable_count": lambda: ExposureReport(
        "p", (sink(),), (AggregationPoint("s", object()),)
    ),
    "unhashable_package": lambda: ExposureReport("p", (sink(packages=(["p"], "q")),), ()),
    "duck_typed_sink": lambda: ExposureReport(
        "p",
        (SimpleNamespace(
            sink="s", sink_type="O", paths=(Path(("f",), ("a", "b")),), packages=("p",)
        ),),
        (),
    ),
    "sink_not_a_record": lambda: ExposureReport("p", (sink(), ("s", "O", (), ())), ()),
    "path_not_a_record": lambda: ExposureReport(
        "p", (SinkExposure("s", "O", (("f",),), ("p",)),), ()
    ),
    "point_not_a_record": lambda: ExposureReport("p", (sink(),), (("s", 2),)),
    "sinks_not_a_sequence": lambda: ExposureReport("p", None, ()),
}


@pytest.mark.parametrize("pretty", (False, True))
@pytest.mark.parametrize("row", sorted(REPORT_JSON_ROWS))
def test_report_to_json_writes_one_dumps_of_the_document(row, pretty):
    report = REPORT_JSON_ROWS[row]()
    try:
        want = report_document_json(report, pretty)
    except (AttributeError, TypeError, ValueError) as error:
        with pytest.raises(type(error)) as exc:
            report_to_json(report, pretty)
        assert str(exc.value) == str(error)
    else:
        got = report_to_json(report, pretty)
        assert got.encode("utf-8") == want.encode("utf-8")


def self_looped_report() -> ValidationReport:
    graph = load_scenario("uber")
    graph.flows["loop"] = FlowInstance("loop", "E9", "uber", "uber", "DP4_1")
    return validate(builtin_schema(), graph)


VALIDATION_REPORTS = {
    "uber": lambda: validate(builtin_schema(), load_scenario("uber")),
    "speeding": lambda: validate(builtin_schema(), load_scenario("speeding")),
    "self_looped_flow": self_looped_report,
    # Two keys JSON writes alike: a re-indent must keep both.
    "dict_subject_with_keys_written_alike": lambda: ValidationReport(
        "x", [Violation(ViolationCode.DUPLICATE_ID, {1: "a", "1": "b"}, "twice")]
    ),
    "nan_subject": lambda: ValidationReport(
        "x", [Violation(ViolationCode.SELF_LOOP, float("nan"), "flöw \u2028 \x7f")]
    ),
    "scenario_name_not_text": lambda: ValidationReport(
        5, [Violation(ViolationCode.OWNERSHIP_LINT, "f", "m")]
    ),
}


@pytest.mark.parametrize("pretty", (False, True))
@pytest.mark.parametrize("row", sorted(VALIDATION_REPORTS))
def test_validation_report_json_is_one_dumps_of_the_document(row, pretty):
    report = VALIDATION_REPORTS[row]()
    document = {
        "scenario": report.scenario,
        "violations": [
            {"code": v.code.value, "severity": v.severity, "subject": v.subject, "message": v.message}
            for v in report.violations
        ],
    }
    if pretty:
        want = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    else:
        want = json.dumps(document, separators=(",", ":"), ensure_ascii=False)
    assert report_to_json(report, pretty=pretty).encode("utf-8") == want.encode("utf-8")


def test_dot_output_pinned_lines(uber_graph):
    dot = graph_to_dot(uber_graph)
    assert dot.splitlines()[0] == 'digraph "uber_dashcam" {'
    assert '  "dashcam" [label="dashcam : AVS"];' in dot
    assert '  "dashcam" -> "driver" [label="e8_1", style=dashed];' in dot
    assert '  "driver" -> "car" [label="occupy (role=driver)"];' in dot
    assert '  "dashcam" -> "driver" [label="ownedBy"];' in dot
    assert dot.rstrip().endswith("}")


def test_dot_show_packages(uber_graph):
    dot = graph_to_dot(uber_graph, ExportOptions(show_packages=True))
    assert '  "dashcam" -> "driver" [label="e8_1 [DP8_9_1]", style=dashed];' in dot


def test_dot_highlight_marks_only_path_flows(uber_graph):
    options = ExportOptions(
        highlight_paths=tuple(enumerate_paths(uber_graph, "driver", "dashcam_cloud"))
    )
    dot = graph_to_dot(uber_graph, options)
    highlighted = [line for line in dot.splitlines() if "color=red" in line]
    assert len(highlighted) == 2
    assert any('label="e7_1"' in line for line in highlighted)
    assert any('label="e9_1"' in line for line in highlighted)
    assert all("penwidth=2.0" in line for line in highlighted)


def test_dot_statements_are_sorted(uber_graph):
    dot = graph_to_dot(uber_graph)
    lines = dot.splitlines()[1:-1]
    node_lines = [l for l in lines if "->" not in l]
    edge_lines = [l for l in lines if "->" in l]
    assert lines == node_lines + edge_lines
    assert node_lines == sorted(node_lines)
    assert edge_lines == sorted(edge_lines)


def test_dot_quotes_special_characters():
    graph = new_scenario('with "quotes"\nand newline').add_entity(
        "a", "P", {"label": 'say "hi"'}
    )
    dot = graph_to_dot(graph)
    assert dot.splitlines()[0] == 'digraph "with \\"quotes\\"\\nand newline" {'


def test_dot_rejects_dangling(uber_graph):
    graph = tiny_graph()
    graph.flows["g"] = FlowInstance("g", "E1", "a", "ghost", "d")
    with pytest.raises(MalformedGraphError):
        graph_to_dot(graph)


def test_exports_are_deterministic(uber_graph, speeding_graph):
    for graph in (uber_graph, speeding_graph):
        assert graph_to_dot(graph) == graph_to_dot(graph)
        assert graph_to_json(graph) == graph_to_json(graph)


# A sha256 over the compact and pretty graph JSON, the plain DOT and the DOT
# with package labels of the bundled scenarios and build_random_graph seeds
# 0-99, in that order. The writers may change how they work, not what they
# write.
WRITTEN_SHA256 = "8d25ca7b601b9bb9aca42755d34c2ecc3b8164f6c9ba6f755c8fae4ce74b04e4"


def test_graph_writers_write_the_pinned_bytes():
    graphs = [load_scenario("uber"), load_scenario("speeding")]
    graphs += [build_random_graph(seed) for seed in range(100)]
    labelled = ExportOptions(show_packages=True)
    digest = hashlib.sha256()
    for graph in graphs:
        for text in (
            graph_to_json(graph),
            graph_to_json(graph, pretty=True),
            graph_to_dot(graph),
            graph_to_dot(graph, labelled),
        ):
            digest.update(text.encode())
    assert digest.hexdigest() == WRITTEN_SHA256


# A sha256 over the compact and pretty report_to_json of each Person's
# exposure report, then, for each Person and each sink of its report, the
# compact and pretty paths_to_json of the strict paths and of the lineage
# traces at max_len 4, of the bundled scenarios and build_random_graph seeds
# 0-99, in that order.
RESULTS_WRITTEN_SHA256 = "14da824c298000124a3a7163c399d61a2efa4495276f60548c4f4d7de2ccab17"


def test_result_writers_write_the_pinned_bytes():
    graphs = [load_scenario("uber"), load_scenario("speeding")]
    graphs += [build_random_graph(seed) for seed in range(100)]
    digest = hashlib.sha256()
    for graph in graphs:
        people = sorted(
            e.id for e in graph.entities.values() if e.entity_type is EntityType.PERSON
        )
        for person in people:
            report = exposure_report(graph, person)
            texts = [report_to_json(report), report_to_json(report, pretty=True)]
            for s in report.sinks:
                for mode in ("strict", "lineage"):
                    results = enumerate_paths(graph, person, s.sink, max_len=4, mode=mode)
                    texts += [paths_to_json(results), paths_to_json(results, pretty=True)]
            for text in texts:
                digest.update(text.encode())
    assert digest.hexdigest() == RESULTS_WRITTEN_SHA256


def graph_document(graph) -> dict:
    """The documented graph JSON shape as one dict, built here from the
    records. Raises the MalformedGraphError graph_to_json must raise for a
    shape error: the reference check comes first, then the attribute maps
    and item lists in document order."""
    check_references(graph)

    def attributes(kind: str, item) -> dict:
        if not isinstance(item.attributes, dict):
            raise MalformedGraphError(
                f"{kind} {item.id!r} attributes must be a map, "
                f"not {type(item.attributes).__name__}"
            )
        keys = sorted(item.attributes, key=str)
        for key in keys:
            if not isinstance(key, str):
                raise MalformedGraphError(f"{kind} {item.id!r} attribute name {key!r} is not text")
        return {key: item.attributes[key] for key in keys}

    def items(package) -> list:
        if not isinstance(package.items, (tuple, list)):
            raise MalformedGraphError(f"package {package.id!r} items must be text")
        return list(package.items)

    def type_of(entity) -> str:
        etype = entity.entity_type
        return etype.value if isinstance(etype, EntityType) else str(etype)

    def rows(table: dict) -> list:
        return [table[key] for key in sorted(table)]

    return {
        "scenario": graph.name,
        "entities": [
            {"id": e.id, "type": type_of(e), "attributes": attributes("entity", e)}
            for e in rows(graph.entities)
        ],
        "packages": [
            {
                "id": p.id,
                "description": p.description,
                "items": items(p),
                "derives_from": list(p.derives_from),
            }
            for p in rows(graph.packages)
        ],
        "relations": [
            {
                "id": r.id,
                "relation": r.relation,
                "source": r.source,
                "target": r.target,
                "attributes": attributes("relation", r),
            }
            for r in rows(graph.relations)
        ],
        "flows": [
            {
                "id": f.id,
                "edge_type": f.edge_type,
                "source": f.source,
                "target": f.target,
                "package": f.package,
            }
            for f in rows(graph.flows)
        ],
    }


def graph_document_json(graph, pretty: bool = False) -> str:
    """Graph JSON as one json.dumps of graph_document: the text
    graph_to_json must write, byte for byte, or the MalformedGraphError it
    must raise; shape errors come before the encoder's."""
    document = graph_document(graph)
    try:
        if pretty:
            return json.dumps(document, indent=2, ensure_ascii=False) + "\n"
        return json.dumps(document, separators=(",", ":"), ensure_ascii=False)
    except (TypeError, ValueError) as error:
        raise MalformedGraphError(f"scenario cannot be written as JSON: {error}") from None


def assert_json_is_the_document(graph, what="") -> None:
    try:
        want = graph_document_json(graph)
    except MalformedGraphError as error:
        with pytest.raises(MalformedGraphError) as exc:
            graph_to_json(graph)
        assert str(exc.value) == str(error), what
    else:
        assert graph_to_json(graph).encode() == want.encode(), what
    try:
        want = graph_document_json(graph, pretty=True)
    except MalformedGraphError as error:
        with pytest.raises(MalformedGraphError) as exc:
            graph_to_json(graph, pretty=True)
        assert str(exc.value) == str(error), what
    else:
        assert graph_to_json(graph, pretty=True).encode() == want.encode(), what


class Text(str):
    """Text that is not a str: the writers see a subclass."""


# Changes to tiny_graph plus relation r, each putting one value on either
# side of what compact graph JSON writes directly: text, true/false and
# lists of text.
JSON_SHAPES = {
    "plain": lambda g: None,
    "attribute_values_of_every_plain_shape": lambda g: g.entities["a"].attributes.update(
        label="x", tags=["p", "q"], flag=True, off=False, none=[]
    ),
    "relation_attributes": lambda g: g.relations["r"].attributes.update(role="owner"),
    "non_ascii_and_control_characters": lambda g: g.entities["a"].attributes.update(
        label='ä "流"\n\t\x01\\ ', tags=["é", "\x1f"]
    ),
    "name_none": lambda g: setattr(g, "name", None),
    "name_int": lambda g: setattr(g, "name", 5),
    "name_a_subclass": lambda g: setattr(g, "name", Text("x")),
    "name_a_set_before_a_value_that_cannot_be_written": lambda g: (
        setattr(g, "name", {"x"}),
        g.entities["a"].attributes.update(t=frozenset("y")),
    ),
    "attribute_value_int": lambda g: g.entities["a"].attributes.update(n=1),
    "attribute_value_float": lambda g: g.entities["a"].attributes.update(n=1.5),
    "attribute_value_nan": lambda g: g.entities["a"].attributes.update(n=float("nan")),
    "attribute_value_none": lambda g: g.entities["a"].attributes.update(n=None),
    "attribute_value_tuple": lambda g: g.entities["a"].attributes.update(t=("x", "y")),
    "attribute_value_nested_list": lambda g: g.entities["a"].attributes.update(t=[["x"]]),
    "attribute_value_list_of_ints": lambda g: g.entities["a"].attributes.update(t=[1, 2]),
    "attribute_value_map": lambda g: g.entities["a"].attributes.update(t={"k": "v"}),
    "attribute_value_set": lambda g: g.entities["a"].attributes.update(t={"x"}),
    "attribute_value_a_map_with_keys_written_alike": lambda g: g.entities["a"].attributes.update(
        t={1: "a", "1": "b"}
    ),
    "attribute_value_a_map_with_a_frozenset_key": lambda g: g.entities["a"].attributes.update(
        t={frozenset("k"): "v"}
    ),
    "attributes_not_a_map_after_a_value_that_cannot_be_written": lambda g: (
        g.entities["a"].attributes.update(t={"x"}),
        setattr(g.relations["r"], "attributes", None),
    ),
    "attribute_value_a_subclass": lambda g: g.entities["a"].attributes.update(t=Text("v")),
    "attribute_key_a_subclass": lambda g: g.entities["a"].attributes.update({Text("k"): "v"}),
    "attribute_key_int": lambda g: g.entities["a"].attributes.update({1: "v"}),
    "attribute_key_a_frozenset": lambda g: g.entities["a"].attributes.update(
        {frozenset("k"): "v"}
    ),
    "attribute_keys_mixed_after_a_value_that_cannot_be_written": lambda g: (
        g.entities["a"].attributes.update(t={"x"}),
        g.relations["r"].attributes.update({1: "v", "k": "v"}),
    ),
    "attributes_a_map_subclass": lambda g: setattr(
        g.entities["a"], "attributes", type("Map", (dict,), {})(k="v")
    ),
    "attributes_none": lambda g: setattr(g.relations["r"], "attributes", None),
    "attributes_empty_but_not_a_dict": lambda g: setattr(
        g.relations["r"], "attributes", MappingProxyType({})
    ),
    "entity_type_as_text": lambda g: setattr(g.entities["a"], "entity_type", "P"),
    "entity_type_a_set": lambda g: setattr(g.entities["a"], "entity_type", {"P"}),
    "entity_type_int": lambda g: setattr(g.entities["a"], "entity_type", 7),
    "description_set": lambda g: setattr(g.packages["d"], "description", {"x"}),
    "description_int": lambda g: setattr(g.packages["d"], "description", 3),
    "items_a_tuple": lambda g: setattr(g.packages["d"], "items", ("i1", "i2")),
    "items_of_ints": lambda g: setattr(g.packages["d"], "items", [1, 2]),
    "items_none": lambda g: setattr(g.packages["d"], "items", None),
    "items_empty_but_not_a_list": lambda g: setattr(g.packages["d"], "items", UserList()),
    "derives_from_a_list": lambda g: (
        g.add_package(DataPackage("e")), setattr(g.packages["d"], "derives_from", ["e"])
    ),
    "id_a_subclass": lambda g: setattr(g.entities["a"], "id", Text("a")),
    "endpoint_a_subclass": lambda g: setattr(g.flows["f"], "source", Text("a")),
    "edge_type_a_subclass": lambda g: setattr(g.flows["f"], "edge_type", Text("E1")),
    "dangling_flow": lambda g: setattr(g.flows["f"], "target", "ghost"),
}


@pytest.mark.parametrize("shape", JSON_SHAPES)
def test_graph_json_is_one_dumps_of_the_document_on_hand_set_shapes(shape):
    graph = tiny_graph().add_semantic_relation("r", "ownedBy", "b", "a")
    JSON_SHAPES[shape](graph)
    assert_json_is_the_document(graph)


def test_graph_json_is_one_dumps_of_the_document_on_generated_graphs():
    for graph in [load_scenario("uber"), load_scenario("speeding")]:
        assert_json_is_the_document(graph, graph.name)
    for seed in range(200):
        assert_json_is_the_document(build_random_graph(seed), seed)


@pytest.mark.parametrize("batch", range(4))
def test_graph_json_is_one_dumps_of_the_document_on_hand_set_graphs(batch):
    change = hand_set if batch < 3 else rekey
    for what, _, graph in hand_set_graphs(100 + batch, 300, change):
        assert_json_is_the_document(graph, what)


def renamed_copies(count: int):
    """One graph holding count renamed copies of the bundled scenarios,
    alternately uber and speeding, built through the graph API."""
    graph = new_scenario("copies")
    bases = (load_scenario("uber"), load_scenario("speeding"))
    for k in range(count):
        base, pre = bases[k % 2], f"c{k}_"
        for e in base.entities.values():
            graph.add_entity(pre + e.id, e.entity_type, e.attributes)
        for p in base.packages.values():
            derives = tuple(pre + a for a in p.derives_from)
            graph.add_package(DataPackage(pre + p.id, p.description, p.items, derives))
        for r in base.relations.values():
            graph.add_semantic_relation(
                pre + r.id, r.relation, pre + r.source, pre + r.target, r.attributes
            )
        for f in base.flows.values():
            stem, _, half = f.id.partition(".")
            if half != "rev":
                add = graph.add_bidirectional_flow if half == "fwd" else graph.add_flow
                add(pre + stem, f.edge_type, pre + f.source, pre + f.target, pre + f.package)
    return graph


def test_graph_json_memory_holds_the_text_not_a_document():
    # Compact graph JSON of 100 bundled copies: written record by record,
    # the call holds the texts, not a dict per record and then one dump.
    # The peak measured 1.08 MB after a full collection, and 4.15 MB when
    # the whole document was built first; the bound leaves 2x headroom.
    graph = renamed_copies(100)
    gc.collect()
    tracemalloc.start()
    try:
        text = graph_to_json(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == graph_document_json(graph)
    assert peak < 2.1e6


@pytest.fixture(scope="module")
def hash_seed_outputs() -> dict:
    """The stdout of each hash-seed script below under PYTHONHASHSEED 1, 2
    and 3, by name. The scripts run one after another, each in a namespace
    of its own, in one interpreter per seed; a form feed ends each output."""
    scripts = {
        "set_values": SET_VALUES_SCRIPT,
        "frozenset_ids": FROZENSET_IDS_SCRIPT,
        "hand_set_messages": HAND_SET_MESSAGES_SCRIPT,
    }
    runner = "".join(f"exec({script!r}, {{}})\nprint('\\f')\n" for script in scripts.values())
    sections = [output.split("\f\n") for output in under_hash_seeds(runner)]
    assert all(len(parts) == len(scripts) + 1 for parts in sections)
    return {name: [parts[k] for parts in sections] for k, name in enumerate(scripts)}


SET_VALUES_SCRIPT = """
from vdse.analysis import enumerate_paths
from vdse.dsl import serialize
from vdse.errors import AnalysisError, MalformedGraphError
from vdse.export import graph_to_dot, graph_to_json
from vdse.graph import FlowInstance
from vdse.scenarios import load_scenario
from vdse.schema import builtin_schema
from vdse.validate import validate

def messages(graph):
    return [v.message for v in validate(builtin_schema(), graph).violations]

typed = load_scenario("speeding")
typed.entities["driver"].entity_type = {"P", "DA", "V"}
print(graph_to_dot(typed), graph_to_json(typed), messages(typed))
derived = load_scenario("speeding")
derived.packages["DP1_1"].derives_from = frozenset({"x", "y", "z"})
print(messages(derived))
carried = load_scenario("speeding")
f = carried.flows["e1_1"]
carried.flows["e1_1"] = FlowInstance(f.id, f.edge_type, f.source, f.target, frozenset("xyz"))
carried.flows["e6_1"].edge_type = frozenset({"E1", "E2", "E3"})
carried.relations["r1"].relation = frozenset({"occupy", "ownedBy"})
print(messages(carried))
try:
    enumerate_paths(carried, "driver", "insurer")
except AnalysisError as error:
    print(error)
tagged = load_scenario("speeding")
tagged.entities["driver"].attributes["tags"] = {"a", "b", "c"}
try:
    serialize(tagged)
except MalformedGraphError as error:
    print(error)
"""


def test_set_values_are_written_alike_under_every_hash_seed(hash_seed_outputs):
    outputs = hash_seed_outputs["set_values"]
    assert outputs[0] == outputs[1] == outputs[2]
    assert '"driver" [label="driver : {\'DA\', \'P\', \'V\'}"];' in outputs[0]
    assert '"type":"{\'DA\', \'P\', \'V\'}"' in outputs[0]
    assert "has unknown type {'DA', 'P', 'V'}" in outputs[0]
    assert "derives from frozenset({'x', 'y', 'z'}), not a list" in outputs[0]
    assert "attribute value {'a', 'b', 'c'} is not expressible" in outputs[0]
    assert "references unknown package frozenset({'x', 'y', 'z'})" in outputs[0]
    assert "carries frozenset({'x', 'y', 'z'}), not a package id" in outputs[0]
    assert "unknown edge type frozenset({'E1', 'E2', 'E3'})" in outputs[0]
    assert "unknown relation frozenset({'occupy', 'ownedBy'})" in outputs[0]


FROZENSET_IDS_SCRIPT = """
from vdse.analysis import enumerate_paths
from vdse.errors import AnalysisError
from vdse.scenarios import load_scenario
from vdse.schema import builtin_schema
from vdse.validate import validate

KEY = frozenset({"a", "b", "c"})

def report(graph):
    try:
        enumerate_paths(graph, "driver", "insurer")
    except AnalysisError as error:
        print(error)
    for v in validate(builtin_schema(), graph).violations:
        print(v.code.value, v.subject, v.message)

own = load_scenario("speeding")
own.flows[KEY] = own.flows.pop("e1_1")
own.flows[KEY].id = KEY
report(own)
filed = load_scenario("speeding")
filed.flows[KEY] = filed.flows.pop("e1_1")
report(filed)
renamed = load_scenario("speeding")
renamed.flows["e1_1"].id = KEY
report(renamed)
derived = load_scenario("speeding")
derived.packages["DP1_1"].derives_from = (KEY,)
report(derived)
"""


def test_frozenset_ids_are_written_alike_under_every_hash_seed(hash_seed_outputs):
    outputs = hash_seed_outputs["frozenset_ids"]
    assert outputs[0] == outputs[1] == outputs[2]
    key = "frozenset({'a', 'b', 'c'})"
    assert f"flow id {key} is not text, and not every flow id is an integer" in outputs[0]
    assert f"DUPLICATE_ID {key} flow id {key} is not text" in outputs[0]
    assert f"flow 'e1_1' is filed under {key}" in outputs[0]
    assert f"flow {key} is filed under 'e1_1'" in outputs[0]
    assert f"package 'DP1_1' derives from unknown package {key}" in outputs[0]


HAND_SET_MESSAGES_SCRIPT = """
from vdse.dsl import serialize
from vdse.analysis import enumerate_paths, exposure_report
from vdse.errors import AnalysisError, GraphError, MalformedGraphError
from vdse.export import ExportOptions, graph_to_json
from vdse.graph import DataPackage, EntityInstance, FlowInstance, SemanticRelationInstance
from vdse.scenarios import load_scenario
from vdse.schema import EntityType, builtin_schema
from vdse.validate import validate

KEY = frozenset({"p", "q", "r"})

looped = load_scenario("speeding")
looped.entities[KEY] = EntityInstance(KEY, EntityType.coerce("DA"))
looped.packages[KEY] = DataPackage(KEY)
for call in (
    lambda: builtin_schema().flow_edge_type(KEY),
    lambda: EntityType.coerce(KEY),
    lambda: looped.add_flow("x", "E5", KEY, KEY, "DP1_1"),
    lambda: looped.add_semantic_relation("r", KEY, "driver", "car"),
    lambda: looped.add_package(DataPackage("x", derives_from=KEY)),
    lambda: looped.add_package(DataPackage("x", derives_from=(KEY, KEY))),
    lambda: load_scenario("speeding").add_package(DataPackage("x", derives_from=(KEY,))),
    lambda: load_scenario("speeding").add_entity(KEY, "P"),
    lambda: EntityType.from_code(KEY),
    lambda: enumerate_paths(load_scenario("speeding"), KEY, "driver"),
    lambda: enumerate_paths(looped, KEY, KEY),
    lambda: enumerate_paths(looped, "driver", "car", mode=KEY),
    lambda: exposure_report(looped, KEY),
    lambda: ExportOptions(format=frozenset({"dot", "json", "svg"})),
):
    try:
        call()
    except (AnalysisError, GraphError, ValueError) as error:
        print(error)

for target, package in ((KEY, "DP1_1"), ("car", KEY)):
    try:
        load_scenario("speeding").add_flow("x", "E1", "driver", target, package)
    except GraphError as error:
        print(error)
typed = load_scenario("speeding")
typed.entities["driver"].entity_type = KEY
try:
    serialize(typed)
except MalformedGraphError as error:
    print(error)
attributed = load_scenario("speeding")
attributed.entities["driver"].attributes = {KEY: "x"}
for writer in (graph_to_json, serialize):
    try:
        writer(attributed)
    except MalformedGraphError as error:
        print(error)
keyed = load_scenario("speeding")
keyed.entities[KEY] = EntityInstance(KEY, EntityType.DATA_PACKAGE)
keyed.relations[KEY] = SemanticRelationInstance(KEY, "occupy", "driver", "car")
keyed.flows[KEY] = FlowInstance(KEY, "E1", "driver", "driver", "DP1_1")
keyed.flows["y"] = FlowInstance("y", "E1", "driver", frozenset("stu"), "DP1_1")
for v in validate(builtin_schema(), keyed).violations:
    print(v.code.value, v.subject, v.message)
"""


def test_hand_set_values_in_messages_are_written_alike_under_every_hash_seed(hash_seed_outputs):
    outputs = hash_seed_outputs["hand_set_messages"]
    assert outputs[0] == outputs[1] == outputs[2]
    key = "frozenset({'p', 'q', 'r'})"
    assert f"flow 'x' references unknown entity {key}" in outputs[0]
    assert f"flow 'x' references unknown package {key}" in outputs[0]
    assert f"entity 'driver' has unserializable type {key}" in outputs[0]
    assert f"entity {key} is typed DP" in outputs[0]
    assert f"occupy relation {key} has no 'role'" in outputs[0]
    assert f"flow {key} connects 'driver' to itself" in outputs[0]
    assert "flow 'y' references unknown entity frozenset({'s', 't', 'u'})" in outputs[0]
    assert f"unknown flow edge type {key}" in outputs[0]
    assert f"unknown entity type {key}" in outputs[0]
    assert f"flow 'x' connects {key} to itself" in outputs[0]
    assert f"unknown semantic relation {key}" in outputs[0]
    assert f"package 'x' derives from {key}, not a list of packages" in outputs[0]
    assert f"package 'x' lists derivation {key} twice" in outputs[0]
    assert f"package 'x' derives from unknown package {key}" in outputs[0]
    assert f"invalid entity id {key}" in outputs[0]
    assert "unknown export format frozenset({'dot', 'json', 'svg'})" in outputs[0]
    assert f"unknown entity type code {key}" in outputs[0]
    assert f"unknown entity {key}" in outputs[0].splitlines()
    assert f"source and sink are both {key}; they must differ" in outputs[0]
    assert f"unknown mode {key}" in outputs[0]
    assert f"{key} is not a Person entity" in outputs[0]
    assert f"entity 'driver' attribute name {key} is not text" in outputs[0]
    assert f"attribute id {key} is not a serializable identifier" in outputs[0]


REFERENCE_DEFECTS = {
    "dangling_derivation": ("packages", DataPackage("q", derives_from=("phantom",))),
    "unknown_relation": ("relations", SemanticRelationInstance("r", "nope", "a", "b")),
    "dangling_relation": ("relations", SemanticRelationInstance("r", "ownedBy", "a", "ghost")),
    "unknown_flow_edge_type": ("flows", FlowInstance("g", "E99", "a", "b", "d")),
    "dangling_flow": ("flows", FlowInstance("g", "E1", "a", "ghost", "d")),
    "undeclared_package": ("flows", FlowInstance("g", "E1", "a", "b", "ghost")),
    "flow_id_not_text": ("flows", FlowInstance(3, "E1", "a", "b", "d")),
}


@pytest.mark.parametrize("writer", (serialize, graph_to_dot, graph_to_json))
@pytest.mark.parametrize("defect", sorted(REFERENCE_DEFECTS))
def test_writers_reject_what_validate_reports(schema, writer, defect):
    # serialize once wrote flows of unknown edge type, which parse rejects.
    graph = tiny_graph()
    section, item = REFERENCE_DEFECTS[defect]
    getattr(graph, section)[item.id] = item
    (error,) = validate(schema, graph).errors
    with pytest.raises(MalformedGraphError) as exc:
        writer(graph)
    assert str(exc.value) == error.message


UNHASHABLE_REFERENCES = [
    # section, id, field, hand-set value, and the code validate gives it
    ("flows", "f", "edge_type", ["E1"], "UNKNOWN_TYPE"),
    ("flows", "f", "source", ["a"], "DANGLING_REF"),
    ("flows", "f", "target", ["b"], "DANGLING_REF"),
    ("flows", "f", "package", ["d"], "MISSING_PACKAGE"),
    ("relations", "r", "relation", ["ownedBy"], "UNKNOWN_TYPE"),
    ("relations", "r", "source", ["b"], "DANGLING_REF"),
    ("relations", "r", "target", ["a"], "DANGLING_REF"),
    ("packages", "d", "derives_from", (["base"],), "DANGLING_REF"),
    ("packages", "d", "derives_from", ("base", {"x": 1}), "DANGLING_REF"),
    ("packages", "d", "derives_from", None, "DANGLING_REF"),
    ("flows", "f", "id", "k", "DUPLICATE_ID"),
    ("flows", "f", "id", ["f"], "DUPLICATE_ID"),
]


@pytest.mark.parametrize("writer", (serialize, graph_to_dot, graph_to_json))
@pytest.mark.parametrize(
    "case", UNHASHABLE_REFERENCES, ids=[f"{c[1]}.{c[2]}={c[3]!r}" for c in UNHASHABLE_REFERENCES]
)
def test_reference_fields_that_name_nothing_are_reported_not_raised(schema, writer, case):
    section, item_id, field, value, code = case
    graph = tiny_graph().add_package(DataPackage("base"))
    graph.add_semantic_relation("r", "ownedBy", "b", "a")
    graph.packages["d"].derives_from = ("base",)
    assert validate(schema, graph).violations == []
    setattr(getattr(graph, section)[item_id], field, value)
    (error,) = validate(schema, graph).violations
    assert (error.code.value, error.subject) == (code, item_id)
    with pytest.raises(MalformedGraphError) as exc:
        writer(graph)
    assert str(exc.value) == error.message


@pytest.mark.parametrize("items", (None, 7, "i1"))
def test_graph_to_json_refuses_package_items_that_are_not_a_list(items):
    graph = tiny_graph()
    graph.packages["d"].items = items
    with pytest.raises(MalformedGraphError, match="^package 'd' items must be text$"):
        graph_to_json(graph)


NON_MAP_ATTRIBUTES = {
    # (writer, section, id): the message, or None when the writer reads no such map
    (graph_to_json, "entities", "a"): "entity 'a' attributes must be a map, not NoneType",
    (graph_to_json, "relations", "r"): "relation 'r' attributes must be a map, not NoneType",
    (graph_to_dot, "entities", "a"): None,
    (graph_to_dot, "relations", "r"): "relation 'r' attributes must be a map, not NoneType",
    (serialize, "entities", "a"): "entity 'a' attributes must be a map, not NoneType",
    (serialize, "relations", "r"): "relation 'r' attributes must be a map, not NoneType",
}


@pytest.mark.parametrize(
    "case", list(NON_MAP_ATTRIBUTES), ids=[f"{w.__name__}-{i}" for w, _, i in NON_MAP_ATTRIBUTES]
)
def test_writers_refuse_attributes_that_are_not_a_map(case):
    writer, section, item_id = case
    graph = tiny_graph().add_semantic_relation("r", "ownedBy", "b", "a")
    getattr(graph, section)[item_id].attributes = None
    message = NON_MAP_ATTRIBUTES[case]
    if message is None:
        writer(graph)
        return
    with pytest.raises(MalformedGraphError) as exc:
        writer(graph)
    assert str(exc.value) == message


def _refile(section: str, item_id: str, key):
    def change(graph):
        table = getattr(graph, section)
        table[key] = table.pop(item_id)

    return change


_SET_VALUE = "scenario cannot be written as JSON: Object of type set is not JSON serializable"

# Hand-set keys, names and values, each with what serialize, graph_to_dot
# and graph_to_json raise; None where the writer returns.
HAND_SET_WRITES = {
    "entity_under_an_int_key": (
        _refile("entities", "a", 9),
        ("entity 'a' is filed under 9",) * 3,
    ),
    "entity_id_not_text": (
        lambda g: g.entities.update({3: EntityInstance(3, EntityType.PERSON)}),
        ("entity id 3 is not text",) * 3,
    ),
    "package_under_an_int_key": (
        _refile("packages", "d", 9),
        ("package 'd' is filed under 9",) * 3,
    ),
    "relation_under_an_int_key": (
        _refile("relations", "r", 9),
        ("relation 'r' is filed under 9",) * 3,
    ),
    "relation_under_another_text_key": (
        _refile("relations", "r", "k"),
        ("relation 'r' is filed under 'k'",) * 3,
    ),
    "name_int": (
        lambda g: setattr(g, "name", 5),
        ("scenario name 5 is not text", "scenario name 5 is not text", None),
    ),
    "name_list": (
        lambda g: setattr(g, "name", ["x"]),
        ("scenario name ['x'] is not text", "scenario name ['x'] is not text", None),
    ),
    "name_none": (
        lambda g: setattr(g, "name", None),
        ("scenario name must be non-empty", "scenario name None is not text", None),
    ),
    "attribute_value_set": (
        lambda g: g.entities["a"].attributes.update(tags={"x"}),
        ("attribute value {'x'} is not expressible", None, _SET_VALUE),
    ),
    "description_set": (
        lambda g: setattr(g.packages["d"], "description", {"x"}),
        ("package 'd' description must be text", None, _SET_VALUE),
    ),
    "attribute_keys_mixed": (
        lambda g: g.entities["a"].attributes.update({1: "one", "label": "a"}),
        (
            "attribute id 1 is not a serializable identifier",
            None,
            "entity 'a' attribute name 1 is not text",
        ),
    ),
}


@pytest.mark.parametrize("case", HAND_SET_WRITES)
def test_writers_are_total_on_hand_set_keys_names_and_values(case):
    change, messages = HAND_SET_WRITES[case]
    graph = tiny_graph().add_semantic_relation("r", "ownedBy", "b", "a")
    change(graph)
    for writer, message in zip((serialize, graph_to_dot, graph_to_json), messages):
        if message is None:
            writer(graph)
            continue
        with pytest.raises(MalformedGraphError) as exc:
            writer(graph)
        assert str(exc.value) == message, writer.__name__
