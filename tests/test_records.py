"""Record semantics: repr, equality, hashing, immutability, construction
defaults and copying of every public record class."""
from __future__ import annotations

import copy
import typing

import pytest

from vdse import (
    AggregationPoint,
    DataPackage,
    EntityInstance,
    EntityType,
    ExportOptions,
    ExposureReport,
    FlowEdgeType,
    FlowInstance,
    InstanceGraph,
    LineageTrace,
    Path,
    SemanticRelationInstance,
    SemanticRelationType,
    SinkExposure,
    TypeGraph,
    ValidationReport,
    Violation,
    ViolationCode,
)
from vdse.dsl import _Token

P, V = EntityType.PERSON, EntityType.VEHICLE

PATH = Path(("f1", "f2"), ("a", "b", "c"))
TRACE = LineageTrace(("f1",), ("p",))
SINK = SinkExposure("c", "O", (PATH,), ("p",))
POINT = AggregationPoint("c", 2)
EXPOSURE = ExposureReport("a", (SINK,), (POINT,))
EDGE = FlowEdgeType("E1", P, V, False)
RELATION_TYPE = SemanticRelationType("occupy", ((P, V),), frozenset({"role"}))
VIOLATION = Violation(ViolationCode.SELF_LOOP, "f", "loops")
ENTITY = EntityInstance("a", P, {"label": "x"})
PACKAGE = DataPackage("p", "d", ["i"], ("q",))
RELATION = SemanticRelationInstance("r", "occupy", "a", "b", {"role": "driver"})
FLOW = FlowInstance("f", "E1", "a", "b", "p")
GRAPH = InstanceGraph("g", {"a": ENTITY}, {}, {"f": FLOW}, {"p": PACKAGE})
TYPES = TypeGraph(frozenset({P}), {}, {"occupy": RELATION_TYPE}, {"E1": EDGE})
REPORT = ValidationReport("g", [VIOLATION])
OPTIONS = ExportOptions("dot", True, (PATH,))

_PATH = "Path(flow_ids=('f1', 'f2'), node_ids=('a', 'b', 'c'))"
_RELATION_TYPE = (
    "SemanticRelationType(name='occupy', endpoint_pairs=((<EntityType.PERSON: 'P'>, "
    "<EntityType.VEHICLE: 'V'>),), required_attributes=frozenset({'role'}))"
)
_EDGE = (
    "FlowEdgeType(id='E1', source=<EntityType.PERSON: 'P'>, "
    "target=<EntityType.VEHICLE: 'V'>, bidirectional=False)"
)
_VIOLATION = (
    "Violation(code=<ViolationCode.SELF_LOOP: 'SELF_LOOP'>, subject='f', message='loops')"
)
_ENTITY = "EntityInstance(id='a', entity_type=<EntityType.PERSON: 'P'>, attributes={'label': 'x'})"
_PACKAGE = "DataPackage(id='p', description='d', items=['i'], derives_from=('q',))"
_FLOW = "FlowInstance(id='f', edge_type='E1', source='a', target='b', package='p')"
_SINK = f"SinkExposure(sink='c', sink_type='O', paths=({_PATH},), packages=('p',))"
_POINT = "AggregationPoint(entity='c', path_count=2)"

REPRS = [
    (PATH, _PATH),
    (TRACE, "LineageTrace(flow_ids=('f1',), package_ids=('p',))"),
    (SINK, _SINK),
    (POINT, _POINT),
    (EXPOSURE, f"ExposureReport(person='a', sinks=({_SINK},), aggregation_points=({_POINT},))"),
    (EDGE, _EDGE),
    (RELATION_TYPE, _RELATION_TYPE),
    (VIOLATION, _VIOLATION),
    (ENTITY, _ENTITY),
    (PACKAGE, _PACKAGE),
    (
        RELATION,
        "SemanticRelationInstance(id='r', relation='occupy', source='a', target='b', "
        "attributes={'role': 'driver'})",
    ),
    (FLOW, _FLOW),
    (
        GRAPH,
        f"InstanceGraph(name='g', entities={{'a': {_ENTITY}}}, relations={{}}, "
        f"flows={{'f': {_FLOW}}}, packages={{'p': {_PACKAGE}}})",
    ),
    (
        TYPES,
        "TypeGraph(entity_types=frozenset({<EntityType.PERSON: 'P'>}), subclass_parent={}, "
        f"semantic_relations={{'occupy': {_RELATION_TYPE}}}, flow_edge_types={{'E1': {_EDGE}}})",
    ),
    (REPORT, f"ValidationReport(scenario='g', violations=[{_VIOLATION}])"),
    (OPTIONS, f"ExportOptions(format='dot', show_packages=True, highlight_paths=({_PATH},))"),
]

IMMUTABLE = [PATH, TRACE, SINK, POINT, EXPOSURE, EDGE, RELATION_TYPE, VIOLATION, OPTIONS]
MUTABLE = [ENTITY, PACKAGE, RELATION, FLOW, GRAPH, TYPES, REPORT]


def _ids(records):
    return [type(record).__name__ for record in records]


@pytest.mark.parametrize("record, text", REPRS, ids=_ids(r for r, _ in REPRS))
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", IMMUTABLE + MUTABLE, ids=_ids(IMMUTABLE + MUTABLE))
def test_equal_to_a_copy_and_not_to_other_records(record):
    twin = copy.deepcopy(record)
    assert twin == record and not twin != record
    for other in IMMUTABLE + MUTABLE:
        if other is not record:
            assert record != other


def test_equality_needs_equal_fields():
    assert Path(("f",), ("a", "b")) != Path(("f",), ("a", "c"))
    assert EntityInstance("a", P) != EntityInstance("a", V)
    assert DataPackage("p") != DataPackage("p", items=["i"])
    assert FlowInstance("f", "E1", "a", "b", "p") != FlowInstance("f", "E1", "a", "b", "q")
    assert ExportOptions() != ExportOptions(show_packages=True)
    assert InstanceGraph("g") == InstanceGraph("g")
    assert InstanceGraph("g") != InstanceGraph("h")


@pytest.mark.parametrize("record", IMMUTABLE, ids=_ids(IMMUTABLE))
def test_immutable_records_hash_by_value(record):
    assert hash(record) == hash(copy.deepcopy(record))
    assert len({record, copy.deepcopy(record)}) == 1


@pytest.mark.parametrize("record", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("record", IMMUTABLE, ids=_ids(IMMUTABLE))
def test_immutable_records_refuse_assignment(record):
    # The first field, read from the repr: "Name(field=...".
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is not None


def test_mutable_records_take_assignment():
    flow = FlowInstance("f", "E1", "a", "b", "p")
    flow.package = "q"
    assert flow == FlowInstance("f", "E1", "a", "b", "q")
    graph = InstanceGraph("g")
    graph.name = "h"
    assert graph == InstanceGraph(name="h")


def test_keyword_construction_and_defaults():
    assert EntityInstance(id="a", entity_type=P).attributes == {}
    package = DataPackage(id="p")
    assert (package.description, package.items, package.derives_from) == ("", [], ())
    relation = SemanticRelationInstance(id="r", relation="occupy", source="a", target="b")
    assert relation.attributes == {}
    flow = FlowInstance(id="f", edge_type="E1", source="a", target="b", package="p")
    assert flow.package == "p"
    graph = InstanceGraph(name="g")
    assert (graph.entities, graph.relations, graph.flows, graph.packages) == ({}, {}, {}, {})
    assert ValidationReport(scenario="g").violations == []
    assert SemanticRelationType(name="n", endpoint_pairs=()).required_attributes == frozenset()
    options = ExportOptions()
    assert (options.format, options.show_packages, options.highlight_paths) == ("dot", False, ())
    assert Violation(code=ViolationCode.SELF_LOOP, subject="f", message="m").severity == "error"
    assert Violation(ViolationCode.OWNERSHIP_LINT, "f", "m").severity == "warning"
    assert FlowEdgeType(id="E", source=P, target=V, bidirectional=True).directionality == "bi"
    assert EDGE.directionality == "uni"
    assert TypeGraph(
        entity_types=frozenset(), subclass_parent={}, semantic_relations={}, flow_edge_types={}
    ).flow_edge_types == {}


def test_omitted_containers_are_fresh_per_instance():
    first, second = EntityInstance("a", P), EntityInstance("b", P)
    first.attributes["label"] = "x"
    assert second.attributes == {}
    first, second = DataPackage("p"), DataPackage("q")
    first.items.append("i")
    assert second.items == []
    first = SemanticRelationInstance("r", "occupy", "a", "b")
    first.attributes["role"] = "driver"
    assert SemanticRelationInstance("s", "occupy", "a", "b").attributes == {}
    first, second = InstanceGraph("g"), InstanceGraph("g")
    first.entities["a"] = ENTITY
    first.relations["r"] = RELATION
    first.flows["f"] = FLOW
    first.packages["p"] = PACKAGE
    assert (second.entities, second.relations, second.flows, second.packages) == ({}, {}, {}, {})
    first = ValidationReport("g")
    first.violations.append(VIOLATION)
    assert ValidationReport("g").violations == []


def test_export_options_keep_their_checks():
    with pytest.raises(ValueError, match="unknown export format 'svg'"):
        ExportOptions(format="svg")
    with pytest.raises(ValueError, match="only valid with the dot format"):
        ExportOptions(format="json", highlight_paths=(PATH,))
    assert ExportOptions(format="json").format == "json"


def test_export_options_copy_and_hash_like_their_fields():
    assert copy.copy(OPTIONS) == OPTIONS
    assert copy.deepcopy(OPTIONS) == OPTIONS
    assert hash(ExportOptions()) == hash(ExportOptions("dot", False, ()))


def test_deepcopy_of_a_graph_is_equal_and_independent(uber_graph):
    twin = copy.deepcopy(uber_graph)
    assert twin == uber_graph
    entity_id = sorted(twin.entities)[0]
    assert twin.entities[entity_id] is not uber_graph.entities[entity_id]
    twin.entities[entity_id].attributes["label"] = "changed"
    twin.flows.clear()
    assert twin != uber_graph
    assert uber_graph.flows
    assert uber_graph.entities[entity_id].attributes.get("label") != "changed"


@pytest.mark.parametrize("record", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_have_a_fixed_attribute_set(record):
    with pytest.raises(AttributeError):
        record.note = "ad hoc"


def test_result_records_are_named_tuples():
    flow_ids, node_ids = PATH
    assert PATH == (flow_ids, node_ids) == (("f1", "f2"), ("a", "b", "c"))
    assert TRACE == (("f1",), ("p",))
    assert POINT == ("c", 2)
    assert tuple(EXPOSURE) == ("a", (SINK,), (POINT,))
    assert VIOLATION == (ViolationCode.SELF_LOOP, "f", "loops")
    # Annotations that are classes, not strings: typing.NamedTuple compiles
    # a string annotation into a ForwardRef when the class is made, which
    # every import of vdse would pay for.
    for record in (
        Path, LineageTrace, SinkExposure, AggregationPoint, ExposureReport,
        FlowEdgeType, SemanticRelationType, Violation, _Token,
    ):
        assert issubclass(record, tuple) and record._fields
        for annotation in record.__annotations__.values():
            assert isinstance(typing.get_origin(annotation) or annotation, type), record
        assert record.__annotations__ == typing.get_type_hints(record), record
