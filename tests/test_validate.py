"""Conformance checking: every violation code, severity, and ordering."""
from __future__ import annotations

import random
import time

import pytest

from vdse.graph import (
    DataPackage,
    EntityInstance,
    FlowInstance,
    InstanceGraph,
    SemanticRelationInstance,
    new_scenario,
)
from vdse.schema import EntityType
from vdse.validate import ViolationCode, validate


def codes(report):
    return [v.code for v in report.violations]


def test_bundled_scenarios_are_clean(schema, uber_graph, speeding_graph):
    for graph in (uber_graph, speeding_graph):
        report = validate(schema, graph)
        assert report.violations == []
        assert report.ok


def test_validate_is_total_on_empty_graph(schema):
    report = validate(schema, new_scenario("empty"))
    assert report.ok and report.scenario == "empty"


def test_unknown_entity_type_injected(schema):
    graph = new_scenario("t")
    graph.entities["x"] = EntityInstance("x", "NOPE")
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.UNKNOWN_TYPE]
    assert "unknown type" in report.violations[0].message


def test_data_package_typed_entity_injected(schema):
    graph = new_scenario("t")
    graph.entities["d"] = EntityInstance("d", EntityType.DATA_PACKAGE)
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.UNKNOWN_TYPE]
    assert "packages attach to flows" in report.violations[0].message


def test_attribute_misuse_injected(schema):
    graph = new_scenario("t")
    graph.entities["car"] = EntityInstance("car", EntityType.VEHICLE, {"static": "vin"})
    graph.entities["p"] = EntityInstance("p", EntityType.PERSON, {"category": "x"})
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.ATTRIBUTE_MISUSE] * 2
    assert {v.subject for v in report.violations} == {"car", "p"}


@pytest.mark.parametrize(
    "record, message",
    [
        (FlowInstance("x", "E99", "a", "ghost", "DP"), "flow 'x' uses unknown edge type 'E99'"),
        (
            SemanticRelationInstance("x", "likes", "a", "ghost"),
            "relation 'x' uses unknown relation 'likes'",
        ),
    ],
    ids=["flow", "relation"],
)
def test_unknown_edge_type_or_relation_hides_the_other_checks(schema, record, message):
    # Neither the dangling endpoint nor the undeclared package is reported.
    graph = new_scenario("t").add_entity("a", "P")
    table = graph.flows if isinstance(record, FlowInstance) else graph.relations
    table["x"] = record
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.UNKNOWN_TYPE]
    assert report.violations[0].message == message


def test_direction_violation_for_reversed_uni_edge(schema):
    graph = (
        new_scenario("t")
        .add_entity("car", "V")
        .add_entity("cam", "TMS")
        .add_flow("f", "E16", "cam", "car", DataPackage("DP"))
    )
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.DIRECTION_VIOLATION]
    assert "used in reverse" in report.violations[0].message


def test_endpoint_mismatch_for_wrong_types(schema):
    graph = (
        new_scenario("t")
        .add_entity("driver", "P")
        .add_entity("dashcam", "AVS")
        .add_flow("f", "E16", "driver", "dashcam", DataPackage("DP"))
    )
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.ENDPOINT_MISMATCH]
    assert "E16 connects V and TMS; got P -> AVS" in report.violations[0].message


def test_subtype_satisfies_endpoint(schema):
    graph = (
        new_scenario("t")
        .add_entity("car", "V")
        .add_entity("dvla", "G")
        .add_flow("f", "E20", "car", "dvla", DataPackage("DP"))
    )
    assert validate(schema, graph).ok


def test_bidirectional_edge_accepts_both_orientations(schema):
    for source, target in (("car", "org"), ("org", "car")):
        graph = (
            new_scenario("t")
            .add_entity("car", "V")
            .add_entity("org", "O")
            .add_flow("f", "E20", source, target, DataPackage("DP"))
        )
        assert validate(schema, graph).ok


def test_bidirectional_mismatch_is_symmetric(schema):
    verdicts = []
    for source, target in (("a", "b"), ("b", "a")):
        graph = (
            new_scenario("t")
            .add_entity("a", "P")
            .add_entity("b", "P")
            .add_flow("f", "E20", source, target, DataPackage("DP"))
        )
        verdicts.append(codes(validate(schema, graph)))
    assert verdicts[0] == verdicts[1] == [ViolationCode.ENDPOINT_MISMATCH]


def test_missing_package_injected(schema):
    graph = new_scenario("t").add_entity("a", "P").add_entity("b", "V")
    graph.flows["f"] = FlowInstance("f", "E1", "a", "b", "ghost")
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.MISSING_PACKAGE]
    # A dangling endpoint does not hide the package.
    graph.flows["g"] = FlowInstance("g", "E1", "a", "ghost", "ghost")
    assert codes(validate(schema, graph)) == [
        ViolationCode.MISSING_PACKAGE,
        ViolationCode.DANGLING_REF,
        ViolationCode.MISSING_PACKAGE,
    ]


def test_self_loop_injected(schema):
    graph = new_scenario("t").add_entity("a", "V").add_package(DataPackage("DP"))
    graph.flows["f"] = FlowInstance("f", "E12", "a", "a", "DP")
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.SELF_LOOP]


def test_dangling_references_injected(schema):
    graph = new_scenario("t").add_entity("a", "P").add_package(DataPackage("DP"))
    graph.flows["f"] = FlowInstance("f", "E1", "a", "ghost", "DP")
    graph.relations["r"] = SemanticRelationInstance("r", "ownedBy", "a", "ghost")
    graph.packages["q"] = DataPackage("q", derives_from=("phantom",))
    report = validate(schema, graph)
    assert sorted(codes(report), key=lambda c: c.value) == [
        ViolationCode.DANGLING_REF,
        ViolationCode.DANGLING_REF,
        ViolationCode.DANGLING_REF,
    ]
    assert {v.subject for v in report.violations} == {"f", "r", "q"}


def test_role_missing_and_invalid(schema):
    graph = (
        new_scenario("t")
        .add_entity("p", "P")
        .add_entity("car", "V")
        .add_semantic_relation("r1", "occupy", "p", "car")
        .add_semantic_relation("r2", "occupy", "p", "car", {"role": "pilot"})
    )
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.ROLE_MISSING] * 2
    by_subject = {v.subject: v.message for v in report.violations}
    assert "has no 'role'" in by_subject["r1"]
    assert "invalid role 'pilot'" in by_subject["r2"]
    assert 'expected "driver" or "passenger"' in by_subject["r1"]


def test_a_role_that_is_not_hashable_is_an_invalid_role(schema):
    graph = (
        new_scenario("t")
        .add_entity("p", "P")
        .add_entity("car", "V")
        .add_semantic_relation("r1", "occupy", "p", "car", {"role": ["driver"]})
    )
    assert validate(schema, graph).violations == [
        (
            ViolationCode.ROLE_MISSING,
            "r1",
            "occupy relation 'r1' has invalid role ['driver']; "
            'expected "driver" or "passenger"',
        )
    ]


def test_part_of_cycle(schema):
    graph = (
        new_scenario("t")
        .add_entity("car", "V")
        .add_entity("vc1", "VC")
        .add_entity("vc2", "VC")
        .add_semantic_relation("r1", "isPartOf", "vc1", "vc2")
        .add_semantic_relation("r2", "isPartOf", "vc2", "vc1")
        .add_semantic_relation("r3", "isPartOf", "vc1", "car")
    )
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.PART_OF_CYCLE]
    assert report.violations[0].subject == "vc1"
    assert "vc1" in report.violations[0].message and "vc2" in report.violations[0].message


def test_derives_cycle_injected(schema):
    graph = new_scenario("t")
    graph.packages["a"] = DataPackage("a", derives_from=("b",))
    graph.packages["b"] = DataPackage("b", derives_from=("a",))
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.DERIVES_CYCLE]
    assert report.violations[0].subject == "a"


def test_self_derivation_is_a_cycle(schema):
    graph = new_scenario("t")
    graph.packages["a"] = DataPackage("a", derives_from=("a",))
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.DERIVES_CYCLE]


def test_ownership_lint_fires_for_owner_to_owned_flow(schema):
    graph = (
        new_scenario("t")
        .add_entity("cam", "AVS")
        .add_entity("owner", "P")
        .add_semantic_relation("r", "ownedBy", "cam", "owner")
        .add_flow("f", "E8", "owner", "cam", DataPackage("DP"))
    )
    report = validate(schema, graph)
    assert codes(report) == [ViolationCode.OWNERSHIP_LINT]
    violation = report.violations[0]
    assert violation.severity == "warning"
    assert report.ok  # warnings do not make a graph non-conformant
    assert report.errors == [] and len(report.warnings) == 1


def test_ownership_lint_silent_for_owned_to_owner_flow(schema):
    graph = (
        new_scenario("t")
        .add_entity("cam", "AVS")
        .add_entity("owner", "P")
        .add_semantic_relation("r", "ownedBy", "cam", "owner")
        .add_flow("f", "E8", "cam", "owner", DataPackage("DP"))
    )
    assert validate(schema, graph).violations == []


def test_ownership_lint_only_on_reporting_edges(schema):
    # E2 is not an ownership-reporting edge type, so no lint even though
    # the flow runs from owner to owned asset.
    graph = (
        new_scenario("t")
        .add_entity("p", "P")
        .add_entity("app", "DA")
        .add_entity("org", "O")
        .add_semantic_relation("r", "ownedBy", "app", "org")
        .add_flow("f", "E2", "p", "app", DataPackage("DP"))
    )
    assert validate(schema, graph).violations == []


def test_report_sorted_errors_before_warnings(schema):
    graph = (
        new_scenario("t")
        .add_entity("cam", "AVS")
        .add_entity("owner", "P")
        .add_entity("car", "V")
        .add_entity("tms", "TMS")
        .add_semantic_relation("r", "ownedBy", "cam", "owner")
        .add_flow("zz", "E8", "owner", "cam", DataPackage("DP"))
        .add_flow("aa", "E16", "tms", "car", "DP")
    )
    report = validate(schema, graph)
    assert [v.code for v in report.violations] == [
        ViolationCode.DIRECTION_VIOLATION,
        ViolationCode.OWNERSHIP_LINT,
    ]
    keys = [(v.severity, v.subject, v.code.value, v.message) for v in report.violations]
    assert keys == sorted(keys)


def test_report_is_deterministic(schema, uber_graph):
    graph = InstanceGraph(
        name="t",
        entities={"a": EntityInstance("a", "X"), "b": EntityInstance("b", "Y")},
    )
    assert validate(schema, graph) == validate(schema, graph)
    assert validate(schema, uber_graph) == validate(schema, uber_graph)


def test_every_code_is_reachable_or_reserved():
    # Dict storage and the parser pre-empt duplicate declarations, so
    # DUPLICATE_ID is reached only by a flow filed under a key other than
    # its id (two keys can then hold one id) or by a flow id that is not
    # text (test_flow_ids_are_text_and_filed_under_themselves).
    assert ViolationCode.DUPLICATE_ID.value == "DUPLICATE_ID"
    assert len(ViolationCode) == 12


def reachability_cycle_groups(nodes, edges):
    """Cycle-group oracle: a full reachability set per node, O(N * (N + E))."""
    reach = {}
    for node in nodes:
        seen, stack = set(), list(edges.get(node, ()))
        while stack:
            current = stack.pop()
            if current not in seen:
                seen.add(current)
                stack.extend(edges.get(current, ()))
        reach[node] = seen
    cyclic = [n for n in nodes if n in reach[n]]
    groups, assigned = [], set()
    for node in sorted(cyclic):
        if node not in assigned:
            group = sorted(m for m in cyclic if m == node or (m in reach[node] and node in reach[m]))
            assigned.update(group)
            groups.append(group)
    return groups


@pytest.mark.parametrize("seed", range(500))
def test_derives_cycles_match_reachability_oracle(schema, seed):
    # Packages may derive from themselves, or from a package never declared.
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(1, 12))]
    targets = nodes + ["ghost"]
    density = rng.random() * 0.3
    edges = {node: sorted(t for t in targets if rng.random() < density) for node in nodes}
    graph = new_scenario("t")
    for node in nodes:
        graph.packages[node] = DataPackage(node, derives_from=tuple(edges[node]))
    groups = [
        v.message.removeprefix("package derivation cycle: ").split(" -> ")
        for v in validate(schema, graph).violations
        if v.code is ViolationCode.DERIVES_CYCLE
    ]
    assert groups == reachability_cycle_groups(nodes, edges)


def timed_validate(schema, graph):
    start = time.perf_counter()
    report = validate(schema, graph)
    assert time.perf_counter() - start < 1.0
    return report


def test_long_chains_validate_in_linear_time(schema):
    # A full reachability set per node made a 4,000-package chain take
    # seconds and hundreds of MB.
    size = 5000
    ids = [f"p{i:04}" for i in range(size)]
    packages = new_scenario("packages")
    for i, package_id in enumerate(ids):
        packages.add_package(DataPackage(package_id, derives_from=(ids[i - 1],) if i else ()))
    entities = new_scenario("entities")
    for i, entity_id in enumerate(ids):
        entities.add_entity(entity_id, "VC")
        if i:
            entities.add_semantic_relation(f"r{i}", "isPartOf", ids[i - 1], entity_id)
    assert timed_validate(schema, packages).violations == []
    assert timed_validate(schema, entities).violations == []

    packages.packages[ids[0]] = DataPackage(ids[0], derives_from=(ids[-1],))
    entities.add_semantic_relation("r0", "isPartOf", ids[-1], ids[0])
    for graph, code, label in (
        (packages, ViolationCode.DERIVES_CYCLE, "package derivation cycle: "),
        (entities, ViolationCode.PART_OF_CYCLE, "isPartOf cycle: "),
    ):
        (violation,) = timed_validate(schema, graph).violations
        assert violation.code is code and violation.subject == ids[0]
        assert violation.message == label + " -> ".join(ids)


def test_attribute_maps_that_are_not_maps_are_reported(schema):
    graph = (
        new_scenario("t")
        .add_entity("car", "V")
        .add_entity("p", "P")
        .add_entity("cam", "AVS")
        .add_semantic_relation("r1", "occupy", "p", "car", {"role": "driver"})
        .add_semantic_relation("r2", "ownedBy", "cam", "p")
    )
    graph.entities["car"].attributes = None
    graph.entities["p"].attributes = ["static"]
    graph.relations["r1"].attributes = None
    graph.relations["r2"].attributes = [("role", "x")]
    report = validate(schema, graph)
    assert [(v.code, v.subject, v.message) for v in report.violations] == [
        (ViolationCode.ATTRIBUTE_MISUSE, "car", "attributes must be a map, not NoneType"),
        (ViolationCode.ATTRIBUTE_MISUSE, "p", "attributes must be a map, not list"),
        (ViolationCode.ATTRIBUTE_MISUSE, "r1", "attributes must be a map, not NoneType"),
        (
            ViolationCode.ROLE_MISSING,
            "r1",
            "occupy relation 'r1' has no 'role'; expected \"driver\" or \"passenger\"",
        ),
        (ViolationCode.ATTRIBUTE_MISUSE, "r2", "attributes must be a map, not list"),
    ]


def test_every_flow_of_one_mismatched_shape_is_reported(schema):
    graph = new_scenario("t").add_entity("driver", "P").add_entity("dashcam", "AVS")
    graph.add_package(DataPackage("DP"))
    for i in range(40):
        graph.add_flow(f"f{i:02}", "E16", "driver", "dashcam", "DP")
    report = validate(schema, graph)
    assert [v.subject for v in report.violations] == [f"f{i:02}" for i in range(40)]
    assert {(v.code, v.message) for v in report.violations} == {
        (ViolationCode.ENDPOINT_MISMATCH, "E16 connects V and TMS; got P -> AVS")
    }


def per_flow_conformance(schema, graph):
    """Oracle: the conformance violations, decided afresh for every flow."""
    found = []
    for flow in graph.flows.values():
        src = graph.entities[flow.source].entity_type
        dst = graph.entities[flow.target].entity_type
        if schema.flow_conforms(flow.edge_type, src, dst):
            continue
        edge = schema.flow_edge_types[flow.edge_type]
        ends = f"{edge.source.code} -> {edge.target.code}"
        if not edge.bidirectional and schema.flow_conforms(flow.edge_type, dst, src):
            found.append(
                (
                    ViolationCode.DIRECTION_VIOLATION,
                    flow.id,
                    f"uni-directional {edge.id} ({ends}) used in reverse",
                )
            )
        else:
            found.append(
                (
                    ViolationCode.ENDPOINT_MISMATCH,
                    flow.id,
                    f"{edge.id} connects {edge.source.code} and {edge.target.code}; "
                    f"got {src.code} -> {dst.code}",
                )
            )
    return sorted(found, key=lambda v: (v[1], v[0].value, v[2]))


@pytest.mark.parametrize("seed", range(20))
def test_flow_verdicts_match_per_flow_oracle(schema, seed):
    # Two entities of every type; each flow runs along its edge type, against
    # it, or between two random entities, so that every verdict occurs.
    rng = random.Random(seed)
    graph = new_scenario("t").add_package(DataPackage("DP"))
    for etype in sorted(EntityType, key=lambda t: t.code):
        if etype is not EntityType.DATA_PACKAGE:
            graph.add_entity(f"{etype.code}1", etype).add_entity(f"{etype.code}2", etype)
    for i in range(150):
        edge = schema.flow_edge_types[rng.choice(sorted(schema.flow_edge_types))]
        ends = [f"{edge.source.code}1", f"{edge.target.code}2"]
        way = rng.choice(("along", "against", "random"))
        if way == "against":
            ends.reverse()
        elif way == "random":
            ends = rng.sample(sorted(graph.entities), 2)
        graph.add_flow(f"f{i:03}", edge.id, *ends, "DP")
    conformance = {ViolationCode.DIRECTION_VIOLATION, ViolationCode.ENDPOINT_MISMATCH}
    found = [
        (v.code, v.subject, v.message)
        for v in validate(schema, graph).violations
        if v.code in conformance
    ]
    assert found == per_flow_conformance(schema, graph)
    assert {code for code, _, _ in found} == conformance
    assert len(found) < len(graph.flows)


def test_unhashable_endpoint_type_is_skipped(schema):
    graph = (
        new_scenario("t")
        .add_entity("car", "V")
        .add_entity("org", "O")
        .add_flow("f", "E20", "car", "org", DataPackage("DP"))
        .add_flow("g", "E20", "org", "car", "DP")
    )
    graph.entities["car"].entity_type = ["V"]
    report = validate(schema, graph)
    assert [(v.code, v.subject) for v in report.violations] == [
        (ViolationCode.UNKNOWN_TYPE, "car")
    ]


def test_flow_ids_are_text_and_filed_under_themselves(schema):
    graph = new_scenario("t").add_entity("a", "P").add_entity("b", "V")
    graph.add_flow("f", "E1", "a", "b", DataPackage("d"))
    graph.flows["g"] = graph.flows["f"]
    graph.flows[3] = FlowInstance(3, "E1", "a", "b", "d")
    graph.flows["h"] = FlowInstance(["h"], "E1", "a", "b", "d")
    report = validate(schema, graph)
    assert [(v.code, v.subject, v.message) for v in report.violations] == [
        (ViolationCode.DUPLICATE_ID, "3", "flow id 3 is not text"),
        (ViolationCode.DUPLICATE_ID, "g", "flow 'f' is filed under 'g'"),
        (ViolationCode.DUPLICATE_ID, "h", "flow ['h'] is filed under 'h'"),
    ]


def test_validate_is_total_on_hand_set_ids(schema):
    # A package id that is not hashable, and violations about an int id and
    # a text one, which once made the report fail to sort.
    graph = new_scenario("t").add_entity("a", "P").add_entity("b", "V")
    graph.add_package(DataPackage("base")).add_package(DataPackage("d", derives_from=("base",)))
    graph.packages["d"].id = ["d"]
    graph.flows[1] = FlowInstance(1, "E1", "a", "ghost", "d")
    graph.flows["f3"] = FlowInstance("f3", "E1", "a", "ghost", "d")
    report = validate(schema, graph)
    assert [(v.code, v.subject) for v in report.violations] == [
        (ViolationCode.DANGLING_REF, "1"),
        (ViolationCode.DUPLICATE_ID, "1"),
        (ViolationCode.DUPLICATE_ID, "d"),
        (ViolationCode.DANGLING_REF, "f3"),
    ]
    assert report.violations[2].message == "package ['d'] is filed under 'd'"
