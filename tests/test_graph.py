"""Instance graph construction: reference checks, atomicity, attributes."""
from __future__ import annotations

import pytest

from vdse.errors import (
    AttributeMisuseError,
    DanglingReferenceError,
    DuplicateIdError,
    IdentifierError,
    PackageConflictError,
    SelfLoopError,
    UnknownTypeError,
)
from vdse.graph import DataPackage, check_entity_attributes, new_scenario
from vdse.schema import EntityType, builtin_schema


def small_graph():
    return (
        new_scenario("t")
        .add_entity("driver", "P")
        .add_entity("car", "V")
        .add_entity("app", "DA")
    )


def snapshot(graph):
    return (
        dict(graph.entities),
        dict(graph.relations),
        dict(graph.flows),
        dict(graph.packages),
    )


def test_new_scenario_requires_name():
    with pytest.raises(IdentifierError):
        new_scenario("")
    with pytest.raises(IdentifierError):
        new_scenario(None)


def test_add_entity_and_lookup():
    graph = small_graph()
    assert graph.entity_type_of("car") is EntityType.VEHICLE
    assert graph.entities["driver"].privacy_preserving is False


def test_add_entity_duplicate():
    graph = small_graph()
    before = snapshot(graph)
    with pytest.raises(DuplicateIdError):
        graph.add_entity("car", "V")
    assert snapshot(graph) == before


def test_add_entity_rejects_data_package_type():
    graph = new_scenario("t")
    with pytest.raises(UnknownTypeError) as exc:
        graph.add_entity("x", "DP")
    assert "not an instantiable entity type" in str(exc.value)
    assert not graph.entities


@pytest.mark.parametrize("bad_id", ["1x", "a-b", "a b", "", "e3.fwd"])
def test_add_entity_rejects_bad_identifier(bad_id):
    graph = new_scenario("t")
    with pytest.raises(IdentifierError):
        graph.add_entity(bad_id, "P")


def test_add_entity_attribute_misuse_is_atomic():
    graph = new_scenario("t")
    with pytest.raises(AttributeMisuseError):
        graph.add_entity("p", "P", {"static": ["vin"]})  # only V/VC carry these
    assert not graph.entities


def test_reserved_attribute_checks():
    schema = builtin_schema()
    assert check_entity_attributes(schema, EntityType.VEHICLE, {"static": ["vin"]}) == []
    assert check_entity_attributes(
        schema, EntityType.GOVERNMENT_BODY, {"category": "authority"}
    ) == []
    problems = check_entity_attributes(schema, EntityType.PERSON, {"category": "x"})
    assert problems and "O, G, or SP" in problems[0]
    problems = check_entity_attributes(schema, EntityType.VEHICLE, {"dynamic": "speed"})
    assert problems and "list of text" in problems[0]


def test_empty_list_attribute_rejected():
    graph = new_scenario("t")
    with pytest.raises(AttributeMisuseError) as exc:
        graph.add_entity("car", "V", {"static": []})
    assert "omit the attribute" in str(exc.value)


def test_privacy_preserving_flag():
    graph = new_scenario("t").add_entity("cam", "AVS", {"privacy_preserving": True})
    assert graph.entities["cam"].privacy_preserving is True


def test_add_package_rules():
    graph = new_scenario("t")
    graph.add_package(DataPackage("a"))
    graph.add_package(DataPackage("b", derives_from=("a",)))
    assert graph.packages["b"].derives_from == ("a",)
    with pytest.raises(DuplicateIdError):
        graph.add_package(DataPackage("a"))
    with pytest.raises(DanglingReferenceError):
        graph.add_package(DataPackage("c", derives_from=("ghost",)))
    with pytest.raises(PackageConflictError):
        graph.add_package(DataPackage("c", derives_from=("a", "a")))
    assert sorted(graph.packages) == ["a", "b"]


def test_add_package_sorts_derivations():
    graph = new_scenario("t")
    graph.add_package(DataPackage("b"))
    graph.add_package(DataPackage("a"))
    graph.add_package(DataPackage("c", derives_from=("b", "a")))
    assert graph.packages["c"].derives_from == ("a", "b")


def test_add_flow_registers_inline_package():
    graph = small_graph()
    graph.add_flow("f1", "E1", "driver", "car", DataPackage("DP1", "habits"))
    assert graph.flows["f1"].package == "DP1"
    assert graph.packages["DP1"].description == "habits"
    # Same content may be offered again; different content may not.
    graph.add_flow("f2", "E2", "driver", "app", DataPackage("DP1", "habits"))
    with pytest.raises(PackageConflictError):
        graph.add_flow("f3", "E3", "app", "car", DataPackage("DP1", "other"))
    assert "f3" not in graph.flows


def test_add_flow_requires_existing_package_by_name():
    graph = small_graph()
    with pytest.raises(DanglingReferenceError):
        graph.add_flow("f1", "E1", "driver", "car", "DP1")
    graph.add_package(DataPackage("DP1"))
    graph.add_flow("f1", "E1", "driver", "car", "DP1")
    assert graph.flows["f1"].package == "DP1"


def test_add_flow_reference_errors_are_atomic():
    graph = small_graph()
    graph.add_package(DataPackage("DP1"))
    before = snapshot(graph)
    with pytest.raises(UnknownTypeError):
        graph.add_flow("f1", "E99", "driver", "car", "DP1")
    with pytest.raises(DanglingReferenceError):
        graph.add_flow("f1", "E1", "driver", "ghost", "DP1")
    with pytest.raises(SelfLoopError):
        graph.add_flow("f1", "E12", "car", "car", "DP1")
    with pytest.raises(IdentifierError):
        graph.add_flow("f1.fwd", "E1", "driver", "car", "DP1")
    assert snapshot(graph) == before
    graph.add_flow("f1", "E1", "driver", "car", "DP1")
    with pytest.raises(DuplicateIdError):
        graph.add_flow("f1", "E1", "driver", "car", "DP1")


def test_bidirectional_flow_creates_both_halves():
    graph = small_graph()
    graph.add_bidirectional_flow("x", "E3", "app", "car", DataPackage("DP3"))
    assert sorted(graph.flows) == ["x.fwd", "x.rev"]
    fwd, rev = graph.flows["x.fwd"], graph.flows["x.rev"]
    assert (fwd.source, fwd.target) == ("app", "car")
    assert (rev.source, rev.target) == ("car", "app")
    assert fwd.package == rev.package == "DP3"
    assert "DP3" in graph.packages


def test_bidirectional_flow_is_atomic():
    graph = small_graph()
    graph.add_flow("y", "E1", "driver", "car", DataPackage("DP1"))
    before = snapshot(graph)
    with pytest.raises(DanglingReferenceError):
        graph.add_bidirectional_flow("x", "E3", "app", "ghost", "DP1")
    assert snapshot(graph) == before


def test_add_semantic_relation_checks():
    graph = small_graph()
    graph.add_semantic_relation("r1", "occupy", "driver", "car", {"role": "driver"})
    assert graph.relations["r1"].attributes == {"role": "driver"}
    with pytest.raises(UnknownTypeError):
        graph.add_semantic_relation("r2", "drives", "driver", "car")
    with pytest.raises(DanglingReferenceError):
        graph.add_semantic_relation("r2", "ownedBy", "driver", "ghost")
    with pytest.raises(DuplicateIdError):
        graph.add_semantic_relation("r1", "occupy", "driver", "car")
    assert sorted(graph.relations) == ["r1"]


def test_builder_chaining_returns_graph():
    graph = new_scenario("t")
    out = graph.add_entity("a", "P")
    assert out is graph


def test_plain_flow_and_pair_cannot_share_a_name():
    graph = small_graph().add_package(DataPackage("DP3"))
    graph.add_bidirectional_flow("x", "E3", "app", "car", "DP3")
    before = snapshot(graph)
    with pytest.raises(DuplicateIdError) as exc:
        graph.add_flow("x", "E3", "app", "car", "DP3")
    assert str(exc.value) == "flow id 'x' already declared as a bidirectional pair"
    assert snapshot(graph) == before

    graph = small_graph().add_package(DataPackage("DP3"))
    graph.add_flow("x", "E3", "app", "car", "DP3")
    before = snapshot(graph)
    with pytest.raises(DuplicateIdError) as exc:
        graph.add_bidirectional_flow("x", "E3", "app", "car", "DP3")
    assert str(exc.value) == "flow id 'x' already declared"
    assert snapshot(graph) == before
