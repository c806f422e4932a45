"""Instance graph construction: reference checks, atomicity, attributes."""
from __future__ import annotations

import copy

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
from vdse.schema import EntityType, TypeGraph, builtin_schema


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


_VEHICLES = {EntityType.VEHICLE, EntityType.VEHICLE_COMPONENT}
_ORGANISATIONS = {
    EntityType.ORGANISATION, EntityType.GOVERNMENT_BODY, EntityType.SERVICE_PROVIDER
}
RESERVED_KEYS = ("static", "dynamic", "category", "privacy_preserving", "label")


class Text(str):
    pass


# Text, a str subclass, both truth values, a number, nothing, a list of
# text, an empty list, a list holding a non-text value, and a frozenset.
VALUE_SHAPES = ("x", Text("x"), True, False, 1, None, ["a", "b"], [], ["a", 1], frozenset({"a"}))


def reserved_attribute_oracle(entity_type, attributes) -> list:
    """check_entity_attributes under the built-in schema, key by key, with
    the subtypes of V and O written out."""
    etype = EntityType.coerce(entity_type)
    problems = []
    for key in ("static", "dynamic"):
        if key not in attributes:
            continue
        value = attributes[key]
        if etype not in _VEHICLES:
            problems.append(f"{key!r} is only allowed on V or VC entities")
        elif not isinstance(value, list) or any(not isinstance(i, str) for i in value):
            problems.append(f"{key!r} must be a list of text")
    if "category" in attributes:
        if etype not in _ORGANISATIONS:
            problems.append("'category' is only allowed on O, G, or SP entities")
        elif not isinstance(attributes["category"], str):
            problems.append("'category' must be text")
    if "privacy_preserving" in attributes:
        if not isinstance(attributes["privacy_preserving"], bool):
            problems.append("'privacy_preserving' must be a truth value")
    if "label" in attributes and not isinstance(attributes["label"], str):
        problems.append("'label' must be text")
    return problems


def test_reserved_attribute_checks_match_a_per_key_oracle():
    builtin = builtin_schema()
    fresh = TypeGraph(
        frozenset(EntityType),
        dict(builtin.subclass_parent),
        dict(builtin.semantic_relations),
        dict(builtin.flow_edge_types),
    )
    assert fresh == builtin and fresh is not builtin
    maps = [{}, {"note": "x"}, {frozenset({"static"}): "x", "label": "y"}]
    for shape in VALUE_SHAPES:
        maps += [{key: shape} for key in RESERVED_KEYS]
        maps += [{key: shape, "note": ["n"]} for key in RESERVED_KEYS]
        maps.append(dict.fromkeys(RESERVED_KEYS, shape))
    checked = 0
    for etype in EntityType:
        for entity_type in (etype, etype.value, etype.display_name):
            for attributes in maps:
                want = reserved_attribute_oracle(entity_type, attributes)
                for schema in (builtin, fresh):
                    got = check_entity_attributes(schema, entity_type, attributes)
                    assert got == want, (entity_type, attributes)
                    checked += 1
    assert checked == 14 * 3 * 2 * (3 + 11 * len(VALUE_SHAPES))


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


def test_add_package_sorts_derivations_of_any_hand_set_id():
    # A package filed by hand under a key that is not text can still be
    # derived from; the derivations are ordered as text, as when a flow
    # offers the same package again.
    graph = new_scenario("t").add_package(DataPackage("P"))
    graph.packages[5] = DataPackage(5)
    graph.add_package(DataPackage("q", derives_from=[5, "P"]))
    assert graph.packages["q"].derives_from == (5, "P")
    graph.add_entity("a", "P").add_entity("b", "V")
    graph.add_flow("f", "E1", "a", "b", DataPackage("q", derives_from=["P", 5]))
    assert graph.flows["f"].package == "q"


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


def defect_graph():
    """A graph with one of each record, for calls that carry two defects."""
    graph = small_graph().add_package(DataPackage("DP1"))
    graph.add_flow("f", "E1", "driver", "car", "DP1")
    graph.add_bidirectional_flow("x", "E3", "app", "car", "DP1")
    graph.add_semantic_relation("r1", "occupy", "driver", "car", {"role": "driver"})
    return graph


# Calls with two (or more) defects, the error that wins and its message.
# The public methods check in a fixed order; a parser or a caller that sees
# only the first error must see the same one whatever else is wrong.
TWO_DEFECT_CALLS = {
    "entity_bad_id_and_dp_type": (
        lambda g: g.add_entity("1x", "DP"),
        IdentifierError,
        "invalid entity id '1x'",
    ),
    "entity_bad_id_and_duplicate_key": (
        lambda g: g.add_entity("car x", "V", {"bad key": "v"}),
        IdentifierError,
        "invalid entity id 'car x'",
    ),
    "entity_unknown_type_and_duplicate": (
        lambda g: g.add_entity("car", "NOPE"),
        UnknownTypeError,
        "unknown entity type code 'NOPE'",
    ),
    "entity_dp_type_and_duplicate": (
        lambda g: g.add_entity("car", "DP"),
        UnknownTypeError,
        "DataPackage is not an instantiable entity type; "
        "declare a package and attach it to a flow instead",
    ),
    "entity_dp_type_and_bad_key": (
        lambda g: g.add_entity("y", "DataPackage", {"bad key": "v"}),
        UnknownTypeError,
        "DataPackage is not an instantiable entity type; "
        "declare a package and attach it to a flow instead",
    ),
    "entity_duplicate_and_reserved_misuse": (
        lambda g: g.add_entity("car", "V", {"category": "x"}),
        DuplicateIdError,
        "entity id 'car' already declared",
    ),
    "entity_duplicate_and_empty_list": (
        lambda g: g.add_entity("car", "V", {"static": []}),
        DuplicateIdError,
        "entity id 'car' already declared",
    ),
    "entity_bad_key_and_reserved_misuse": (
        lambda g: g.add_entity("y", "P", {"static": ["a"], "bad key": "v"}),
        IdentifierError,
        "invalid attribute id 'bad key'",
    ),
    "entity_bad_value_and_reserved_misuse": (
        lambda g: g.add_entity("y", "P", {"category": "x", "n": 3}),
        AttributeMisuseError,
        "attribute 'n' must be text, a truth value, or a list of text",
    ),
    "entity_two_reserved_misuses": (
        lambda g: g.add_entity("y", "P", {"category": "x", "static": ["a"]}),
        AttributeMisuseError,
        "'static' is only allowed on V or VC entities; "
        "'category' is only allowed on O, G, or SP entities",
    ),
    "package_bad_id_and_description": (
        lambda g: g.add_package(DataPackage("1x", None)),
        IdentifierError,
        "invalid package id '1x'",
    ),
    "package_duplicate_and_description": (
        lambda g: g.add_package(DataPackage("DP1", None, ["a", 2])),
        DuplicateIdError,
        "package id 'DP1' already declared",
    ),
    "package_description_and_items": (
        lambda g: g.add_package(DataPackage("q", None, ["a", 2])),
        AttributeMisuseError,
        "package description must be text",
    ),
    "package_items_and_dangling_derivation": (
        lambda g: g.add_package(DataPackage("q", "", [2], ("ghost",))),
        AttributeMisuseError,
        "package items must be text",
    ),
    "package_derivation_twice_and_dangling": (
        lambda g: g.add_package(DataPackage("q", derives_from=("DP1", "DP1", "ghost"))),
        PackageConflictError,
        "package 'q' lists derivation 'DP1' twice",
    ),
    "package_dangling_and_derivation_twice": (
        lambda g: g.add_package(DataPackage("q", derives_from=("ghost", "DP1", "DP1"))),
        DanglingReferenceError,
        "package 'q' derives from unknown package 'ghost'",
    ),
    "relation_bad_id_and_unknown_name": (
        lambda g: g.add_semantic_relation("1x", "drives", "driver", "car"),
        IdentifierError,
        "invalid relation id '1x'",
    ),
    "relation_unknown_name_and_duplicate": (
        lambda g: g.add_semantic_relation("r1", "drives", "driver", "car"),
        UnknownTypeError,
        "unknown semantic relation 'drives'",
    ),
    "relation_duplicate_and_dangling": (
        lambda g: g.add_semantic_relation("r1", "ownedBy", "driver", "ghost"),
        DuplicateIdError,
        "relation id 'r1' already declared",
    ),
    "relation_duplicate_and_empty_list": (
        lambda g: g.add_semantic_relation("r1", "occupy", "driver", "car", {"role": []}),
        DuplicateIdError,
        "relation id 'r1' already declared",
    ),
    "relation_two_dangling": (
        lambda g: g.add_semantic_relation("r2", "ownedBy", "ghost", "phantom"),
        DanglingReferenceError,
        "relation 'r2' references unknown entity 'ghost'",
    ),
    "relation_dangling_and_bad_value": (
        lambda g: g.add_semantic_relation("r2", "ownedBy", "car", "ghost", {"n": 3}),
        DanglingReferenceError,
        "relation 'r2' references unknown entity 'ghost'",
    ),
    "relation_bad_key_and_bad_value": (
        lambda g: g.add_semantic_relation("r2", "ownedBy", "car", "app", {"bad key": 3}),
        IdentifierError,
        "invalid attribute id 'bad key'",
    ),
    "flow_bad_id_and_unknown_edge": (
        lambda g: g.add_flow("x.fwd", "E99", "driver", "car", "DP1"),
        IdentifierError,
        "invalid flow id 'x.fwd'",
    ),
    "flow_pair_collision_and_self_loop": (
        lambda g: g.add_flow("x", "E12", "car", "car", "DP1"),
        DuplicateIdError,
        "flow id 'x' already declared as a bidirectional pair",
    ),
    "flow_unknown_edge_and_dangling": (
        lambda g: g.add_flow("g", "E99", "driver", "ghost", "DP1"),
        UnknownTypeError,
        "unknown flow edge type 'E99'",
    ),
    "flow_unknown_edge_and_duplicate": (
        lambda g: g.add_flow("f", "E99", "driver", "car", "DP1"),
        UnknownTypeError,
        "unknown flow edge type 'E99'",
    ),
    "flow_duplicate_and_dangling": (
        lambda g: g.add_flow("f", "E1", "driver", "ghost", "DP1"),
        DuplicateIdError,
        "flow id 'f' already declared",
    ),
    "flow_dangling_and_self_loop": (
        lambda g: g.add_flow("g", "E12", "ghost", "ghost", "DP1"),
        DanglingReferenceError,
        "flow 'g' references unknown entity 'ghost'",
    ),
    "flow_self_loop_and_missing_package": (
        lambda g: g.add_flow("g", "E12", "car", "car", "nope"),
        SelfLoopError,
        "flow 'g' connects 'car' to itself",
    ),
    "flow_self_loop_and_package_conflict": (
        lambda g: g.add_flow("g", "E12", "car", "car", DataPackage("DP1", "other")),
        SelfLoopError,
        "flow 'g' connects 'car' to itself",
    ),
    "flow_package_conflict": (
        lambda g: g.add_flow("g", "E1", "driver", "car", DataPackage("DP1", "other")),
        PackageConflictError,
        "package 'DP1' redeclared with different content",
    ),
    "flow_inline_package_description_and_items": (
        lambda g: g.add_flow("g", "E1", "driver", "car", DataPackage("q", None, [2])),
        AttributeMisuseError,
        "package description must be text",
    ),
    "pair_bad_id_and_unknown_edge": (
        lambda g: g.add_bidirectional_flow("1x", "E99", "app", "car", "DP1"),
        IdentifierError,
        "invalid flow id '1x'",
    ),
    "pair_collision_and_self_loop": (
        lambda g: g.add_bidirectional_flow("f", "E12", "car", "car", "DP1"),
        DuplicateIdError,
        "flow id 'f' already declared",
    ),
    "pair_duplicate_and_dangling": (
        lambda g: g.add_bidirectional_flow("x", "E3", "app", "ghost", "DP1"),
        DuplicateIdError,
        "flow id 'x.fwd' already declared",
    ),
    "pair_unknown_edge_and_dangling": (
        lambda g: g.add_bidirectional_flow("y", "E99", "app", "ghost", "DP1"),
        UnknownTypeError,
        "unknown flow edge type 'E99'",
    ),
    "pair_dangling_and_self_loop": (
        lambda g: g.add_bidirectional_flow("y", "E3", "ghost", "ghost", "DP1"),
        DanglingReferenceError,
        "flow 'y.fwd' references unknown entity 'ghost'",
    ),
    "pair_self_loop_and_missing_package": (
        lambda g: g.add_bidirectional_flow("y", "E12", "car", "car", "nope"),
        SelfLoopError,
        "flow 'y.fwd' connects 'car' to itself",
    ),
    "pair_missing_package": (
        lambda g: g.add_bidirectional_flow("y", "E3", "app", "car", "nope"),
        DanglingReferenceError,
        "flow 'y' references unknown package 'nope'",
    ),
}


# Calls whose arguments have the wrong shape, each with the GraphError it
# raises: a value that is not hashable names nothing, as in validate.
WRONG_SHAPE_CALLS = {
    "package_items_int": (
        lambda g: g.add_package(DataPackage("q", items=5)),
        AttributeMisuseError,
        "package items must be text",
    ),
    "package_items_text": (
        lambda g: g.add_package(DataPackage("q", items="ab")),
        AttributeMisuseError,
        "package items must be text",
    ),
    "package_derives_int": (
        lambda g: g.add_package(DataPackage("q", derives_from=5)),
        DanglingReferenceError,
        "package 'q' derives from 5, not a list of packages",
    ),
    "package_derives_none": (
        lambda g: g.add_package(DataPackage("q", derives_from=None)),
        DanglingReferenceError,
        "package 'q' derives from None, not a list of packages",
    ),
    "package_derives_list": (
        lambda g: g.add_package(DataPackage("q", derives_from=[["DP1"]])),
        DanglingReferenceError,
        "package 'q' derives from unknown package ['DP1']",
    ),
    "entity_attributes_int": (
        lambda g: g.add_entity("y", "P", 5),
        AttributeMisuseError,
        "attributes must be a map, not int",
    ),
    "entity_attributes_pairs": (
        lambda g: g.add_entity("y", "P", [("label", "b")]),
        AttributeMisuseError,
        "attributes must be a map, not list",
    ),
    "relation_attributes_int": (
        lambda g: g.add_semantic_relation("r2", "ownedBy", "car", "app", 5),
        AttributeMisuseError,
        "attributes must be a map, not int",
    ),
    "relation_name_list": (
        lambda g: g.add_semantic_relation("r2", ["ownedBy"], "car", "app"),
        UnknownTypeError,
        "unknown semantic relation ['ownedBy']",
    ),
    "relation_endpoint_list": (
        lambda g: g.add_semantic_relation("r2", "ownedBy", "car", ["app"]),
        DanglingReferenceError,
        "relation 'r2' references unknown entity ['app']",
    ),
    "flow_package_int": (
        lambda g: g.add_flow("g", "E1", "driver", "car", 5),
        DanglingReferenceError,
        "flow 'g' references unknown package 5",
    ),
    "flow_package_list": (
        lambda g: g.add_flow("g", "E1", "driver", "car", ["DP1"]),
        DanglingReferenceError,
        "flow 'g' references unknown package ['DP1']",
    ),
    "flow_inline_package_items_int": (
        lambda g: g.add_flow("g", "E1", "driver", "car", DataPackage("q", items=5)),
        AttributeMisuseError,
        "package items must be text",
    ),
    "flow_inline_package_derives_none": (
        lambda g: g.add_flow("g", "E1", "driver", "car", DataPackage("q", derives_from=None)),
        DanglingReferenceError,
        "package 'q' derives from None, not a list of packages",
    ),
    "flow_declared_package_items_int": (
        lambda g: g.add_flow("g", "E1", "driver", "car", DataPackage("DP1", items=5)),
        AttributeMisuseError,
        "package items must be text",
    ),
    "flow_declared_package_derives_int": (
        lambda g: g.add_flow("g", "E1", "driver", "car", DataPackage("DP1", derives_from=5)),
        DanglingReferenceError,
        "package 'DP1' derives from 5, not a list of packages",
    ),
    "flow_declared_package_mixed_derives": (
        lambda g: g.add_flow(
            "g", "E1", "driver", "car", DataPackage("DP1", derives_from=[["x"], "y"])
        ),
        PackageConflictError,
        "package 'DP1' redeclared with different content",
    ),
    "flow_edge_type_list": (
        lambda g: g.add_flow("g", ["E1"], "driver", "car", "DP1"),
        UnknownTypeError,
        "unknown flow edge type ['E1']",
    ),
    "flow_endpoint_list": (
        lambda g: g.add_flow("g", "E1", ["driver"], "car", "DP1"),
        DanglingReferenceError,
        "flow 'g' references unknown entity ['driver']",
    ),
    "pair_endpoint_list": (
        lambda g: g.add_bidirectional_flow("y", "E3", "app", ["car"], "DP1"),
        DanglingReferenceError,
        "flow 'y.fwd' references unknown entity ['car']",
    ),
}


REFUSED_CALLS = {**TWO_DEFECT_CALLS, **WRONG_SHAPE_CALLS}


@pytest.mark.parametrize("call, error, message", REFUSED_CALLS.values(), ids=REFUSED_CALLS)
def test_first_defect_wins_and_graph_is_unchanged(call, error, message):
    graph = defect_graph()
    before = copy.deepcopy(graph)
    with pytest.raises(error) as exc:
        call(graph)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert graph == before


def test_public_methods_store_copies_of_caller_input():
    graph = small_graph()
    entity_attrs = {"static": ["vin"], "label": "my car"}
    relation_attrs = {"role": "driver"}
    items = ["speed"]
    inline_items = ["route"]
    graph.add_entity("car2", "V", entity_attrs)
    graph.add_semantic_relation("r1", "occupy", "driver", "car", relation_attrs)
    graph.add_package(DataPackage("DP1", "d", items))
    graph.add_flow("f", "E1", "driver", "car", DataPackage("DP2", "", inline_items))
    before = copy.deepcopy(graph)

    entity_attrs["label"] = "changed"
    entity_attrs["dynamic"] = ["speed"]
    entity_attrs["static"].append("plate")
    relation_attrs["role"] = "passenger"
    del relation_attrs["role"]
    items.append("location")
    inline_items.clear()
    assert graph == before
