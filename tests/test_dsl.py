"""Scenario text format: parsing, diagnostics, canonical serialization."""
from __future__ import annotations

import hashlib
import random
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import build_random_graph, wellformed_graphs
from vdse import dsl
from vdse.dsl import _quote, _tokenize, _unquote, parse, serialize
from vdse.errors import MalformedGraphError, ParseError
from vdse.graph import (
    DataPackage,
    EntityInstance,
    FlowInstance,
    InstanceGraph,
    SemanticRelationInstance,
    new_scenario,
)
from vdse.schema import EntityType
from vdse.scenarios import load_scenario, scenario_text

MINIMAL = (
    'scenario "t"\n'
    "entity driver: P\n"
    "entity car: V\n"
    'package DP1_1 "driving data"\n'
    "flow e1_1: E1 driver -> car package DP1_1\n"
)
# Four lines that declare entities a and b and package p; the error rows
# below put one statement after them, on line 5, and pin its whole message.
DECLARED = 'scenario "t"\nentity a: P\nentity b: DA\npackage p\n'


def test_parse_minimal_scenario():
    graph = parse(MINIMAL)
    assert graph.name == "t"
    assert sorted(graph.entities) == ["car", "driver"]
    assert sorted(graph.flows) == ["e1_1"]
    assert graph.packages["DP1_1"].description == "driving data"


def test_parse_accepts_comments_blank_lines_and_crlf():
    text = 'scenario "a"\r\n\r\n# a comment\r\nentity x: P  # trailing comment\r\n'
    graph = parse(text)
    assert sorted(graph.entities) == ["x"]


def test_parse_attrs_and_lists():
    graph = parse(
        'scenario "a"\n'
        'entity car: V {static = ["VRM", "make"], dynamic = ["speed"]}\n'
        'entity org: O {label = "Some\\nOrg", privacy_preserving = true}\n'
    )
    assert graph.entities["car"].attributes == {
        "static": ["VRM", "make"],
        "dynamic": ["speed"],
    }
    assert graph.entities["org"].attributes["label"] == "Some\nOrg"
    assert graph.entities["org"].privacy_preserving is True


def test_parse_bidirectional_sugar():
    graph = parse(
        'scenario "a"\n'
        "entity app: DA\n"
        "entity car: V\n"
        "package d\n"
        "flow x: E3 app <-> car package d\n"
    )
    assert sorted(graph.flows) == ["x.fwd", "x.rev"]
    assert graph.flows["x.fwd"].source == "app"
    assert graph.flows["x.rev"].source == "car"
    assert graph.flows["x.fwd"].package == graph.flows["x.rev"].package == "d"


def test_parse_package_clauses():
    graph = parse(
        'scenario "a"\n'
        "package base\n"
        'package full "desc" items ["one", "two"] derives base\n'
    )
    package = graph.packages["full"]
    assert package.description == "desc"
    assert package.items == ["one", "two"]
    assert package.derives_from == ("base",)


@pytest.mark.parametrize(
    "text,line,column,fragment",
    [
        ("", 1, 1, "empty input"),
        ("# only a comment\n", 2, 1, "empty input"),
        ("entity a: P\n", 1, 1, "expected 'scenario' header"),
        ('scenario "a"\nscenario "b"\n', 2, 1, "duplicate 'scenario' header"),
        ('scenario "a"\nfrobnicate x\n', 2, 1, "unknown statement"),
        ('scenario "a"\nentity x: DP\n', 2, 11, "unknown entity type code 'DP'"),
        (
            'scenario "a"\nentity a: P\nentity b: V\npackage d\n'
            "flow e9: E99 a -> b package d\n",
            5,
            10,
            "unknown flow edge type 'E99'",
        ),
        (
            'scenario "a"\nentity a: P\nentity b: V\n'
            "flow e1: E1 a -> b package DP1\n",
            4,
            28,
            "undeclared package 'DP1'",
        ),
        (
            'scenario "a"\nentity x: P {label = "a", label = "b"}\n',
            2,
            27,
            "duplicate attribute 'label'",
        ),
        ('scenario "a\n', 1, 10, "unterminated string"),
        ('scenario "a\\q"\n', 1, 12, "invalid escape"),
        (
            'scenario "a"\nentity a: V\npackage d\nflow f: E12 a -> a package d\n',
            4,
            18,
            "connects 'a' to itself",
        ),
        ('scenario "a"\nentity x: P\nentity x: P\n', 3, 8, "already declared"),
        ('scenario "a"\nentity x P\n', 2, 10, "expected ':'"),
        ('scenario "a"\npackage p derives q\n', 2, 19, "undeclared package 'q'"),
        (
            'scenario "a"\nentity a: P\nentity b: V\nrelation r: drives a -> b\n',
            4,
            13,
            "unknown semantic relation",
        ),
        ('scenario "a"\nentity x: P extra\n', 2, 13, "unexpected trailing"),
        ('scenario ""\n', 1, 10, "scenario name"),
        ('"a"\n', 1, 1, "expected statement keyword, got 'a'"),
        ("scenario\n", 1, 9, "expected scenario name"),
        ("scenario a\n", 1, 10, "expected scenario name, got 'a'"),
        ('scenario "a" "b"\n', 1, 14, "unexpected trailing 'b'"),
        *[
            (DECLARED + statement + "\n", 5, column, message)
            for statement, column, message in [
                ('"x" y', 1, "expected statement keyword, got 'x'"),
                ("frobnicate x", 1, "unknown statement 'frobnicate'"),
                ("entity", 7, "expected entity id"),
                ('entity "c"', 8, "expected entity id, got 'c'"),
                ("entity é: P", 8, "invalid identifier 'é'"),
                ("entity c", 9, "expected ':'"),
                ("entity c P", 10, "expected ':', got 'P'"),
                ("entity c:", 10, "expected entity type code"),
                ('entity c: "P"', 11, "expected entity type code, got 'P'"),
                ("entity c: DP", 11, "unknown entity type code 'DP'"),
                ("entity c: P {", 14, "expected attribute name"),
                ('entity c: P {"x"', 14, "expected attribute name, got 'x'"),
                ('entity c: P {ü = "x"}', 14, "invalid identifier 'ü'"),
                ("entity c: P {label", 19, "expected '='"),
                ('entity c: P {label "x"}', 20, "expected '=', got 'x'"),
                ("entity c: P {label =", 21, "expected attribute value"),
                ("entity c: P {label = x}", 22, "expected attribute value, got 'x'"),
                ('entity c: P {label = "x"', 25, "expected ',' or '}'"),
                ('entity c: P {label = "x" x}', 26, "expected ',' or '}', got 'x'"),
                ("entity c: P {tags = [", 22, "expected string"),
                ("entity c: P {tags = [x]}", 22, "expected string, got 'x'"),
                ('entity c: P {tags = ["x"', 25, "expected ',' or ']'"),
                ('entity c: P {tags = ["x" "y"]}', 26, "expected ',' or ']', got 'y'"),
                ("package", 8, "expected package id"),
                ('package "q"', 9, "expected package id, got 'q'"),
                ("package q items", 16, "expected '['"),
                ('package q items "x"', 17, "expected '[', got 'x'"),
                ("package q derives", 18, "expected package id"),
                ('package q derives "p"', 19, "expected package id, got 'p'"),
                ("package q derives p,", 21, "expected package id"),
                ("package q derives z", 19, "derives from undeclared package 'z'"),
                ("package q derives p z", 21, "unexpected trailing 'z'"),
                ("relation", 9, "expected relation id"),
                ("relation r", 11, "expected ':'"),
                ("relation r:", 12, "expected relation name"),
                ('relation r: "x"', 13, "expected relation name, got 'x'"),
                ("relation r: drives", 13, "unknown semantic relation 'drives'"),
                ("relation r: ownedBy", 20, "expected source entity id"),
                ('relation r: ownedBy "a"', 21, "expected source entity id, got 'a'"),
                ("relation r: ownedBy b", 22, "expected '->'"),
                ("relation r: ownedBy b <-> a", 23, "expected '->', got '<->'"),
                ("relation r: ownedBy b ->", 25, "expected target entity id"),
                ('relation r: ownedBy b -> "a"', 26, "expected target entity id, got 'a'"),
                ("relation r: ownedBy z -> a", 21, "unknown entity 'z'"),
                ("relation r: ownedBy b -> z", 26, "unknown entity 'z'"),
                ("flow", 5, "expected flow id"),
                ("flow f", 7, "expected ':'"),
                ("flow f:", 8, "expected flow edge type code"),
                ('flow f: "E2"', 9, "expected flow edge type code, got 'E2'"),
                ("flow f: E99", 9, "unknown flow edge type 'E99'"),
                ("flow f: E2", 11, "expected source entity id"),
                ('flow f: E2 "a"', 12, "expected source entity id, got 'a'"),
                ("flow f: E2 a", 13, "expected '->' or '<->'"),
                ("flow f: E2 a = b package p", 14, "expected '->' or '<->', got '='"),
                ("flow f: E2 a ->", 16, "expected target entity id"),
                ('flow f: E2 a -> "b"', 17, "expected target entity id, got 'b'"),
                ("flow f: E2 z -> b", 12, "unknown entity 'z'"),
                ("flow f: E2 a -> z", 17, "unknown entity 'z'"),
                ("flow f: E2 a -> b", 18, "expected 'package'"),
                ("flow f: E2 a -> b pkg p", 19, "expected 'package', got 'pkg'"),
                ('flow f: E2 a -> b "package" p', 19, "expected 'package', got 'package'"),
                ("flow f: E2 a -> b package", 26, "expected package id"),
                ('flow f: E2 a -> b package "p"', 27, "expected package id, got 'p'"),
                ("flow f: E2 a -> b package q", 27, "undeclared package 'q'"),
                ("flow f: E2 a -> b package p x", 29, "unexpected trailing 'x'"),
            ]
        ],
    ],
)
def test_parse_error_positions(text, line, column, fragment):
    with pytest.raises(ParseError) as exc:
        parse(text)
    error = exc.value
    assert (error.line, error.column) == (line, column)
    assert fragment in error.message
    lines = text.split("\n")
    assert 1 <= error.line <= max(1, len(lines))
    assert error.column >= 1
    assert str(error).startswith(f"line {line}, column {column}: ")


def test_parse_error_carries_snippet():
    with pytest.raises(ParseError) as exc:
        parse('scenario "a"\nentity x: DP\n')
    assert exc.value.snippet == "entity x: DP"


COLLIDING_FLOWS = ["flow x: E2 a -> b package p", "flow x: E2 b <-> a package p"]


@pytest.mark.parametrize(
    "first, second", [COLLIDING_FLOWS, COLLIDING_FLOWS[::-1]], ids=["plain_first", "pair_first"]
)
@pytest.mark.parametrize("spacing", [" ", "  "], ids=["fast_path", "cursor"])
def test_parse_rejects_plain_flow_and_pair_of_one_name(first, second, spacing):
    second = second.replace(" ", spacing, 1)
    text = f'scenario "t"\nentity a: P\nentity b: DA\npackage p\n{first}\n{second}\n'
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == (6, second.index("x") + 1)
    assert "flow id 'x' already declared" in exc.value.message


# A line that each statement kind's graph insert refuses, after a document
# that declares entities a and b, package p and relation r; and the message.
INSERT_REFUSALS = {
    "duplicate_package": ("package p", "package id 'p' already declared"),
    "duplicate_relation": ("relation r: ownedBy b -> a", "relation id 'r' already declared"),
    "reserved_attribute_misuse": (
        'entity x: P {static = ["a"]}',
        "'static' is only allowed on V or VC entities",
    ),
}


@pytest.mark.parametrize("name", INSERT_REFUSALS)
@pytest.mark.parametrize("spacing", [" ", "  "], ids=["fast_path", "cursor"])
def test_parse_reports_an_insert_error_at_the_statement_id(name, spacing):
    line, message = INSERT_REFUSALS[name]
    line = line.replace(" ", spacing, 1)
    text = (
        'scenario "t"\nentity a: P\nentity b: DA\npackage p\n'
        f"relation r: ownedBy b -> a\n{line}\n"
    )
    with pytest.raises(ParseError) as exc:
        parse(text)
    column = line.index(spacing) + len(spacing) + 1
    assert (exc.value.line, exc.value.column, exc.value.message) == (6, column, message)


def test_serialize_empty_graph():
    assert serialize(new_scenario("x")) == 'scenario "x"\n'


def test_serialize_canonical_layout():
    text = serialize(parse(MINIMAL))
    assert text == (
        'scenario "t"\n'
        "\n"
        "entity car: V\n"
        "entity driver: P\n"
        "\n"
        'package DP1_1 "driving data"\n'
        "\n"
        "flow e1_1: E1 driver -> car package DP1_1\n"
    )


def test_serialize_orders_packages_for_reparsing():
    # "a" derives from "z": lexicographic order alone would forward-reference.
    graph = new_scenario("t")
    graph.add_package(DataPackage("z"))
    graph.add_package(DataPackage("a", derives_from=("z",)))
    text = serialize(graph)
    assert text.index("package z") < text.index("package a")
    assert parse(text) == graph


def test_serialize_resugars_pairs():
    graph = parse(scenario_text("uber"))
    text = serialize(graph)
    assert "flow e3_1: E3 uber_rider_app <-> car package DP3_1" in text
    assert ".fwd" not in text and ".rev" not in text


def test_serialize_insertion_order_invariance():
    first = (
        new_scenario("t")
        .add_entity("a", "P")
        .add_entity("b", "V")
        .add_flow("f2", "E1", "a", "b", DataPackage("q"))
        .add_flow("f1", "E1", "a", "b", "q")
    )
    second = (
        new_scenario("t")
        .add_entity("b", "V")
        .add_entity("a", "P")
        .add_package(DataPackage("q"))
        .add_flow("f1", "E1", "a", "b", "q")
        .add_flow("f2", "E1", "a", "b", "q")
    )
    assert serialize(first) == serialize(second)
    assert first == second


def test_serialize_rejects_unpaired_half():
    graph = new_scenario("t").add_entity("a", "DA").add_entity("b", "V")
    graph.add_bidirectional_flow("x", "E3", "a", "b", DataPackage("d"))
    del graph.flows["x.rev"]
    with pytest.raises(MalformedGraphError) as exc:
        serialize(graph)
    assert "bidirectional pair" in str(exc.value)


def test_serialize_rejects_mismatched_pair():
    graph = new_scenario("t").add_entity("a", "DA").add_entity("b", "V")
    graph.add_bidirectional_flow("x", "E3", "a", "b", DataPackage("d"))
    graph.packages["e"] = DataPackage("e")
    graph.flows["x.rev"] = FlowInstance("x.rev", "E3", "b", "a", "e")
    with pytest.raises(MalformedGraphError):
        serialize(graph)


def test_serialize_rejects_base_id_collision():
    graph = new_scenario("t").add_entity("a", "DA").add_entity("b", "V")
    graph.add_bidirectional_flow("x", "E3", "a", "b", DataPackage("d"))
    graph.flows["x"] = FlowInstance("x", "E3", "a", "b", "d")
    with pytest.raises(MalformedGraphError) as exc:
        serialize(graph)
    assert "would not round-trip" in str(exc.value)


def test_serialize_rejects_dangling_and_bad_ids():
    graph = new_scenario("t").add_entity("a", "P")
    graph.flows["f"] = FlowInstance("f", "E1", "a", "ghost", "d")
    with pytest.raises(MalformedGraphError):
        serialize(graph)
    graph = new_scenario("t")
    graph.packages["bad id"] = DataPackage("bad id")
    with pytest.raises(MalformedGraphError) as exc:
        serialize(graph)
    assert "not a serializable identifier" in str(exc.value)


def relation_with_attributes(attributes):
    relation = SemanticRelationInstance("r", "ownedBy", "a", "a")
    relation.attributes = attributes
    return relation


@pytest.mark.parametrize(
    "defect, message",
    [
        (
            lambda g: g.entities.update(
                x=EntityInstance("x", EntityType.PERSON, {"static": ["a"]})
            ),
            "entity 'x': 'static' is only allowed on V or VC entities",
        ),
        (
            lambda g: g.packages.update(q=DataPackage("q", derives_from=("p", "p"))),
            "package 'q' lists derivation 'p' twice",
        ),
        (
            lambda g: g.packages.update(q=DataPackage("q", description=None)),
            "package 'q' description must be text",
        ),
        (
            lambda g: g.packages.update(q=DataPackage("q", items=["a", 2])),
            "package 'q' items must be text",
        ),
        (
            lambda g: setattr(g.packages["p"], "items", None),
            "package 'p' items must be text",
        ),
        (
            lambda g: setattr(g.packages["p"], "items", 7),
            "package 'p' items must be text",
        ),
        (
            lambda g: setattr(g.entities["a"], "attributes", None),
            "entity 'a' attributes must be a map, not NoneType",
        ),
        (
            lambda g: setattr(g.entities["a"], "attributes", []),
            "entity 'a' attributes must be a map, not list",
        ),
        (
            lambda g: g.entities["a"].attributes.update({1: "a"}),
            "attribute id 1 is not a serializable identifier",
        ),
        (
            lambda g: g.entities["a"].attributes.update({"b": "c", 1: "a"}),
            "attribute id 1 is not a serializable identifier",
        ),
        (
            lambda g: g.relations.update(r=relation_with_attributes(None)),
            "relation 'r' attributes must be a map, not NoneType",
        ),
        (
            lambda g: g.relations.update(r=relation_with_attributes({("k",): "v"})),
            "attribute id ('k',) is not a serializable identifier",
        ),
    ],
    ids=[
        "reserved_attribute",
        "derivation_twice",
        "description",
        "items",
        "items_none",
        "items_int",
        "entity_attributes_none",
        "entity_attributes_list",
        "attribute_key_not_text",
        "attribute_keys_mixed",
        "relation_attributes_none",
        "relation_attribute_key_tuple",
    ],
)
def test_serialize_rejects_what_parse_would_not_read_back(defect, message):
    graph = new_scenario("t").add_entity("a", "V").add_package(DataPackage("p"))
    defect(graph)
    with pytest.raises(MalformedGraphError) as exc:
        serialize(graph)
    assert str(exc.value) == message


# Defects written straight into the maps of a well-formed graph, one per
# check serialize makes.
WRITER_DEFECTS = {
    "no_name": lambda g: setattr(g, "name", ""),
    "dangling_endpoint": lambda g: g.flows.update(f=FlowInstance("f", "E3", "a", "ghost", "d")),
    "entity_id": lambda g: g.entities.update(
        {"bad id": EntityInstance("bad id", EntityType.PERSON)}
    ),
    "entity_type": lambda g: g.entities.update(
        a0=EntityInstance("a0", EntityType.DATA_PACKAGE)
    ),
    "attribute_key": lambda g: g.entities["b"].attributes.update({"bad key": "v"}),
    "reserved_attribute": lambda g: g.entities["b"].attributes.update(category="fleet"),
    "attribute_value": lambda g: g.relations["r"].attributes.update(n=3),
    "derivation_cycle": lambda g: g.packages.update(
        p=DataPackage("p", derives_from=("q",)), q=DataPackage("q", derives_from=("p",))
    ),
    "package_id": lambda g: g.packages.update({"bad id": DataPackage("bad id")}),
    "derivation_twice": lambda g: g.packages.update(w=DataPackage("w", derives_from=("d", "d"))),
    "package_text": lambda g: g.packages.update(n=DataPackage("n", description=3)),
    "relation_id": lambda g: g.relations.update(
        {"bad id": SemanticRelationInstance("bad id", "ownedBy", "a", "b")}
    ),
    "collision": lambda g: g.flows.update(x=FlowInstance("x", "E3", "a", "b", "d")),
    "flow_id": lambda g: g.flows.update({"bad id": FlowInstance("bad id", "E3", "a", "b", "d")}),
    "unpaired": lambda g: g.flows.pop("x.rev"),
}

_BAD_ID = "is not a serializable identifier"
_RESERVED = "entity 'b': 'category' is only allowed on O, G, or SP entities"


@pytest.mark.parametrize(
    "defects, message",
    [
        (("no_name", "dangling_endpoint"), "scenario name must be non-empty"),
        (("dangling_endpoint", "entity_id"), "flow 'f' references unknown entity 'ghost'"),
        (("entity_id", "derivation_cycle"), f"entity id 'bad id' {_BAD_ID}"),
        (
            ("entity_type", "attribute_key"),
            "entity 'a0' has unserializable type <EntityType.DATA_PACKAGE: 'DP'>",
        ),
        (("attribute_key", "package_id"), f"attribute id 'bad key' {_BAD_ID}"),
        (("derivation_cycle", "package_id"), "package derivations contain a cycle"),
        (("package_id", "unpaired"), f"package id 'bad id' {_BAD_ID}"),
        (("attribute_value", "collision"), "attribute value 3 is not expressible"),
        (("attribute_value", "relation_id"), f"relation id 'bad id' {_BAD_ID}"),
        (("relation_id", "flow_id"), f"relation id 'bad id' {_BAD_ID}"),
        (
            ("collision", "flow_id"),
            "flow id 'x' is used both directly and as a bidirectional pair; "
            "the serialized form would not round-trip",
        ),
        (("flow_id", "unpaired"), f"flow id 'bad id' {_BAD_ID}"),
        (
            ("dangling_endpoint", "reserved_attribute"),
            "flow 'f' references unknown entity 'ghost'",
        ),
        (("attribute_key", "reserved_attribute"), f"attribute id 'bad key' {_BAD_ID}"),
        (("reserved_attribute", "derivation_cycle"), _RESERVED),
        (("entity_id", "reserved_attribute"), _RESERVED),
        (("derivation_cycle", "derivation_twice"), "package derivations contain a cycle"),
        (("package_id", "derivation_twice"), f"package id 'bad id' {_BAD_ID}"),
        (("derivation_twice", "relation_id"), "package 'w' lists derivation 'd' twice"),
        (("package_text", "derivation_twice"), "package 'n' description must be text"),
        (("package_id", "package_text"), f"package id 'bad id' {_BAD_ID}"),
        (("package_text", "attribute_value"), "package 'n' description must be text"),
    ],
)
def test_serialize_reports_the_first_defect_in_check_order(defects, message):
    for order in (defects, defects[::-1]):
        graph = (
            new_scenario("t")
            .add_entity("a", "DA")
            .add_entity("b", "V")
            .add_package(DataPackage("d"))
            .add_semantic_relation("r", "ownedBy", "a", "b")
            .add_bidirectional_flow("x", "E3", "a", "b", "d")
        )
        for defect in order:
            WRITER_DEFECTS[defect](graph)
        with pytest.raises(MalformedGraphError) as exc:
            serialize(graph)
        assert str(exc.value) == message


# The canonical text of the bundled scenarios, and a sha256 over the
# canonical texts of build_random_graph seeds 0-99 in seed order. Round trips
# and idempotence hold for any deterministic order; these fix the order.
CANONICAL = Path(__file__).parent / "canonical"
SEEDED_CANONICAL_SHA256 = "ffae3a9855ab9f4ade29e37aefc044fc7f8d6381945a22f4389a0cda6bcb280a"


def test_serialize_writes_the_pinned_canonical_text():
    for name in ("uber", "speeding"):
        pinned = (CANONICAL / f"{name}.vdse").read_text(encoding="utf-8")
        assert serialize(load_scenario(name)) == pinned, name
    digest = hashlib.sha256()
    for seed in range(100):
        digest.update(serialize(build_random_graph(seed)).encode())
    assert digest.hexdigest() == SEEDED_CANONICAL_SHA256


@pytest.mark.parametrize("name", ["uber", "speeding"])
def test_bundled_round_trip(name):
    graph = parse(scenario_text(name))
    canonical = serialize(graph)
    assert parse(canonical) == graph
    assert serialize(parse(canonical)) == canonical


@pytest.mark.parametrize("seed", range(25))
def test_seeded_round_trip(seed):
    graph = build_random_graph(seed)
    assert parse(serialize(graph)) == graph


@settings(max_examples=60, deadline=None)
@given(wellformed_graphs())
def test_round_trip_property(graph):
    canonical = serialize(graph)
    assert parse(canonical) == graph
    assert serialize(parse(canonical)) == canonical


def reference_tokenize(text: str, lineno: int) -> list:
    """Tokenizer oracle: the character-by-character scanner, giving
    (kind, value, column) triples or raising ParseError."""
    escapes = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        column = i + 1
        if ch == '"':
            value = []
            i += 1
            while True:
                if i >= n:
                    raise ParseError("unterminated string", lineno, column, text)
                ch = text[i]
                if ch == '"':
                    i += 1
                    break
                if ch == "\\":
                    if i + 1 >= n or text[i + 1] not in escapes:
                        raise ParseError("invalid escape sequence", lineno, i + 1, text)
                    value.append(escapes[text[i + 1]])
                    i += 2
                    continue
                value.append(ch)
                i += 1
            tokens.append(("string", "".join(value), column))
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("word", text[i:j], column))
            i = j
            continue
        if ch in ":,={}[]":
            tokens.append(("punct", ch, column))
            i += 1
            continue
        if ch == "-" and text[i : i + 2] == "->":
            tokens.append(("punct", "->", column))
            i += 2
            continue
        if ch == "<" and text[i : i + 3] == "<->":
            tokens.append(("punct", "<->", column))
            i += 3
            continue
        raise ParseError(f"unexpected character {ch!r}", lineno, column, text)
    return tokens


def tokenized(tokenize, text: str, lineno: int):
    try:
        return [tuple(token) for token in tokenize(text, lineno)]
    except ParseError as exc:
        return (exc.message, exc.line, exc.column, exc.snippet)


# Quotes, escapes, comment and arrow starts, whitespace the format rejects,
# and characters that are alphanumeric without being letters.
_LINE_CHARS = '""\\\\##--<<>>\r\v__09é²½٣ \t:,={}[]antrZ'


def test_tokenizer_matches_oracle():
    lines = [line for name in ("uber", "speeding") for line in scenario_text(name).split("\n")]
    rng = random.Random(4)
    lines += ["".join(rng.choices(_LINE_CHARS, k=rng.randint(0, 16))) for _ in range(20000)]
    for lineno, line in enumerate(lines, start=1):
        assert tokenized(_tokenize, line, lineno) == tokenized(reference_tokenize, line, lineno)


def test_word_class_is_alphanumeric_or_underscore():
    # The tokenizer's words are \w runs; the format defines them by
    # str.isalnum() and "_".
    word = re.compile(r"\w")
    for code in range(sys.maxunicode + 1):
        ch = chr(code)
        assert bool(word.match(ch)) == (ch.isalnum() or ch == "_"), hex(code)


def test_quote_matches_per_character_escapes():
    escapes = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for text in (every, '\\"\n\t\r', 'a\\\\b""\r\n\t', ""):
        quoted = _quote(text)
        assert quoted == '"' + "".join(escapes.get(ch, ch) for ch in text) + '"'
        assert _unquote(quoted) == text


# -- fast path ----------------------------------------------------------------

# Every construct of the format in its single-space form, escapes included.
RICH = r"""scenario "rich"
entity car: V {dynamic = ["speed", "gps \"fix\""], static = ["VRM"]}
entity app: DA {label = "tab\there", privacy_preserving = true}
entity org: O {category = "a, b = c}", label = "x\\y", privacy_preserving = false}
entity p1: P
entity p2: P {label = ""}
package base
package mid "desc \"q\"\n" items ["one", "two, three", "]"]
package top "t" derives base, mid
package solo items ["x"] derives mid
package empty ""
relation r1: occupy p1 -> car {role = "driver"}
relation r2: ownedBy app -> org
relation r3: occupy p2 -> car {note = "n", role = "passenger"}
flow f1: E1 p1 -> car package base
flow f2: E3 app <-> car package top
flow f3: E4 app -> org package solo
"""

# Lines the cursor rejects, in the context of RICH.
REJECTED = [
    'entity x: P {label = "a", label = "b"}',
    'entity x: P {label = "a", }',
    'entity x: P {label = "a",}',
    'entity x: P {label = "a"} }',
    "entity x: Person",
    "entity x: DP",
    "entity car: V",
    'entity x: P {privacy_preserving = "yes"}',
    'entity x: P {static = ["a"]}',
    "package base",
    "package q derives nope",
    "package q derives base, base",
    "package q items []",
    "relation r9: drives p1 -> car",
    "relation r9: occupy ghost -> car",
    'relation r1: occupy p1 -> car {role = "driver"}',
    'relation r9: occupy p1 -> car {role = "a", role = "b"}',
    "flow f9: E99 p1 -> car package base",
    "flow f9: E1 p1 -> ghost package base",
    "flow f9: E1 car -> car package base",
    "flow f9: E1 p1 -> car package ghost",
    "flow f1: E1 p1 -> car package base",
    "flow f2: E3 app <-> car package top",
    "flow f9.fwd: E1 p1 -> car package base",
    "flow _f: E1 p1 -> car package base",
    "flow f9: E1 p1 -> car packages base",
]

# Lines the cursor accepts but that are not in the single-space form.
RESPACED = [
    "entity x:P",
    "entity x: P  # comment",
    "entity x: P {}",
    "entity x: P { label = \"a\" }",
    "package q derives base,mid",
    "flow f9: E1 p1->car package base",
    "\tflow f9: E1 p1 -> car package base",
]


def _snapshot(graph: InstanceGraph) -> InstanceGraph:
    # Mutations only insert new objects, so copying the four maps is enough.
    return InstanceGraph(
        graph.name,
        dict(graph.entities),
        dict(graph.relations),
        dict(graph.flows),
        dict(graph.packages),
    )


def _state(graph: InstanceGraph) -> tuple:
    maps = (graph.entities, graph.relations, graph.flows, graph.packages)
    return (graph.name, *(list(items.items()) for items in maps))


def fast_agrees_with_cursor(text: str, graph: InstanceGraph) -> bool:
    """Run the fast path on a copy of graph. If it accepts the line, the
    cursor must accept it too and build the same graph; if it declines, the
    copy must be unchanged. Returns whether it accepted."""
    fast = _snapshot(graph)
    if not dsl._execute_fast(text, fast):
        assert _state(fast) == _state(graph), text
        return False
    cursor = _snapshot(graph)
    try:
        dsl._parse_line(text, 1, cursor)
    except ParseError as exc:
        pytest.fail(f"fast path accepted {text!r}, which the cursor rejects: {exc}")
    assert _state(fast) == _state(cursor), text
    return True


def statement_contexts(document: str):
    """Each statement line after the header, with the graph the lines
    before it build (through the cursor)."""
    graph = None
    for lineno, text in enumerate(document.split("\n"), start=1):
        if graph is not None and text and not text.startswith("#"):
            yield text, graph
        graph = dsl._parse_line(text, lineno, graph)


# Quotes, escapes, punctuation, tab, digits, "_", non-ASCII alphanumerics,
# CR and space.
_MUTATION_CHARS = '"\\{}[],=:<->#\t0123456789_é²\r '


def mutate(rng: random.Random, text: str) -> str:
    """Insert, replace or delete one character."""
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(3) if i < len(text) else 0
    if op == 2:
        return text[:i] + text[i + 1 :]
    return text[:i] + rng.choice(_MUTATION_CHARS) + text[i + op :]


def test_fast_path_agrees_with_cursor():
    rng = random.Random(5)
    documents = [(scenario_text("uber"), 60), (scenario_text("speeding"), 60), (RICH, 300)]
    documents += [(serialize(build_random_graph(seed)), 3) for seed in range(200)]
    mutated = accepted = 0
    for document, per_line in documents:
        for text, graph in statement_contexts(document):
            assert fast_agrees_with_cursor(text, graph), text
            for _ in range(per_line):
                accepted += fast_agrees_with_cursor(mutate(rng, text), graph)
                mutated += 1
    assert mutated >= 20000
    assert 0 < accepted < mutated


@pytest.mark.parametrize("line", REJECTED)
def test_fast_path_declines_what_the_cursor_rejects(line):
    graph = parse(RICH)
    assert not fast_agrees_with_cursor(line, graph)
    with pytest.raises(ParseError):
        parse(RICH + line + "\n")


@pytest.mark.parametrize("line", RESPACED)
def test_fast_path_leaves_other_spacing_to_the_cursor(line):
    graph = parse(RICH)
    assert not fast_agrees_with_cursor(line, graph)
    assert parse(RICH + line + "\n") != graph


def fleet_style_graph(copies: int) -> InstanceGraph:
    """Renamed copies of the bundled scenarios, built through the graph API."""
    graph = new_scenario("fleet")
    for k in range(copies):
        base, pre = parse(scenario_text(("uber", "speeding")[k % 2])), f"c{k}_"
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
                add = graph.add_bidirectional_flow if half else graph.add_flow
                add(pre + stem, f.edge_type, pre + f.source, pre + f.target, pre + f.package)
    return graph


def test_serialized_text_reaches_the_cursor_only_for_its_header(monkeypatch):
    graphs = [parse(scenario_text(name)) for name in ("uber", "speeding")]
    graphs += [build_random_graph(seed) for seed in range(200)]
    graphs.append(fleet_style_graph(20))
    cursor_lines = []
    parse_line = dsl._parse_line

    def counted(text, lineno, graph):
        cursor_lines.append(text)
        return parse_line(text, lineno, graph)

    monkeypatch.setattr(dsl, "_parse_line", counted)
    for graph in graphs:
        text = serialize(graph)
        lines = text.split("\n")
        middle = len(lines) // 2
        # The text as written, with CRLF line ends, and with one lone "\r"
        # line in the middle, which is blank once its "\r" is dropped.
        crlf = text.replace("\n", "\r\n")
        lone = "\n".join(lines[:middle] + ["\r"] + lines[middle:])
        for variant in (text, crlf, lone):
            cursor_lines.clear()
            assert parse(variant) == graph
            assert cursor_lines == [lines[0]]


def round_trip_mutants(rng: random.Random, document: str, count: int):
    """Copies of document with one line mutated, one line duplicated, or
    one flow line duplicated with '->' and '<->' swapped."""
    lines = document.split("\n")
    flows = [i for i, line in enumerate(lines) if line.startswith("flow ")]
    for _ in range(count):
        mutated = list(lines)
        kind = rng.randrange(3)
        i = rng.choice(flows) if kind == 2 and flows else rng.randrange(len(lines))
        if kind == 0:
            mutated[i] = mutate(rng, lines[i])
        elif kind == 1 or not flows:
            mutated.insert(i, lines[i])
        else:
            arrows = (" <-> ", " -> ") if " <-> " in lines[i] else (" -> ", " <-> ")
            mutated.insert(i + rng.randrange(2), lines[i].replace(*arrows))
        yield "\n".join(mutated)


# A quoted string, an arrow, a word or one other character.
_TOKEN_TEXT = re.compile(r'"(?:[^"\\]|\\.)*"|<->|->|\w+|\S')


def token_mutants(rng: random.Random, document: str, count: int):
    """Copies of document with one token of one line dropped, duplicated,
    swapped with the next, or preceded by a token taken from the document."""
    lines = document.split("\n")
    statements = [i for i, line in enumerate(lines) if line and not line.startswith("#")]
    vocabulary = sorted({token for line in lines for token in _TOKEN_TEXT.findall(line)})
    for _ in range(count):
        i = rng.choice(statements)
        line = lines[i]
        spans = [match.span() for match in _TOKEN_TEXT.finditer(line)]
        k = rng.randrange(len(spans))
        start, end = spans[k]
        op = rng.randrange(4)
        if op == 0:
            line = line[:start] + line[end:]
        elif op == 1:
            line = line[:end] + " " + line[start:]
        elif op == 2 and k + 1 < len(spans):
            after, stop = spans[k + 1]
            line = line[:start] + line[after:stop] + line[end:after] + line[start:end] + line[stop:]
        else:
            line = line[:start] + rng.choice(vocabulary) + " " + line[start:]
        yield "\n".join(lines[:i] + [line] + lines[i + 1 :])


def assert_mutants_round_trip(mutants) -> tuple[int, int]:
    """Each mutant raises ParseError or parses to a graph that round-trips;
    returns how many there were and how many parsed."""
    mutated = accepted = 0
    for text in mutants:
        mutated += 1
        try:
            graph = parse(text)
        except ParseError:
            continue
        accepted += 1
        assert parse(serialize(graph)) == graph, text
    return mutated, accepted


def test_every_parsed_document_round_trips():
    rng, token_rng = random.Random(6), random.Random(7)
    documents = [(scenario_text("uber"), 1000), (scenario_text("speeding"), 1000), (RICH, 1000)]
    documents += [(serialize(build_random_graph(seed)), 40) for seed in range(200)]
    mutated = accepted = token_mutated = token_accepted = 0
    for document, count in documents:
        lines = assert_mutants_round_trip(round_trip_mutants(rng, document, count))
        tokens = assert_mutants_round_trip(token_mutants(token_rng, document, count // 2))
        mutated, accepted = mutated + lines[0], accepted + lines[1]
        token_mutated, token_accepted = token_mutated + tokens[0], token_accepted + tokens[1]
    assert mutated >= 10000
    assert 0 < accepted < mutated
    assert token_mutated >= 5000
    assert 0 < token_accepted < token_mutated


def parse_outcome(text: str) -> str:
    """What parse makes of text: the canonical text of its graph, or the
    message, line and column of its ParseError."""
    try:
        graph = parse(text)
    except ParseError as exc:
        return f"ParseError {exc.message!r} {exc.line} {exc.column}"
    return serialize(graph)


# A sha256 over parse_outcome of every mutant below, in order. It fixes the
# diagnosis of each rejected mutant, which the round trip above does not.
PARSE_OUTCOMES_SHA256 = "5284e066f25506490004cac76cd489ace6f8379f86511a22545a0ef1212b2c57"


def test_parse_outcomes_of_mutants_are_pinned():
    documents = [(scenario_text("uber"), 300), (scenario_text("speeding"), 300), (RICH, 300)]
    documents += [(serialize(build_random_graph(seed)), 30) for seed in range(50)]
    digest = hashlib.sha256()
    mutants = rejected = 0
    for number, (document, count) in enumerate(documents):
        rng, token_rng = random.Random(100 + number), random.Random(200 + number)
        for text in (
            *round_trip_mutants(rng, document, count),
            *token_mutants(token_rng, document, count // 2),
        ):
            outcome = parse_outcome(text)
            digest.update(outcome.encode() + b"\0")
            mutants += 1
            rejected += outcome.startswith("ParseError ")
    assert mutants == 3600
    assert 0 < rejected < mutants
    assert digest.hexdigest() == PARSE_OUTCOMES_SHA256
