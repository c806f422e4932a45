"""Conformance checking of scenario graphs against the type graph.

Validation is total: it never raises on graph content, it reports. Graphs
built through the mutation API cannot trigger the reference-level codes
(DANGLING_REF, DUPLICATE_ID, MISSING_PACKAGE and friends are pre-empted at
build time); those codes exist for graphs assembled by hand or loaded from
untrusted sources.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from vdse.errors import MalformedGraphError
from vdse.graph import (
    InstanceGraph,
    _names,
    _unknown_endpoints,
    check_entity_attributes,
    strongly_connected_components,
)
from vdse.schema import EntityType, TypeGraph, _Record, _shown, builtin_schema

__all__ = ["ViolationCode", "Violation", "ValidationReport", "validate"]


class ViolationCode(str, Enum):
    UNKNOWN_TYPE = "UNKNOWN_TYPE"
    ENDPOINT_MISMATCH = "ENDPOINT_MISMATCH"
    DIRECTION_VIOLATION = "DIRECTION_VIOLATION"
    MISSING_PACKAGE = "MISSING_PACKAGE"
    DANGLING_REF = "DANGLING_REF"
    DUPLICATE_ID = "DUPLICATE_ID"
    ROLE_MISSING = "ROLE_MISSING"
    PART_OF_CYCLE = "PART_OF_CYCLE"
    DERIVES_CYCLE = "DERIVES_CYCLE"
    ATTRIBUTE_MISUSE = "ATTRIBUTE_MISUSE"
    SELF_LOOP = "SELF_LOOP"
    OWNERSHIP_LINT = "OWNERSHIP_LINT"


# The only advisory code; everything else is an error.
_WARNING_CODES = frozenset({ViolationCode.OWNERSHIP_LINT})

# Flow edge types whose direction is expected to follow declared ownership.
_OWNERSHIP_EDGE_TYPES = frozenset({"E8", "E9", "E17", "E19"})

_OCCUPY_ROLES = frozenset({"driver", "passenger"})


class Violation(NamedTuple):
    """One finding: its code, the id it concerns and a message."""

    code: ViolationCode
    subject: str
    message: str

    @property
    def severity(self) -> str:
        return "warning" if self.code in _WARNING_CODES else "error"


class ValidationReport(_Record):
    """Every violation found in a scenario, in the validator's order."""

    __slots__ = ("scenario", "violations")

    def __init__(self, scenario: str, violations: list | None = None):
        self.scenario = scenario
        self.violations = [] if violations is None else violations

    @property
    def errors(self) -> list:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def warnings(self) -> list:
        return [v for v in self.violations if v.severity == "warning"]

    @property
    def ok(self) -> bool:
        return not self.errors


def _report_cycles(edges: dict, code: ViolationCode, label: str, out: list) -> None:
    """Report each component of a digraph that lies on a directed cycle:
    two or more members, or one with an edge to itself."""
    for group in strongly_connected_components(edges):
        if len(group) > 1 or group[0] in edges.get(group[0], ()):
            members = " -> ".join(_shown(member, str) for member in group)
            out.append(Violation(code, group[0], f"{label} cycle: {members}"))


def _order(violation: Violation) -> tuple:
    return (violation.severity, violation.subject, violation.code.value, violation.message)


def _sorted(violations: list) -> list:
    """The violations in report order. A subject that is not text, such as a
    hand-set flow id 1, is given as its repr (a set's members sorted), so
    subjects always compare and do not depend on the hash seed."""
    texts = [
        v if isinstance(v.subject, str) else v._replace(subject=_shown(v.subject))
        for v in violations
    ]
    return sorted(texts, key=_order)


def _check_references(
    schema: TypeGraph, graph: InstanceGraph, out: list
) -> tuple[dict, list, list]:
    """Report every record that is not filed under its own id or whose id is
    not text, and every reference that names nothing: a derivation, a
    relation name or endpoint, a flow edge type, endpoint or package.
    Returns the derivations that resolve, by package, and the relations and
    the flows whose name or type and endpoints resolve; the other checks
    inspect only those. A value that is not hashable names nothing."""
    entities, packages = graph.entities, graph.packages
    tables = (
        ("entity", entities),
        ("package", packages),
        ("relation", graph.relations),
        ("flow", graph.flows),
    )
    for kind, table in tables:
        for key, item in table.items():
            if key != item.id or not isinstance(key, str):
                # Two keys can hold one id, and only a text id can be written.
                message = (
                    f"{kind} id {_shown(key)} is not text" if key == item.id
                    else f"{kind} {_shown(item.id)} is filed under {_shown(key)}"
                )
                out.append(Violation(ViolationCode.DUPLICATE_ID, key, message))
    derivations = {}
    for package_id, package in packages.items():
        derives = package.derives_from
        if not isinstance(derives, (tuple, list)):
            out.append(
                Violation(
                    ViolationCode.DANGLING_REF,
                    package_id,
                    f"package {_shown(package_id)} derives from {_shown(derives)}, "
                    "not a list of packages",
                )
            )
            continue
        for ancestor in derives:
            if _names(packages, ancestor):
                derivations.setdefault(package_id, []).append(ancestor)
            else:
                out.append(
                    Violation(
                        ViolationCode.DANGLING_REF,
                        package_id,
                        f"package {_shown(package_id)} derives from unknown package "
                        f"{_shown(ancestor)}",
                    )
                )
    relations, flows = [], []
    rules = (
        ("relation", graph.relations, "relation", schema.semantic_relations, relations),
        ("flow", graph.flows, "edge type", schema.flow_edge_types, flows),
    )
    for kind, table, noun, registry, resolved in rules:
        field = noun.replace(" ", "_")  # the record attribute that holds the name
        for record in table.values():
            name = getattr(record, field)
            try:
                known = name in registry
            except TypeError:
                known = False
            if not known:
                out.append(
                    Violation(
                        ViolationCode.UNKNOWN_TYPE,
                        record.id,
                        f"{kind} {_shown(record.id)} uses unknown {noun} {_shown(name)}",
                    )
                )
                continue
            try:
                known = record.source in entities and record.target in entities
            except TypeError:
                known = False
            if known:
                resolved.append(record)
            else:
                dangling = _unknown_endpoints(entities, kind, record)
                out.extend(Violation(ViolationCode.DANGLING_REF, record.id, m) for m in dangling)
            if kind == "relation":
                continue
            try:
                known = record.package in packages
            except TypeError:
                known = False
            if not known:
                out.append(
                    Violation(
                        ViolationCode.MISSING_PACKAGE,
                        record.id,
                        f"flow {_shown(record.id)} references unknown package "
                        f"{_shown(record.package)}",
                    )
                )
    return derivations, relations, flows


def not_a_map(owner: str, attributes) -> MalformedGraphError:
    """The error a writer raises when owner's attributes are not a map;
    owner reads like "entity 'a'"."""
    return MalformedGraphError(
        f"{owner} attributes must be a map, not {type(attributes).__name__}"
    )


def items_not_text(package_id: str) -> MalformedGraphError:
    """The error a writer raises when a package's items are not a list it
    can write."""
    return MalformedGraphError(f"package {_shown(package_id)} items must be text")


def name_not_text(name) -> MalformedGraphError:
    """The error a writer raises when the scenario name is not text."""
    return MalformedGraphError(f"scenario name {_shown(name)} is not text")


def check_references(graph: InstanceGraph) -> None:
    """Raise MalformedGraphError with the first reference problem that
    validate reports for graph, if there is one."""
    problems: list[Violation] = []
    _check_references(builtin_schema(), graph, problems)
    if problems:
        raise MalformedGraphError(_sorted(problems)[0].message)


def _is_map(item, out: list) -> bool:
    """Report the attributes of an entity or relation unless they are a
    map; true when they are."""
    if isinstance(item.attributes, dict):
        return True
    out.append(
        Violation(
            ViolationCode.ATTRIBUTE_MISUSE,
            item.id,
            f"attributes must be a map, not {type(item.attributes).__name__}",
        )
    )
    return False


def _check_entities(schema: TypeGraph, graph: InstanceGraph, out: list) -> None:
    for entity in graph.entities.values():
        is_map = _is_map(entity, out)
        if not isinstance(entity.entity_type, EntityType):
            out.append(
                Violation(
                    ViolationCode.UNKNOWN_TYPE,
                    entity.id,
                    f"entity {_shown(entity.id)} has unknown type {_shown(entity.entity_type)}",
                )
            )
            continue
        if entity.entity_type is EntityType.DATA_PACKAGE:
            out.append(
                Violation(
                    ViolationCode.UNKNOWN_TYPE,
                    entity.id,
                    f"entity {_shown(entity.id)} is typed DP; packages attach to flows",
                )
            )
            continue
        if is_map and entity.attributes:
            for problem in check_entity_attributes(schema, entity.entity_type, entity.attributes):
                out.append(Violation(ViolationCode.ATTRIBUTE_MISUSE, entity.id, problem))


def _check_relations(relations: list, out: list) -> None:
    part_of_edges: dict[str, set[str]] = {}
    for relation in relations:
        is_map = _is_map(relation, out)
        if relation.relation == "occupy":
            role = relation.attributes.get("role") if is_map else None
            if not _names(_OCCUPY_ROLES, role):  # a hand-set list is no role
                detail = "has no 'role'" if role is None else f"has invalid role {_shown(role)}"
                out.append(
                    Violation(
                        ViolationCode.ROLE_MISSING,
                        relation.id,
                        f"occupy relation {_shown(relation.id)} {detail}; "
                        "expected \"driver\" or \"passenger\"",
                    )
                )
        if relation.relation == "isPartOf":
            part_of_edges.setdefault(relation.source, set()).add(relation.target)
    _report_cycles(part_of_edges, ViolationCode.PART_OF_CYCLE, "isPartOf", out)


def _flow_verdict(schema: TypeGraph, edge_type: str, src_type, dst_type) -> tuple | None:
    """None when a flow of edge_type from an entity of src_type to one of
    dst_type conforms; otherwise its violation code and message."""
    if schema.flow_conforms(edge_type, src_type, dst_type):
        return None
    edge = schema.flow_edge_types[edge_type]
    reversed_fits = schema.is_subtype(src_type, edge.target) and schema.is_subtype(
        dst_type, edge.source
    )
    if not edge.bidirectional and reversed_fits:
        return (
            ViolationCode.DIRECTION_VIOLATION,
            f"uni-directional {edge.id} "
            f"({edge.source.code} -> {edge.target.code}) used in reverse",
        )
    return (
        ViolationCode.ENDPOINT_MISMATCH,
        f"{edge.id} connects {edge.source.code} and {edge.target.code}; "
        f"got {src_type.code} -> {dst_type.code}",
    )


def _check_flows(
    schema: TypeGraph, graph: InstanceGraph, relations: list, flows: list, out: list
) -> None:
    owned_by = {(r.source, r.target) for r in relations if r.relation == "ownedBy"}
    # Conformance depends only on the edge type and the endpoint types, and
    # a scenario has few such shapes: decide each once.
    verdicts: dict[tuple, tuple | None] = {}
    for flow in flows:
        if flow.source == flow.target:
            out.append(
                Violation(
                    ViolationCode.SELF_LOOP,
                    flow.id,
                    f"flow {_shown(flow.id)} connects {_shown(flow.source)} to itself",
                )
            )
            continue
        src_type = graph.entities[flow.source].entity_type
        dst_type = graph.entities[flow.target].entity_type
        if not isinstance(src_type, EntityType) or not isinstance(dst_type, EntityType):
            continue  # the entity check already reported it
        shape = (flow.edge_type, src_type, dst_type)
        if shape not in verdicts:
            verdicts[shape] = _flow_verdict(schema, *shape)
        verdict = verdicts[shape]
        if verdict is not None:
            out.append(Violation(verdict[0], flow.id, verdict[1]))
            continue
        if flow.edge_type in _OWNERSHIP_EDGE_TYPES and (flow.target, flow.source) in owned_by:
            out.append(
                Violation(
                    ViolationCode.OWNERSHIP_LINT,
                    flow.id,
                    f"flow {_shown(flow.id)} runs from owner {_shown(flow.source)} to owned "
                    f"entity {_shown(flow.target)}; data is expected to flow toward the owner",
                )
            )


def validate(schema: TypeGraph, graph: InstanceGraph) -> ValidationReport:
    """Check a scenario against the type graph and report all violations.

    The report is deterministic: violations are sorted by severity,
    subject, code, and message.
    """
    violations: list[Violation] = []
    _check_entities(schema, graph, violations)
    derivations, relations, flows = _check_references(schema, graph, violations)
    # Only resolved derivations can close a cycle.
    _report_cycles(derivations, ViolationCode.DERIVES_CYCLE, "package derivation", violations)
    _check_relations(relations, violations)
    _check_flows(schema, graph, relations, flows, violations)
    return ValidationReport(scenario=graph.name, violations=_sorted(violations))
