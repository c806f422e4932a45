"""Built-in type graph for the vehicle data-sharing model.

The registry is fixed: fourteen entity types, four subclass edges, seven
semantic relation types, and twenty-one data-flow edge types. Scenario
graphs are validated against it but never extend it.
"""
from enum import Enum
from typing import NamedTuple

from vdse.errors import UnknownTypeError

__all__ = [
    "EntityType",
    "FlowEdgeType",
    "SemanticRelationType",
    "TypeGraph",
    "builtin_schema",
    "type_graph_to_dot",
    "INSTANTIABLE_TYPE_CODES",
    "type_code",
]


class EntityType(str, Enum):
    """Entity types, keyed by their short code."""

    PERSON = "P"
    VEHICLE = "V"
    VEHICLE_COMPONENT = "VC"
    ADDITIONAL_VEHICLE_SENSOR = "AVS"
    CHARGING_FACILITY = "CF"
    COMMUNICATION_INFRASTRUCTURE = "CI"
    NETWORK_INFRASTRUCTURE = "NI"
    ROAD_SIDE_UNIT = "RSU"
    DIGITAL_ASSET = "DA"
    DATA_PACKAGE = "DP"
    ORGANISATION = "O"
    GOVERNMENT_BODY = "G"
    SERVICE_PROVIDER = "SP"
    TRAFFIC_MONITORING_SENSOR = "TMS"

    @property
    def code(self) -> str:
        return self.value

    @property
    def display_name(self) -> str:
        return _DISPLAY_NAMES[self]

    @classmethod
    def from_code(cls, code: str) -> "EntityType":
        try:
            return cls(code)
        except ValueError:
            raise UnknownTypeError(f"unknown entity type code {_shown(code)}") from None

    @classmethod
    def coerce(cls, value: "EntityType | str") -> "EntityType":
        """Accept an EntityType, a short code, or a display name."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            by_name = _BY_DISPLAY_NAME.get(value)
            if by_name is not None:
                return by_name
            return cls.from_code(value)
        raise UnknownTypeError(f"unknown entity type {_shown(value)}")


_DISPLAY_NAMES = {
    EntityType.PERSON: "Person",
    EntityType.VEHICLE: "Vehicle",
    EntityType.VEHICLE_COMPONENT: "VehicleComponent",
    EntityType.ADDITIONAL_VEHICLE_SENSOR: "AdditionalVehicleSensor",
    EntityType.CHARGING_FACILITY: "ChargingFacility",
    EntityType.COMMUNICATION_INFRASTRUCTURE: "CommunicationInfrastructure",
    EntityType.NETWORK_INFRASTRUCTURE: "NetworkInfrastructure",
    EntityType.ROAD_SIDE_UNIT: "RoadSideUnit",
    EntityType.DIGITAL_ASSET: "DigitalAsset",
    EntityType.DATA_PACKAGE: "DataPackage",
    EntityType.ORGANISATION: "Organisation",
    EntityType.GOVERNMENT_BODY: "GovernmentBody",
    EntityType.SERVICE_PROVIDER: "ServiceProvider",
    EntityType.TRAFFIC_MONITORING_SENSOR: "TrafficMonitoringSensor",
}

_BY_DISPLAY_NAME = {name: etype for etype, name in _DISPLAY_NAMES.items()}


def _shown(value, text=repr) -> str:
    """text(value), except that a set or frozenset lists its members sorted
    by their repr, so that the result does not depend on the hash seed."""
    if isinstance(value, (set, frozenset)) and value:
        members = "{" + ", ".join(sorted(map(_shown, value))) + "}"
        return members if type(value) is set else f"{type(value).__name__}({members})"
    return text(value)


def type_code(entity_type) -> str:
    """An entity's type as the writers render it: an EntityType's code, else
    str() of whatever a hand-set graph holds (a set with sorted members)."""
    if isinstance(entity_type, EntityType):
        return entity_type._value_  # the code, without the property and enum descriptor
    return _shown(entity_type, str)


# DataPackage is part of the registry but is never instantiated as a free
# entity; packages attach to flows instead.
INSTANTIABLE_TYPE_CODES: tuple[str, ...] = tuple(
    t.code for t in EntityType if t is not EntityType.DATA_PACKAGE
)


class _Record:
    """Base of the record classes with slots: the fields are the subclass's
    __slots__, each subclass writes its own __init__, and records compare
    and print like dataclasses. Unhashable unless a subclass defines
    __hash__, as only the frozen ExportOptions does."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class FlowEdgeType(NamedTuple):
    """A data-flow edge type between two entity types."""

    id: str
    source: EntityType
    target: EntityType
    bidirectional: bool

    @property
    def directionality(self) -> str:
        return "bi" if self.bidirectional else "uni"


class SemanticRelationType(NamedTuple):
    """A named semantic relation with its admissible endpoint pairs."""

    name: str
    endpoint_pairs: tuple[tuple[EntityType, EntityType], ...]
    required_attributes: frozenset[str] = frozenset()


class TypeGraph(_Record):
    """The fixed registry of types. Treat instances as immutable."""

    __slots__ = ("entity_types", "subclass_parent", "semantic_relations", "flow_edge_types")

    def __init__(
        self,
        entity_types: frozenset[EntityType],
        subclass_parent: dict[EntityType, EntityType],
        semantic_relations: dict[str, SemanticRelationType],
        flow_edge_types: dict[str, FlowEdgeType],
    ):
        self.entity_types = entity_types
        self.subclass_parent = subclass_parent
        self.semantic_relations = semantic_relations
        self.flow_edge_types = flow_edge_types

    def is_subtype(self, child: EntityType | str, parent: EntityType | str) -> bool:
        """True when child equals parent or is its direct subclass."""
        c = EntityType.coerce(child)
        p = EntityType.coerce(parent)
        return c is p or self.subclass_parent.get(c) is p

    def flow_edge_type(self, edge_type_id: str) -> FlowEdgeType:
        try:
            return self.flow_edge_types[edge_type_id]
        except (KeyError, TypeError):  # a value that is not hashable names nothing
            raise UnknownTypeError(f"unknown flow edge type {_shown(edge_type_id)}") from None

    def flow_conforms(
        self,
        edge_type_id: str,
        source: EntityType | str,
        target: EntityType | str,
    ) -> bool:
        """True when (source, target) fits the edge type, up to subtyping.

        Bidirectional edge types conform in either orientation.
        """
        edge = self.flow_edge_type(edge_type_id)
        src = EntityType.coerce(source)
        dst = EntityType.coerce(target)
        forward = self.is_subtype(src, edge.source) and self.is_subtype(dst, edge.target)
        if forward:
            return True
        if edge.bidirectional:
            return self.is_subtype(src, edge.target) and self.is_subtype(dst, edge.source)
        return False


_E = EntityType

_SUBCLASS_PARENT: dict[EntityType, EntityType] = {
    _E.GOVERNMENT_BODY: _E.ORGANISATION,
    _E.SERVICE_PROVIDER: _E.ORGANISATION,
    _E.NETWORK_INFRASTRUCTURE: _E.COMMUNICATION_INFRASTRUCTURE,
    _E.ROAD_SIDE_UNIT: _E.COMMUNICATION_INFRASTRUCTURE,
}

_SEMANTIC_RELATIONS: dict[str, SemanticRelationType] = {
    "occupy": SemanticRelationType(
        "occupy", ((_E.PERSON, _E.VEHICLE),), required_attributes=frozenset({"role"})
    ),
    "isPartOf": SemanticRelationType(
        "isPartOf",
        ((_E.VEHICLE_COMPONENT, _E.VEHICLE), (_E.VEHICLE_COMPONENT, _E.VEHICLE_COMPONENT)),
    ),
    "ownedBy": SemanticRelationType(
        "ownedBy",
        (
            (_E.DIGITAL_ASSET, _E.ORGANISATION),
            (_E.ADDITIONAL_VEHICLE_SENSOR, _E.PERSON),
            (_E.ADDITIONAL_VEHICLE_SENSOR, _E.ORGANISATION),
            (_E.TRAFFIC_MONITORING_SENSOR, _E.ORGANISATION),
            (_E.CHARGING_FACILITY, _E.ORGANISATION),
        ),
    ),
    "equippedWith": SemanticRelationType(
        "equippedWith", ((_E.VEHICLE, _E.ADDITIONAL_VEHICLE_SENSOR),)
    ),
    "communicate": SemanticRelationType("communicate", ((_E.DIGITAL_ASSET, _E.DIGITAL_ASSET),)),
    "provideService": SemanticRelationType(
        "provideService", ((_E.ORGANISATION, _E.VEHICLE),)
    ),
    "partnerWith": SemanticRelationType("partnerWith", ((_E.ORGANISATION, _E.ORGANISATION),)),
}


_FLOW_EDGE_TYPES: dict[str, FlowEdgeType] = {
    e.id: e
    for e in (
        FlowEdgeType("E1", _E.PERSON, _E.VEHICLE, False),
        FlowEdgeType("E2", _E.PERSON, _E.DIGITAL_ASSET, True),
        FlowEdgeType("E3", _E.DIGITAL_ASSET, _E.VEHICLE, True),
        FlowEdgeType("E4", _E.DIGITAL_ASSET, _E.ORGANISATION, False),
        FlowEdgeType("E5", _E.DIGITAL_ASSET, _E.DIGITAL_ASSET, True),
        FlowEdgeType("E6", _E.ADDITIONAL_VEHICLE_SENSOR, _E.VEHICLE, True),
        FlowEdgeType("E7", _E.PERSON, _E.ADDITIONAL_VEHICLE_SENSOR, False),
        FlowEdgeType("E8", _E.ADDITIONAL_VEHICLE_SENSOR, _E.PERSON, True),
        FlowEdgeType("E9", _E.ADDITIONAL_VEHICLE_SENSOR, _E.ORGANISATION, True),
        FlowEdgeType("E10", _E.VEHICLE, _E.VEHICLE_COMPONENT, True),
        FlowEdgeType("E11", _E.VEHICLE_COMPONENT, _E.VEHICLE_COMPONENT, True),
        FlowEdgeType("E12", _E.VEHICLE, _E.VEHICLE, True),
        FlowEdgeType("E13", _E.VEHICLE, _E.COMMUNICATION_INFRASTRUCTURE, True),
        FlowEdgeType("E14", _E.COMMUNICATION_INFRASTRUCTURE, _E.COMMUNICATION_INFRASTRUCTURE, True),
        FlowEdgeType("E15", _E.COMMUNICATION_INFRASTRUCTURE, _E.ORGANISATION, False),
        FlowEdgeType("E16", _E.VEHICLE, _E.TRAFFIC_MONITORING_SENSOR, False),
        FlowEdgeType("E17", _E.TRAFFIC_MONITORING_SENSOR, _E.ORGANISATION, True),
        FlowEdgeType("E18", _E.CHARGING_FACILITY, _E.VEHICLE, True),
        FlowEdgeType("E19", _E.CHARGING_FACILITY, _E.ORGANISATION, True),
        FlowEdgeType("E20", _E.VEHICLE, _E.ORGANISATION, True),
        FlowEdgeType("E21", _E.ORGANISATION, _E.ORGANISATION, True),
    )
}

_BUILTIN = TypeGraph(
    entity_types=frozenset(EntityType),
    subclass_parent=dict(_SUBCLASS_PARENT),
    semantic_relations=dict(_SEMANTIC_RELATIONS),
    flow_edge_types=dict(_FLOW_EDGE_TYPES),
)


def builtin_schema() -> TypeGraph:
    """Return the built-in type graph. Every call returns the same value."""
    return _BUILTIN


def _gvquote(text: str) -> str:
    # Newlines become the \n label escape so every statement stays on one line.
    quoted = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + quoted.replace("\r", "").replace("\n", "\\n") + '"'


def type_graph_to_dot(schema: TypeGraph | None = None) -> str:
    """Render the type graph as deterministic Graphviz source.

    Entity types become nodes labelled by display name, subclass edges get
    an open arrowhead, semantic relations are solid labelled edges, and
    flow edge types are dashed (double-headed when bidirectional).
    """
    schema = schema or builtin_schema()
    nodes = sorted(_gvquote(t.display_name) + " [shape=box, style=rounded];"
                   for t in schema.entity_types)
    edges: list[str] = []
    for child in sorted(schema.subclass_parent, key=lambda t: t.display_name):
        parent = schema.subclass_parent[child]
        edges.append(
            f"{_gvquote(child.display_name)} -> {_gvquote(parent.display_name)} "
            '[label="subclassOf", arrowhead=onormal];'
        )
    for name in sorted(schema.semantic_relations):
        relation = schema.semantic_relations[name]
        for src, dst in relation.endpoint_pairs:
            edges.append(
                f"{_gvquote(src.display_name)} -> {_gvquote(dst.display_name)} "
                f'[label={_gvquote(name)}];'
            )
    for edge_id in sorted(schema.flow_edge_types):
        edge = schema.flow_edge_types[edge_id]
        style = ", style=dashed, dir=both" if edge.bidirectional else ", style=dashed"
        edges.append(
            f"{_gvquote(edge.source.display_name)} -> {_gvquote(edge.target.display_name)} "
            f"[label={_gvquote(edge.id)}{style}];"
        )
    lines = ['digraph "entity_types" {']
    lines.extend("  " + n for n in nodes)
    lines.extend("  " + e for e in sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"
