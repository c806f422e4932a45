"""Entity-level scenario graphs.

A scenario holds entity instances, semantic relation instances, directed
data flows, and the data packages those flows carry. Mutations are
atomic: every precondition is checked before anything is inserted, so a
raised GraphError leaves the graph exactly as it was. A graph that is no
longer being mutated is safe to share across threads.

Each record kind has one private insert (`_insert_entity`,
`_insert_package`, `_insert_relation`, and `_insert_flow`, which takes a
statement's arrow and inserts a `<->` as its `.fwd`/`.rev` pair). It
makes the checks that a parsed statement does not prove by its grammar:
duplicate ids, a plain flow id against a `.fwd`/`.rev` pair, dangling
entities and packages, self-loops, unknown edge types and relation
names, the DP type, and what reserved attributes mean, in a fixed order:
the first check that fails raises. The insert stores the maps and lists
it is given. The public `add_*` methods add the checks on what only a
caller can get wrong: the id, the entity type (a code, a display name or
a member), and the shape of attribute maps and package content. Those
last checks run inside the insert, when `from_caller` is set, at the
point where they have always run, so a call with two defects raises the
same error either way; a caller's maps and lists are then copied. A
reference that is not hashable, such as a list, names nothing, as in
`validate`. `dsl.parse` calls the inserts directly: its grammar has
proved the ids and built fresh, well-shaped maps.
"""
from __future__ import annotations

import re

from vdse.errors import (
    AttributeMisuseError,
    DanglingReferenceError,
    DuplicateIdError,
    IdentifierError,
    PackageConflictError,
    SelfLoopError,
    UnknownTypeError,
)
from vdse.schema import EntityType, TypeGraph, _Record, _shown, builtin_schema

__all__ = [
    "EntityInstance",
    "DataPackage",
    "SemanticRelationInstance",
    "FlowInstance",
    "InstanceGraph",
    "new_scenario",
    "check_entity_attributes",
    "strongly_connected_components",
    "IDENT",
    "IDENT_RE",
]

IDENT = r"[A-Za-z][A-Za-z0-9_]*"
IDENT_RE = re.compile(IDENT + r"\Z")

# Reserved entity attribute names and where they are admissible.
_LIST_ATTRS = ("static", "dynamic")
_VEHICLE_TYPES = (EntityType.VEHICLE, EntityType.VEHICLE_COMPONENT)
_BUILTIN = builtin_schema()
_SEMANTIC_RELATIONS = _BUILTIN.semantic_relations


class EntityInstance(_Record):
    """An entity of a scenario: its id, its type and its attributes."""

    __slots__ = ("id", "entity_type", "attributes")

    def __init__(self, id: str, entity_type: EntityType, attributes: dict | None = None):
        self.id = id
        self.entity_type = entity_type
        self.attributes = {} if attributes is None else attributes

    @property
    def privacy_preserving(self) -> bool:
        return bool(self.attributes.get("privacy_preserving", False))


class DataPackage(_Record):
    """A bundle of data items exchanged over one or more flows."""

    __slots__ = ("id", "description", "items", "derives_from")

    def __init__(
        self, id: str, description: str = "", items: list | None = None, derives_from: tuple = ()
    ):
        self.id = id
        self.description = description
        self.items = [] if items is None else items
        self.derives_from = derives_from


class SemanticRelationInstance(_Record):
    """A named semantic relation from one entity to another."""

    __slots__ = ("id", "relation", "source", "target", "attributes")

    def __init__(
        self, id: str, relation: str, source: str, target: str, attributes: dict | None = None
    ):
        self.id = id
        self.relation = relation
        self.source = source
        self.target = target
        self.attributes = {} if attributes is None else attributes


class FlowInstance(_Record):
    """A directed data flow carrying exactly one package."""

    __slots__ = ("id", "edge_type", "source", "target", "package")

    def __init__(self, id: str, edge_type: str, source: str, target: str, package: str):
        self.id = id
        self.edge_type = edge_type
        self.source = source
        self.target = target
        self.package = package


def _names(table: dict, key) -> bool:
    """Whether key is a key of table; a value that is not hashable, such as
    a hand-set list, names nothing."""
    try:
        return key in table
    except TypeError:
        return False


def _unknown_endpoints(entities: dict, kind: str, item) -> tuple:
    """The message for each endpoint of item, a relation or a flow, that
    names no entity in entities; () when both do. A value that is not
    hashable names nothing."""
    return tuple(
        f"{kind} {_shown(item.id)} references unknown entity {_shown(endpoint)}"
        for endpoint in (item.source, item.target)
        if not _names(entities, endpoint)
    )


def _check_identifier(id_: str, kind: str) -> None:
    if not isinstance(id_, str) or not IDENT_RE.match(id_):
        raise IdentifierError(f"invalid {kind} id {_shown(id_)}")


def _check_attr_shape(key: str, value) -> None:
    _check_identifier(key, "attribute")
    if isinstance(value, bool) or isinstance(value, str):
        return
    if isinstance(value, list):
        if not value:
            raise AttributeMisuseError(
                f"attribute {key!r} is an empty list; omit the attribute instead"
            )
        if all(isinstance(item, str) for item in value):
            return
    raise AttributeMisuseError(
        f"attribute {key!r} must be text, a truth value, or a list of text"
    )


def check_entity_attributes(
    schema: TypeGraph, entity_type: EntityType, attributes: dict
) -> list[str]:
    """Return reserved-attribute problems for an entity, empty when clean."""
    problems: list[str] = []
    for key in _LIST_ATTRS:
        if key in attributes:
            if not any(schema.is_subtype(entity_type, t) for t in _VEHICLE_TYPES):
                problems.append(f"{key!r} is only allowed on V or VC entities")
            elif not (
                isinstance(attributes[key], list)
                and all(isinstance(i, str) for i in attributes[key])
            ):
                problems.append(f"{key!r} must be a list of text")
    if "category" in attributes:
        if not schema.is_subtype(entity_type, EntityType.ORGANISATION):
            problems.append("'category' is only allowed on O, G, or SP entities")
        elif not isinstance(attributes["category"], str):
            problems.append("'category' must be text")
    if "privacy_preserving" in attributes and not isinstance(
        attributes["privacy_preserving"], bool
    ):
        problems.append("'privacy_preserving' must be a truth value")
    if "label" in attributes and not isinstance(attributes["label"], str):
        problems.append("'label' must be text")
    return problems


def _caller_attrs(attributes) -> dict:
    """A checked copy of a caller's attribute map; list values are copied too."""
    if attributes is None:
        return {}
    if not isinstance(attributes, dict):
        raise AttributeMisuseError(
            f"attributes must be a map, not {type(attributes).__name__}"
        )
    attrs = dict(attributes)
    for key, value in attrs.items():
        _check_attr_shape(key, value)
        if isinstance(value, list):
            attrs[key] = list(value)
    return attrs


def _derivations(derives_from) -> tuple:
    """The derivations a package stores, sorted. key=str sorts text as plain
    sorting does, and never raises on a hand-set package id that is not text."""
    return tuple(sorted(derives_from, key=str))


def _caller_items(id_: str, description, items, derives_from) -> list:
    """A checked copy of a caller's package items, after checking that the
    description is text and the derivations are a list."""
    if not isinstance(description, str):
        raise AttributeMisuseError("package description must be text")
    if not isinstance(items, (tuple, list)) or not all(isinstance(i, str) for i in items):
        raise AttributeMisuseError("package items must be text")
    if not isinstance(derives_from, (tuple, list)):
        raise DanglingReferenceError(
            f"package {id_!r} derives from {_shown(derives_from)}, not a list of packages"
        )
    return list(items)


class InstanceGraph(_Record):
    """A named scenario over the built-in type graph."""

    __slots__ = ("name", "entities", "relations", "flows", "packages")

    def __init__(
        self,
        name: str,
        entities: dict | None = None,
        relations: dict | None = None,
        flows: dict | None = None,
        packages: dict | None = None,
    ):
        self.name = name
        self.entities = {} if entities is None else entities
        self.relations = {} if relations is None else relations
        self.flows = {} if flows is None else flows
        self.packages = {} if packages is None else packages

    # -- entities ---------------------------------------------------------

    def add_entity(
        self, id_: str, entity_type: EntityType | str, attributes: dict | None = None
    ) -> "InstanceGraph":
        _check_identifier(id_, "entity")
        return self._insert_entity(
            id_, EntityType.coerce(entity_type), attributes, from_caller=True
        )

    def _insert_entity(
        self, id_: str, etype: EntityType, attrs: dict, *, from_caller: bool = False
    ) -> "InstanceGraph":
        if etype is EntityType.DATA_PACKAGE:
            raise UnknownTypeError(
                "DataPackage is not an instantiable entity type; "
                "declare a package and attach it to a flow instead"
            )
        if id_ in self.entities:
            raise DuplicateIdError(f"entity id {id_!r} already declared")
        if from_caller:
            attrs = _caller_attrs(attrs)
        if attrs:
            problems = check_entity_attributes(_BUILTIN, etype, attrs)
            if problems:
                raise AttributeMisuseError("; ".join(problems))
        self.entities[id_] = EntityInstance(id_, etype, attrs)
        return self

    # -- packages ---------------------------------------------------------

    def add_package(self, package: DataPackage) -> "InstanceGraph":
        """Register a package. Derivations must point at existing packages,
        which keeps the derivation relation acyclic by construction."""
        _check_identifier(package.id, "package")
        return self._insert_package(
            package.id,
            package.description,
            package.items,
            package.derives_from,
            from_caller=True,
        )

    def _insert_package(
        self,
        id_: str,
        description: str,
        items: list,
        derives_from: tuple,
        *,
        from_caller: bool = False,
    ) -> "InstanceGraph":
        if id_ in self.packages:
            raise DuplicateIdError(f"package id {id_!r} already declared")
        if from_caller:
            items = _caller_items(id_, description, items, derives_from)
        derivations = ()
        if derives_from:
            seen: set[str] = set()
            for ancestor in derives_from:
                if _names(seen, ancestor):
                    raise PackageConflictError(
                        f"package {id_!r} lists derivation {_shown(ancestor)} twice"
                    )
                if not _names(self.packages, ancestor):
                    raise DanglingReferenceError(
                        f"package {id_!r} derives from unknown package {_shown(ancestor)}"
                    )
                seen.add(ancestor)
            derivations = _derivations(derives_from)
        self.packages[id_] = DataPackage(id_, description, items, derivations)
        return self

    def _resolve_package(self, package: "DataPackage | str", flow_id: str) -> str:
        """The id of a flow's package when it is not a declared id: a new
        DataPackage is added, and a declared one must match; anything
        else names no package."""
        if not isinstance(package, DataPackage):
            raise DanglingReferenceError(
                f"flow {flow_id!r} references unknown package {_shown(package)}"
            )
        if not _names(self.packages, package.id):
            self.add_package(package)
            return package.id
        offered = DataPackage(
            package.id,
            package.description,
            _caller_items(package.id, package.description, package.items, package.derives_from),
            _derivations(package.derives_from),
        )
        if self.packages[package.id] != offered:
            raise PackageConflictError(f"package {package.id!r} redeclared with different content")
        return package.id

    # -- flows ------------------------------------------------------------

    def add_flow(
        self,
        id_: str,
        edge_type: str,
        source: str,
        target: str,
        package: "DataPackage | str",
    ) -> "InstanceGraph":
        _check_identifier(id_, "flow")
        return self._insert_flow(id_, edge_type, source, "->", target, package)

    def add_bidirectional_flow(
        self,
        id_: str,
        edge_type: str,
        source: str,
        target: str,
        package: "DataPackage | str",
    ) -> "InstanceGraph":
        """Declare both directions of an exchange as `<id>.fwd` and
        `<id>.rev`, sharing one package. A plain flow `<id>` may not exist,
        and add_flow refuses `<id>` once the pair does, so that the pair
        always serializes as one `<->` statement."""
        _check_identifier(id_, "flow")
        return self._insert_flow(id_, edge_type, source, "<->", target, package)

    def _insert_flow(
        self,
        id_: str,
        edge_type: str,
        source: str,
        arrow: str,
        target: str,
        package: "DataPackage | str",
    ) -> "InstanceGraph":
        """Insert the flow of a `->` statement, or the `.fwd`/`.rev` pair of
        a `<->` one, once the id is free for that arrow, the edge type is
        built in, the first record's id is free, its endpoints are distinct
        entities and the second record's id is free. Then a package that is
        not a declared id is resolved."""
        flows = self.flows
        if arrow == "->":
            records = (FlowInstance(id_, edge_type, source, target, package),)
            if f"{id_}.fwd" in flows or f"{id_}.rev" in flows:
                raise DuplicateIdError(
                    f"flow id {id_!r} already declared as a bidirectional pair"
                )
        else:
            records = (
                FlowInstance(f"{id_}.fwd", edge_type, source, target, package),
                FlowInstance(f"{id_}.rev", edge_type, target, source, package),
            )
            if id_ in flows:
                raise DuplicateIdError(f"flow id {id_!r} already declared")
        _BUILTIN.flow_edge_type(edge_type)
        first = records[0]
        if first.id in flows:
            raise DuplicateIdError(f"flow id {first.id!r} already declared")
        try:
            known = source in self.entities and target in self.entities
        except TypeError:  # a value that is not hashable names nothing
            known = False
        if not known:
            raise DanglingReferenceError(_unknown_endpoints(self.entities, "flow", first)[0])
        if source == target:
            raise SelfLoopError(f"flow {first.id!r} connects {_shown(source)} to itself")
        if arrow == "<->" and records[1].id in flows:
            raise DuplicateIdError(f"flow id {records[1].id!r} already declared")
        if not (isinstance(package, str) and package in self.packages):
            package = self._resolve_package(package, id_)
        for flow in records:
            flow.package = package
            flows[flow.id] = flow
        return self

    # -- semantic relations -------------------------------------------------

    def add_semantic_relation(
        self,
        id_: str,
        relation: str,
        source: str,
        target: str,
        attributes: dict | None = None,
    ) -> "InstanceGraph":
        _check_identifier(id_, "relation")
        return self._insert_relation(
            id_, relation, source, target, attributes, from_caller=True
        )

    def _insert_relation(
        self,
        id_: str,
        relation: str,
        source: str,
        target: str,
        attrs: dict,
        *,
        from_caller: bool = False,
    ) -> "InstanceGraph":
        record = SemanticRelationInstance(id_, relation, source, target, attrs)
        if not _names(_SEMANTIC_RELATIONS, relation):
            raise UnknownTypeError(f"unknown semantic relation {_shown(relation)}")
        if id_ in self.relations:
            raise DuplicateIdError(f"relation id {id_!r} already declared")
        try:
            known = source in self.entities and target in self.entities
        except TypeError:  # a value that is not hashable names nothing
            known = False
        if not known:
            raise DanglingReferenceError(_unknown_endpoints(self.entities, "relation", record)[0])
        if from_caller:
            record.attributes = _caller_attrs(attrs)
        self.relations[id_] = record
        return self

    # -- queries ------------------------------------------------------------

    def entity_type_of(self, entity_id: str) -> EntityType:
        return self.entities[entity_id].entity_type


def new_scenario(name: str) -> InstanceGraph:
    """Create an empty scenario graph with a non-empty name."""
    if not isinstance(name, str) or not name:
        raise IdentifierError("scenario name must be non-empty text")
    return InstanceGraph(name=name)


def _member_order(node) -> tuple:
    return not isinstance(node, str), _shown(node, str)


def strongly_connected_components(edges: dict) -> list[list]:
    """The strongly connected components of the digraph that maps each node
    to its successors; a node named only as a successor counts too. Tarjan's
    algorithm, iterative and linear. Each component lists its text members
    sorted, then the others in the order of their _shown text, and comes
    after every component it reaches."""
    index: dict = {}
    low: dict = {}  # exactly the nodes on the stack
    stack: list = []
    components: list = []
    for root in edges:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(edges[root]))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    index[successor] = low[successor] = len(index)
                    stack.append(successor)
                    work.append((successor, iter(edges.get(successor, ()))))
                    break
                if successor in low:
                    low[node] = min(low[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    component = []
                    while not component or component[-1] != node:
                        component.append(stack.pop())
                        del low[component[-1]]
                    components.append(sorted(component, key=_member_order))
    return components
