"""Deterministic DOT and JSON renderings of graphs and reports.

Output depends only on graph content: statements and keys are emitted in
sorted order, and JSON is compact single-line by default. The documented
shapes are:

validation report
    {"scenario": ..., "violations": [{"code", "severity", "subject", "message"}]}
exposure report
    {"person": ..., "sinks": [{"id", "type", "paths", "packages"}],
     "aggregation_points": [{"id", "path_count"}]}
instance graph
    {"scenario": ..., "entities": [...], "packages": [...],
     "relations": [...], "flows": [...]}
path query results
    strict: [[flow ids...], ...]   lineage: [{"flows": [...], "packages": [...]}, ...]

Compact instance-graph JSON is written as text, with no dict per record:
each record is one f-string of JSON texts, and each string is encoded once
per call (_Texts). That covers the plain shapes: every field is text,
attributes are a dict from str keys to text, true/false or a list of text,
and package items are a list or tuple of text. On the first value outside
them (None, a number, a set, a key that is a str subclass, attributes that
are not a dict, items that are a string, ...) the whole graph goes
through the document path instead: one dict of the documented shape, built
in full and then dumped, so the errors, and the order they come in, are
the ones json.dumps of that document gives. The pretty form always takes
that path.
"""
from __future__ import annotations

from itertools import groupby

from vdse.analysis import ExposureReport, LineageTrace, Path
from vdse.errors import MalformedGraphError
from vdse.graph import InstanceGraph
from vdse.schema import EntityType, _Record, _gvquote, _shown, type_code
from vdse.validate import (
    ValidationReport,
    check_references,
    items_not_text,
    name_not_text,
    not_a_map,
)

__all__ = [
    "ExportOptions",
    "graph_to_dot",
    "graph_to_json",
    "report_to_json",
    "paths_to_json",
]


class ExportOptions(_Record):
    """Rendering switches; highlighted paths only make sense for DOT.
    Frozen: assigning or deleting a field raises AttributeError."""

    __slots__ = ("format", "show_packages", "highlight_paths")

    def __init__(
        self, format: str = "dot", show_packages: bool = False, highlight_paths: tuple = ()
    ):
        if format not in ("dot", "json"):
            raise ValueError(f"unknown export format {_shown(format)}")
        if highlight_paths and format != "dot":
            raise ValueError("highlight_paths is only valid with the dot format")
        for name, value in zip(self.__slots__, (format, show_packages, highlight_paths)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # copy and pickle go through __init__, not __setattr__
        return ExportOptions, self._values()


def graph_to_dot(graph: InstanceGraph, options: ExportOptions | None = None) -> str:
    """Render a scenario as Graphviz source: nodes labelled `id : code`,
    semantic relations solid, flows dashed (highlighted ones red)."""
    options = options or ExportOptions()
    if not isinstance(graph.name, str):
        raise name_not_text(graph.name)
    check_references(graph)
    highlighted: set[str] = {
        flow_id for path in options.highlight_paths for flow_id in path.flow_ids
    }
    # Every endpoint names an entity (check_references): each entity id is
    # quoted once, here, and looked up for the edges.
    quoted = {}
    nodes = []
    for entity_id in sorted(graph.entities):
        entity = graph.entities[entity_id]
        label = f"{entity_id} : {type_code(entity.entity_type)}"
        quoted[entity_id] = node = _gvquote(entity_id)
        nodes.append(f"{node} [label={_gvquote(label)}];")
    edges = []
    for relation_id in sorted(graph.relations):
        relation = graph.relations[relation_id]
        label = relation.relation
        if not isinstance(relation.attributes, dict):
            raise not_a_map(f"relation {relation_id!r}", relation.attributes)
        role = relation.attributes.get("role")
        if isinstance(role, str):
            label += f" (role={role})"
        edges.append(
            f"{quoted[relation.source]} -> {quoted[relation.target]} "
            f"[label={_gvquote(label)}];"
        )
    for flow_id in sorted(graph.flows):
        flow = graph.flows[flow_id]
        label = flow_id
        if options.show_packages:
            label += f" [{flow.package}]"
        style = ", color=red, penwidth=2.0" if flow_id in highlighted else ""
        edges.append(
            f"{quoted[flow.source]} -> {quoted[flow.target]} "
            f"[label={_gvquote(label)}, style=dashed{style}];"
        )
    lines = [f"digraph {_gvquote(graph.name)} {{"]
    lines.extend("  " + n for n in sorted(nodes))
    lines.extend("  " + e for e in sorted(edges))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dump(document, pretty: bool) -> str:
    import json  # only JSON output needs it; a command that writes none skips its import

    if pretty:
        return json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    return json.dumps(document, separators=(",", ":"), ensure_ascii=False)


def _sorted_attributes(kind: str, item) -> dict:
    if not isinstance(item.attributes, dict):
        raise not_a_map(f"{kind} {item.id!r}", item.attributes)
    # key=str orders text keys as plain sorting does, and the others
    # without raising, so that the least is reported.
    keys = sorted(item.attributes, key=str)
    for key in keys:
        if not isinstance(key, str):
            raise MalformedGraphError(
                f"{kind} {item.id!r} attribute name {_shown(key)} is not text"
            )
    return {k: item.attributes[k] for k in keys}


def _items(package_id: str, items) -> list:
    if not isinstance(items, (tuple, list)):
        raise items_not_text(package_id)
    return list(items)


def _graph_document(graph: InstanceGraph) -> dict:
    """The documented graph JSON shape as one dict, built record by record;
    raises MalformedGraphError on attributes that are not a map, an
    attribute name that is not text or package items that are not a list,
    in document order."""
    return {
        "scenario": graph.name,
        "entities": [
            {
                "id": e.id,
                "type": type_code(e.entity_type),
                "attributes": _sorted_attributes("entity", e),
            }
            for e in (graph.entities[i] for i in sorted(graph.entities))
        ],
        "packages": [
            {
                "id": p.id,
                "description": p.description,
                "items": _items(p.id, p.items),
                "derives_from": list(p.derives_from),
            }
            for p in (graph.packages[i] for i in sorted(graph.packages))
        ],
        "relations": [
            {
                "id": r.id,
                "relation": r.relation,
                "source": r.source,
                "target": r.target,
                "attributes": _sorted_attributes("relation", r),
            }
            for r in (graph.relations[i] for i in sorted(graph.relations))
        ],
        "flows": [
            {
                "id": f.id,
                "edge_type": f.edge_type,
                "source": f.source,
                "target": f.target,
                "package": f.package,
            }
            for f in (graph.flows[i] for i in sorted(graph.flows))
        ],
    }


def _strings_text(values, texts: "_Texts") -> str:
    """A list or tuple of text as a compact JSON array; TypeError otherwise."""
    if type(values) is not list and type(values) is not tuple:
        raise TypeError("not a plain list")
    return "[" + ",".join([texts[v] for v in values]) + "]"


def _attributes_text(attributes, texts: "_Texts") -> str:
    """An attribute map as a compact JSON object, keys sorted. Raises
    TypeError on a map, a key or a value outside the plain shapes: a dict
    of text keys, each to text, true/false or a list of text."""
    if type(attributes) is not dict:
        raise TypeError("not a plain map")
    members = []
    for key in sorted(attributes):
        if type(key) is not str:
            raise TypeError("not a text key")
        value = attributes[key]
        text = (
            "true" if value is True
            else "false" if value is False
            else _strings_text(value, texts) if type(value) is list
            else texts[value]
        )
        members.append(f"{texts[key]}:{text}")
    return "{" + ",".join(members) + "}"


def _graph_text(graph: InstanceGraph, texts: "_Texts") -> str:
    """Compact graph JSON, each record one f-string of texts. texts encodes
    text only, so the first value outside the plain shapes raises TypeError,
    or KeyError for an entity type that is not an EntityType."""
    t, encode = texts, texts.encode
    types = {entity_type: t[entity_type.value] for entity_type in EntityType}
    # Entity and package ids recur as endpoints, packages and derivations:
    # their texts go into the memo in one pass. Relation and flow ids occur
    # once each, and are encoded where they are written.
    entity_ids, package_ids = sorted(graph.entities), sorted(graph.packages)
    t.update(zip(entity_ids, map(encode, entity_ids)))
    t.update(zip(package_ids, map(encode, package_ids)))
    entities = ",".join([
        f'{{"id":{t[e.id]},"type":{types[e.entity_type]},"attributes":'
        f'{"{}" if e.attributes == {} else _attributes_text(e.attributes, t)}}}'
        for e in map(graph.entities.__getitem__, entity_ids)
    ])
    packages = ",".join([
        f'{{"id":{t[p.id]},"description":{t[p.description]},'
        f'"items":{"[]" if p.items == [] else _strings_text(p.items, t)},'
        f'"derives_from":[{",".join([t[a] for a in p.derives_from])}]}}'
        for p in map(graph.packages.__getitem__, package_ids)
    ])
    relations = ",".join([
        f'{{"id":{encode(r.id)},"relation":{t[r.relation]},"source":{t[r.source]},'
        f'"target":{t[r.target]},"attributes":'
        f'{"{}" if r.attributes == {} else _attributes_text(r.attributes, t)}}}'
        for r in map(graph.relations.__getitem__, sorted(graph.relations))
    ])
    flows = ",".join([
        f'{{"id":{encode(f.id)},"edge_type":{t[f.edge_type]},"source":{t[f.source]},'
        f'"target":{t[f.target]},"package":{t[f.package]}}}'
        for f in map(graph.flows.__getitem__, sorted(graph.flows))
    ])
    return (
        f'{{"scenario":{t[graph.name]},"entities":[{entities}],"packages":[{packages}],'
        f'"relations":[{relations}],"flows":[{flows}]}}'
    )


def graph_to_json(graph: InstanceGraph, pretty: bool = False) -> str:
    """Render a scenario as a stable JSON document, all sections sorted by id."""
    check_references(graph)
    if not pretty:
        from json.encoder import encode_basestring

        try:
            return _graph_text(graph, _Texts(encode_basestring))
        except (TypeError, KeyError):
            pass  # a value outside the plain shapes: the document decides
    document = _graph_document(graph)
    try:
        return _dump(document, pretty)
    except (TypeError, ValueError) as error:  # a hand-set value json cannot encode
        raise MalformedGraphError(f"scenario cannot be written as JSON: {error}") from None


def report_to_json(report: "ValidationReport | ExposureReport", pretty: bool = False) -> str:
    """Render a validation or exposure report as its documented JSON shape."""
    if isinstance(report, ValidationReport):
        document = {
            "scenario": report.scenario,
            "violations": [
                {
                    "code": v.code.value,
                    "severity": v.severity,
                    "subject": v.subject,
                    "message": v.message,
                }
                for v in report.violations
            ],
        }
    elif isinstance(report, ExposureReport):
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
                {"id": a.entity, "path_count": a.path_count}
                for a in report.aggregation_points
            ],
        }
    else:
        raise TypeError(f"unsupported report type {type(report).__name__}")
    return _dump(document, pretty)


class _Texts(dict):
    """The JSON text of each value looked up, encoded once. Only text and
    tuples of text are kept: 1 == True, but JSON writes them apart."""

    __slots__ = ("encode",)

    def __init__(self, encode):
        super().__init__()
        self.encode = encode

    def __missing__(self, value) -> str:
        text = self.encode(value)
        if type(value) is str or type(value) is tuple and all(type(v) is str for v in value):
            self[value] = text
        return text


def _traces_text(traces: list, texts: _Texts) -> str:
    """Lineage traces as comma-separated JSON objects, each one f-string of
    memoized id and package-sequence texts. A run with a trace whose flow
    ids are not a tuple, or hold a value that is not hashable, goes through
    the encoder as the objects its traces stand for, so it is written, or
    refused, as json.dumps of the documented shape would."""
    try:
        written = [
            f'{{"flows":[{",".join(map(texts.__getitem__, flows))}],'
            f'"packages":{texts[packages]}}}'
            for flows, packages in traces
            if type(flows) is tuple
        ]
        if len(written) == len(traces):
            return ",".join(written)
    except (TypeError, ValueError):
        pass
    return texts.encode(
        [{"flows": t.flow_ids, "packages": t.package_ids} for t in traces]
    )[1:-1]


def paths_to_json(results: list, pretty: bool = False) -> str:
    """Render path query results: arrays of flow ids for strict paths,
    {flows, packages} objects for lineage traces.

    The pretty form is one _dump of the documented list. In the compact
    form, each run of results of one type is written on its own and the
    runs are joined: strict paths by one encoder call, lineage traces by
    _traces_text."""
    import json

    runs = [(kind, list(run)) for kind, run in groupby(results, type)]
    for kind, _ in runs:
        if not issubclass(kind, (Path, LineageTrace)):
            raise TypeError(f"unsupported result type {kind.__name__}")
    if pretty:
        return _dump(
            [
                result.flow_ids if issubclass(kind, Path)
                else {"flows": result.flow_ids, "packages": result.package_ids}
                for kind, run in runs
                for result in run
            ],
            True,
        )
    texts = _Texts(json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode)
    return "[" + ",".join(
        texts.encode([p.flow_ids for p in run])[1:-1] if issubclass(kind, Path)
        else _traces_text(run, texts)
        for kind, run in runs
    ) + "]"
