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

Instance-graph JSON has one writer, _graph_text: each record is one
f-string of the JSON texts of its values (_Texts), written as json.dumps of
the whole document would be, and refused alike: shape errors in document
order, then the first value json cannot encode. The pretty form is that text
read back and indented.

Path results and exposure reports share one writer for runs of id
sequences, _id_arrays. It checks the text of every id of a run at once:
every sequence a non-empty tuple or list, the run's ids joined as text, and
that text free of what json escapes. Then each sequence is written by
'","'.join and the run by one more join, with no per-result f-string. A run
it refuses goes through the encoder. Each document has one writer, and the
first value json cannot encode is raised as the writer recorded it, so
both write, or refuse, what json.dumps of the documented shape would. The
validation report is one json.dumps of its document. Every pretty form is
the compact text indented by _indented, the one place that writes it.
"""
from __future__ import annotations

from itertools import chain, groupby
from operator import attrgetter

from vdse.analysis import ExposureReport, LineageTrace, Path
from vdse.errors import MalformedGraphError
from vdse.graph import InstanceGraph
from vdse.schema import EntityType, _Record, _digraph, _gvquote, _shown, type_code
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
    return _digraph(graph.name, nodes, edges)


class _Members(dict):
    """A JSON object read back by _object with two members of one name, as
    json writes a hand-set {1: .., "1": ..}: json writes items(), both."""

    def items(self):
        return self.members


def _object(members: list) -> dict:
    value = dict(members)
    if len(value) < len(members):
        value = _Members(members)
        value.members = members
    return value


def _indented(text: str) -> str:
    """Compact JSON text as json.dumps(..., indent=2) writes the value read
    back, which holds no cycle; _object keeps a name that repeats."""
    import json

    value = json.loads(text, object_pairs_hook=_object)
    return json.dumps(value, indent=2, ensure_ascii=False, check_circular=False) + "\n"


def _strings_text(values, t: "_Texts") -> str:
    """A list or tuple as a compact JSON array, each text item encoded once."""
    try:
        return "[" + ",".join(map(t.__getitem__, values)) + "]"
    except TypeError:  # an item that is not hashable
        return t.write(list(values))


def _map_text(kind: str, item, t: "_Texts") -> str:
    """item's attributes as a compact JSON object, names sorted. Raises
    MalformedGraphError if they are not a map, or on the least name that is not
    text (key=str sorts text as plain sorting does, and the rest without raising)."""
    attributes = item.attributes
    if not isinstance(attributes, dict):
        raise not_a_map(f"{kind} {item.id!r}", attributes)
    members = []
    for key in sorted(attributes, key=str) if len(attributes) > 1 else attributes:
        if not isinstance(key, str):
            name = _shown(key)
            raise MalformedGraphError(f"{kind} {item.id!r} attribute name {name} is not text")
        value = attributes[key]
        text = ("true" if value is True else "false" if value is False
                else _strings_text(value, t) if type(value) is list else t.write(value))
        members.append(f"{t[key]}:{text}")
    return "{" + ",".join(members) + "}"


def _items_text(package, t: "_Texts") -> str:
    """A package's items as a compact JSON array, if a list or a tuple."""
    if not isinstance(package.items, (tuple, list)):
        raise items_not_text(package.id)
    return _strings_text(package.items, t)


def _graph_text(graph: InstanceGraph, t: "_Texts") -> str:
    """Compact graph JSON, each record one f-string of texts. Raises the
    shape errors, MalformedGraphError, in document order; the first value
    json cannot encode is left in t.error."""
    quote, text = t.quote, t.__getitem__
    name = t.write(graph.name)  # first in the document, so its error comes first
    types = {entity_type: t[entity_type.value] for entity_type in EntityType}
    # Entity and package ids recur as endpoints, packages and derivations:
    # their texts go into the memo in one pass. Relation and flow ids occur
    # once each, and are encoded where they are written.
    entity_ids, package_ids = sorted(graph.entities), sorted(graph.packages)
    t.update(zip(entity_ids, map(quote, entity_ids)))
    t.update(zip(package_ids, map(quote, package_ids)))
    # An empty map or list is written without a call.
    entities = ",".join([
        f'{{"id":{t[e.id]},"type":{types[et] if type(et) is EntityType else t[type_code(et)]},'
        f'"attributes":{"{}" if not a and type(a) is dict else _map_text("entity", e, t)}}}'
        for e in map(graph.entities.__getitem__, entity_ids)
        for et, a in ((e.entity_type, e.attributes),)
    ])
    packages = ",".join([
        f'{{"id":{t[p.id]},"description":{t.write(p.description)},'
        f'"items":{"[]" if not p.items and type(p.items) is list else _items_text(p, t)},'
        f'"derives_from":[{",".join(map(text, p.derives_from))}]}}'
        for p in map(graph.packages.__getitem__, package_ids)
    ])
    relations = ",".join([
        f'{{"id":{quote(r.id)},"relation":{t[r.relation]},"source":{t[r.source]},'
        f'"target":{t[r.target]},'
        f'"attributes":{"{}" if not a and type(a) is dict else _map_text("relation", r, t)}}}'
        for r in map(graph.relations.__getitem__, sorted(graph.relations))
        for a in (r.attributes,)
    ])
    flows = ",".join([
        f'{{"id":{quote(f.id)},"edge_type":{t[f.edge_type]},"source":{t[f.source]},'
        f'"target":{t[f.target]},"package":{t[f.package]}}}'
        for f in map(graph.flows.__getitem__, sorted(graph.flows))
    ])
    return (
        f'{{"scenario":{name},"entities":[{entities}],"packages":[{packages}],'
        f'"relations":[{relations}],"flows":[{flows}]}}'
    )


def graph_to_json(graph: InstanceGraph, pretty: bool = False) -> str:
    """Render a scenario as a stable JSON document, all sections sorted by id."""
    check_references(graph)
    texts = _Texts()
    text = _graph_text(graph, texts)
    if texts.error is not None:  # a hand-set value json cannot encode
        raise MalformedGraphError(f"scenario cannot be written as JSON: {texts.error}")
    return _indented(text) if pretty else text


def _exposure_text(report: ExposureReport, t: "_Texts") -> str:
    """Compact exposure report JSON: each sink's paths by _paths_text, every
    other value through t; the first value json cannot encode is left in
    t.error. A field that cannot be read as the shape names it raises as
    building the document would."""
    write = t.write
    person = write(report.person)
    sinks_text = ",".join([
        f'{{"id":{write(s.sink)},"type":{write(s.sink_type)},'
        f'"paths":[{_paths_text(s.paths, t)}],"packages":{write(s.packages)}}}'
        for s in report.sinks
    ])
    points_text = ",".join([
        f'{{"id":{write(a.entity)},"path_count":{write(a.path_count)}}}'
        for a in report.aggregation_points
    ])
    return f'{{"person":{person},"sinks":[{sinks_text}],"aggregation_points":[{points_text}]}}'


def report_to_json(report: "ValidationReport | ExposureReport", pretty: bool = False) -> str:
    """Render a validation or exposure report as its documented JSON shape.
    Each has one writer: a validation report is one json.dumps of its
    document, an exposure report is written by _exposure_text, and the
    first value json cannot encode is raised as the writer recorded it."""
    if isinstance(report, ValidationReport):
        import json  # only JSON output needs it; a command that writes none skips its import

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
        text = json.dumps(document, separators=(",", ":"), ensure_ascii=False)
    elif isinstance(report, ExposureReport):
        texts = _Texts()
        text = _exposure_text(report, texts)
        if texts.error is not None:
            raise texts.error
    else:
        raise TypeError(f"unsupported report type {type(report).__name__}")
    return _indented(text) if pretty else text


class _Texts(dict):
    """The compact JSON text of each value looked up, as json.dumps writes
    it: text by encode_basestring, any other value by the encoder.
    Only text is kept: 1 == True, but JSON writes them apart. The first
    value json cannot encode is kept in error and written as null, so that
    a writer meets every shape error first."""

    __slots__ = ("quote", "encode", "error")

    def __init__(self):
        from json.encoder import JSONEncoder, encode_basestring

        self.quote = encode_basestring
        self.encode = JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
        self.error = None

    def __missing__(self, value) -> str:
        if type(value) is str:
            self[value] = text = self.quote(value)
            return text
        try:
            return self.encode(value)
        except (TypeError, ValueError) as error:
            self.error = self.error or error
            return "null"

    def write(self, value) -> str:
        """The text of any value, hashable or not."""
        return self[value] if type(value) is str else self.__missing__(value)


_SEQUENCES = {tuple, list}
_FLOW_IDS, _PACKAGE_IDS = attrgetter("flow_ids"), attrgetter("package_ids")


def _id_arrays(sequences: list):
    """The inside of each id sequence's JSON array, '","'.join(sequence),
    when json writes every id as itself in quotes: each sequence is a
    non-empty tuple or list, and the text of all ids, joined, has no '"',
    no '\\' and nothing str.isprintable() rejects (every character json
    escapes, and a few it writes raw, such as U+007F). Every id is checked,
    not each distinct one, so no id's __eq__ or __hash__ is trusted. None
    otherwise, and for an empty run: the encoder writes that run."""
    if not sequences or not set(map(type, sequences)) <= _SEQUENCES or not all(sequences):
        return None
    try:
        probe = "".join(chain.from_iterable(sequences))
    except TypeError:  # an id that is not text
        return None
    if '"' in probe or "\\" in probe or not probe.isprintable():
        return None
    return map('","'.join, sequences)


def _paths_text(paths, t: _Texts) -> str:
    """Strict paths as comma-separated JSON arrays of flow ids, by one join
    over _id_arrays; a run it refuses is written by t as the arrays."""
    flow_ids = list(map(_FLOW_IDS, paths))
    arrays = _id_arrays(flow_ids)
    if arrays is None:
        return t.write(flow_ids)[1:-1]
    return '["' + '"],["'.join(arrays) + '"]'


def _traces_text(traces: list, t: _Texts) -> str:
    """Lineage traces as comma-separated JSON objects, by joins alone: each
    trace's flow and package arrays from _id_arrays, paired by zip. A run
    either of them refuses is written by t as the objects its traces stand
    for, so it is written, or refused, as json.dumps of the documented shape
    would."""
    flows = _id_arrays(list(map(_FLOW_IDS, traces)))
    packages = _id_arrays(list(map(_PACKAGE_IDS, traces)))
    if flows is None or packages is None:
        return t.write(
            [{"flows": trace.flow_ids, "packages": trace.package_ids} for trace in traces]
        )[1:-1]
    pairs = '"]},{"flows":["'.join(map('"],"packages":["'.join, zip(flows, packages)))
    return '{"flows":["' + pairs + '"]}'


def paths_to_json(results: list, pretty: bool = False) -> str:
    """Render path query results: arrays of flow ids for strict paths,
    {flows, packages} objects for lineage traces. Each run of one result
    type is written on its own, strict paths by _paths_text and lineage
    traces by _traces_text: joins of the ids' texts where every id is plain
    text, else the encoder's text of the run."""
    runs = [(kind, list(run)) for kind, run in groupby(results, type)]
    for kind, _ in runs:
        if not issubclass(kind, (Path, LineageTrace)):
            raise TypeError(f"unsupported result type {kind.__name__}")
    texts, written = _Texts(), []
    for kind, run in runs:
        written.append(
            _paths_text(run, texts) if issubclass(kind, Path) else _traces_text(run, texts)
        )
        if texts.error is not None:  # before a later run raises its own
            raise texts.error
    text = "[" + ",".join(written) + "]"
    return _indented(text) if pretty else text
