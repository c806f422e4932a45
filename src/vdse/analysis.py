"""Data-flow path analysis over scenario graphs.

Strict mode enumerates simple directed paths: consecutive flows chain
head to tail and no entity is visited twice. Lineage mode follows the
data itself: a step is admissible when the flows chain, or when the
previous flow's package is in the next one's lineage (its package and
every package that one transitively derives from), so provenance can
continue even where the hop-by-hop chain breaks.

Both modes bound the number of flows per result by max_len and order
results by (length, lexicographic flow-id sequence). Semantic relations
are never traversed. Results only depend on graph content, not on
insertion order.

A query to a sink first measures how far the sink is, and the walk never
takes a step after which the sink cannot be reached within max_len
flows. Strict search measures it with one breadth-first search (_hops)
back from the sink over the flows into each entity, up to max_len - 1
flows; reachable_from runs the same search forward from its source, up
to the number of entities with flows out, which no distance exceeds.
Lineage search measures it back over flows instead; that search ignores
that a trace uses each flow once, so its distance is a lower bound. Each
search stops once it runs out of graph, however large max_len is.

Strict search, for an exposure report and a query to a sink alike, is
one level loop over an index of flows by source, each entity's flows
sorted by id: the paths of n + 1 flows are those of n flows, in
flow-id-sequence order, each extended by its endpoint's flows in id
order, so they come out in order too. Each indexed flow carries its
target's distance to the sink, from a table that passes every target
when there is no sink, and the sink has no flows out. Each length is
filed under its endpoints as it is made, shortest first, and no strict
result is sorted afterwards. Besides its results, a strict query holds
only the frontier: the partial paths of one length. Lineage search walks
the flows that can reach the sink in flow-id order. It makes a flow's
successors, and its last flows into the sink, the first time it needs
them, by one closure (_closure) over each package's children or parents;
it files each trace under its length as it is made, so each length's
traces come out in flow-id-sequence order and none is sorted afterwards.
It recurses once per flow of a trace but the last, and a search that would
extend a trace of _MAX_TRACE_DEPTH (500) flows, or that runs out of stack,
raises AnalysisError: for a caller up to about 450 frames deep, whether a
query is too deep depends on the graph and max_len only.

Queries are total on hand-set graphs that validate would reject: each
first checks the flows in one pass (_flows), which raises AnalysisError on
a flow not filed under its own id, naming an undeclared entity or carrying
a non-text package, and on ids not all text or all integers.
"""
from collections import defaultdict
from itertools import chain
from operator import attrgetter, itemgetter
from typing import NamedTuple

from vdse.errors import AnalysisError
from vdse.graph import InstanceGraph, _names, _unknown_endpoints
from vdse.schema import EntityType, _shown, type_code

__all__ = [
    "DEFAULT_MAX_PATH_LEN",
    "Path",
    "LineageTrace",
    "SinkExposure",
    "AggregationPoint",
    "ExposureReport",
    "enumerate_paths",
    "brute_force_paths",
    "reachable_from",
    "exposure_report",
]

# Covers the longest bundled-scenario path (six flows) with margin.
DEFAULT_MAX_PATH_LEN = 10

# The most flows a lineage trace may be extended to: the walk recurses at
# most once per flow, and the cap leaves about 450 frames of the
# interpreter's default recursion limit (1000) to the caller.
_MAX_TRACE_DEPTH = 500


class Path(NamedTuple):
    """A simple chain of flows; node_ids has one more element than flow_ids."""

    flow_ids: tuple
    node_ids: tuple


# Path(flow_ids, node_ids) without the Python frame of the record's own
# __new__: _new(Path, (flow_ids, node_ids)); LineageTrace likewise.
_new = tuple.__new__


class LineageTrace(NamedTuple):
    """A provenance trace; package_ids[i] is the package of flow_ids[i]."""

    flow_ids: tuple
    package_ids: tuple


class SinkExposure(NamedTuple):
    """A sink a person's data reaches: its type code, the strict paths that
    reach it and the sorted packages those paths carry."""

    sink: str
    sink_type: str
    paths: tuple
    packages: tuple


class AggregationPoint(NamedTuple):
    """An entity that two or more distinct paths from the person reach."""

    entity: str
    path_count: int


class ExposureReport(NamedTuple):
    """Where a person's data can end up: sinks and aggregation points, each
    sorted by entity id."""

    person: str
    sinks: tuple
    aggregation_points: tuple


def _require_entity(graph: InstanceGraph, entity_id: str) -> None:
    if not _names(graph.entities, entity_id):
        raise AnalysisError(f"unknown entity {_shown(entity_id)}")


def _check_max_len(max_len: int) -> None:
    if not isinstance(max_len, int):
        raise AnalysisError(f"max_len must be an integer, not {_shown(max_len)}")
    if max_len < 1:
        raise AnalysisError("max_len must be at least 1")


def _check_query(graph: InstanceGraph, source: str, sink: str, max_len: int) -> None:
    _require_entity(graph, source)
    _require_entity(graph, sink)
    if source == sink:
        raise AnalysisError(f"source and sink are both {_shown(source)}; they must differ")
    _check_max_len(max_len)


def _flows(graph: InstanceGraph) -> list:
    """The flows of graph, once each is filed under its own id, names
    declared entities and carries a text package, and the ids order (all
    text or all integers); else AnalysisError naming the least problem."""
    entities = graph.entities
    flows = list(graph.flows.values())
    problems, odd = [], []
    for key, flow in graph.flows.items():
        if key != flow.id:
            problems.append(f"flow {_shown(flow.id)} is filed under {_shown(key)}")
        if not isinstance(flow.package, str):
            problems.append(
                f"flow {_shown(flow.id)} carries {_shown(flow.package)}, not a package id"
            )
        try:
            known = flow.source in entities and flow.target in entities
        except TypeError:  # a value that is not hashable names nothing
            known = False
        if not known:
            problems += _unknown_endpoints(entities, "flow", flow)
        if not isinstance(flow.id, str):
            odd.append(flow.id)
    if odd and (len(odd) < len(flows) or not all(isinstance(i, int) for i in odd)):
        first = min(map(_shown, odd))
        problems.append(f"flow id {first} is not text, and not every flow id is an integer")
    if problems:
        raise AnalysisError(min(problems))
    return flows


def _hops(index: dict, start, limit: int) -> dict:
    """The fewest steps from start to each node it reaches within limit
    steps over index, which maps a node to its neighbours: one
    breadth-first search, which ends once it runs out of graph."""
    hops = {start: 0}
    frontier = [start]
    for distance in range(1, limit + 1):
        if not frontier:
            break
        reached = []
        for node in frontier:
            for neighbour in index.get(node, ()):
                if neighbour not in hops:
                    hops[neighbour] = distance
                    reached.append(neighbour)
        frontier = reached
    return hops


def _strict_search(flows: list, source: str, max_len: int, sink: str | None = None) -> dict:
    """Every simple path of 1..max_len flows from source, filed under its
    endpoint, each endpoint's paths in (length, flow-id sequence) order.
    Given a sink, only the paths ending there; none is extended past it, and
    no step goes to an entity that cannot reach the sink within max_len
    flows.

    One level loop serves both queries. Each successor carries its target's
    distance from a table: _hops back from the sink, or an empty table whose
    default, -1, passes every target. A step is taken when the target is at
    most spare flows from the sink and new to the path, and the sink has no
    successors. One comprehension per length extends each path of the level,
    the paths of n flows in flow-id-sequence order, by its endpoint's
    successors in flow-id order, so the paths of n + 1 flows come out in
    that order too. Each level is filed as it is made, shortest first: every
    path without a sink, else the paths that end there; nothing is sorted
    afterwards. Besides its results, the search holds the partial paths of
    one length. It ends at the first empty level, so no recursion limit caps
    max_len and a max_len beyond the graph costs nothing."""
    hops, far = {}, -1
    if sink is not None:
        sources_into: dict[str, list] = {}
        for flow in flows:
            sources_into.setdefault(flow.target, []).append(flow.source)
        hops, far = _hops(sources_into, sink, max_len - 1), max_len
    adjacency: dict[str, list] = {}
    for flow in flows:
        step = (flow.id, flow.target, hops.get(flow.target, far))
        adjacency.setdefault(flow.source, []).append(step)
    for successors in adjacency.values():
        successors.sort()
    if sink is not None:
        adjacency[sink] = ()
    found: dict[str, list] = defaultdict(list)
    level = [((), (source,))]
    # The level made with spare holds paths of max_len - spare flows, and
    # spare more may follow: each step must reach the sink within spare.
    for spare in range(max_len - 1, -1, -1):
        level = [
            (flow_ids + (flow_id,), nodes + (target,))
            for flow_ids, nodes in level
            for flow_id, target, distance in adjacency.get(nodes[-1], ())
            if distance <= spare and target not in nodes
        ]
        if not level:
            break
        for path in level if sink is None else [p for p in level if p[1][-1] == sink]:
            found[path[1][-1]].append(_new(Path, path))
    return found


def _derivations(packages: dict) -> tuple:
    """Maps from each package id to its parents (its derives_from) and its
    children, both of names only; as in validate, a derives_from that is not
    a list, and an entry that is not hashable, name nothing."""
    parents: dict = {}
    children: dict = {}
    for key, package in packages.items():
        if isinstance(package.derives_from, (tuple, list)):
            named = parents[key] = []
            for parent in package.derives_from:
                try:
                    children.setdefault(parent, []).append(key)
                except TypeError:  # not hashable: names nothing
                    continue
                named.append(parent)
    return parents, children


def _closure(start, edges: dict, seen: set) -> list:
    """start and each node it reaches over edges (a map from node to a list
    of names, as _derivations makes) that seen does not hold, which seen
    gains: an iterative walk that stops at nodes in seen, so cycles end."""
    reached = [] if start in seen else [start]
    seen.update(reached)
    for node in reached:
        for neighbour in edges.get(node, ()):
            if neighbour not in seen:
                seen.add(neighbour)
                reached.append(neighbour)
    return reached


def _lineage_distances(flows: list, parents: dict, sink: str, max_len: int) -> dict:
    """For each flow that can end a lineage trace at sink within max_len
    flows, the fewest flows a trace needs after it to get there: one reverse
    breadth-first search from the flows into the sink. Flow f precedes g when
    f.target is g.source, or f.package is in g.package's lineage, its
    closure over parents. Each entity and each package is expanded once.
    The count ignores that a trace uses a flow only once, so it is a lower
    bound."""
    into: dict[str, list] = {}
    carrying: dict[str, list] = {}
    for flow in flows:
        into.setdefault(flow.target, []).append(flow)
        carrying.setdefault(flow.package, []).append(flow)
    frontier = into.get(sink, [])
    distances = {flow.id: 0 for flow in frontier}
    entities: set[str] = set()
    expanded: set = set()
    for distance in range(1, max_len):
        if not frontier:
            break
        reached = []
        for flow in frontier:
            groups = [carrying.get(p, ()) for p in _closure(flow.package, parents, expanded)]
            if flow.source not in entities:
                entities.add(flow.source)
                groups.append(into.get(flow.source, ()))
            for group in groups:
                for predecessor in group:
                    if predecessor.id not in distances:
                        distances[predecessor.id] = distance
                        reached.append(predecessor)
        frontier = reached
    return distances


class _Successors(dict):
    """Per (target, package), made on first lookup: the entries that may
    follow a flow to target carrying package, in flow-id order. That is the
    list of the package's descendants (its closure over children), made once
    and shared, merged with the target's other flows if it has any. into_sink
    holds ((id, (id,), (package,)), source, lineage) per flow into the sink."""

    def __init__(self, leaving: dict, carrying: dict, children: dict, into_sink: list):
        self.leaving, self.carrying, self.children = leaving, carrying, children
        self.into_sink, self.derived = into_sink, {}

    def __missing__(self, key: tuple) -> list:
        target, package = key
        if package not in self.derived:
            members: set = set()
            groups = [self.carrying.get(p, ()) for p in _closure(package, self.children, members)]
            self.derived[package] = frozenset(members), sorted(chain(*groups), key=itemgetter(0))
        members, successors = self.derived[package]
        others = [e for e in self.leaving.get(target, ()) if e[1] not in members]
        if others:
            successors = sorted(others + successors, key=itemgetter(0))
        self[key] = successors
        return successors


def _walk(
    by_length: list, used: set, sink: str, max_len: int,
    flow_ids: tuple, package_ids: tuple, following: list, index: _Successors,
) -> None:
    """Extend a lineage trace by each successor entry that fits, in flow-id
    order, filing every trace that ends at sink under its length, so that
    each length's traces are filed in flow-id-sequence order. An entry fits
    when it is unused and its distance leaves room to reach the sink. With
    more than two flows to spare, the walk recurses on each entry that fits;
    with two, it ends the trace from the entry's last flows into the sink,
    in a loop, with no frame. Raises AnalysisError rather than extend a
    trace of _MAX_TRACE_DEPTH flows, by a frame or by a last flow alike."""
    depth = len(flow_ids)
    spare = max_len - depth
    for entry in following:
        flow_id, package, target, distance, successors, last_flows, one_flow, one_package = entry
        if distance >= spare or flow_id in used:
            continue
        trace_flows, trace_packages = flow_ids + one_flow, package_ids + one_package
        if target == sink:
            by_length[depth + 1].append(_new(LineageTrace, (trace_flows, trace_packages)))
        if spare == 1:
            continue
        if depth + 1 >= _MAX_TRACE_DEPTH:
            raise AnalysisError(f"search too deep for --max-len {max_len}")
        if spare > 2:
            if successors is None:
                successors = entry[4] = index[target, package]
            used.add(flow_id)
            _walk(by_length, used, sink, max_len, trace_flows, trace_packages, successors, index)
            used.discard(flow_id)
            continue
        if last_flows is None:
            last_flows = entry[5] = [
                last for last, source, lineage in index.into_sink
                if source == target or package in lineage
            ]
        for last_id, last_flow, last_package in last_flows:
            if last_id != flow_id and last_id not in used:
                trace = (trace_flows + last_flow, trace_packages + last_package)
                by_length[depth + 2].append(_new(LineageTrace, trace))


def _lineage_traces(packages: dict, flows: list, source: str, sink: str, max_len: int) -> list:
    """Every lineage trace from source to sink, in (length, flow-id
    sequence) order: the walk files each length's traces in order, and the
    lengths are joined shortest first; nothing is sorted afterwards.

    An entry is [flow id, package, target, distance to sink, successor list,
    last-flow list, (flow id,), (package,)], one per flow that can still
    reach the sink; both lists are in flow-id order, and None until the walk
    first needs them. A search that would extend a trace of _MAX_TRACE_DEPTH
    flows, or that runs out of stack, raises AnalysisError."""
    parents, children = _derivations(packages)
    distances = _lineage_distances(flows, parents, sink, max_len)
    leaving: dict[str, list] = {}
    carrying: dict[str, list] = {}
    into_sink: list[tuple] = []
    for flow in sorted((f for f in flows if f.id in distances), key=attrgetter("id")):
        ones = (flow.id,), (flow.package,)
        entry = [flow.id, flow.package, flow.target, distances[flow.id], None, None, *ones]
        leaving.setdefault(flow.source, []).append(entry)
        carrying.setdefault(flow.package, []).append(entry)
        if not entry[3]:
            lineage = frozenset(_closure(flow.package, parents, set()))
            into_sink.append(((flow.id, *ones), flow.source, lineage))
    index = _Successors(leaving, carrying, children, into_sink)
    # A trace uses each flow once, and only flows in distances, so none is
    # longer than len(distances); by_length[n] holds the traces of n flows.
    by_length: list[list] = [[] for _ in range(min(max_len, len(distances)) + 1)]
    try:
        _walk(by_length, set(), sink, max_len, (), (), leaving.get(source, ()), index)
    except RecursionError:  # a caller deep in the stack leaves less room
        raise AnalysisError(f"search too deep for --max-len {max_len}") from None
    finally:
        # Entries hold successor lists that hold entries: empty the entries,
        # so that the index is freed without the cyclic collector.
        for entry in chain.from_iterable(leaving.values()):
            entry.clear()
    return list(chain.from_iterable(by_length))


def enumerate_paths(
    graph: InstanceGraph,
    source: str,
    sink: str,
    max_len: int = DEFAULT_MAX_PATH_LEN,
    mode: str = "strict",
) -> list:
    """All data-flow paths (strict) or provenance traces (lineage) from
    source to sink with at most max_len flows."""
    flows = _flows(graph)
    _check_query(graph, source, sink, max_len)
    if mode == "strict":
        return _strict_search(flows, source, max_len, sink).get(sink, [])
    if mode == "lineage":
        return _lineage_traces(graph.packages, flows, source, sink, max_len)
    raise AnalysisError(f"unknown mode {_shown(mode)}")


def brute_force_paths(
    graph: InstanceGraph,
    source: str,
    sink: str,
    max_len: int = DEFAULT_MAX_PATH_LEN,
) -> list:
    """Strict-mode oracle: exhaustive depth-first search over the raw flow
    list with no adjacency index and no pruning. Same contract as strict mode."""
    all_flows = _flows(graph)
    _check_query(graph, source, sink, max_len)
    results: list[Path] = []
    stack = [(source, (), (source,))]
    while stack:
        node, flow_ids, nodes = stack.pop()
        if node == sink:
            results.append(Path(flow_ids, nodes))
        elif len(flow_ids) < max_len:
            stack.extend(
                (flow.target, flow_ids + (flow.id,), nodes + (flow.target,))
                for flow in all_flows
                if flow.source == node and flow.target not in nodes
            )
    results.sort(key=lambda p: (len(p.flow_ids), p.flow_ids))
    return results


def reachable_from(graph: InstanceGraph, source: str) -> set:
    """Entities reachable from source over one or more directed flows,
    excluding the source itself."""
    flows = _flows(graph)
    _require_entity(graph, source)
    targets_of: dict[str, list] = {}
    for flow in flows:
        targets_of.setdefault(flow.source, []).append(flow.target)
    # No entity is more steps away than there are entities with flows out.
    return set(_hops(targets_of, source, len(targets_of))) - {source}


def exposure_report(
    graph: InstanceGraph, person: str, max_len: int = DEFAULT_MAX_PATH_LEN
) -> ExposureReport:
    """Where a person's data can end up: every reachable sink with its
    strict paths and packages, plus entities collecting two or more
    distinct paths (aggregation points)."""
    flows = _flows(graph)
    _require_entity(graph, person)
    if graph.entities[person].entity_type is not EntityType.PERSON:
        raise AnalysisError(f"{_shown(person)} is not a Person entity")
    _check_max_len(max_len)
    found = _strict_search(flows, person, max_len)
    sinks: list[SinkExposure] = []
    aggregation: list[AggregationPoint] = []
    for sink_id in sorted(found):
        paths = found[sink_id]
        flow_ids = set(chain.from_iterable(map(itemgetter(0), paths)))
        packages = sorted({graph.flows[fid].package for fid in flow_ids})
        sinks.append(
            SinkExposure(
                sink=sink_id,
                sink_type=type_code(graph.entities[sink_id].entity_type),
                paths=tuple(paths),
                packages=tuple(packages),
            )
        )
        if len(paths) >= 2:
            aggregation.append(AggregationPoint(sink_id, len(paths)))
    return ExposureReport(
        person=person, sinks=tuple(sinks), aggregation_points=tuple(aggregation)
    )
