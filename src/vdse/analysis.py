"""Data-flow path analysis over scenario graphs.

Strict mode enumerates simple directed paths: consecutive flows chain
head to tail and no entity is visited twice. Lineage mode follows the
data itself: a step is admissible when the flows chain, or when the next
flow's package equals or (transitively) derives from the previous one,
so provenance can continue even where the hop-by-hop chain breaks.

Both modes bound the number of flows per result by max_len and order
results by (length, lexicographic flow-id sequence). Semantic relations
are never traversed. Results only depend on graph content, not on
insertion order.
"""
from __future__ import annotations

from dataclasses import dataclass

from vdse.errors import AnalysisError
from vdse.graph import InstanceGraph
from vdse.schema import EntityType

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


@dataclass(frozen=True)
class Path:
    """A simple chain of flows; node_ids has one more element than flow_ids."""

    flow_ids: tuple
    node_ids: tuple


@dataclass(frozen=True)
class LineageTrace:
    """A provenance trace; package_ids[i] is the package of flow_ids[i]."""

    flow_ids: tuple
    package_ids: tuple


@dataclass(frozen=True)
class SinkExposure:
    sink: str
    sink_type: str
    paths: tuple
    packages: tuple


@dataclass(frozen=True)
class AggregationPoint:
    entity: str
    path_count: int


@dataclass(frozen=True)
class ExposureReport:
    person: str
    sinks: tuple
    aggregation_points: tuple


def _require_entity(graph: InstanceGraph, entity_id: str) -> None:
    if entity_id not in graph.entities:
        raise AnalysisError(f"unknown entity {entity_id!r}")


def _check_query(graph: InstanceGraph, source: str, sink: str, max_len: int) -> None:
    _require_entity(graph, source)
    _require_entity(graph, sink)
    if source == sink:
        raise AnalysisError(f"source and sink are both {source!r}; they must differ")
    if max_len < 1:
        raise AnalysisError("max_len must be at least 1")


def _sorted_paths(paths: list) -> list:
    paths.sort(key=lambda p: (len(p.flow_ids), p.flow_ids))
    return paths


def _strict_search(
    graph: InstanceGraph, source: str, max_len: int, sink: str | None = None
) -> dict:
    """Every simple path of 1..max_len flows from source, unsorted, filed
    under its endpoint. Given a sink, only the paths ending there; none is
    extended past it. Iterative, so no recursion limit caps max_len."""
    adjacency: dict[str, list] = {}
    for flow in graph.flows.values():
        adjacency.setdefault(flow.source, []).append((flow.id, flow.target))
    found: dict[str, list] = {}
    stack = [(iter(adjacency.get(source, ())), (), (source,))]
    while stack:
        successors, flow_ids, nodes = stack[-1]
        # len(nodes) is the flow count of the paths this frame's steps make.
        room = len(nodes) < max_len
        for flow_id, target in successors:
            if target in nodes:
                continue
            ends = sink is None or target == sink
            deeper = room and target != sink and target in adjacency
            if ends or deeper:
                path_flows, path_nodes = flow_ids + (flow_id,), nodes + (target,)
                if ends:
                    found.setdefault(target, []).append(Path(path_flows, path_nodes))
                if deeper:
                    stack.append((iter(adjacency[target]), path_flows, path_nodes))
                    break
        else:
            stack.pop()
    return found


def _derivation_ancestors(graph: InstanceGraph) -> dict:
    """Transitive derives-from closure for each package; a package on a
    derivation cycle is its own ancestor. Each closure is walked afresh, so
    the result does not depend on the order of graph.packages."""
    closure: dict[str, frozenset] = {}
    for package_id, package in graph.packages.items():
        found: set[str] = set()
        frontier = list(package.derives_from)
        while frontier:
            ancestor = frontier.pop()
            if ancestor in found:
                continue
            found.add(ancestor)
            if ancestor in graph.packages:
                frontier.extend(graph.packages[ancestor].derives_from)
        closure[package_id] = frozenset(found)
    return closure


def _lineage_traces(graph: InstanceGraph, source: str, sink: str, max_len: int) -> list:
    ancestors = _derivation_ancestors(graph)
    flows = list(graph.flows.values())
    results: list[LineageTrace] = []
    trace: list = []
    used: set[str] = set()

    def admissible(previous, candidate) -> bool:
        if previous.target == candidate.source:
            return True
        if candidate.package == previous.package:
            return True
        return previous.package in ancestors.get(candidate.package, frozenset())

    def extend() -> None:
        if trace and trace[-1].target == sink:
            results.append(
                LineageTrace(
                    tuple(f.id for f in trace), tuple(f.package for f in trace)
                )
            )
        if len(trace) == max_len:
            return
        for flow in flows:
            if flow.id in used:
                continue
            if trace:
                if not admissible(trace[-1], flow):
                    continue
            elif flow.source != source:
                continue
            trace.append(flow)
            used.add(flow.id)
            extend()
            used.discard(flow.id)
            trace.pop()

    extend()
    results.sort(key=lambda t: (len(t.flow_ids), t.flow_ids))
    return results


def enumerate_paths(
    graph: InstanceGraph,
    source: str,
    sink: str,
    max_len: int = DEFAULT_MAX_PATH_LEN,
    mode: str = "strict",
) -> list:
    """All data-flow paths (strict) or provenance traces (lineage) from
    source to sink with at most max_len flows."""
    _check_query(graph, source, sink, max_len)
    if mode == "strict":
        return _sorted_paths(_strict_search(graph, source, max_len, sink).get(sink, []))
    if mode == "lineage":
        return _lineage_traces(graph, source, sink, max_len)
    raise AnalysisError(f"unknown mode {mode!r}")


def brute_force_paths(
    graph: InstanceGraph,
    source: str,
    sink: str,
    max_len: int = DEFAULT_MAX_PATH_LEN,
) -> list:
    """Strict-mode oracle: exhaustive recursion over the raw flow list with
    no adjacency index and no pruning. Same contract as strict mode."""
    _check_query(graph, source, sink, max_len)
    all_flows = list(graph.flows.values())
    results: list[Path] = []

    def search(node: str, flow_ids: tuple, nodes: tuple) -> None:
        if node == sink:
            results.append(Path(flow_ids, nodes))
            return
        if len(flow_ids) >= max_len:
            return
        for flow in all_flows:
            if flow.source == node and flow.target not in nodes:
                search(flow.target, flow_ids + (flow.id,), nodes + (flow.target,))

    for flow in all_flows:
        if flow.source == source and flow.target not in (source,):
            search(flow.target, (flow.id,), (source, flow.target))
    return _sorted_paths(results)


def reachable_from(graph: InstanceGraph, source: str) -> set:
    """Entities reachable from source over one or more directed flows,
    excluding the source itself."""
    _require_entity(graph, source)
    adjacency: dict[str, set] = {}
    for flow in graph.flows.values():
        adjacency.setdefault(flow.source, set()).add(flow.target)
    seen: set[str] = set()
    frontier = [source]
    while frontier:
        node = frontier.pop()
        for target in adjacency.get(node, ()):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    seen.discard(source)
    return seen


def exposure_report(
    graph: InstanceGraph, person: str, max_len: int = DEFAULT_MAX_PATH_LEN
) -> ExposureReport:
    """Where a person's data can end up: every reachable sink with its
    strict paths and packages, plus entities collecting two or more
    distinct paths (aggregation points)."""
    _require_entity(graph, person)
    entity = graph.entities[person]
    if entity.entity_type is not EntityType.PERSON:
        raise AnalysisError(f"{person!r} is not a Person entity")
    if max_len < 1:
        raise AnalysisError("max_len must be at least 1")
    found = _strict_search(graph, person, max_len)
    sinks: list[SinkExposure] = []
    aggregation: list[AggregationPoint] = []
    for sink_id in sorted(found):
        paths = _sorted_paths(found[sink_id])
        packages = sorted(
            {graph.flows[fid].package for path in paths for fid in path.flow_ids}
        )
        sinks.append(
            SinkExposure(
                sink=sink_id,
                sink_type=graph.entities[sink_id].entity_type.code,
                paths=tuple(paths),
                packages=tuple(packages),
            )
        )
        if len(paths) >= 2:
            aggregation.append(AggregationPoint(sink_id, len(paths)))
    return ExposureReport(
        person=person, sinks=tuple(sinks), aggregation_points=tuple(aggregation)
    )
