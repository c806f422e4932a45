"""Independent expectations the benchmark checks vdse's outputs against.

Strict paths come from vdse's own `brute_force_paths`, which is kept apart
from the production search precisely so the two can check each other.
Reachability, exposure documents and lineage traces are computed here from
the raw graph contents, without calling the functions under test.
"""
from __future__ import annotations

import json

from vdse import brute_force_paths


def reachable(graph, source: str) -> list:
    """Entities reachable from source over one or more flows, sorted."""
    seen, frontier = set(), [source]
    while frontier:
        node = frontier.pop()
        for flow in graph.flows.values():
            if flow.source == node and flow.target not in seen:
                seen.add(flow.target)
                frontier.append(flow.target)
    seen.discard(source)
    return sorted(seen)


def exposure_doc(graph, person: str, max_len: int) -> dict:
    """The documented exposure-report JSON document, built from brute-force
    strict paths to every reachable entity."""
    sinks, aggregation = [], []
    for sink in reachable(graph, person):
        paths = brute_force_paths(graph, person, sink, max_len)
        if not paths:
            continue
        packages = sorted({graph.flows[f].package for p in paths for f in p.flow_ids})
        sinks.append(
            {
                "id": sink,
                "type": graph.entities[sink].entity_type.code,
                "paths": [list(p.flow_ids) for p in paths],
                "packages": packages,
            }
        )
        if len(paths) >= 2:
            aggregation.append({"id": sink, "path_count": len(paths)})
    return {"person": person, "sinks": sinks, "aggregation_points": aggregation}


def report_doc(report) -> dict:
    """An ExposureReport object as the same plain document."""
    return {
        "person": report.person,
        "sinks": [
            {
                "id": s.sink,
                "type": s.sink_type,
                "paths": [list(p.flow_ids) for p in s.paths],
                "packages": list(s.packages),
            }
            for s in report.sinks
        ],
        "aggregation_points": [
            {"id": a.entity, "path_count": a.path_count} for a in report.aggregation_points
        ],
    }


def rename_doc(doc: dict, prefix: str) -> dict:
    """An exposure document with every id prefixed, as in a renamed copy."""
    return {
        "person": prefix + doc["person"],
        "sinks": [
            {
                "id": prefix + s["id"],
                "type": s["type"],
                "paths": [[prefix + f for f in p] for p in s["paths"]],
                "packages": [prefix + p for p in s["packages"]],
            }
            for s in doc["sinks"]
        ],
        "aggregation_points": [
            {"id": prefix + a["id"], "path_count": a["path_count"]}
            for a in doc["aggregation_points"]
        ],
    }


def _derived_from(graph) -> dict:
    """Package -> every package it transitively derives from."""
    closure = {}
    for package_id in graph.packages:
        seen, stack = set(), list(graph.packages[package_id].derives_from)
        while stack:
            ancestor = stack.pop()
            if ancestor not in seen:
                seen.add(ancestor)
                stack.extend(graph.packages[ancestor].derives_from)
        closure[package_id] = seen
    return closure


def lineage_traces(graph, source: str, sink: str, max_len: int) -> list:
    """(flow ids, package ids) of every lineage trace, in the documented
    order: by length, then flow-id sequence. Successors are indexed once per
    flow instead of rescanning the flow list at every step."""
    derived = _derived_from(graph)
    flows = list(graph.flows.values())
    successors = {
        f.id: [
            g
            for g in flows
            if g is not f
            and (f.target == g.source or g.package == f.package or f.package in derived[g.package])
        ]
        for f in flows
    }
    found, used = [], set()

    def walk(trace: list) -> None:
        last = trace[-1]
        if last.target == sink:
            found.append(trace[:])
        if len(trace) == max_len:
            return
        for nxt in successors[last.id]:
            if nxt.id not in used:
                used.add(nxt.id)
                trace.append(nxt)
                walk(trace)
                trace.pop()
                used.discard(nxt.id)

    for flow in flows:
        if flow.source == source:
            used.add(flow.id)
            walk([flow])
            used.discard(flow.id)
    result = [(tuple(f.id for f in t), tuple(f.package for f in t)) for t in found]
    result.sort(key=lambda t: (len(t[0]), t[0]))
    return result


def lineage_json(traces: list) -> str:
    """Lineage results in the documented compact JSON shape."""
    document = [{"flows": list(f), "packages": list(p)} for f, p in traces]
    return json.dumps(document, separators=(",", ":"), ensure_ascii=False)
