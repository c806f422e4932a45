"""Path enumeration, lineage traces, reachability, exposure reports."""
from __future__ import annotations

import gc
import itertools
import random
import tracemalloc

import pytest

from conftest import (
    brute_force_lineage,
    build_random_graph,
    copy_graph,
    derivation_closure,
    flow_sets,
    hand_set_graph,
    one_package_chain,
    sample_pairs,
)
from vdse.analysis import (
    DEFAULT_MAX_PATH_LEN,
    AggregationPoint,
    ExposureReport,
    LineageTrace,
    Path,
    SinkExposure,
    _closure,
    _derivations,
    _flows,
    _strict_search,
    brute_force_paths,
    enumerate_paths,
    exposure_report,
    reachable_from,
)
from vdse.dsl import parse, serialize
from vdse.errors import AnalysisError
from vdse.graph import (
    DataPackage,
    EntityInstance,
    FlowInstance,
    SemanticRelationInstance,
    new_scenario,
)
from vdse.scenarios import load_scenario
from vdse.schema import EntityType


def lineages(graph):
    """The lineage of each flow's package: its closure over the parents map
    that a query builds."""
    parents = _derivations(graph.packages)[0]
    packages = {flow.package for flow in _flows(graph)}
    return {p: frozenset(_closure(p, parents, set())) for p in packages}


# -- strict enumeration -----------------------------------------------------


def test_speeding_driver_to_insurer(speeding_graph):
    assert flow_sets(enumerate_paths(speeding_graph, "driver", "insurer")) == [
        ("e1_1", "e20_2"),
        ("e1_1", "e20_1", "e21_4"),
        ("e1_1", "e6_1", "e9_1"),
        ("e1_1", "e16_1", "e17_1", "e21_1", "e21_2", "e21_4"),
    ]


def test_uber_driver_to_uber(uber_graph):
    assert flow_sets(enumerate_paths(uber_graph, "driver", "uber")) == [
        ("e2_1", "e4_1"),
        ("e1_1", "e3_1.rev", "e4_1"),
        ("e2_1", "e5_2", "e4_2"),
        ("e1_1", "e3_1.rev", "e5_2", "e4_2"),
    ]


def test_uber_passenger_queries(uber_graph):
    assert flow_sets(enumerate_paths(uber_graph, "passenger1", "driver")) == [
        ("e7_3", "e8_1"),
        ("e2_3", "e5_1", "e2_2"),
    ]
    assert flow_sets(enumerate_paths(uber_graph, "passenger2", "dashcam_cloud")) == [
        ("e7_2", "e9_1")
    ]
    assert flow_sets(enumerate_paths(uber_graph, "driver", "dashcam_cloud")) == [
        ("e7_1", "e9_1")
    ]
    assert ("e2_3", "e4_2") in flow_sets(enumerate_paths(uber_graph, "passenger1", "uber"))


def test_paths_are_simple_and_ordered(uber_graph, speeding_graph):
    for graph in (uber_graph, speeding_graph):
        for source in sorted(graph.entities):
            for sink in sorted(graph.entities):
                if source == sink:
                    continue
                paths = enumerate_paths(graph, source, sink)
                keys = [(len(p.flow_ids), p.flow_ids) for p in paths]
                assert keys == sorted(keys)
                for path in paths:
                    assert len(path.flow_ids) <= DEFAULT_MAX_PATH_LEN
                    assert path.node_ids[0] == source
                    assert path.node_ids[-1] == sink
                    assert len(set(path.node_ids)) == len(path.node_ids)
                    for flow_id, start, end in zip(
                        path.flow_ids, path.node_ids, path.node_ids[1:]
                    ):
                        flow = graph.flows[flow_id]
                        assert (flow.source, flow.target) == (start, end)


def test_max_len_truncates(speeding_graph):
    assert flow_sets(enumerate_paths(speeding_graph, "driver", "insurer", max_len=2)) == [
        ("e1_1", "e20_2")
    ]
    assert flow_sets(enumerate_paths(speeding_graph, "driver", "insurer", max_len=3)) == [
        ("e1_1", "e20_2"),
        ("e1_1", "e20_1", "e21_4"),
        ("e1_1", "e6_1", "e9_1"),
    ]


BUNDLED_PAIRS = (
    ("uber", "driver", "uber"),
    ("uber", "passenger1", "uber"),
    ("speeding", "driver", "insurer"),
    ("speeding", "driver", "police"),
)
MODES = ("strict", "lineage")


def relation_queries():
    """(graph, pairs, modes) to check the prefix and deletion relations on:
    the bundled pairs, ten pairs on each build_random_graph seed 0-199, and
    dense meshes, in lineage mode only up to n = 4 (past a million traces
    at n = 5)."""
    for name, source, sink in BUNDLED_PAIRS:
        yield load_scenario(name), [(source, sink)], MODES
    for seed in range(200):
        graph = build_random_graph(seed)
        yield graph, sample_pairs(graph, seed, 10), MODES
    for n in range(3, 7):
        graph = dense_mesh(n)
        yield graph, all_pairs(graph), MODES if n <= 4 else ("strict",)


@pytest.fixture
def collector_paused():
    """Some relation queries hold 300,000 traces, and the cyclic collector's
    passes over them took 45% of the checks' time; queries make no cycles
    (test_queries_leave_no_cyclic_garbage)."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def test_max_len_monotonic(collector_paused):
    # The results at max_len k are exactly those at k + 1 of at most k
    # flows, in the same order: a budget that cuts at a whole length gives
    # a prefix of the full result.
    for graph, pairs, modes in relation_queries():
        for (source, sink), mode in itertools.product(pairs, modes):
            longer = enumerate_paths(graph, source, sink, 5, mode=mode)
            for limit in (4, 3, 2, 1):
                shorter = enumerate_paths(graph, source, sink, limit, mode=mode)
                assert shorter == [r for r in longer if len(r.flow_ids) <= limit], (
                    graph.name, source, sink, mode, limit
                )
                longer = shorter


def test_removing_a_flow_never_adds_paths(speeding_graph, collector_paused):
    # Deleting a flow removes exactly the results that use it, and keeps
    # the order of the rest.
    full = enumerate_paths(speeding_graph, "driver", "insurer")
    pruned_graph = parse(serialize(speeding_graph))
    del pruned_graph.flows["e21_4"]
    pruned = enumerate_paths(pruned_graph, "driver", "insurer")
    assert pruned == [p for p in full if "e21_4" not in p.flow_ids]
    assert ("e1_1", "e20_1", "e21_4") not in flow_sets(pruned)
    rng = random.Random(4)
    for graph, pairs, modes in relation_queries():
        for (source, sink), mode in itertools.product(pairs, modes):
            full = enumerate_paths(graph, source, sink, 4, mode=mode)
            used = sorted({flow_id for result in full for flow_id in result.flow_ids})
            for flow_id in rng.sample(used, min(3, len(used))):
                pruned_graph = copy_graph(graph)
                del pruned_graph.flows[flow_id]
                assert enumerate_paths(pruned_graph, source, sink, 4, mode=mode) == [
                    r for r in full if flow_id not in r.flow_ids
                ], (graph.name, source, sink, mode, flow_id)


def beside_a_renamed_copy(graph):
    """graph with a copy of itself whose entity, package, relation and flow
    ids all start with "copy_", filed first. The records are set by hand, so
    a pair's .fwd and .rev ids are copied as they are."""
    prefix = "copy_"
    union = new_scenario(graph.name)
    for entity in graph.entities.values():
        union.entities[prefix + entity.id] = EntityInstance(
            prefix + entity.id, entity.entity_type, dict(entity.attributes)
        )
    for package in graph.packages.values():
        union.packages[prefix + package.id] = DataPackage(
            prefix + package.id,
            package.description,
            list(package.items),
            tuple(prefix + parent for parent in package.derives_from),
        )
    for relation in graph.relations.values():
        union.relations[prefix + relation.id] = SemanticRelationInstance(
            prefix + relation.id,
            relation.relation,
            prefix + relation.source,
            prefix + relation.target,
            dict(relation.attributes),
        )
    for flow in graph.flows.values():
        union.flows[prefix + flow.id] = FlowInstance(
            prefix + flow.id,
            flow.edge_type,
            prefix + flow.source,
            prefix + flow.target,
            prefix + flow.package,
        )
    for name in ("entities", "packages", "relations", "flows"):
        table = getattr(union, name)
        table.update(getattr(graph, name))
        assert len(table) == 2 * len(getattr(graph, name))
    return union


@pytest.mark.parametrize("seed", range(200))
def test_strict_paths_are_traces_and_a_renamed_copy_changes_nothing(seed):
    # Relations that need no oracle: every strict path is a lineage trace,
    # and a disjoint copy of the graph beside it changes no result between
    # the graph's own ids.
    graph = build_random_graph(seed)
    pairs = sample_pairs(graph, seed, 10)
    for source, sink in pairs:
        traces = {t.flow_ids for t in enumerate_paths(graph, source, sink, 4, mode="lineage")}
        assert set(flow_sets(enumerate_paths(graph, source, sink, 4))) <= traces
    if seed < 100:
        union = beside_a_renamed_copy(graph)
        for (source, sink), mode in itertools.product(pairs, MODES):
            assert enumerate_paths(union, source, sink, 4, mode=mode) == enumerate_paths(
                graph, source, sink, 4, mode=mode
            )


def test_insertion_order_does_not_matter(speeding_graph):
    rebuilt = new_scenario(speeding_graph.name)
    for entity_id in reversed(sorted(speeding_graph.entities)):
        entity = speeding_graph.entities[entity_id]
        rebuilt.add_entity(entity_id, entity.entity_type, dict(entity.attributes))
    for package_id in reversed(sorted(speeding_graph.packages)):
        package = speeding_graph.packages[package_id]
        rebuilt.add_package(
            DataPackage(package_id, package.description, list(package.items), ())
        )
    for flow_id in reversed(sorted(speeding_graph.flows)):
        flow = speeding_graph.flows[flow_id]
        rebuilt.add_flow(flow_id, flow.edge_type, flow.source, flow.target, flow.package)
    assert enumerate_paths(rebuilt, "driver", "insurer") == enumerate_paths(
        speeding_graph, "driver", "insurer"
    )


@pytest.mark.parametrize("seed", range(200))
def test_strict_search_files_paths_in_order(seed):
    graph = build_random_graph(seed)
    flows = list(graph.flows.items())
    random.Random(seed).shuffle(flows)
    graph.flows.clear()
    graph.flows.update(flows)
    max_len = 4
    for source in sorted({a for a, _ in sample_pairs(graph, seed)})[:2]:
        found = _strict_search(_flows(graph), source, max_len)
        for sink in sorted(graph.entities):
            if sink == source:
                continue
            want = brute_force_paths(graph, source, sink, max_len)
            to_sink = _strict_search(_flows(graph), source, max_len, sink)
            assert set(to_sink) <= {sink}
            for paths in (found.get(sink, []), to_sink.get(sink, [])):
                assert paths == sorted(paths, key=lambda p: (len(p.flow_ids), p.flow_ids))
                assert paths == want


def order_graph():
    """Flow ids whose string order is not their insertion order: f2 before
    f10, f1 before F1, and a plain flow g before the pair x.fwd / x.rev."""
    graph = new_scenario("order").add_package(DataPackage("DP"))
    graph.add_entity("p", "P").add_entity("m", "DA").add_entity("s", "DA")
    for flow_id, edge, source, target in (
        ("f2", "E2", "p", "s"),
        ("f10", "E2", "p", "s"),
        ("f1", "E2", "p", "m"),
        ("F1", "E2", "p", "m"),
        ("g", "E5", "m", "s"),
    ):
        graph.add_flow(flow_id, edge, source, target, "DP")
    return graph.add_bidirectional_flow("x", "E5", "m", "s", "DP")


def test_strict_paths_follow_string_order_not_insertion_order():
    graph = order_graph()
    to_s = [("f10",), ("f2",), ("F1", "g"), ("F1", "x.fwd"), ("f1", "g"), ("f1", "x.fwd")]
    to_m = [("F1",), ("f1",), ("f10", "x.rev"), ("f2", "x.rev")]
    assert flow_sets(enumerate_paths(graph, "p", "s")) == to_s
    assert flow_sets(enumerate_paths(graph, "p", "m")) == to_m
    assert enumerate_paths(graph, "p", "s") == brute_force_paths(graph, "p", "s")
    report = exposure_report(graph, "p")
    assert [s.sink for s in report.sinks] == ["m", "s"]
    assert [flow_sets(s.paths) for s in report.sinks] == [to_m, to_s]


@pytest.mark.parametrize("key", ("uber", "speeding", *range(20)))
def test_strict_results_ignore_flow_insertion_order(key):
    graph = load_scenario(key) if isinstance(key, str) else build_random_graph(key)
    pairs = all_pairs(graph) if isinstance(key, str) else sample_pairs(graph, key)
    want = [enumerate_paths(graph, a, b) for a, b in pairs]
    reports = [exposure_report(graph, person) for person in persons(graph)]
    flows = list(graph.flows.items())
    graph.flows.clear()
    graph.flows.update(reversed(flows))
    assert [enumerate_paths(graph, a, b) for a, b in pairs] == want
    assert [exposure_report(graph, person) for person in persons(graph)] == reports


def test_query_errors(uber_graph):
    with pytest.raises(AnalysisError):
        enumerate_paths(uber_graph, "ghost", "uber")
    with pytest.raises(AnalysisError):
        enumerate_paths(uber_graph, "driver", "ghost")
    with pytest.raises(AnalysisError):
        enumerate_paths(uber_graph, "driver", "driver")
    with pytest.raises(AnalysisError):
        enumerate_paths(uber_graph, "driver", "uber", max_len=0)
    with pytest.raises(AnalysisError):
        enumerate_paths(uber_graph, "driver", "uber", mode="psychic")


# Query arguments that are not hashable, each with the AnalysisError that
# names them: they name no entity, as an unknown id does.
UNHASHABLE_ARGUMENTS = {
    "strict_source": (
        lambda g: enumerate_paths(g, ["driver"], "car"), "unknown entity ['driver']"
    ),
    "strict_sink": (lambda g: enumerate_paths(g, "driver", ["car"]), "unknown entity ['car']"),
    "lineage_source": (
        lambda g: enumerate_paths(g, ["driver"], "car", mode="lineage"),
        "unknown entity ['driver']",
    ),
    "brute_force_source": (
        lambda g: brute_force_paths(g, ["driver"], "car"), "unknown entity ['driver']"
    ),
    "exposure_person": (lambda g: exposure_report(g, ["driver"]), "unknown entity ['driver']"),
    "reachable_source": (lambda g: reachable_from(g, {"a": 1}), "unknown entity {'a': 1}"),
}


@pytest.mark.parametrize("case", UNHASHABLE_ARGUMENTS)
def test_unhashable_query_arguments_are_unknown_entities(speeding_graph, case):
    query, message = UNHASHABLE_ARGUMENTS[case]
    with pytest.raises(AnalysisError) as exc:
        query(speeding_graph)
    assert str(exc.value) == message


# Every query that takes a max_len, and max_len values that are not integers:
# each raises the AnalysisError that names the value, as the oracle does.
MAX_LEN_QUERIES = {
    "strict": lambda g, max_len: enumerate_paths(g, "driver", "insurer", max_len),
    "lineage": lambda g, max_len: enumerate_paths(g, "driver", "insurer", max_len, "lineage"),
    "brute_force": lambda g, max_len: brute_force_paths(g, "driver", "insurer", max_len),
    "exposure": lambda g, max_len: exposure_report(g, "driver", max_len),
}
NON_INTEGER_MAX_LENS = {
    "float": (2.5, "max_len must be an integer, not 2.5"),
    "whole_float": (3.0, "max_len must be an integer, not 3.0"),
    "text": ("3", "max_len must be an integer, not '3'"),
    "none": (None, "max_len must be an integer, not None"),
}


@pytest.mark.parametrize("value", NON_INTEGER_MAX_LENS)
@pytest.mark.parametrize("query", MAX_LEN_QUERIES)
def test_a_max_len_that_is_not_an_integer_is_rejected(speeding_graph, query, value):
    max_len, message = NON_INTEGER_MAX_LENS[value]
    with pytest.raises(AnalysisError) as exc:
        MAX_LEN_QUERIES[query](speeding_graph, max_len)
    assert str(exc.value) == message


@pytest.mark.parametrize("query", MAX_LEN_QUERIES)
def test_a_bool_max_len_is_an_integer(speeding_graph, query):
    assert MAX_LEN_QUERIES[query](speeding_graph, True) == MAX_LEN_QUERIES[query](
        speeding_graph, 1
    )
    with pytest.raises(AnalysisError, match="^max_len must be at least 1$"):
        MAX_LEN_QUERIES[query](speeding_graph, False)


# -- lineage mode ------------------------------------------------------------


def test_lineage_follows_package_derivation(uber_graph):
    traces = enumerate_paths(uber_graph, "driver", "uber", max_len=3, mode="lineage")
    assert all(isinstance(t, LineageTrace) for t in traces)
    assert flow_sets(traces) == [
        ("e2_1", "e4_1"),
        ("e1_1", "e2_1", "e4_1"),
        ("e1_1", "e3_1.rev", "e4_1"),
        ("e2_1", "e5_2", "e4_2"),
    ]
    by_flows = {t.flow_ids: t.package_ids for t in traces}
    # e1_1 -> e2_1 does not chain head-to-tail; it is admissible only
    # because DP2_1 derives from DP1_1.
    assert by_flows[("e1_1", "e2_1", "e4_1")] == ("DP1_1", "DP2_1", "DP4_1")


def test_lineage_requires_the_derivation():
    text = (
        'scenario "t"\n'
        "entity driver: P\n"
        "entity car: V\n"
        "entity app: DA\n"
        "entity org: O\n"
        "package DP1\n"
        "package DP2 derives DP1\n"
        "package DP3\n"
        "package DP4\n"
        "flow f1: E1 driver -> car package DP1\n"
        "flow f2: E2 driver -> app package DP2\n"
        "flow f3: E4 app -> org package DP4\n"
    )
    graph = parse(text)
    traces = flow_sets(enumerate_paths(graph, "driver", "org", mode="lineage"))
    assert ("f1", "f2", "f3") in traces  # admitted via DP2 derives DP1
    undeclared = parse(text.replace(" derives DP1", ""))
    traces = flow_sets(enumerate_paths(undeclared, "driver", "org", mode="lineage"))
    assert ("f1", "f2", "f3") not in traces
    assert ("f2", "f3") in traces  # plain chaining still applies


def test_lineage_ignores_package_order_on_a_derivation_cycle():
    # A derives from B, B from C, C from A: each package's lineage is all
    # three, whichever order the packages were inserted in.
    derives = {"A": ("B",), "B": ("C",), "C": ("A",)}
    results = []
    for rotation in (("A", "B", "C"), ("B", "C", "A"), ("C", "A", "B")):
        graph = (
            new_scenario("t")
            .add_entity("p", "P")
            .add_entity("a", "DA")
            .add_entity("b", "DA")
            .add_entity("o", "O")
        )
        for package_id in rotation:
            graph.packages[package_id] = DataPackage(package_id, derives_from=derives[package_id])
        graph.add_flow("f1", "E2", "p", "a", "A")
        graph.add_flow("f2", "E4", "b", "o", "B")
        graph.add_flow("f3", "E5", "a", "b", "C")
        assert lineages(graph) == {package_id: {"A", "B", "C"} for package_id in derives}
        results.append(flow_sets(enumerate_paths(graph, "p", "o", mode="lineage")))
    assert results[0] == results[1] == results[2]
    assert ("f1", "f2") in results[0]  # f1, f2 do not chain; B derives from A


def test_lineages_close_a_cycle_and_keep_undeclared_ancestors():
    graph = new_scenario("t").add_entity("p", "P").add_entity("a", "DA")
    derives = {"A": ("B", "ghost"), "B": ("C",), "C": ("A",), "D": ("A",)}
    for package_id, ancestors in derives.items():
        graph.packages[package_id] = DataPackage(package_id, derives_from=ancestors)
    for i, package_id in enumerate(("A", "B", "C", "loose")):
        graph.flows[f"f{i}"] = FlowInstance(f"f{i}", "E2", "p", "a", package_id)
    # D is carried by no flow, so it has no lineage; loose is undeclared.
    cycle = {"A", "B", "C", "ghost"}
    assert lineages(graph) == {"A": cycle, "B": cycle, "C": cycle, "loose": {"loose"}}
    assert all(type(lineage) is frozenset for lineage in lineages(graph).values())


LONG_DERIVATION = 4000


def test_lineage_memory_stays_small_on_a_long_uncarried_derivation_chain():
    # p0 derives from p1, p1 from p2, ...; one flow carries p0. The query
    # holds one lineage, not a closure per declared package. The peak
    # measured 0.76 MB after a full collection, with the query's maps of
    # parents and children (0.65 MB without them).
    graph = new_scenario("t").add_entity("p", "P").add_entity("a", "DA")
    for i in reversed(range(LONG_DERIVATION)):
        ancestors = (f"p{i + 1}",) if i + 1 < LONG_DERIVATION else ()
        graph.add_package(DataPackage(f"p{i}", derives_from=ancestors))
    graph.add_flow("f", "E2", "p", "a", "p0")
    gc.collect()
    tracemalloc.start()
    try:
        traces = enumerate_paths(graph, "p", "a", mode="lineage")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traces == [LineageTrace(("f",), ("p0",))]
    assert peak < 1.3e6


def all_carried_chain(
    n: int, descendants_first: bool = False, ids_descending: bool = False, side_flows: bool = False
):
    """p -> d0 -> d1 -> ... -> d{n-1}, the flow into d<i> carrying P<i>,
    and P<i> deriving from P<i-1>. The packages are added ancestors-first,
    or set by hand descendants-first. The flow into d<i> is f<i>, or with
    ids_descending f<n-1-i>, so that the ids run descendants-first. With
    side_flows, a flow g<i> carries P0 from d<i> to an entity s<i>."""
    graph = new_scenario("chain").add_entity("p", "P")
    for i in reversed(range(n)) if descendants_first else range(n):
        package = DataPackage(f"P{i}", derives_from=(f"P{i - 1}",) if i else ())
        if descendants_first:
            graph.packages[package.id] = package
        else:
            graph.add_package(package)
    for i in range(n):
        graph.add_entity(f"d{i}", "DA")
        source = f"d{i - 1}" if i else "p"
        flow_id = f"f{n - 1 - i}" if ids_descending else f"f{i}"
        graph.add_flow(flow_id, "E5" if i else "E2", source, f"d{i}", f"P{i}")
    for i in range(n) if side_flows else ():
        graph.add_entity(f"s{i}", "DA").add_flow(f"g{i}", "E5", f"d{i}", f"s{i}", "P0")
    return graph


ALL_CARRIED = 2000


@pytest.mark.parametrize("max_len", [2, DEFAULT_MAX_PATH_LEN])
def test_lineage_memory_stays_small_on_a_long_all_carried_derivation_chain(max_len):
    # Every flow carries its own package. The query to d1 makes the lineages
    # of P1 and P0 only, not one per carried package: the peak measured
    # 0.75 MB after a full collection, 0.28 MB of it the query's maps of
    # parents and children, where a closure of every carried package took
    # 87.4 MB.
    graph = all_carried_chain(ALL_CARRIED)
    gc.collect()
    tracemalloc.start()
    try:
        traces = enumerate_paths(graph, "p", "d1", max_len, mode="lineage")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traces == [LineageTrace(("f0", "f1"), ("P0", "P1"))]
    assert peak < 2e6


def far_sink_traces(graph, n: int, max_len: int) -> list:
    """The traces from p to d{n-1} of an all_carried_chain, at max_len 2
    or 3. The first flow carries P0, which every package derives from, and
    the last carries P{n-1}, which derives from every package; so every
    other flow can come between them."""
    first = next(flow for flow in graph.flows.values() if flow.source == "p")
    last = next(flow for flow in graph.flows.values() if flow.target == f"d{n - 1}")
    between = sorted(f for f in graph.flows if f not in (first.id, last.id)) if max_len > 2 else ()
    traces = [LineageTrace((first.id, last.id), (first.package, last.package))]
    for flow_id in between:
        package = graph.flows[flow_id].package
        traces.append(
            LineageTrace((first.id, flow_id, last.id), (first.package, package, last.package))
        )
    return traces


# n, builder options, max_len, bound on the peak in bytes.
FAR_SINKS = {
    "500": (500, {}, 2, 7.4e6),
    **{
        f"2000 {name} max_len {max_len}": (ALL_CARRIED, options, max_len, 6e6)
        for name, options in (
            ("ancestors-first", {}),
            ("ids descendants-first", {"ids_descending": True}),
            ("side flows", {"side_flows": True}),
        )
        for max_len in (2, 3)
    },
}


@pytest.mark.parametrize("case", FAR_SINKS)
def test_lineage_memory_on_a_far_sink_grows_linearly(case):
    # Every flow of the chain can reach the far sink d{n-1} within two
    # flows, and P0's descendants are every package, so a successor index
    # of every flow, or the lineage of every package, grows with the square
    # of the chain: 6.9 MB at 500 packages, and over 100 MiB at 2,000. The
    # walk makes only the lists it reaches: after a full collection the
    # peak measured 0.36 MB at 500 packages and 1.5-3.3 MB at 2,000.
    n, options, max_len, bound = FAR_SINKS[case]
    graph = all_carried_chain(n, **options)
    gc.collect()
    tracemalloc.start()
    try:
        traces = enumerate_paths(graph, "p", f"d{n - 1}", max_len, mode="lineage")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traces == far_sink_traces(graph, n, max_len)
    assert peak < bound


@pytest.mark.parametrize("mode", ["strict", "lineage"])
def test_queries_leave_no_cyclic_garbage(uber_graph, mode):
    # A lineage query's successor index is cyclic while the walk runs; the
    # query breaks the cycles, so that nothing waits for the collector.
    gc.collect()
    gc.disable()
    try:
        assert len(enumerate_paths(uber_graph, "driver", "uber", 10, mode=mode)) > 1
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_too_deep_lineage_search_raises_analysis_error():
    graph = one_package_chain(1500)
    with pytest.raises(AnalysisError, match="^search too deep for --max-len 5000$"):
        enumerate_paths(graph, "d0", "d1499", max_len=5000, mode="lineage")
    assert len(enumerate_paths(graph, "d0", "d1499", max_len=5000)) == 1


def own_package_chain(n: int):
    """Person p -> d0 -> ... -> d{n-1}, each flow carrying its own package:
    the one lineage trace from p to d{n-1} has n flows."""
    graph = new_scenario("chain").add_entity("p", "P")
    for i in range(n):
        graph.add_entity(f"d{i}", "DA").add_package(DataPackage(f"DP{i}"))
        graph.add_flow(f"f{i}", "E5", f"d{i - 1}" if i else "p", f"d{i}", f"DP{i}")
    return graph


def outcome_at_depth(frames: int, query):
    """The result of query(), or its AnalysisError message, called from
    frames nested Python frames."""
    if frames:
        return outcome_at_depth(frames - 1, query)
    try:
        return len(query())
    except AnalysisError as exc:
        return str(exc)


@pytest.mark.parametrize("n", (400, 800))
def test_lineage_depth_does_not_depend_on_the_callers_stack(n):
    graph = own_package_chain(n)

    def query():
        return enumerate_paths(graph, "p", f"d{n - 1}", 5000, mode="lineage")

    outcome = outcome_at_depth(0, query)
    assert outcome == (1 if n <= 500 else "search too deep for --max-len 5000")
    assert outcome_at_depth(300, query) == outcome


def test_a_deep_caller_gets_analysis_error_not_recursion_error():
    # From 600 frames the walk runs out of stack before the cap: the query
    # says so as at the cap, with AnalysisError, never RecursionError.
    graph = own_package_chain(499)

    def query():
        return enumerate_paths(graph, "p", "d498", 5000, mode="lineage")

    assert outcome_at_depth(0, query) == 1
    assert outcome_at_depth(600, query) == "search too deep for --max-len 5000"


# (n, max_len, outcome) of the query p -> d{n-1} on own_package_chain(n),
# whose one trace has n flows: its count of traces, or None where the search
# is too deep. A search raises once it would extend a trace of 500 flows, by
# the last flow of a trace as by a frame.
DEPTH_EDGE = [
    (499, 498, 0), (499, 499, 1), (499, 500, 1), (499, 501, 1),
    (500, 499, 0), (500, 500, 1), (500, 501, None), (500, 502, None),
    (501, 500, 0), (501, 501, None), (501, 502, None), (501, 503, None),
]


@pytest.mark.parametrize("n,max_len,outcome", DEPTH_EDGE)
def test_lineage_depth_cap_at_its_edge(n, max_len, outcome):
    graph = own_package_chain(n)

    def query():
        return enumerate_paths(graph, "p", f"d{n - 1}", max_len, mode="lineage")

    too_deep = f"search too deep for --max-len {max_len}"
    assert outcome_at_depth(0, query) == (too_deep if outcome is None else outcome)


def test_oracle_walks_paths_longer_than_the_interpreter_stack():
    graph = one_package_chain(1500)

    def query():
        return brute_force_paths(graph, "d0", "d1499", 5000)

    assert len(query()) == 1
    assert outcome_at_depth(300, query) == 1


def test_lineage_traces_align_flows_and_packages(uber_graph):
    for trace in enumerate_paths(uber_graph, "driver", "uber", mode="lineage"):
        assert len(trace.package_ids) == len(trace.flow_ids)
        for flow_id, package_id in zip(trace.flow_ids, trace.package_ids):
            assert uber_graph.flows[flow_id].package == package_id
        assert len(set(trace.flow_ids)) == len(trace.flow_ids)


# -- the independent oracle ---------------------------------------------------

ORACLE_MAX_LENS = (1, 2, 3, DEFAULT_MAX_PATH_LEN)


def test_oracle_matches_on_bundled(uber_graph, speeding_graph):
    for graph in (uber_graph, speeding_graph):
        for source in sorted(graph.entities):
            for sink in sorted(graph.entities):
                if source == sink:
                    continue
                assert enumerate_paths(graph, source, sink) == brute_force_paths(
                    graph, source, sink
                )


@pytest.mark.parametrize("seed", range(40))
def test_oracle_matches_on_seeded_graphs(seed):
    graph = build_random_graph(seed)
    for source, sink in sample_pairs(graph, seed):
        fast = enumerate_paths(graph, source, sink)
        slow = brute_force_paths(graph, source, sink)
        assert fast == slow


@pytest.mark.parametrize("seed", range(200))
def test_strict_paths_match_networkx(seed):
    nx = pytest.importorskip("networkx")
    graph = build_random_graph(seed)
    multigraph = nx.MultiDiGraph()
    multigraph.add_nodes_from(graph.entities)
    for flow in graph.flows.values():
        multigraph.add_edge(flow.source, flow.target, key=flow.id)
    for source, sink in sample_pairs(graph, seed):
        for max_len in ORACLE_MAX_LENS:
            want = sorted(
                (
                    Path(
                        tuple(key for _, _, key in edges),
                        (source,) + tuple(target for _, target, _ in edges),
                    )
                    for edges in nx.all_simple_edge_paths(
                        multigraph, source, sink, cutoff=max_len
                    )
                ),
                key=lambda p: (len(p.flow_ids), p.flow_ids),
            )
            assert enumerate_paths(graph, source, sink, max_len) == want


def test_oracle_respects_max_len(speeding_graph):
    for limit in (1, 2, 3, 6):
        assert enumerate_paths(
            speeding_graph, "driver", "insurer", max_len=limit
        ) == brute_force_paths(speeding_graph, "driver", "insurer", max_len=limit)


LINEAGE_MAX_LENS = (1, 2, 3, 4)


def assert_lineage_matches_oracle(graph, pairs, max_lens=LINEAGE_MAX_LENS):
    for source, sink in pairs:
        for max_len in max_lens:
            assert enumerate_paths(
                graph, source, sink, max_len, mode="lineage"
            ) == brute_force_lineage(graph, source, sink, max_len)


def all_pairs(graph):
    return [(a, b) for a in sorted(graph.entities) for b in sorted(graph.entities) if a != b]


def test_lineage_matches_oracle_on_bundled(uber_graph, speeding_graph):
    for graph in (uber_graph, speeding_graph):
        assert_lineage_matches_oracle(graph, all_pairs(graph))


# Three and more flows to spare: the walk scans whole successor lists.
DEEPER_MAX_LENS = (5, 6)


def test_lineage_matches_oracle_deeper_on_bundled(uber_graph, speeding_graph):
    for graph in (uber_graph, speeding_graph):
        assert_lineage_matches_oracle(graph, all_pairs(graph), DEEPER_MAX_LENS)


@pytest.mark.parametrize("seed", range(20))
def test_lineage_matches_oracle_deeper_on_seeded_graphs(seed):
    graph = build_random_graph(seed)
    assert_lineage_matches_oracle(graph, all_pairs(graph), (5,))


def test_lineage_order_holds_past_the_longest_possible_trace(uber_graph, speeding_graph):
    # No trace is longer than the flows a query can use, so a max_len far
    # beyond that gives the same traces, and costs no list of max_len. One
    # traced span per graph, after one full collection, covers every pair's
    # query: the peak measured 50 kB on uber and 17 kB on speeding, on
    # Python 3.11 and 3.13. A list of max_len would take 8 MB.
    for graph in (uber_graph, speeding_graph):
        every = len(graph.flows)
        pairs = all_pairs(graph)
        gc.collect()
        tracemalloc.start()
        try:
            for source, sink in pairs:
                enumerate_paths(graph, source, sink, 10**6, mode="lineage")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.7e5
        for source, sink in pairs:
            huge = enumerate_paths(graph, source, sink, 10**6, mode="lineage")
            assert huge == enumerate_paths(graph, source, sink, every, mode="lineage")
            assert huge == brute_force_lineage(graph, source, sink, every)


@pytest.mark.parametrize("seed", range(200))
def test_lineage_matches_oracle_on_seeded_graphs(seed):
    graph = build_random_graph(seed)
    assert_lineage_matches_oracle(graph, sample_pairs(graph, seed))


def with_undeclared_packages(graph):
    """Every third flow carries a package no declaration names."""
    for flow_id in sorted(graph.flows)[::3]:
        flow = graph.flows[flow_id]
        graph.flows[flow_id] = FlowInstance(
            flow.id, flow.edge_type, flow.source, flow.target, "ghost"
        )
    return graph


def with_dangling_derivation(graph):
    """The undeclared package above, and a declared one deriving from it."""
    graph = with_undeclared_packages(graph)
    last = max(graph.packages)
    package = graph.packages[last]
    graph.packages[last] = DataPackage(package.id, package.description, package.items, ("ghost",))
    return graph


def with_derivation_cycle(graph):
    """Each package derives from the next, the last from the first."""
    ids = sorted(graph.packages)
    for i, package_id in enumerate(ids):
        graph.packages[package_id] = DataPackage(
            package_id, derives_from=(ids[(i + 1) % len(ids)],)
        )
    return graph


@pytest.mark.parametrize(
    "mutate", (with_undeclared_packages, with_dangling_derivation, with_derivation_cycle)
)
@pytest.mark.parametrize("seed", range(0, 200, 4))
def test_lineage_matches_oracle_on_invalid_graphs(mutate, seed):
    graph = mutate(build_random_graph(seed))
    assert_lineage_matches_oracle(graph, sample_pairs(graph, seed))


@pytest.mark.parametrize(
    "mutate", (None, with_undeclared_packages, with_dangling_derivation, with_derivation_cycle)
)
def test_derivation_closure_matches_oracle(mutate):
    graphs = [load_scenario("uber"), load_scenario("speeding")]
    graphs += [build_random_graph(seed) for seed in range(200)]
    for graph in graphs if mutate is None else map(mutate, graphs):
        closure = derivation_closure(graph)
        carried = {flow.package for flow in graph.flows.values()}
        assert lineages(graph) == {p: closure.get(p, set()) | {p} for p in carried}
        # A package's descendants, the closure over children, are the
        # packages whose lineage holds it.
        children = _derivations(graph.packages)[1]
        named = carried.union(graph.packages, *closure.values())
        assert {p: set(_closure(p, children, set())) for p in named} == {
            p: {q for q, ancestors in closure.items() if p in ancestors} | {p} for p in named
        }


# All-carried chains checked against the oracle on every pair: packages,
# all_carried_chain options and max_lens.
CHAIN_ORDERS = {
    "chain ancestors-first": (10, {}, LINEAGE_MAX_LENS),
    "chain descendants-first": (10, {"descendants_first": True}, LINEAGE_MAX_LENS),
    "chain ids descendants-first": (7, {"ids_descending": True}, (1, 2, 3, 4, 5)),
    "chain with side flows": (7, {"side_flows": True}, (1, 2, 3, 4, 5)),
}


@pytest.mark.parametrize("key", ("uber", "speeding", *CHAIN_ORDERS, *range(20)))
def test_lineage_ignores_flow_insertion_order(key):
    # On a chain, the flow order decides which successor lists a query
    # makes first, so the oracle checks each order of packages and flows.
    if key in CHAIN_ORDERS:
        n, options, max_lens = CHAIN_ORDERS[key]
        graph = all_carried_chain(n, **options)
    else:
        graph = load_scenario(key) if isinstance(key, str) else build_random_graph(key)
    pairs = all_pairs(graph) if isinstance(key, str) else sample_pairs(graph, key)
    want = [enumerate_paths(graph, a, b, 4, mode="lineage") for a, b in pairs]
    if key in CHAIN_ORDERS:
        assert_lineage_matches_oracle(graph, pairs, max_lens)
    flows = list(graph.flows.items())
    graph.flows.clear()
    graph.flows.update(reversed(flows))
    assert [enumerate_paths(graph, a, b, 4, mode="lineage") for a, b in pairs] == want
    if key in CHAIN_ORDERS:
        assert_lineage_matches_oracle(graph, pairs, max_lens)


# -- reachability and exposure -------------------------------------------------


def test_reachable_from(uber_graph, speeding_graph):
    assert reachable_from(speeding_graph, "driver") == {
        "camera_provider",
        "car",
        "dvla",
        "insurer",
        "police",
        "speed_camera",
        "tracker",
    }
    assert reachable_from(uber_graph, "dashcam_cloud") == set()
    assert reachable_from(uber_graph, "passenger2") == {
        "car",
        "dashcam",
        "dashcam_cloud",
        "driver",
        "uber",
        "uber_app",
        "uber_rider_app",
    }


def test_reachable_excludes_source(uber_graph):
    for entity_id in sorted(uber_graph.entities):
        assert entity_id not in reachable_from(uber_graph, entity_id)


def test_exposure_report_speeding(speeding_graph):
    report = exposure_report(speeding_graph, "driver")
    assert report.person == "driver"
    assert [s.sink for s in report.sinks] == sorted(s.sink for s in report.sinks)
    assert {s.sink for s in report.sinks} == reachable_from(speeding_graph, "driver")
    assert [(a.entity, a.path_count) for a in report.aggregation_points] == [
        ("dvla", 2),
        ("insurer", 4),
        ("police", 2),
    ]
    insurer = next(s for s in report.sinks if s.sink == "insurer")
    assert insurer.sink_type == "SP"
    assert insurer.packages == (
        "DP16_1",
        "DP17_1",
        "DP1_1",
        "DP20_1",
        "DP20_2",
        "DP21_1",
        "DP21_2",
        "DP21_4",
        "DP7_1",
        "DP9_1",
    )
    assert len(insurer.paths) == 4


def test_exposure_sinks_at_full_length_are_the_reachable_entities():
    # A simple path visits no entity twice, so at max_len equal to the
    # entity count every entity the person reaches ends one of its paths.
    graphs = [load_scenario("uber"), load_scenario("speeding")]
    graphs += [build_random_graph(seed) for seed in range(200)]
    graphs += [dense_mesh(n) for n in range(3, 7)]
    for graph in graphs:
        for person in persons(graph):
            report = exposure_report(graph, person, len(graph.entities))
            assert {s.sink for s in report.sinks} == reachable_from(graph, person), (
                graph.name, person
            )


def test_exposure_report_uber(uber_graph):
    report = exposure_report(uber_graph, "passenger1")
    assert [(a.entity, a.path_count) for a in report.aggregation_points] == [
        ("car", 4),
        ("dashcam", 2),
        ("dashcam_cloud", 2),
        ("driver", 2),
        ("uber", 6),
        ("uber_app", 3),
        ("uber_rider_app", 3),
    ]
    # Every aggregation point is a sink with two or more paths.
    by_sink = {s.sink: len(s.paths) for s in report.sinks}
    for point in report.aggregation_points:
        assert by_sink[point.entity] == point.path_count >= 2


def oracle_exposure(graph, person, max_len):
    """An exposure report assembled from brute-force paths to every entity
    reachable from the person."""
    sinks, aggregation = [], []
    for sink in sorted(reachable_from(graph, person)):
        paths = brute_force_paths(graph, person, sink, max_len)
        if not paths:
            continue
        packages = sorted({graph.flows[f].package for p in paths for f in p.flow_ids})
        sinks.append(
            SinkExposure(
                sink, graph.entities[sink].entity_type.code, tuple(paths), tuple(packages)
            )
        )
        if len(paths) >= 2:
            aggregation.append(AggregationPoint(sink, len(paths)))
    return ExposureReport(person, tuple(sinks), tuple(aggregation))


def persons(graph):
    return [e for e in sorted(graph.entities) if graph.entities[e].entity_type is EntityType.PERSON]


@pytest.mark.parametrize("key", ("uber", "speeding", *range(200)))
def test_exposure_matches_oracle(key):
    graph = load_scenario(key) if isinstance(key, str) else build_random_graph(key)
    for person in persons(graph):
        for max_len in ORACLE_MAX_LENS:
            assert exposure_report(graph, person, max_len) == oracle_exposure(
                graph, person, max_len
            )


def test_exposure_rejects_a_max_len_below_one(uber_graph):
    with pytest.raises(AnalysisError):
        exposure_report(uber_graph, "passenger1", max_len=0)


def test_exposure_requires_person(uber_graph):
    with pytest.raises(AnalysisError) as exc:
        exposure_report(uber_graph, "car")
    assert "not a Person" in str(exc.value)
    with pytest.raises(AnalysisError):
        exposure_report(uber_graph, "ghost")


def test_exposure_of_isolated_person():
    graph = new_scenario("t").add_entity("p", "P")
    report = exposure_report(graph, "p")
    assert report.sinks == () or report.sinks == tuple()
    assert report.aggregation_points == tuple()


def dense_mesh(n: int):
    """Person p, DAs d0..d{n-1}, p <-> d0, and <-> between every DA pair:
    the number of simple paths grows about n-fold per added DA."""
    graph = new_scenario(f"dense_{n}").add_entity("p", "P").add_package(DataPackage("D"))
    for i in range(n):
        graph.add_entity(f"d{i}", "DA")
    graph.add_bidirectional_flow("p_d0", "E2", "p", "d0", "D")
    for i in range(n):
        for j in range(i + 1, n):
            graph.add_bidirectional_flow(f"d{i}_d{j}", "E5", f"d{i}", f"d{j}", "D")
    return graph


# Every max_len from 1, where the distance to the sink cuts most steps, to
# n + 1, past the longest simple path of the mesh of n DAs (n flows); and
# the default on the mesh of eight DAs.
DENSE_MESH_QUERIES = [
    *((n, max_len) for n in range(3, 8) for max_len in range(1, n + 2)),
    (8, DEFAULT_MAX_PATH_LEN),
]


@pytest.mark.parametrize("n,max_len", DENSE_MESH_QUERIES)
def test_strict_search_matches_oracle_on_dense_meshes(n, max_len):
    graph = dense_mesh(n)
    for i in range(n):
        for source, sink in (("p", f"d{i}"), (f"d{i}", "p")):
            assert enumerate_paths(graph, source, sink, max_len) == brute_force_paths(
                graph, source, sink, max_len
            )
    assert exposure_report(graph, "p", max_len) == oracle_exposure(graph, "p", max_len)


def test_strict_order_holds_past_the_longest_possible_path(uber_graph, speeding_graph):
    # No simple path is longer than the graph's flows, so a max_len far
    # beyond that gives the same results.
    for graph in (uber_graph, speeding_graph):
        every = len(graph.flows)
        for source, sink in all_pairs(graph):
            assert enumerate_paths(graph, source, sink, 10**6) == enumerate_paths(
                graph, source, sink, every
            )
        for person in persons(graph):
            assert exposure_report(graph, person, 10**6) == exposure_report(graph, person, every)


def test_pair_query_memory_holds_one_length_of_partial_paths():
    # p -> d7 on the dense mesh of eight DAs returns 1,957 paths; the search
    # holds them and the partial paths of one length at a time. The peak
    # measured 1.05 MB; the bound leaves 2x headroom. A full collection
    # first empties the free lists, which tracemalloc does not see.
    graph = dense_mesh(8)
    gc.collect()
    tracemalloc.start()
    try:
        paths = enumerate_paths(graph, "p", "d7")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(paths) == 1957
    assert peak < 2.1e6


def reach_an_undeclared_entity(graph):
    graph.flows["f4"] = FlowInstance("f4", "E5", "b", "ghost", "P")


def type_as_text(graph):
    graph.entities["b"] = EntityInstance("b", "DA")


def list_package_on_a_path(graph):
    graph.flows["f2"] = FlowInstance("f2", "E5", "a", "b", ["Q"])


def list_package_off_every_path(graph):
    graph.flows["f3"] = FlowInstance("f3", "E5", "c", "d", ["P"])


def derives_from_none(graph):
    graph.packages["Q"] = DataPackage("Q", derives_from=None)


def unhashable_derivation(graph):
    graph.packages["Q"] = DataPackage("Q", derives_from=(["P"],))


# The six shapes above each hand-set one field of hand_set_graph that
# validate would reject. What each query gives on each shape: None for a
# result, else the AnalysisError message.
HAND_SET = {
    reach_an_undeclared_entity: ("flow 'f4' references unknown entity 'ghost'",) * 3,
    type_as_text: (None, None, None),
    list_package_on_a_path: ("flow 'f2' carries ['Q'], not a package id",) * 3,
    list_package_off_every_path: ("flow 'f3' carries ['P'], not a package id",) * 3,
    derives_from_none: (None, None, None),
    unhashable_derivation: (None, None, None),
}


@pytest.mark.parametrize("shape", HAND_SET, ids=lambda shape: shape.__name__)
def test_queries_are_total_on_hand_set_graphs(shape):
    graph = hand_set_graph()
    shape(graph)
    queries = (
        lambda: exposure_report(graph, "p"),
        lambda: enumerate_paths(graph, "p", "b"),
        lambda: enumerate_paths(graph, "p", "b", mode="lineage"),
    )
    for query, error in zip(queries, HAND_SET[shape]):
        if error is None:
            query()
        else:
            with pytest.raises(AnalysisError) as exc:
                query()
            assert str(exc.value) == error


def test_hand_set_shapes_keep_their_answers():
    graph = hand_set_graph()
    type_as_text(graph)
    sinks = exposure_report(graph, "p").sinks
    assert [(s.sink, s.sink_type, s.packages) for s in sinks] == [
        ("a", "DA", ("P",)), ("b", "DA", ("P", "Q")),
    ]
    for shape in (derives_from_none, unhashable_derivation):
        graph = hand_set_graph()
        shape(graph)
        assert lineages(graph)["Q"] == {"Q"}
        assert enumerate_paths(graph, "p", "b", mode="lineage") == [
            LineageTrace(("f1", "f2"), ("P", "Q"))
        ]


def test_flow_ids_that_cannot_be_ordered_raise_analysis_error():
    graph = hand_set_graph()
    graph.flows[1] = FlowInstance(1, "E2", "p", "b", "P")
    for query in (
        lambda: exposure_report(graph, "p"),
        lambda: enumerate_paths(graph, "p", "b"),
        lambda: enumerate_paths(graph, "p", "b", mode="lineage"),
    ):
        with pytest.raises(AnalysisError) as exc:
            query()
        assert str(exc.value) == "flow id 1 is not text, and not every flow id is an integer"


def test_integer_flow_ids_order_numerically():
    graph = hand_set_graph()
    graph.flows.clear()
    for number, source, target in ((10, "p", "a"), (2, "p", "a"), (3, "a", "b")):
        graph.flows[number] = FlowInstance(number, "E5", source, target, "P")
    assert flow_sets(enumerate_paths(graph, "p", "b")) == [(2, 3), (10, 3)]
    assert enumerate_paths(graph, "p", "b") == brute_force_paths(graph, "p", "b")
    assert flow_sets(enumerate_paths(graph, "p", "b", mode="lineage")) == [
        (2, 3), (10, 3), (2, 10, 3), (10, 2, 3),
    ]
    assert [flow_sets(sink.paths) for sink in exposure_report(graph, "p").sinks] == [
        [(2,), (10,)], [(2, 3), (10, 3)],
    ]


# (flow number, source, target, package): flow 1's successors are 2 and 10
# by the hop alone, and 3 and 4 (and 1) by derivation, as Q derives from P,
# interleaved by id; 3 and 10 reach o directly, 2 and 4 in two flows, so
# that distance does not order them as ids do, and 2 and 10 both start
# traces of three flows, through 5, which carries R as they do.
INTERLEAVED = (
    (1, "p", "a", "P"), (2, "a", "b", "R"), (3, "b", "o", "Q"),
    (4, "c", "b", "P"), (5, "c", "o", "R"), (10, "a", "o", "R"),
)


def interleaved_graph(name):
    """The flows of INTERLEAVED, flow n filed under the id name(n)."""
    graph = new_scenario("interleaved").add_entity("p", "P")
    for entity in ("a", "b", "c"):
        graph.add_entity(entity, "DA")
    graph.add_entity("o", "O")
    graph.add_package(DataPackage("P")).add_package(DataPackage("Q", derives_from=("P",)))
    graph.add_package(DataPackage("R"))
    for number, source, target, package in INTERLEAVED:
        graph.flows[name(number)] = FlowInstance(name(number), "E5", source, target, package)
    return graph


@pytest.mark.parametrize(
    "name,want",
    [
        (
            int,
            [
                (1, 3), (1, 10),
                (1, 2, 3), (1, 2, 5), (1, 2, 10), (1, 4, 3), (1, 10, 5),
                (1, 2, 5, 10), (1, 2, 10, 5), (1, 10, 2, 3), (1, 10, 2, 5),
                (1, 10, 5, 2, 3),
            ],
        ),
        (
            "f{}".format,
            [
                (1, 10), (1, 3),
                (1, 10, 5), (1, 2, 10), (1, 2, 3), (1, 2, 5), (1, 4, 3),
                (1, 10, 2, 3), (1, 10, 2, 5), (1, 2, 10, 5), (1, 2, 5, 10),
                (1, 10, 5, 2, 3),
            ],
        ),
    ],
    ids=["integer ids", "text ids"],
)
def test_lineage_traces_follow_flow_id_order(name, want):
    graph = interleaved_graph(name)
    package_of = {number: package for number, _, _, package in INTERLEAVED}
    want = [
        LineageTrace(tuple(map(name, numbers)), tuple(map(package_of.get, numbers)))
        for numbers in want
    ]
    assert enumerate_paths(graph, "p", "o", 5, mode="lineage") == want
    for max_len in range(1, 6):
        assert enumerate_paths(graph, "p", "o", max_len, mode="lineage") == brute_force_lineage(
            graph, "p", "o", max_len
        )


def test_path_value_objects_are_hashable():
    assert Path(("a",), ("x", "y")) == Path(("a",), ("x", "y"))
    assert hash(Path(("a",), ("x", "y"))) == hash(Path(("a",), ("x", "y")))
    assert len({Path(("a",), ("x", "y")), Path(("a",), ("x", "y"))}) == 1
