"""Queries, validate and the graph writers are total on hand-set graphs.

Each graph carries a change that no builder call would make (see
conftest.hand_set and conftest.rekey). On it, each public query returns or raises
AnalysisError, and gives the same on the graph with each of its maps in
reverse insertion order; validate never raises, gives the same report on both, and reports
an error whenever a query raised; each writer returns or raises
MalformedGraphError, and gives the same on both. With a frozenset where
text belongs (conftest.put_frozenset), every outcome is the same under
three hash seeds.
"""
from __future__ import annotations

import hashlib

import pytest

from conftest import copy_graph, hand_set, hand_set_graph, hand_set_graphs, rekey, under_hash_seeds
from vdse import builtin_schema
from vdse.analysis import brute_force_paths, enumerate_paths, exposure_report, reachable_from
from vdse.dsl import serialize
from vdse.errors import AnalysisError, MalformedGraphError
from vdse.export import graph_to_dot, graph_to_json
from vdse.graph import DataPackage, EntityInstance, FlowInstance, SemanticRelationInstance
from vdse.schema import EntityType
from vdse.validate import validate

SCHEMA = builtin_schema()
MAX_LEN = 3


def queries(base) -> list:
    """Each public query, with arguments that are valid on base."""
    ids = sorted(base.entities)
    persons = [i for i in ids if base.entities[i].entity_type is EntityType.PERSON]
    source = persons[0] if persons else ids[0]
    sink = max(i for i in ids if i != source)
    calls = [
        lambda graph: enumerate_paths(graph, source, sink, MAX_LEN),
        lambda graph: enumerate_paths(graph, source, sink, MAX_LEN, mode="lineage"),
        lambda graph: brute_force_paths(graph, source, sink, MAX_LEN),
        lambda graph: reachable_from(graph, source),
    ]
    if persons:
        calls.append(lambda graph: exposure_report(graph, source, MAX_LEN))
    return calls


def outcome(call, graph, refusal=AnalysisError):
    try:
        return True, call(graph)
    except refusal as error:
        return False, str(error)


def assert_total(base, graph) -> list:
    """Check the contract on graph, changed from base; return the outcome
    of each query."""
    flipped = copy_graph(graph)
    for table in ("entities", "relations", "flows", "packages"):
        setattr(flipped, table, dict(reversed(getattr(graph, table).items())))
    outcomes = [outcome(query, graph) for query in queries(base)]
    assert [outcome(query, flipped) for query in queries(base)] == outcomes
    report = validate(SCHEMA, graph)
    assert validate(SCHEMA, flipped) == report
    if not all(returned for returned, _ in outcomes):
        assert report.errors
    for writer in (serialize, graph_to_json, graph_to_dot):
        written = outcome(writer, graph, MalformedGraphError)
        assert outcome(writer, flipped, MalformedGraphError) == written, writer.__name__
    return outcomes


def _set(table: str, key, field: str, value):
    def change(graph):
        records = getattr(graph, table)
        records[key] = type(records[key])(*records[key]._values())
        setattr(records[key], field, value)

    return change


def _refile(flow_id, key):
    return lambda graph: graph.flows.update({key: graph.flows.pop(flow_id)})


def _add(table: str, *records):
    return lambda graph: getattr(graph, table).update((record.id, record) for record in records)


def _part_of_cycle(graph):
    """Vehicle components 7 and 8, each part of the other."""
    for node, whole in ((7, 8), (8, 7)):
        graph.entities[node] = EntityInstance(node, EntityType.VEHICLE_COMPONENT)
        graph.relations[node] = SemanticRelationInstance(node, "isPartOf", node, whole)


def _renumber(graph):
    for number, flow_id in enumerate(sorted(graph.flows), start=1):
        flow = graph.flows.pop(flow_id)
        graph.flows[number] = FlowInstance(
            number, flow.edge_type, flow.source, flow.target, flow.package
        )


# Hand-set changes to hand_set_graph (p -f1-> a -f2-> b, c -f3-> d), each
# with the AnalysisError its queries raise, or None when they return.
NAMED = {
    "list_target": (
        _set("flows", "f2", "target", ["b"]),
        "flow 'f2' references unknown entity ['b']",
    ),
    "flow_filed_under_another_key": (
        _set("flows", "f2", "id", "k2"),
        "flow 'k2' is filed under 'f2'",
    ),
    "mixed_flow_ids_in_lineage": (
        _add(
            "flows", FlowInstance(1, "E2", "p", "a", "P"), FlowInstance(2, "E5", "a", "b", "Q")
        ),
        "flow id 1 is not text, and not every flow id is an integer",
    ),
    "flow_filed_under_an_int_key": (
        _refile("f3", 3),
        "flow 'f3' is filed under 3",
    ),
    "dangling_flows_with_int_and_text_ids": (
        _add(
            "flows",
            FlowInstance(1, "E5", "a", "ghost", "P"), FlowInstance("f4", "E5", "b", "ghost", "P")
        ),
        "flow 'f4' references unknown entity 'ghost'",
    ),
    "package_id_is_a_list": (_set("packages", "Q", "id", ["Q"]), None),
    "package_items_none": (_set("packages", "P", "items", None), None),
    "package_items_int": (_set("packages", "P", "items", 7), None),
    "integer_flow_ids": (_renumber, None),
    "two_unpaired_halves": (
        _add(
            "flows",
            FlowInstance("x.fwd", "E5", "a", "b", "P"), FlowInstance("y.fwd", "E5", "c", "d", "P")
        ),
        None,
    ),
    "attribute_value_is_a_set": (_set("entities", "a", "attributes", {"tags": {"x"}}), None),
    "attribute_keys_of_mixed_types": (
        _set("entities", "a", "attributes", {1: "one", "label": "a"}),
        None,
    ),
    "package_description_is_a_set": (_set("packages", "P", "description", {"x"}), None),
    "derivation_cycle_through_int_package_ids": (
        _add("packages", DataPackage(1, derives_from=(2,)), DataPackage(2, derives_from=(1,))),
        None,
    ),
    "derivation_cycle_through_an_int_and_a_text_package_id": (
        _add("packages", DataPackage(1, derives_from=("P",)), DataPackage("P", derives_from=(1,))),
        None,
    ),
    "part_of_cycle_through_int_entity_ids": (_part_of_cycle, None),
    "two_plain_ids_that_are_not_identifiers": (
        _add(
            "flows",
            FlowInstance("z z", "E5", "a", "b", "P"), FlowInstance("a-b", "E5", "c", "d", "P")
        ),
        None,
    ),
}


@pytest.mark.parametrize("name", NAMED)
def test_named_hand_set_graphs_keep_the_contract(name):
    change, error = NAMED[name]
    base = hand_set_graph()
    graph = copy_graph(base)
    change(graph)
    outcomes = assert_total(base, graph)
    if error is None:
        assert all(returned for returned, _ in outcomes)
    else:
        assert outcomes == [(False, error)] * len(outcomes)


BATCHES, PER_BATCH = 8, 300


REKEYED_BATCHES = 2


def assert_batch_total(seed: int, change) -> None:
    raised = 0
    for what, base, graph in hand_set_graphs(seed, PER_BATCH, change):
        try:
            outcomes = assert_total(base, graph)
        except Exception as failure:
            raise AssertionError(what) from failure
        raised += not all(returned for returned, _ in outcomes)
    # Some changes make every query refuse the graph, and some leave them working.
    assert 0 < raised < PER_BATCH


@pytest.mark.parametrize("batch", range(BATCHES))
def test_seeded_hand_set_graphs_keep_the_contract(batch):
    assert_batch_total(batch, hand_set)


@pytest.mark.parametrize("batch", range(REKEYED_BATCHES))
def test_seeded_rekeyed_graphs_keep_the_contract(batch):
    # Seeds of their own, so that the batches above keep their graphs.
    assert_batch_total(BATCHES + batch, rekey)


# One sha256 over every outcome on four seeded batches, two of each kind of
# change: each query's (reachable_from's set sorted), validate's report and
# each writer's. It pins what the reference checks decide and say, on graphs
# no builder call would make, whatever path the checks take to decide it.
OUTCOME_DIGEST = "6101c577eb4fdf472abbe92f7b81c5dd690c2d082c4aec843c60c1cd7d8a75f4"


def pinned_outcomes(base, graph) -> bytes:
    """What the digest pins on graph, changed from base, written out."""
    outcomes = [outcome(query, graph) for query in queries(base)]
    outcomes = [
        (returned, sorted(result, key=repr) if isinstance(result, set) else result)
        for returned, result in outcomes
    ]
    outcomes.append(validate(SCHEMA, graph))
    for writer in (serialize, graph_to_json, graph_to_dot):
        outcomes.append(outcome(writer, graph, MalformedGraphError))
    return repr(outcomes).encode()


def test_outcomes_on_seeded_hand_set_graphs_are_pinned():
    digest = hashlib.sha256()
    for seed, change in ((100, hand_set), (101, hand_set), (102, rekey), (103, rekey)):
        for _, base, graph in hand_set_graphs(seed, PER_BATCH, change):
            digest.update(pinned_outcomes(base, graph))
    assert digest.hexdigest() == OUTCOME_DIGEST


# The same outcomes, one sha per graph, on graphs with a frozenset where
# text belongs, in a fresh interpreter under each of three hash seeds.
FROZENSET_SWEEP = """
import hashlib
from conftest import hand_set_graphs, put_frozenset
from test_fuzz import PER_BATCH, pinned_outcomes
for seed in (300, 301, 302, 303):
    for _, base, graph in hand_set_graphs(seed, PER_BATCH, put_frozenset):
        print(hashlib.sha256(pinned_outcomes(base, graph)).hexdigest())
"""


def test_outcomes_on_frozenset_graphs_do_not_depend_on_the_hash_seed():
    outputs = under_hash_seeds(FROZENSET_SWEEP)
    assert len(outputs[0].split()) == 4 * PER_BATCH
    assert outputs[0] == outputs[1] == outputs[2]
