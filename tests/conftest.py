"""Shared fixtures and graph generators for the test suite."""
from __future__ import annotations

import os
import random
import string
import subprocess
import sys

import pytest
from hypothesis import strategies as st

import vdse
from vdse import builtin_schema, new_scenario
from vdse.analysis import LineageTrace
from vdse.graph import DataPackage, FlowInstance, InstanceGraph
from vdse.schema import INSTANTIABLE_TYPE_CODES
from vdse.scenarios import load_scenario

# Stable orderings so seeded generation is reproducible across runs.
TYPE_CODES = tuple(sorted(INSTANTIABLE_TYPE_CODES))
EDGE_IDS = tuple(sorted(builtin_schema().flow_edge_types, key=lambda e: int(e[1:])))


@pytest.fixture
def schema():
    return builtin_schema()


@pytest.fixture
def uber_graph():
    return load_scenario("uber")


@pytest.fixture
def speeding_graph():
    return load_scenario("speeding")


def build_random_graph(seed: int):
    """Seeded well-formed scenario: up to 12 entities and 30 flows over
    admissible edge types, with shared packages and derivation chains."""
    rng = random.Random(seed)
    schema = builtin_schema()
    graph = new_scenario(f"random_{seed}")
    for i in range(rng.randint(2, 12)):
        graph.add_entity(f"n{i}", rng.choice(TYPE_CODES))
    ids = sorted(graph.entities)

    package_count = rng.randint(1, 8)
    for j in range(package_count):
        derives = ()
        if j and rng.random() < 0.3:
            derives = (f"DP{rng.randrange(j)}",)
        graph.add_package(DataPackage(f"DP{j}", derives_from=derives))

    target = rng.randint(0, 30)
    attempts = 0
    counter = 0
    while len(graph.flows) < target and attempts < 500:
        attempts += 1
        edge = rng.choice(EDGE_IDS)
        source, sink = rng.choice(ids), rng.choice(ids)
        if source == sink:
            continue
        if not schema.flow_conforms(
            edge, graph.entity_type_of(source), graph.entity_type_of(sink)
        ):
            continue
        package = f"DP{rng.randrange(package_count)}"
        if (
            schema.flow_edge_types[edge].bidirectional
            and rng.random() < 0.25
            and len(graph.flows) + 2 <= target
        ):
            graph.add_bidirectional_flow(f"f{counter}", edge, source, sink, package)
        else:
            graph.add_flow(f"f{counter}", edge, source, sink, package)
        counter += 1
    return graph


def one_package_chain(n: int):
    """d0 -> d1 -> ... -> d{n-1}, every flow carrying the one package DP."""
    graph = new_scenario("chain").add_package(DataPackage("DP"))
    for i in range(n):
        graph.add_entity(f"d{i}", "DA")
    for i in range(n - 1):
        graph.add_flow(f"f{i}", "E5", f"d{i}", f"d{i + 1}", "DP")
    return graph


def hand_set_graph():
    """p -f1-> a -f2-> b, with package Q derived from P, and c -f3-> d."""
    graph = new_scenario("hand_set")
    graph.add_entity("p", "P").add_entity("a", "DA").add_entity("b", "DA")
    graph.add_entity("c", "DA").add_entity("d", "DA")
    graph.add_package(DataPackage("P")).add_package(DataPackage("Q", derives_from=("P",)))
    graph.add_flow("f1", "E2", "p", "a", "P").add_flow("f2", "E5", "a", "b", "Q")
    return graph.add_flow("f3", "E5", "c", "d", "P")


# What a hand-set field can hold that no builder call would store: nothing,
# a value that is not hashable, an integer, and an id that names nothing.
HAND_SET_VALUES = (None, ["ghost"], 7, "ghost")
_TABLES = ("entities", "packages", "relations", "flows")


def copy_graph(graph) -> InstanceGraph:
    """graph with maps of its own; the records stay shared until replaced."""
    return InstanceGraph(
        graph.name,
        dict(graph.entities),
        dict(graph.relations),
        dict(graph.flows),
        dict(graph.packages),
    )


def hand_set(rng: random.Random, graph) -> str:
    """Make one change to graph that no builder call would make, and say
    what it was: one field of one record set to a HAND_SET_VALUES value, a
    flow filed under another key (moved, or kept under both), or integer
    flow ids (for one flow, so the id types mix, or for all of them)."""
    kind = rng.choice(("field", "field", "key", "ids")) if graph.flows else "field"
    if kind == "field":
        name = rng.choice([name for name in _TABLES if getattr(graph, name)])
        table = getattr(graph, name)
        key = rng.choice(sorted(table))
        field = rng.choice(table[key].__slots__)
        value = rng.choice(HAND_SET_VALUES)
        table[key] = type(table[key])(*table[key]._values())
        setattr(table[key], field, value)
        return f"{name}[{key!r}].{field} = {value!r}"
    flow_ids = sorted(graph.flows)
    if kind == "key":
        flow_id = rng.choice(flow_ids)
        key = rng.choice(("k", 3, *(other for other in flow_ids if other != flow_id)))
        flow = graph.flows.pop(flow_id) if rng.random() < 0.5 else graph.flows[flow_id]
        graph.flows[key] = flow
        return f"flow {flow_id!r} filed under {key!r}"
    renamed = flow_ids if rng.random() < 0.25 else [rng.choice(flow_ids)]
    for number, flow_id in enumerate(renamed):
        flow = graph.flows.pop(flow_id)
        graph.flows[number] = FlowInstance(
            number, flow.edge_type, flow.source, flow.target, flow.package
        )
    return f"flows {renamed} renumbered"


def rekey(rng: random.Random, graph) -> str:
    """Make one change to graph that hand_set does not, and say what it
    was: a record of any kind filed under another key (moved, or kept under
    both), or a scenario name that is not text."""
    names = [name for name in _TABLES if getattr(graph, name)]
    if rng.random() < 0.2:
        graph.name = rng.choice((7, None, ["x"]))
        return f"name = {graph.name!r}"
    name = rng.choice(names)
    table = getattr(graph, name)
    ids = sorted(table)
    old = rng.choice(ids)
    key = rng.choice(("k", 3, *(other for other in ids if other != old)))
    record = table.pop(old) if rng.random() < 0.5 else table[old]
    table[key] = record
    return f"{name}[{old!r}] filed under {key!r}"


def put_frozenset(rng: random.Random, graph) -> str:
    """Put a frozenset of the graph's ids, which iterates in an order that
    depends on the hash seed, where text belongs, and say where: one field
    of one record, the id of one record and the key it is filed under, or
    one attribute key or value of an entity or relation."""
    ids = sorted(graph.entities) + sorted(graph.packages)
    value = frozenset(rng.sample(ids, 3))
    name = rng.choice([name for name in _TABLES if getattr(graph, name)])
    table = getattr(graph, name)
    key = rng.choice(sorted(table))
    record = table[key] = type(table[key])(*table[key]._values())
    kinds = ["field", "id"]
    if hasattr(record, "attributes"):
        kinds += ["attribute key", "attribute value"]
    kind = rng.choice(kinds)
    if kind == "field":
        field = rng.choice(record.__slots__[1:])
        setattr(record, field, value)
        return f"{name}[{key!r}].{field} = {value!r}"
    if kind == "id":
        record.id = value
        table[value] = table.pop(key)
        return f"{name}[{key!r}] renamed {value!r}"
    record.attributes = dict(record.attributes)
    if kind == "attribute key":
        record.attributes[value] = "x"
    else:
        record.attributes[rng.choice(sorted(record.attributes) or ["tier"])] = value
    return f"{name}[{key!r}] {kind} {value!r}"


def hand_set_graphs(seed: int, count: int, change=hand_set):
    """count seeded hand-set graphs, each a bundled scenario or a
    build_random_graph graph with one change (hand_set, unless given).
    Yields what changed, the graph it was made to and the changed copy."""
    rng = random.Random(seed)
    bases = [load_scenario("uber"), load_scenario("speeding")]
    bases += [build_random_graph(seed * 1000 + i) for i in range(8)]
    for _ in range(count):
        base = rng.choice(bases)
        graph = copy_graph(base)
        yield change(rng, graph), base, graph


def under_hash_seeds(script: str) -> list:
    """The stdout of script run in a fresh interpreter under PYTHONHASHSEED
    1, 2 and 3, with vdse and the test modules importable."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(vdse.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, tests, env.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "2", "3"):
        env["PYTHONHASHSEED"] = seed
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    return outputs


def flow_sets(paths):
    return [p.flow_ids for p in paths]


def sample_pairs(graph, seed: int, limit: int = 8):
    """Ordered entity pairs to query; all of them for small graphs."""
    ids = sorted(graph.entities)
    pairs = [(a, b) for a in ids for b in ids if a != b]
    if len(pairs) <= limit:
        return pairs
    return random.Random(seed ^ 0x5EED).sample(pairs, limit)


def derivation_closure(graph) -> dict:
    """Derivation-closure oracle: a fresh walk from every declared package.
    Undeclared ancestors are kept; a package on a cycle is its own ancestor."""
    ancestors = {}
    for package_id, package in graph.packages.items():
        seen, stack = set(), list(package.derives_from)
        while stack:
            ancestor = stack.pop()
            if ancestor not in seen:
                seen.add(ancestor)
                if ancestor in graph.packages:
                    stack.extend(graph.packages[ancestor].derives_from)
        ancestors[package_id] = seen
    return ancestors


def brute_force_lineage(graph, source: str, sink: str, max_len: int) -> list:
    """Lineage-mode oracle: every step rescans the raw flow list, with no
    index and no pruning. A flow may follow another when they chain head to
    tail, or when its package is the other's or derives from it."""
    ancestors = derivation_closure(graph)
    flows = list(graph.flows.values())
    results, trace, used = [], [], set()

    def admissible(previous, candidate) -> bool:
        return (
            previous.target == candidate.source
            or candidate.package == previous.package
            or previous.package in ancestors.get(candidate.package, ())
        )

    def extend() -> None:
        if trace and trace[-1].target == sink:
            results.append(
                LineageTrace(tuple(f.id for f in trace), tuple(f.package for f in trace))
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


# Text that exercises quoting and escapes in the scenario format.
_TEXT = st.text(
    alphabet=string.ascii_letters + string.digits + " _-.,:;!?'\"\\\n\t\r",
    max_size=12,
)
_NAME = st.text(
    alphabet=string.ascii_letters + string.digits + " _-'\"\\", min_size=1, max_size=12
)


@st.composite
def wellformed_graphs(draw):
    """Small graphs built through the mutation API, attribute-rich enough to
    exercise the serializer's quoting, sorting, and pairing rules."""
    schema = builtin_schema()
    graph = new_scenario(draw(_NAME))
    count = draw(st.integers(2, 6))
    for i in range(count):
        code = draw(st.sampled_from(TYPE_CODES))
        attrs = {}
        if draw(st.booleans()):
            attrs["label"] = draw(_TEXT)
        if draw(st.booleans()):
            attrs["privacy_preserving"] = draw(st.booleans())
        if code in ("V", "VC") and draw(st.booleans()):
            attrs["static"] = draw(st.lists(_TEXT, min_size=1, max_size=3))
        graph.add_entity(f"n{i}", code, attrs)
    ids = sorted(graph.entities)

    for j in range(draw(st.integers(1, 4))):
        derives = ()
        existing = sorted(graph.packages)
        if existing and draw(st.booleans()):
            derives = (draw(st.sampled_from(existing)),)
        graph.add_package(
            DataPackage(
                f"p{j}",
                description=draw(_TEXT),
                items=draw(st.lists(_TEXT, max_size=2)),
                derives_from=derives,
            )
        )

    combos = [
        (edge, a, b)
        for edge in EDGE_IDS
        for a in ids
        for b in ids
        if a != b
        and schema.flow_conforms(edge, graph.entity_type_of(a), graph.entity_type_of(b))
    ]
    if combos:
        for k in range(draw(st.integers(0, 5))):
            edge, source, sink = draw(st.sampled_from(combos))
            package = draw(st.sampled_from(sorted(graph.packages)))
            if schema.flow_edge_types[edge].bidirectional and draw(st.booleans()):
                graph.add_bidirectional_flow(f"f{k}", edge, source, sink, package)
            else:
                graph.add_flow(f"f{k}", edge, source, sink, package)

    pairs = [(a, b) for a in ids for b in ids if a != b]
    for m in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(schema.semantic_relations)))
        source, sink = draw(st.sampled_from(pairs))
        attrs = {"role": "driver"} if name == "occupy" else {}
        graph.add_semantic_relation(f"r{m}", name, source, sink, attrs)
    return graph
