"""Seeded input generators for the benchmark workloads.

Every generator takes an integer seed and builds its graphs through the
public vdse graph API, so the same seed gives byte-identical inputs. The
program under test only ever sees the generated text or graphs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from vdse import DataPackage, InstanceGraph, new_scenario, parse, serialize

# fleet: N renamed copies of the bundled scenarios, half of each kind.
FLEET_COPIES = 100
FLEET_PLANS = 8
# Per bundled scenario: the person whose exposure is queried, the entity an
# edit hangs a new organisation off (with the admissible edge type), and the
# owner-to-owned flow that trips the ownership lint.
FLEET_KINDS = {
    "uber": {"person": "passenger1", "edit": ("uber_app", "E4"), "lint": ("E8", "driver", "dashcam")},
    "speeding": {"person": "driver", "edit": ("car", "E20"), "lint": ("E9", "insurer", "tracker")},
}

# mesh: 1 P, 10 DA, 5 O, 50 flows; each DA sends to 3 other DAs.
MESH_POOL = 48
MESH_DA, MESH_O, MESH_DEGREE, MESH_PACKAGES = 10, 5, 3, 12
# Mesh i of a pool has the shape drawn by random.Random(MESH_SHAPES + i).
MESH_SHAPES = 1000

# lineage: 1 P, 12 DA, 6 O, 69 flows; six packages in two derivation chains
# whose roots the person's own flows carry.
LINEAGE_POOL = 48
LINEAGE_DA, LINEAGE_O, LINEAGE_DEGREE = 12, 6, 4
LINEAGE_CHAINS, LINEAGE_CHAIN_LEN = 2, 3
LINEAGE_MAX_LEN = 4
LINEAGE_SHAPES = 2000


@dataclass
class Copy:
    kind: str
    prefix: str
    defect: str | None = None

    @property
    def person(self) -> str:
        return self.prefix + FLEET_KINDS[self.kind]["person"]


@dataclass
class Fleet:
    text: str
    copies: list
    planted: set  # (violation code, subject id) pairs
    plans: list  # each a list of edit steps
    bundled: dict  # kind -> the parsed bundled scenario


@dataclass(frozen=True)
class MeshQuery:
    graph: InstanceGraph
    person: str
    source: str
    sink: str
    max_len: int


def copy_into(graph: InstanceGraph, base: InstanceGraph, prefix: str) -> None:
    """Add a renamed copy of base to graph. Ids are renamed through the graph
    API, so attribute keys and quoted labels are left untouched."""
    for e in base.entities.values():
        graph.add_entity(prefix + e.id, e.entity_type, e.attributes)
    for p in base.packages.values():  # insertion order lists ancestors first
        graph.add_package(
            DataPackage(
                prefix + p.id, p.description, p.items, tuple(prefix + a for a in p.derives_from)
            )
        )
    for r in base.relations.values():
        graph.add_semantic_relation(
            prefix + r.id, r.relation, prefix + r.source, prefix + r.target, r.attributes
        )
    for f in base.flows.values():
        stem, _, half = f.id.partition(".")
        if half == "rev":
            continue  # added together with its .fwd half
        add = graph.add_bidirectional_flow if half == "fwd" else graph.add_flow
        add(prefix + stem, f.edge_type, prefix + f.source, prefix + f.target, prefix + f.package)


def plant_defect(graph: InstanceGraph, copy: Copy) -> tuple:
    """Add one known defect to a copy; return the (code, subject) it causes."""
    pre, kind = copy.prefix, FLEET_KINDS[copy.kind]
    if copy.defect == "ENDPOINT_MISMATCH":
        # E1 is P -> V; an organisation at the far end fits neither way.
        target = "uber" if copy.kind == "uber" else "insurer"
        flow_id = pre + "bad_endpoint"
        graph.add_flow(flow_id, "E1", copy.person, pre + target, DataPackage(pre + "DPbad1"))
        return ("ENDPOINT_MISMATCH", flow_id)
    if copy.defect == "ROLE_MISSING":
        relation_id = pre + "r_norole"
        graph.add_semantic_relation(relation_id, "occupy", copy.person, pre + "car")
        return ("ROLE_MISSING", relation_id)
    edge, owner, owned = kind["lint"]
    flow_id = pre + "owner_push"
    graph.add_flow(flow_id, edge, pre + owner, pre + owned, DataPackage(pre + "DPbad3"))
    return ("OWNERSHIP_LINT", flow_id)


def edit_plan(rng: random.Random, copies: list, plan_no: int) -> list:
    """Four edits: a new organisation and a flow into it, in one copy of
    each kind, so every plan returns the same number of paths."""
    steps = []
    for k, kind in enumerate(FLEET_KINDS):
        copy = rng.choice([c for c in copies if c.defect is None and c.kind == kind])
        anchor, edge = FLEET_KINDS[kind]["edit"]
        org = f"{copy.prefix}x{plan_no}_{k}"
        steps.append(("entity", copy, org))
        steps.append(("flow", copy, f"{org}_in", edge, copy.prefix + anchor, org, f"{org}_DP"))
    return steps


def fleet(seed: int) -> Fleet:
    # Loading the bundled scenarios is part of building fleet's inputs, so
    # it is imported here, inside the set-up the benchmark times.
    from vdse.scenarios import scenario_text

    rng = random.Random(seed)
    bundled = {name: parse(scenario_text(name)) for name in FLEET_KINDS}
    kinds = ["uber", "speeding"] * (FLEET_COPIES // 2)
    rng.shuffle(kinds)
    tag = "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(2))
    fleet_copies = [Copy(kind, f"{tag}{k}_") for k, kind in enumerate(kinds)]
    for copy, defect in zip(
        rng.sample(fleet_copies, 3), ("ENDPOINT_MISMATCH", "ROLE_MISSING", "OWNERSHIP_LINT")
    ):
        copy.defect = defect
    graph = new_scenario(f"fleet_{seed}")
    planted = set()
    for copy in fleet_copies:
        copy_into(graph, bundled[copy.kind], copy.prefix)
        if copy.defect:
            planted.add(plant_defect(graph, copy))
    plans = [edit_plan(rng, fleet_copies, n) for n in range(FLEET_PLANS)]
    return Fleet(serialize(graph), fleet_copies, planted, plans, bundled)


def _derangement(rng: random.Random, n: int) -> list:
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        if all(perm[i] != i for i in range(n)):
            return perm


def _regular_targets(rng: random.Random, n: int, degree: int) -> list:
    """degree pairwise-disjoint derangements: every node gets `degree`
    distinct out-neighbours and as many in-neighbours, none of them itself."""
    perms: list = []
    while len(perms) < degree:
        perm = _derangement(rng, n)
        if all(all(perm[i] != p[i] for i in range(n)) for p in perms):
            perms.append(perm)
    return perms


def _mesh_flows(rng: random.Random, n_da: int, n_o: int, degree: int, back: int) -> list:
    """Edges of a dense person -> apps -> organisations mesh, shuffled."""
    das = [f"da{i}" for i in range(n_da)]
    orgs = [f"o{i}" for i in range(n_o)]
    edges = [("E2", "p0", das[d]) for d in rng.sample(range(n_da), 3)]
    edges += [("E2", das[d], "p0") for d in rng.sample(range(n_da), back)]
    for perm in _regular_targets(rng, n_da, degree):
        edges += [("E5", das[i], das[perm[i]]) for i in range(n_da)]
    org_of = [i % n_o for i in range(n_da)]
    rng.shuffle(org_of)
    edges += [("E4", das[i], orgs[org_of[i]]) for i in range(n_da)]
    edges += [("E21", orgs[i], orgs[j]) for i, j in enumerate(_derangement(rng, n_o))]
    rng.shuffle(edges)
    return edges


def _mesh_entities(graph: InstanceGraph, n_da: int, n_o: int) -> None:
    graph.add_entity("p0", "P")
    for i in range(n_da):
        graph.add_entity(f"da{i}", "DA")
    for i in range(n_o):
        graph.add_entity(f"o{i}", "O")


def _permutation(rng: random.Random, n: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _seeded_graph(rng: random.Random, name: str, n_da: int, n_o: int, packages: list, flows: list):
    """Build a mesh shape under seeded names. The seed numbers the apps,
    organisations and packages and sets the order (and so the ids) in which
    flows are added; the shape, and so the work a query does, stays as given.
    `packages` lists (number, ancestor numbers), ancestors first; `flows`
    lists (edge, source, target, package number). Returns the graph and the
    renaming of entities."""
    da, org, pkg = _permutation(rng, n_da), _permutation(rng, n_o), _permutation(rng, len(packages))
    rename = {"p0": "p0"}
    rename.update({f"da{i}": f"da{da[i]}" for i in range(n_da)})
    rename.update({f"o{i}": f"o{org[i]}" for i in range(n_o)})
    graph = new_scenario(name)
    _mesh_entities(graph, n_da, n_o)
    for number, derives in packages:
        graph.add_package(DataPackage(f"DP{pkg[number]}", derives_from=tuple(f"DP{pkg[d]}" for d in derives)))
    flows = list(flows)
    rng.shuffle(flows)
    for k, (edge, source, target, package) in enumerate(flows):
        graph.add_flow(f"f{k}", edge, rename[source], rename[target], f"DP{pkg[package]}")
    return graph, rename


def mesh(seed: int) -> list:
    """MESH_POOL dense meshes; query i uses max_len 5, 6 or 7 in turn. The
    shapes are drawn once, the same for every seed (so every seed does the
    same work); the seed names and orders them."""
    rng = random.Random(seed)
    queries = []
    for i in range(MESH_POOL):
        shape = random.Random(MESH_SHAPES + i)
        flows = [
            (edge, source, target, shape.randrange(MESH_PACKAGES))
            for edge, source, target in _mesh_flows(shape, MESH_DA, MESH_O, MESH_DEGREE, back=2)
        ]
        source, sink = f"da{shape.randrange(MESH_DA)}", f"o{shape.randrange(MESH_O)}"
        packages = [(k, ()) for k in range(MESH_PACKAGES)]
        graph, rename = _seeded_graph(rng, f"mesh_{seed}_{i}", MESH_DA, MESH_O, packages, flows)
        queries.append(MeshQuery(graph, "p0", rename[source], rename[sink], 5 + i % 3))
    return queries


def lineage(seed: int) -> list:
    """LINEAGE_POOL meshes whose flows share a few packages that derive from
    one another in chains; each is queried from the person to one
    organisation. Shapes as for `mesh`: fixed, named and ordered by the seed."""
    rng = random.Random(seed)
    queries = []
    n_packages = LINEAGE_CHAINS * LINEAGE_CHAIN_LEN
    # Chains of consecutive numbers: 0 <- 1 <- 2, 3 <- 4 <- 5.
    packages = [(k, (k - 1,) if k % LINEAGE_CHAIN_LEN else ()) for k in range(n_packages)]
    roots = list(range(0, n_packages, LINEAGE_CHAIN_LEN))
    for i in range(LINEAGE_POOL):
        shape = random.Random(LINEAGE_SHAPES + i)
        edges = _mesh_flows(shape, LINEAGE_DA, LINEAGE_O, LINEAGE_DEGREE, back=0)
        # The person's own flows carry the chain roots, the data everything
        # else derives from; the other packages are carried by the same
        # number of flows (up to one).
        own = [e for e in edges if e[1] == "p0"]
        rest = [e for e in edges if e[1] != "p0"]
        carried = [k % n_packages for k in range(len(rest))]
        shape.shuffle(carried)
        flows = [(*e, roots[k % len(roots)]) for k, e in enumerate(own)]
        flows += [(*e, package) for e, package in zip(rest, carried)]
        graph, rename = _seeded_graph(rng, f"lineage_{seed}_{i}", LINEAGE_DA, LINEAGE_O, packages, flows)
        queries.append(MeshQuery(graph, "p0", "p0", rename[f"o{i % LINEAGE_O}"], LINEAGE_MAX_LEN))
    return queries
