"""Acceptance checks for the analysis pipeline.

Each test covers one numbered criterion and prints a single
"[acceptance] criterion N: PASS/FAIL" line (visible with `pytest -s`).
"""
from __future__ import annotations

import copy
import io

from conftest import build_random_graph, flow_sets, sample_pairs
from test_schema import FLOW_TABLE
from vdse.analysis import LineageTrace, brute_force_paths, enumerate_paths
from vdse.cli import run
from vdse.dsl import parse, serialize
from vdse.graph import DataPackage, FlowInstance
from vdse.scenarios import load_scenario, scenario_text
from vdse.validate import ViolationCode, validate


def _criterion(number: int, check) -> None:
    try:
        check()
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL")
        raise
    print(f"[acceptance] criterion {number}: PASS")


def test_criterion_1_speeding_paths(speeding_graph):
    def check():
        paths = flow_sets(enumerate_paths(speeding_graph, "driver", "insurer"))
        assert len(paths) == 4
        assert set(paths) == {
            ("e1_1", "e16_1", "e17_1", "e21_1", "e21_2", "e21_4"),
            ("e1_1", "e20_1", "e21_4"),
            ("e1_1", "e20_2"),
            ("e1_1", "e6_1", "e9_1"),
        }

    _criterion(1, check)


def test_criterion_2_uber_passenger_paths(uber_graph):
    def check():
        assert set(flow_sets(enumerate_paths(uber_graph, "passenger1", "driver"))) == {
            ("e2_3", "e5_1", "e2_2"),
            ("e7_3", "e8_1"),
        }
        # The two-hop route is the only one at the analysis depth of three
        # hops. At the default depth a second, five-hop route exists (through
        # the ride-hail apps and the driver's recording consent flow), so the
        # single-path claim is asserted at depth 3 and the full default-depth
        # result is pinned alongside it.
        assert flow_sets(
            enumerate_paths(uber_graph, "passenger1", "dashcam_cloud", max_len=3)
        ) == [("e7_3", "e9_1")]
        assert flow_sets(
            enumerate_paths(uber_graph, "passenger1", "dashcam_cloud")
        ) == [
            ("e7_3", "e9_1"),
            ("e2_3", "e5_1", "e2_2", "e7_1", "e9_1"),
        ], "default-depth result drifted; the depth-3 assertion above is the quoted claim"
        assert flow_sets(
            enumerate_paths(uber_graph, "passenger2", "dashcam_cloud")
        ) == [("e7_2", "e9_1")]
        assert flow_sets(enumerate_paths(uber_graph, "driver", "dashcam_cloud")) == [
            ("e7_1", "e9_1")
        ]
        assert ("e2_3", "e4_2") in flow_sets(
            enumerate_paths(uber_graph, "passenger1", "uber")
        )

    _criterion(2, check)


def test_criterion_3_driver_to_company(uber_graph):
    def check():
        strict = flow_sets(enumerate_paths(uber_graph, "driver", "uber"))
        assert len(strict) == 4
        assert ("e2_1", "e4_1") in strict
        # Strict chaining cannot produce (e1_1, e2_1, e4_1): e1_1 ends at the
        # car while e2_1 leaves the driver. The route is still real because
        # the profile package sent over e2_1 derives from the driving data of
        # e1_1; lineage mode recovers it through that derivation.
        assert ("e1_1", "e2_1", "e4_1") not in strict
        traces = enumerate_paths(uber_graph, "driver", "uber", mode="lineage")
        match = [t for t in traces if t.flow_ids == ("e1_1", "e2_1", "e4_1")]
        assert len(match) == 1 and isinstance(match[0], LineageTrace)
        assert match[0].package_ids == ("DP1_1", "DP2_1", "DP4_1")

    _criterion(3, check)


def test_criterion_4_schema_fidelity(schema):
    def check():
        assert len(schema.entity_types) == 14
        assert len(schema.subclass_parent) == 4
        assert len(schema.semantic_relations) == 7
        assert len(schema.flow_edge_types) == 21
        for edge_id, (source, target, bidirectional) in FLOW_TABLE.items():
            edge = schema.flow_edge_types[edge_id]
            assert (edge.source.code, edge.target.code, edge.bidirectional) == (
                source,
                target,
                bidirectional,
            )

    _criterion(4, check)


def test_criterion_5_oracle_equivalence(uber_graph, speeding_graph):
    def check():
        for graph in (uber_graph, speeding_graph):
            for source in sorted(graph.entities):
                for sink in sorted(graph.entities):
                    if source != sink:
                        assert enumerate_paths(graph, source, sink) == brute_force_paths(
                            graph, source, sink
                        )
        for seed in range(200):
            graph = build_random_graph(seed)
            assert len(graph.entities) <= 12 and len(graph.flows) <= 30
            for source, sink in sample_pairs(graph, seed):
                assert enumerate_paths(graph, source, sink) == brute_force_paths(
                    graph, source, sink
                )

    _criterion(5, check)


def test_criterion_6_round_trip(tmp_path):
    def check():
        for name in ("uber", "speeding"):
            graph = load_scenario(name)
            assert parse(serialize(graph)) == graph
        for seed in range(50):
            graph = build_random_graph(seed + 1000)
            assert parse(serialize(graph)) == graph
        path = tmp_path / "fmt.vdse"
        path.write_text(scenario_text("uber"), encoding="utf-8")
        assert run(["fmt", str(path)], stdout=io.StringIO(), stderr=io.StringIO()) == 0
        once = path.read_bytes()
        assert run(["fmt", str(path)], stdout=io.StringIO(), stderr=io.StringIO()) == 0
        assert path.read_bytes() == once

    _criterion(6, check)


def test_criterion_7_validation(schema, uber_graph, speeding_graph):
    def check():
        for graph in (uber_graph, speeding_graph):
            assert validate(schema, graph).errors == []

        def mutated(graph, apply):
            twin = copy.deepcopy(graph)
            apply(twin)
            return {v.code for v in validate(schema, twin).errors}

        def reverse_e16(g):
            g.flows["e16_1"] = FlowInstance(
                "e16_1", "E16", "speed_camera", "car", "DP16_1"
            )

        def wrong_types(g):
            g.flows["bad"] = FlowInstance("bad", "E16", "driver", "dashcam", "DP1_1")

        def ghost_package(g):
            g.flows["e1_1"] = FlowInstance("e1_1", "E1", "driver", "car", "ghost")

        def drop_role(g):
            g.relations["r1"].attributes.pop("role")

        def part_of_cycle(g):
            g.add_entity("vc1", "VC").add_entity("vc2", "VC")
            g.add_semantic_relation("c1", "isPartOf", "vc1", "vc2")
            g.add_semantic_relation("c2", "isPartOf", "vc2", "vc1")

        def derives_cycle(g):
            g.packages["DP1_1"] = DataPackage(
                "DP1_1", "driving data", ["driving habits", "driving speed"], ("DP2_1",)
            )

        assert mutated(speeding_graph, reverse_e16) == {ViolationCode.DIRECTION_VIOLATION}
        assert mutated(uber_graph, wrong_types) == {ViolationCode.ENDPOINT_MISMATCH}
        assert mutated(uber_graph, ghost_package) == {ViolationCode.MISSING_PACKAGE}
        assert mutated(uber_graph, drop_role) == {ViolationCode.ROLE_MISSING}
        assert mutated(uber_graph, part_of_cycle) == {ViolationCode.PART_OF_CYCLE}
        assert mutated(uber_graph, derives_cycle) == {ViolationCode.DERIVES_CYCLE}

    _criterion(7, check)


def test_criterion_8_determinism(tmp_path):
    def check():
        files = {}
        for name in ("uber", "speeding"):
            path = tmp_path / f"{name}.vdse"
            path.write_text(scenario_text(name), encoding="utf-8")
            files[name] = str(path)
        commands = [
            ["validate", files["uber"]],
            ["validate", files["speeding"], "--json"],
            ["paths", files["speeding"], "--from", "driver", "--to", "insurer"],
            ["paths", files["uber"], "--from", "driver", "--to", "uber", "--json"],
            [
                "paths",
                files["uber"],
                "--from",
                "driver",
                "--to",
                "uber",
                "--mode",
                "lineage",
            ],
            ["exposure", files["speeding"], "--person", "driver"],
            ["exposure", files["uber"], "--person", "passenger1", "--json"],
            ["export", files["uber"], "--format", "dot", "--show-packages"],
            ["export", files["uber"], "--format", "json"],
            [
                "export",
                files["speeding"],
                "--format",
                "dot",
                "--highlight",
                "driver:insurer",
            ],
            ["schema"],
            ["schema", "--format", "dot"],
        ]
        for argv in commands:
            outputs = []
            for _ in range(2):
                stdout = io.StringIO()
                code = run(argv, stdout=stdout, stderr=io.StringIO())
                assert code == 0
                outputs.append(stdout.getvalue())
            assert outputs[0] == outputs[1]
            assert outputs[0]
        target = tmp_path / "out.dot"
        for _ in range(2):
            assert (
                run(
                    ["export", files["uber"], "--format", "dot", "-o", str(target)],
                    stdout=io.StringIO(),
                    stderr=io.StringIO(),
                )
                == 0
            )
            outputs.append(target.read_bytes())
        assert outputs[-1] == outputs[-2]

    _criterion(8, check)
