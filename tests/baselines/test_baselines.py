"""Tests for the executable baselines and the Table 2 matrix."""

import itertools

import pytest

from repro.analysis.walk import _NoRandomness
from repro.baselines.arborescence import (
    ArborescenceFailoverStrategy,
    ArborescencePlan,
)
from repro.baselines.fastfailover import (
    FastFailoverStrategy,
    plan_backup_ports,
    plan_destination_tree,
)
from repro.baselines.feature_matrix import TABLE2_ROWS, render_table2
from repro.topology import (
    NodeKind,
    attach_host_pair,
    fifteen_node,
    is_reachable_without,
    shortest_path,
    torus,
)
from repro.topology.graph import PortGraph


class TestFeatureMatrix:
    def test_nine_rows_ending_with_kar(self):
        # The paper's 8 rows plus our Arborescence Failover addition.
        assert len(TABLE2_ROWS) == 9
        assert TABLE2_ROWS[-1].system == "KAR"

    def test_kar_cell_values(self):
        kar = TABLE2_ROWS[-1]
        assert kar.cells() == ("KAR", "Yes", "Yes", "Stateless", "Yes")

    def test_arborescence_row_is_stateful_and_static(self):
        row = next(
            r for r in TABLE2_ROWS if r.system == "Arborescence Failover"
        )
        assert not row.stateless_core
        assert not row.dynamic_failures

    def test_precomputed_failover_rows_are_static(self):
        # The dynamic-failures column's defining claim: schemes whose
        # resilience is proven against a static failure set don't
        # survive fail+recover churn.
        for system in ("OpenFlow Fast Failover", "Arborescence Failover",
                       "MPLS Fast Reroute"):
            row = next(r for r in TABLE2_ROWS if r.system == system)
            assert not row.dynamic_failures, system

    def test_render_contains_header_and_all_systems(self):
        text = render_table2()
        assert "Support multiple link failures" in text
        assert "Dynamic failures" in text
        for row in TABLE2_ROWS:
            assert row.system in text


class TestFastFailoverStrategy:
    def test_primary_used_when_up(self):
        strat = FastFailoverStrategy({1: 2})
        assert strat.decide((0, 1, 2), 0, 1, False, None) == (1, False)

    def test_backup_used_when_primary_down(self):
        strat = FastFailoverStrategy({1: 2})
        assert strat.decide((0, 2), 0, 1, False, None) == (2, True)

    def test_drop_when_backup_down_too(self):
        strat = FastFailoverStrategy({1: 2})
        assert strat.decide((0,), 0, 1, False, None) == (None, False)

    def test_drop_without_backup(self):
        strat = FastFailoverStrategy({})
        assert strat.decide((0, 2), 0, 1, False, None) == (None, False)


class TestBaselinesNeverDraw:
    """Both baselines are table lookups: the graph-walk oracle models
    them without a random stream, so ``decide`` must not touch one."""

    @pytest.mark.parametrize("strategy", [
        FastFailoverStrategy({0: 1, 1: 2, 2: 0}, default_port=3),
        ArborescenceFailoverStrategy(
            ArborescencePlan((1, None, 2, 0), {0: 1, 3: 2})
        ),
    ], ids=["ff", "arb"])
    def test_decide_never_touches_the_rng(self, strategy):
        ports = range(4)
        for r in range(5):
            for healthy in itertools.combinations(ports, r):
                for in_port in ports:
                    for computed in range(6):
                        port, _ = strategy.decide(
                            healthy, in_port, computed, False, _NoRandomness()
                        )
                        assert port is None or port in healthy


class TestPlanBackupPorts:
    def test_plans_for_each_route_switch(self):
        scn = fifteen_node()
        plans = plan_backup_ports(
            scn.graph, scn.primary_route,
            scn.graph.edge_of_host(scn.dst_host),
        )
        # Every route switch with an alternative path gets a backup.
        # (The egress switch SW29 has none: its link to the edge is the
        # only way to reach the destination.)
        for sw in scn.primary_route[:-1]:
            assert sw in plans, sw
            for primary, backup in plans[sw].items():
                assert primary != backup
                assert backup < scn.graph.degree(sw)
        assert scn.primary_route[-1] not in plans

    def test_backup_avoids_failed_next_hop(self):
        scn = fifteen_node()
        plans = plan_backup_ports(
            scn.graph, scn.primary_route,
            scn.graph.edge_of_host(scn.dst_host),
        )
        g = scn.graph
        primary_port = g.port_of("SW7", "SW13")
        backup_port = plans["SW7"][primary_port]
        assert g.neighbor_on_port("SW7", backup_port) != "SW13"


def _barbell():
    """Two triangles joined by a single bridge link C-D."""
    g = PortGraph()
    for name, sid in (("A", 5), ("B", 7), ("C", 11),
                      ("D", 13), ("E", 17), ("F", 19)):
        g.add_node(name, kind=NodeKind.CORE, switch_id=sid)
    for a, b in (("A", "B"), ("B", "C"), ("A", "C"),
                 ("D", "E"), ("E", "F"), ("D", "F"), ("C", "D")):
        g.add_link(a, b, rate_mbps=10.0, delay_s=0.001)
    attach_host_pair(g, "A", "F")
    return g


class TestFailoverPlanningTopologies:
    def test_bridge_switch_gets_no_backup(self):
        g = _barbell()
        assert not is_reachable_without(g, "C", "D", [("C", "D")])
        route = ["A", "C", "D", "F"]
        plans = plan_backup_ports(g, route, "E-DST")
        # C's primary next hop crosses the bridge; with that link
        # forbidden the destination is unreachable, so C gets no entry.
        assert "C" not in plans
        # Switches inside a triangle have a detour and do get one.
        assert g.port_of("A", "C") in plans["A"]
        assert g.port_of("D", "F") in plans["D"]

    def test_disconnected_switch_absent_from_destination_tree(self):
        g = _barbell()
        g.add_node("Z", kind=NodeKind.CORE, switch_id=23)
        table = plan_destination_tree(g, "E-DST")
        assert "Z" not in table
        assert set(table) == {"A", "B", "C", "D", "E", "F"}

    def test_destination_tree_next_hops_approach_destination(self):
        g = _barbell()
        table = plan_destination_tree(g, "E-DST")
        # Every switch's next hop strictly approaches the destination
        # (the egress switch F points straight at the edge).
        for name, port in table.items():
            nxt = g.neighbor_on_port(name, port)
            here = len(shortest_path(g, name, "E-DST"))
            there = len(shortest_path(g, nxt, "E-DST"))
            assert there == here - 1, (name, nxt)

    def test_torus_destination_tree_covers_every_switch(self):
        g = torus(3, 3)
        attach_host_pair(g, "SW0-0", "SW1-1")
        table = plan_destination_tree(g, "E-DST")
        cores = {n.name for n in g.nodes(NodeKind.CORE)}
        # 4-edge-connected: every switch gets a next hop.
        assert set(table) == cores

    def test_torus_backups_avoid_the_protected_next_hop(self):
        g = torus(3, 3)
        attach_host_pair(g, "SW0-0", "SW1-1")
        route = shortest_path(g, "SW0-0", "SW1-1")
        plans = plan_backup_ports(g, route, "E-DST")
        # The egress switch's link to its edge has no detour; every
        # other route switch is protected.
        assert set(plans) == set(route[:-1])
        for current, nxt in zip(route, route[1:]):
            backup = plans[current][g.port_of(current, nxt)]
            assert g.neighbor_on_port(current, backup) != nxt
