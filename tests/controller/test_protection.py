"""Tests for driven-deflection protection planning."""

import pytest

from repro.controller import ProtectionPlanner, segments_to_hops
from repro.rns import bit_length_for_switches
from repro.topology import (
    FULL,
    PARTIAL,
    NodeKind,
    ProtectionSegment,
    fifteen_node,
    shortest_path,
    six_node,
)


@pytest.fixture(scope="module")
def fifteen():
    return fifteen_node()


class TestSegmentsToHops:
    def test_paper_sw5_segment(self):
        scn = six_node()
        (hop,) = segments_to_hops(scn.graph, [ProtectionSegment("SW5", "SW11")])
        assert (hop.switch_id, hop.port) == (5, 0)

    def test_uses_topology_ports(self, fifteen):
        hops = segments_to_hops(fifteen.graph, fifteen.segments(PARTIAL))
        by_id = {h.switch_id: h.port for h in hops}
        g = fifteen.graph
        assert by_id[11] == g.port_of("SW11", "SW23")
        assert by_id[23] == g.port_of("SW23", "SW29")
        assert by_id[31] == g.port_of("SW31", "SW29")


class TestPlannerCandidates:
    def test_candidates_are_offroute_core_neighbors(self, fifteen):
        planner = ProtectionPlanner(fifteen.graph)
        cands = planner.deflection_candidates(fifteen.primary_route)
        assert set(cands) == {"SW11", "SW17", "SW37", "SW9", "SW23",
                              "SW31", "SW19", "SW41"}
        # No duplicates, no on-route switches.
        assert len(cands) == len(set(cands))
        assert not set(cands) & set(fifteen.primary_route)


class TestFullPlan:
    def test_full_covers_all_coverable_candidates(self, fifteen):
        planner = ProtectionPlanner(fifteen.graph)
        plan = planner.full(fifteen.primary_route)
        # SW9's only neighbours are route switches: it cannot be chained
        # to the destination and stays uncovered (NIP's forced degree-2
        # rejoin handles it instead — see the coverage analysis tests).
        assert plan.uncovered == ("SW9",)
        assert set(plan.covered) | {"SW9"} == set(
            planner.deflection_candidates(fifteen.primary_route)
        )

    def test_full_chains_terminate_at_destination(self, fifteen):
        planner = ProtectionPlanner(fifteen.graph)
        plan = planner.full(fifteen.primary_route)
        seg_map = {s.at: s.to for s in plan.segments}
        for start in seg_map:
            cur = start
            while cur in seg_map:
                cur = seg_map[cur]
            assert cur == fifteen.primary_route[-1]

    def test_full_plan_segments_form_tree(self, fifteen):
        planner = ProtectionPlanner(fifteen.graph)
        plan = planner.full(fifteen.primary_route)
        seg_map = {s.at: s.to for s in plan.segments}
        on_route = set(fifteen.primary_route)
        for start in seg_map:
            cur, seen = start, {start}
            while cur in seg_map:
                cur = seg_map[cur]
                assert cur not in seen, "protection loop"
                seen.add(cur)
            assert cur in on_route

    def test_one_residue_per_switch(self, fifteen):
        planner = ProtectionPlanner(fifteen.graph)
        plan = planner.full(fifteen.primary_route)
        ats = [s.at for s in plan.segments]
        assert len(ats) == len(set(ats))

    def test_bit_length_reported(self, fifteen):
        planner = ProtectionPlanner(fifteen.graph)
        plan = planner.full(fifteen.primary_route)
        ids = [fifteen.graph.switch_id(sw) for sw in fifteen.primary_route]
        ids += [fifteen.graph.switch_id(s.at) for s in plan.segments]
        assert plan.bit_length == bit_length_for_switches(ids)


class TestCanonicalChains:
    """Every chain step follows the canonical tree rule: the
    smallest-named off-route core neighbour one hop closer to the
    destination switch."""

    def _off_route_depth(self, graph, route):
        # Hop counts to the destination through off-route core switches,
        # by a plain BFS (any expansion order gives the same depths).
        on_route = set(route)
        depth = {route[-1]: 0}
        frontier = [route[-1]]
        while frontier:
            nxt = []
            for cur in frontier:
                for nb in graph.core_subgraph_neighbors(cur):
                    if nb not in depth and nb not in on_route:
                        depth[nb] = depth[cur] + 1
                        nxt.append(nb)
            frontier = nxt
        return depth

    def _assert_canonical(self, graph, route):
        depth = self._off_route_depth(graph, route)
        for seg in ProtectionPlanner(graph).full(route).segments:
            closer = [
                nb for nb in graph.core_subgraph_neighbors(seg.at)
                if depth.get(nb) == depth[seg.at] - 1
            ]
            assert seg.to == min(closer), (route, seg)

    def test_unsorted_frontier_case(self, fifteen):
        # SW7 chains via SW11 (depth 3), not SW13-SW31-SW43.
        route = ["SW10", "SW17", "SW53"]
        self._assert_canonical(fifteen.graph, route)
        plan = ProtectionPlanner(fifteen.graph).full(route)
        assert ProtectionSegment("SW7", "SW11") in plan.segments
        assert plan.bit_length == 46

    def test_paper_route_keeps_its_plan(self, fifteen):
        plan = ProtectionPlanner(fifteen.graph).full(fifteen.primary_route)
        assert plan.bit_length == 47

    def test_every_core_route(self, fifteen):
        graph = fifteen.graph
        core = sorted(graph.node_names(NodeKind.CORE))
        for src in core:
            for dst in core:
                if src != dst:
                    route = shortest_path(graph, src, dst)
                    self._assert_canonical(graph, route)


class TestPartialPlan:
    def test_budget_respected(self, fifteen):
        planner = ProtectionPlanner(fifteen.graph)
        for budget in (15, 20, 28, 43, 64):
            plan = planner.partial(fifteen.primary_route, budget_bits=budget)
            assert plan.bit_length <= budget

    def test_tiny_budget_covers_nothing(self, fifteen):
        planner = ProtectionPlanner(fifteen.graph)
        plan = planner.partial(fifteen.primary_route, budget_bits=15)
        assert plan.segments == ()
        assert set(plan.uncovered) == set(
            planner.deflection_candidates(fifteen.primary_route)
        )

    def test_larger_budget_covers_more(self, fifteen):
        planner = ProtectionPlanner(fifteen.graph)
        small = planner.partial(fifteen.primary_route, budget_bits=22)
        large = planner.partial(fifteen.primary_route, budget_bits=50)
        assert len(large.covered) >= len(small.covered)

    def test_huge_budget_equals_full(self, fifteen):
        planner = ProtectionPlanner(fifteen.graph)
        assert set(planner.partial(fifteen.primary_route, 10_000).segments) == set(
            planner.full(fifteen.primary_route).segments
        )

    def test_bad_budget(self, fifteen):
        with pytest.raises(ValueError):
            ProtectionPlanner(fifteen.graph).partial(fifteen.primary_route, 0)

    def test_empty_route_rejected(self, fifteen):
        with pytest.raises(ValueError):
            ProtectionPlanner(fifteen.graph).full([])
