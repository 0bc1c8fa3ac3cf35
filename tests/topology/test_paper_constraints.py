"""Assert every textual constraint the paper pins on the reconstructed
topologies (DESIGN.md §5).  If any of these fail, the reconstruction has
drifted from the paper and the experiment results are meaningless.
"""

import math

import pytest

from repro.rns import bit_length_for_switches, pairwise_coprime
from repro.topology import (
    FULL,
    PARTIAL,
    UNPROTECTED,
    NodeKind,
    fifteen_node,
    is_reachable_without,
    redundant_path,
    rnp28,
    shortest_path,
    six_node,
)


# ---------------------------------------------------------------------------
# Fig. 1 — six-node example
# ---------------------------------------------------------------------------

class TestSixNode:
    @pytest.fixture(scope="class")
    def scn(self):
        return six_node()

    def test_switch_ids(self, scn):
        assert sorted(scn.graph.switch_ids().values()) == [4, 5, 7, 11]

    def test_paper_port_numbering(self, scn):
        g = scn.graph
        assert g.port_of("SW4", "SW7") == 0
        assert g.port_of("SW7", "SW4") == 0
        assert g.port_of("SW7", "SW5") == 1
        assert g.port_of("SW7", "SW11") == 2
        assert g.port_of("SW11", "E-D") == 0
        assert g.port_of("SW5", "SW11") == 0

    def test_route_and_failure(self, scn):
        assert scn.primary_route == ("SW4", "SW7", "SW11")
        assert scn.failure_links == (("SW7", "SW11"),)

    def test_protection_segment(self, scn):
        (seg,) = scn.segments(FULL)
        assert (seg.at, seg.to) == ("SW5", "SW11")

    def test_validates(self, scn):
        scn.graph.validate()


# ---------------------------------------------------------------------------
# Fig. 2 — 15-node network (Section 3.1, Table 1)
# ---------------------------------------------------------------------------

class TestFifteenNode:
    @pytest.fixture(scope="class")
    def scn(self):
        return fifteen_node()

    def test_fifteen_core_switches(self, scn):
        assert len(scn.graph.nodes(NodeKind.CORE)) == 15

    def test_ids_pairwise_coprime(self, scn):
        assert pairwise_coprime(scn.graph.switch_ids().values())

    def test_primary_route(self, scn):
        assert scn.primary_route == ("SW10", "SW7", "SW13", "SW29")

    def test_primary_route_is_a_path(self, scn):
        for a, b in zip(scn.primary_route, scn.primary_route[1:]):
            assert scn.graph.has_link(a, b)

    def test_primary_route_is_shortest(self, scn):
        # The controller picked a shortest path (3 core hops SW10->SW29).
        sp = shortest_path(scn.graph, "SW10", "SW29")
        assert len(sp) == len(scn.primary_route)

    def test_table1_unprotected_bits(self, scn):
        ids = scn.route_switch_ids()
        assert len(ids) == 4
        assert bit_length_for_switches(ids) == 15

    def test_table1_partial_bits(self, scn):
        ids = scn.route_switch_ids() + [
            scn.graph.switch_id(seg.at) for seg in scn.segments(PARTIAL)
        ]
        assert len(ids) == 7
        assert bit_length_for_switches(ids) == 28

    def test_table1_full_bits(self, scn):
        ids = scn.route_switch_ids() + [
            scn.graph.switch_id(seg.at) for seg in scn.segments(FULL)
        ]
        assert len(ids) == 10
        assert bit_length_for_switches(ids) == 43

    def test_protection_segments_are_links(self, scn):
        for level in (PARTIAL, FULL):
            for seg in scn.segments(level):
                assert scn.graph.has_link(seg.at, seg.to), (level, seg)

    def test_sw10_deflection_candidates(self, scn):
        # On SW10-SW7 failure, NIP excludes the (edge) input port and the
        # failed port: candidates must be exactly {SW11, SW17, SW37}.
        g = scn.graph
        neighbors = set(g.neighbors("SW10"))
        core = {n for n in neighbors if g.node(n).kind == NodeKind.CORE}
        assert core == {"SW7", "SW11", "SW17", "SW37"}
        candidates = core - {"SW7"}
        partial_at = {seg.at for seg in scn.segments(PARTIAL)}
        full_at = {seg.at for seg in scn.segments(FULL)}
        # Paper: exactly 1 of 3 covered by partial ("2/3 of packets ...
        # sent to switches SW17 or SW37"), all 3 by full.
        assert candidates & partial_at == {"SW11"}
        assert candidates <= full_at | {"SW11"}

    def test_partial_protection_forms_tree_to_destination(self, scn):
        # Following the segments from any protected switch must reach the
        # egress switch SW29 without repeating a node.
        seg_map = {s.at: s.to for s in scn.segments(PARTIAL)}
        for start in seg_map:
            seen, cur = {start}, start
            while cur in seg_map:
                cur = seg_map[cur]
                assert cur not in seen, f"protection loop at {cur}"
                seen.add(cur)
            assert cur == "SW29" or cur in scn.primary_route

    def test_full_protection_forms_tree_to_destination(self, scn):
        seg_map = {s.at: s.to for s in scn.segments(FULL)}
        for start in seg_map:
            seen, cur = {start}, start
            while cur in seg_map:
                cur = seg_map[cur]
                assert cur not in seen
                seen.add(cur)
            assert cur == "SW29" or cur in scn.primary_route

    def test_failure_links_not_bridges(self, scn):
        for a, b in scn.failure_links:
            key = (a, b) if a <= b else (b, a)
            assert is_reachable_without(scn.graph, a, b, [key])

    def test_validates(self, scn):
        scn.graph.validate()

    def test_hosts(self, scn):
        assert scn.src_host == "H-AS1"
        assert scn.graph.edge_of_host("H-AS1") == "E-AS1"
        assert scn.graph.edge_of_host("H-AS3") == "E-AS3"


# ---------------------------------------------------------------------------
# Fig. 6 — RNP backbone (Section 3.2)
# ---------------------------------------------------------------------------

class TestRnp28:
    @pytest.fixture(scope="class")
    def scn(self):
        return rnp28()

    def test_28_pops_40_links(self, scn):
        assert len(scn.graph.nodes(NodeKind.CORE)) == 28
        core_links = [
            l for l in scn.graph.links()
            if scn.graph.node(l.a).kind == NodeKind.CORE
            and scn.graph.node(l.b).kind == NodeKind.CORE
        ]
        assert len(core_links) == 40

    def test_ids_pairwise_coprime(self, scn):
        ids = list(scn.graph.switch_ids().values())
        assert len(ids) == 28
        assert pairwise_coprime(ids)

    def test_route_boa_vista_to_sao_paulo(self, scn):
        assert scn.primary_route == ("SW7", "SW13", "SW41", "SW73")
        for a, b in zip(scn.primary_route, scn.primary_route[1:]):
            assert scn.graph.has_link(a, b)

    def test_protection_segments_exact(self, scn):
        segs = {(s.at, s.to) for s in scn.segments(PARTIAL)}
        assert segs == {
            ("SW17", "SW71"),
            ("SW61", "SW67"),
            ("SW67", "SW71"),
            ("SW71", "SW73"),
        }
        for s in scn.segments(PARTIAL):
            assert scn.graph.has_link(s.at, s.to)

    def test_sw7_single_alternative(self, scn):
        # "the only alternative path is to SW11 and, then, to SW17"
        g = scn.graph
        core = set(g.core_subgraph_neighbors("SW7"))
        assert core == {"SW13", "SW11"}
        assert set(g.core_subgraph_neighbors("SW11")) == {"SW7", "SW17"}

    def test_sw13_five_candidates(self, scn):
        # SW13-SW41 failure: candidates exactly {SW29,SW17,SW47,SW37,SW71}.
        core = set(scn.graph.core_subgraph_neighbors("SW13"))
        assert core == {"SW7", "SW41", "SW29", "SW17", "SW47", "SW37", "SW71"}
        candidates = core - {"SW7", "SW41"}  # input and failed
        assert candidates == {"SW29", "SW17", "SW47", "SW37", "SW71"}

    def test_sw41_two_candidates(self, scn):
        core = set(scn.graph.core_subgraph_neighbors("SW41"))
        assert core == {"SW13", "SW73", "SW17", "SW61"}
        assert core - {"SW13", "SW73"} == {"SW17", "SW61"}

    def test_heterogeneous_rates(self, scn):
        thin = scn.graph.link("SW7", "SW13").rate_mbps
        fat = scn.graph.link("SW41", "SW73").rate_mbps
        assert thin == pytest.approx(fat / 2)

    def test_uniform_rate_option(self):
        scn = rnp28(heterogeneous_rates=False)
        rates = {l.rate_mbps for l in scn.graph.links()}
        assert len(rates) == 1

    def test_failure_links_not_bridges(self, scn):
        for a, b in scn.failure_links:
            key = (a, b) if a <= b else (b, a)
            assert is_reachable_without(scn.graph, a, b, [key])

    def test_validates(self, scn):
        scn.graph.validate()


# ---------------------------------------------------------------------------
# Fig. 8 — redundant-path worst case
# ---------------------------------------------------------------------------

class TestRedundantPath:
    @pytest.fixture(scope="class")
    def scn(self):
        return redundant_path()

    def test_route(self, scn):
        assert scn.primary_route == ("SW41", "SW73", "SW107", "SW113")

    def test_coin_flip_candidates_at_sw73(self, scn):
        core = set(scn.graph.core_subgraph_neighbors("SW73"))
        assert core == {"SW41", "SW107", "SW109", "SW71"}
        # failure SW73-SW107, input SW41 -> candidates {SW109, SW71}.
        assert core - {"SW41", "SW107"} == {"SW109", "SW71"}

    def test_protection_loop(self, scn):
        segs = {(s.at, s.to) for s in scn.segments(PARTIAL)}
        assert segs == {("SW71", "SW17"), ("SW17", "SW41")}
        # The loop closes through the primary route's SW41->SW73 hop.
        assert scn.graph.has_link("SW41", "SW73")

    def test_redundant_branch_delivers(self, scn):
        # SW109's only non-SW73 neighbor is the destination switch.
        assert set(scn.graph.core_subgraph_neighbors("SW109")) == {
            "SW73", "SW113",
        }

    def test_validates(self, scn):
        scn.graph.validate()
