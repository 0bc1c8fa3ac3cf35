"""Tests for the batch provisioning engine (destination trees + pool)."""

import pytest

from repro.controller import (
    DestinationTree,
    ProvisioningEngine,
    RoutingError,
    core_path_between_edges,
    hops_for_path,
)
from repro.rns import RouteEncoder, crt
from repro.topology import NodeKind, fifteen_node, six_node


@pytest.fixture(scope="module")
def six():
    return six_node().graph


@pytest.fixture(scope="module")
def fifteen():
    return fifteen_node().graph


def _edge_names(graph):
    return sorted(n.name for n in graph.nodes(NodeKind.EDGE))


def _provision_all(eng, pairs):
    return [eng.provision(src, dst) for src, dst in pairs]


class TestDestinationTree:
    def test_root_must_be_edge(self, six):
        with pytest.raises(RoutingError, match="not an edge node"):
            DestinationTree(six, "SW4", epoch=0)

    def test_depths_are_hop_minimal(self, six):
        tree = DestinationTree(six, "E-D", epoch=0)
        # Fig. 1: SW11 touches E-D, SW5/SW7 sit behind it, SW4 behind SW7.
        assert tree.depth["SW11"] == 1
        assert tree.depth["SW5"] == 2
        assert tree.depth["SW7"] == 2
        assert tree.depth["SW4"] == 3

    def test_branch_follows_parents_to_destination(self, six):
        tree = DestinationTree(six, "E-D", epoch=0)
        assert tree.branch("SW4") == ["SW4", "SW7", "SW11", "E-D"]

    def test_branch_unreachable_rejected(self, six):
        tree = DestinationTree(six, "E-D", epoch=0)
        with pytest.raises(RoutingError, match="cannot reach"):
            tree.branch("NOPE")


class TestProvision:
    def test_paper_route_id_44(self, six):
        eng = ProvisioningEngine(six)
        p = eng.provision("E-S", "E-D")
        assert p.node_path == ("E-S", "SW4", "SW7", "SW11", "E-D")
        assert (p.route.route_id, p.route.modulus) == (44, 308)
        assert p.out_port == six.port_of("E-S", "SW4")

    def test_route_bit_identical_to_reference(self, six):
        eng = ProvisioningEngine(six)
        p = eng.provision("E-S", "E-D")
        hops = hops_for_path(six, list(p.node_path))
        ref = crt([h.port for h in hops], [h.switch_id for h in hops])
        assert (p.route.route_id, p.route.modulus) == ref
        assert p.route == RouteEncoder().encode(hops)

    def test_path_length_matches_per_flow_controller(self, fifteen):
        # The engine may tie-break differently from source-rooted
        # Dijkstra, but never at the cost of a longer path.
        eng = ProvisioningEngine(fifteen)
        edges = _edge_names(fifteen)
        for src in edges:
            for dst in edges:
                if src == dst:
                    continue
                p = eng.provision(src, dst)
                ref = core_path_between_edges(fifteen, src, dst)
                assert len(p.node_path) == len(ref)
                hops = hops_for_path(fifteen, list(p.node_path))
                assert p.route == RouteEncoder().encode(hops)

    def test_same_edge_rejected(self, six):
        eng = ProvisioningEngine(six)
        with pytest.raises(RoutingError, match="share the edge"):
            eng.provision("E-S", "E-S")

    def test_non_edge_source_rejected(self, six):
        eng = ProvisioningEngine(six)
        with pytest.raises(RoutingError, match="not an edge node"):
            eng.provision("SW4", "E-D")

    def test_ingress_entry_mirrors_route(self, six):
        eng = ProvisioningEngine(six, default_ttl=32)
        p = eng.provision("E-S", "E-D")
        entry = p.ingress_entry(ttl=32)
        assert entry.route_id == p.route.route_id
        assert entry.modulus == p.route.modulus
        assert entry.out_port == p.out_port
        assert entry.ttl == 32
        assert entry.residues == p.route.residue_map()


class TestAmortization:
    def test_batch_shares_destination_trees(self, fifteen):
        eng = ProvisioningEngine(fifteen)
        edges = _edge_names(fifteen)
        dst = edges[0]
        pairs = [(src, dst) for src in edges if src != dst] * 3
        _provision_all(eng, pairs)
        assert eng.trees_built == 1
        assert eng.tree_hits == len(pairs) - 1

    def test_batch_keeps_order_and_duplicates(self, fifteen):
        edges = _edge_names(fifteen)
        dst = edges[0]
        pairs = [(s, dst) for s in edges[1:]]
        pairs = pairs + pairs[:3]  # duplicates
        eng = ProvisioningEngine(fifteen)
        got = _provision_all(eng, pairs)
        assert [(p.src_edge, p.dst_edge) for p in got] == pairs
        assert eng.provisions == len(pairs)


class TestInvalidation:
    def test_stats_stay_cumulative_across_rebuilds(self, six):
        # A link invalidation rebuilds trees and nothing else: the
        # encoder and every counter survive it.
        eng = ProvisioningEngine(six)
        p = eng.provision("E-S", "E-D")
        eng.reroute_hop(p.route, "SW7", "SW5")
        eng.reroute_hop(p.route, "SW7", "SW11")  # identity
        before = eng.stats()
        assert before["delta"] == {
            "applied": 1, "identity_skips": 1, "full_solves": 0,
        }
        encoder = eng.encoder
        eng.note_link_change()
        assert eng.encoder is encoder
        p = eng.provision("E-S", "E-D")
        assert (p.route.route_id, p.route.modulus) == (44, 308)
        after = eng.stats()
        assert after["trees"] == {"built": 2, "hits": 0}
        assert after["epochs"] == {"bumps": 1, "link_invalidations": 1}
        assert after["delta"] == before["delta"]
        # The retired pooled encoder's keys, still read by the service
        # benchmark, are constant zeros.
        assert after["encoder"] == {"fallback": 0}
        assert after["subsets"] == {"built": 0, "hits": 0}

    def test_pair_memo_dies_with_the_tree(self, six):
        eng = ProvisioningEngine(six)
        first = eng.provision("E-S", "E-D")
        assert eng.provision("E-S", "E-D") is first
        assert (eng.provisions, eng.tree_hits) == (2, 1)
        eng.set_link_down("SW7", "SW11")
        residual = eng.provision("E-S", "E-D")
        assert ("SW7", "SW11") not in zip(
            residual.node_path, residual.node_path[1:]
        )
        assert residual.route != first.route
        reference = ProvisioningEngine(six)
        reference.set_link_down("SW7", "SW11")
        assert residual == reference.provision("E-S", "E-D")

    def test_tree_records_its_epoch(self, six):
        eng = ProvisioningEngine(six)
        assert eng.destination_tree("E-D").epoch == 0
        eng.note_link_change()
        assert eng.destination_tree("E-D").epoch == 1


class TestRerouteHop:
    def test_reroute_is_bit_identical_to_fresh_encode(self, six):
        eng = ProvisioningEngine(six)
        p = eng.provision("E-S", "E-D")
        # Fig. 1 detour: SW7 exits toward SW5 (port 1) instead of SW11.
        updated = eng.reroute_hop(p.route, "SW7", "SW5")
        hops = [
            h if h.switch_id != 7 else type(h)(7, six.port_of("SW7", "SW5"))
            for h in p.route.hops
        ]
        assert updated == RouteEncoder().encode(hops)
        assert eng.encoder.deltas_applied == 1

    def test_reroute_rejects_non_link(self, six):
        eng = ProvisioningEngine(six)
        p = eng.provision("E-S", "E-D")
        with pytest.raises(RoutingError, match="not a link"):
            eng.reroute_hop(p.route, "SW4", "SW11")

    def test_reroute_rejects_unknown_node(self, six):
        eng = ProvisioningEngine(six)
        p = eng.provision("E-S", "E-D")
        with pytest.raises(RoutingError, match="unknown node"):
            eng.reroute_hop(p.route, "SW7", "SW4X")


class TestTreeMemoization:
    def test_batch_tree_builds_bounded_by_distinct_destinations(
        self, fifteen
    ):
        # Satellite invariant: however a batch mixes flows, the engine
        # never builds more trees than it has distinct destinations.
        eng = ProvisioningEngine(fifteen)
        edges = _edge_names(fifteen)
        pairs = [
            (s, d) for d in edges for s in edges if s != d
        ] * 4  # heavy repetition across two passes
        _provision_all(eng, pairs)
        _provision_all(eng, pairs)
        assert eng.trees_built <= len({d for _, d in pairs})
        assert eng.tree_hits == len(pairs) * 2 - eng.trees_built

    def test_epoch_bump_resets_the_bound_not_the_counter(self, fifteen):
        eng = ProvisioningEngine(fifteen)
        edges = _edge_names(fifteen)
        pairs = [(s, d) for d in edges for s in edges if s != d]
        _provision_all(eng, pairs)
        built_first = eng.trees_built
        eng.note_link_change()
        _provision_all(eng, pairs)
        distinct = len({d for _, d in pairs})
        assert built_first <= distinct
        assert eng.trees_built <= 2 * distinct  # cumulative across epochs
