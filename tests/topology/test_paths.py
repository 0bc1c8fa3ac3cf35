"""Unit tests for path algorithms, cross-checked against networkx."""

import networkx as nx
import pytest

from repro.topology import (
    NoPathError,
    PortGraph,
    TopologyError,
    is_reachable_without,
    random_connected,
    shortest_path,
)


@pytest.fixture
def diamond():
    #   A - B - D
    #    \- C -/   plus a pendant E off D
    g = PortGraph()
    for name, sid in (("A", 5), ("B", 7), ("C", 11), ("D", 13), ("E", 17)):
        g.add_node(name, switch_id=sid)
    g.add_link("A", "B")
    g.add_link("A", "C")
    g.add_link("B", "D")
    g.add_link("C", "D")
    g.add_link("D", "E")
    return g


def _to_nx(g: PortGraph) -> nx.Graph:
    nxg = nx.Graph()
    for link in g.links():
        nxg.add_edge(link.a, link.b)
    return nxg


class TestShortestPath:
    def test_trivial(self, diamond):
        assert shortest_path(diamond, "A", "A") == ["A"]

    def test_basic(self, diamond):
        path = shortest_path(diamond, "A", "D")
        assert path in (["A", "B", "D"], ["A", "C", "D"])

    def test_forbidden_link(self, diamond):
        path = shortest_path(diamond, "A", "D", forbidden_links=[("A", "B")])
        assert path == ["A", "C", "D"]

    def test_forbidden_node(self, diamond):
        path = shortest_path(diamond, "A", "D", forbidden_nodes=["B"])
        assert path == ["A", "C", "D"]

    def test_unreachable(self, diamond):
        with pytest.raises(NoPathError):
            shortest_path(
                diamond, "A", "E",
                forbidden_links=[("B", "D"), ("C", "D")],
            )

    def test_forbidden_link_in_either_order(self, diamond):
        # A reversed key names the same link: A-B must still be avoided.
        path = shortest_path(diamond, "A", "D", forbidden_links=[("B", "A")])
        assert path == ["A", "C", "D"]

    def test_forbidden_pair_that_is_no_link_is_refused(self, diamond):
        with pytest.raises(TopologyError, match="no link A-Z"):
            shortest_path(diamond, "A", "D", forbidden_links=[("A", "Z")])
        with pytest.raises(TopologyError, match="no link A-D"):
            shortest_path(diamond, "A", "D", forbidden_links=[("A", "D")])

    def test_unknown_endpoint_is_refused(self, diamond):
        for src, dst in (("A", "Z"), ("Z", "A")):
            with pytest.raises(TopologyError, match="unknown node"):
                shortest_path(diamond, src, dst)

    def test_matches_networkx_on_random_graphs(self):
        for seed in range(5):
            g = random_connected(12, extra_links=6, seed=seed, min_switch_id=29)
            nxg = _to_nx(g)
            names = g.node_names()
            src, dst = names[0], names[-1]
            ours = shortest_path(g, src, dst)
            assert len(ours) - 1 == nx.shortest_path_length(nxg, src, dst)


def _bridges(g: PortGraph):
    """Links whose single failure disconnects their endpoints."""
    return sorted(
        link.key for link in g.links()
        if not is_reachable_without(g, link.a, link.b, [link.key])
    )


class TestReachabilityAndBridges:
    def test_reachable_without(self, diamond):
        assert is_reachable_without(diamond, "A", "D", [("A", "B")])
        assert not is_reachable_without(
            diamond, "A", "E", [("D", "E")]
        )

    def test_reversed_keys_cut_the_same_links(self, diamond):
        assert not is_reachable_without(
            diamond, "A", "D", [("B", "A"), ("C", "A")]
        )
        assert not is_reachable_without(diamond, "A", "E", [("E", "D")])

    def test_pair_that_is_no_link_is_refused(self, diamond):
        with pytest.raises(TopologyError, match="no link A-Z"):
            is_reachable_without(diamond, "A", "D", [("A", "Z")])

    def test_bridges(self, diamond):
        assert _bridges(diamond) == [("D", "E")]

    def test_bridges_match_networkx(self):
        g = random_connected(15, extra_links=5, seed=7, min_switch_id=31)
        nxg = _to_nx(g)
        theirs = sorted(tuple(sorted(e)) for e in nx.bridges(nxg))
        assert _bridges(g) == theirs


class TestTieBreaking:
    """The canonical equal-cost rule: a node's predecessor is its
    smallest-named neighbour one hop closer to the source.  Locked here
    because the vectorized bulk provisioner reproduces it from the other
    end of the path (see repro.topology.csr)."""

    def _square(self, link_order):
        # S - B - T and S - C - T: two equal-cost paths to T.
        g = PortGraph()
        for name, sid in (("S", 5), ("B", 7), ("C", 11), ("T", 13)):
            g.add_node(name, switch_id=sid)
        for a, b in link_order:
            g.add_link(a, b)
        return g

    def test_equal_cost_prefers_smallest_named_predecessor(self):
        g = self._square([("S", "B"), ("S", "C"), ("B", "T"), ("C", "T")])
        assert shortest_path(g, "S", "T") == ["S", "B", "T"]

    def test_choice_is_insertion_order_independent(self):
        # Same graph, links wired in the opposite order: the canonical
        # rule must still pick B, not whichever was relaxed first.
        g = self._square([("C", "T"), ("B", "T"), ("S", "C"), ("S", "B")])
        assert shortest_path(g, "S", "T") == ["S", "B", "T"]

    def test_every_equal_cost_hop_uses_smallest_parent(self):
        # On random unit-weight graphs the rule degenerates to: each
        # path node's predecessor is the smallest-named neighbor one
        # hop closer to the source.
        for seed in range(6):
            g = random_connected(9, extra_links=5, seed=seed,
                                 min_switch_id=53)
            names = sorted(g.node_names())
            src, dst = names[0], names[-1]
            path = shortest_path(g, src, dst)
            dist = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for cur in frontier:
                    for nb in g.neighbors(cur):
                        if nb not in dist:
                            dist[nb] = dist[cur] + 1
                            nxt.append(nb)
                frontier = nxt
            for prev_node, node in zip(path, path[1:]):
                candidates = [nb for nb in g.neighbors(node)
                              if dist[nb] == dist[node] - 1]
                assert prev_node == min(candidates)
