"""Tests for random-topology generators, incl. hypothesis properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rns import pairwise_coprime
from repro.topology import (
    NodeKind,
    attach_host_pair,
    clique,
    random_connected,
    torus,
)


class TestRandomConnected:
    def test_deterministic(self):
        a = random_connected(10, extra_links=4, seed=42)
        b = random_connected(10, extra_links=4, seed=42)
        assert [l.key for l in a.links()] == [l.key for l in b.links()]
        assert a.switch_ids() == b.switch_ids()

    def test_different_seeds_differ(self):
        a = random_connected(10, extra_links=4, seed=1)
        b = random_connected(10, extra_links=4, seed=2)
        assert [l.key for l in a.links()] != [l.key for l in b.links()]

    def test_connected_and_coprime(self):
        g = random_connected(20, extra_links=10, seed=0, min_switch_id=31)
        assert g.is_connected()
        assert pairwise_coprime(g.switch_ids().values())

    def test_too_few_switches(self):
        with pytest.raises(ValueError):
            random_connected(1)

    def test_greedy_strategy(self):
        g = random_connected(8, seed=0, id_strategy="greedy", min_switch_id=9)
        assert pairwise_coprime(g.switch_ids().values())

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            random_connected(5, id_strategy="magic")

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(2, 25),
        extra=st.integers(0, 15),
        seed=st.integers(0, 1000),
    )
    def test_property_connected_valid(self, n, extra, seed):
        g = random_connected(n, extra_links=extra, seed=seed, min_switch_id=101)
        assert g.is_connected()
        assert pairwise_coprime(g.switch_ids().values())
        for node in g.nodes(NodeKind.CORE):
            assert node.switch_id > node.degree


class TestClique:
    def test_complete_and_valid(self):
        g = clique(6)
        g.validate()
        assert g.is_connected()
        for node in g.nodes(NodeKind.CORE):
            assert g.degree(node.name) == 5
        assert len(g.links()) == 15
        assert pairwise_coprime(g.switch_ids().values())

    def test_ids_leave_room_for_host_stacks(self):
        # Degree < ID must survive one attach_host_pair on any switch.
        g = clique(12)
        attach_host_pair(g, "SW0", "SW11")
        g.validate()

    def test_deterministic(self):
        assert clique(5).switch_ids() == clique(5).switch_ids()

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 3"):
            clique(2)


class TestTorus:
    def test_regular_degree_four(self):
        g = torus(3, 4)
        g.validate()
        assert g.is_connected()
        for node in g.nodes(NodeKind.CORE):
            assert g.degree(node.name) == 4
        # rows*cols nodes, 2 links each (right + down with wrap).
        assert len(g.node_names()) == 12
        assert len(g.links()) == 24
        assert pairwise_coprime(g.switch_ids().values())

    def test_grid_names_and_wraparound(self):
        g = torus(3, 3)
        assert "SW2-2" in g.node_names()
        # Wrap links exist in both dimensions.
        assert g.port_of("SW0-0", "SW0-2") is not None
        assert g.port_of("SW0-0", "SW2-0") is not None

    @pytest.mark.parametrize("rows,cols", [(2, 3), (3, 2), (2, 2)])
    def test_too_small(self, rows, cols):
        with pytest.raises(ValueError, match=">= 3"):
            torus(rows, cols)


class TestAttachHostPair:
    def test_stacks_created(self):
        g = random_connected(6, seed=0, min_switch_id=13)
        names = g.node_names()
        src, dst = attach_host_pair(g, names[0], names[1])
        assert src == "H-SRC" and dst == "H-DST"
        assert g.edge_of_host("H-SRC") == "E-SRC"
        g.validate()
