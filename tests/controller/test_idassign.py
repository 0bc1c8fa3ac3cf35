"""Tests for switch-ID assignment."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.controller import AssignmentError, assign_switch_ids
from repro.controller.idassign import (
    ASSIGN_STRATEGIES,
    _min_id,
    _pool,
    route_frequency_weights,
)
from repro.rns import pairwise_coprime
from repro.topology import csr as csr_module
from repro.topology.csr import CsrTopology
from repro.topology.generators import attach_edges, random_connected
from repro.topology.graph import NodeKind, PortGraph
from repro.topology.zoo import graph_from_gml, zoo_fixture_path


class TestAssignment:
    def test_basic(self):
        ids = assign_switch_ids({"A": 2, "B": 3, "C": 4})
        assert pairwise_coprime(ids.values())
        for name, deg in (("A", 2), ("B", 3), ("C", 4)):
            assert ids[name] > deg - 1
            assert ids[name] >= 2

    def test_high_degree_gets_large_enough_id(self):
        ids = assign_switch_ids({"HUB": 20, "leaf1": 1, "leaf2": 1})
        assert ids["HUB"] >= 20

    def test_greedy_product_not_larger_than_prime(self):
        degrees = {f"n{i}": 3 for i in range(12)}
        greedy = math.prod(assign_switch_ids(degrees, "greedy").values())
        prime = math.prod(assign_switch_ids(degrees, "prime").values())
        assert greedy <= prime

    def test_greedy_product_not_larger_than_prime_on_random_topologies(self):
        for seed in range(5):
            g = random_connected(20, extra_links=10, seed=seed,
                                 min_switch_id=23)
            degrees = {n.name: n.degree for n in g.nodes()}
            greedy = math.prod(assign_switch_ids(degrees, "greedy").values())
            prime = math.prod(assign_switch_ids(degrees, "prime").values())
            assert greedy <= prime, seed

    def test_prime_strategy_all_prime(self):
        from repro.rns import is_prime

        ids = assign_switch_ids({f"n{i}": 2 for i in range(8)}, "prime")
        assert all(is_prime(v) for v in ids.values())

    def test_deterministic(self):
        degrees = {"A": 5, "B": 2, "C": 7}
        assert assign_switch_ids(degrees) == assign_switch_ids(degrees)

    def test_empty_rejected(self):
        with pytest.raises(AssignmentError):
            assign_switch_ids({})

    def test_negative_degree_rejected(self):
        with pytest.raises(AssignmentError):
            assign_switch_ids({"A": -1})

    def test_unknown_strategy(self):
        with pytest.raises(AssignmentError, match="unknown strategy"):
            assign_switch_ids({"A": 2}, "fibonacci")

    def test_large_network(self):
        degrees = {f"n{i}": (i % 7) + 1 for i in range(60)}
        ids = assign_switch_ids(degrees)
        assert len(set(ids.values())) == 60
        assert pairwise_coprime(ids.values())


class TestWeightedAssignment:
    def test_heaviest_switch_gets_smallest_feasible_id(self):
        degrees = {"hot": 2, "cold": 2}
        ids = assign_switch_ids(
            degrees, "weighted", weights={"hot": 100.0, "cold": 1.0}
        )
        assert ids["hot"] < ids["cold"]
        # Same pool, opposite pairing under swapped weights.
        swapped = assign_switch_ids(
            degrees, "weighted", weights={"hot": 1.0, "cold": 100.0}
        )
        assert swapped["cold"] < swapped["hot"]
        assert sorted(ids.values()) == sorted(swapped.values())

    def test_defaults_to_degree_weights(self):
        degrees = {"big": 6, "small": 2}
        assert assign_switch_ids(degrees, "weighted") == assign_switch_ids(
            degrees, "weighted", weights={"big": 6.0, "small": 2.0}
        )

    def test_still_respects_port_floor(self):
        # A heavy switch cannot take an ID below its port count.
        ids = assign_switch_ids(
            {"hub": 10, "leaf": 2}, "weighted",
            weights={"hub": 100.0, "leaf": 1.0},
        )
        assert ids["hub"] >= 10
        assert pairwise_coprime(ids.values())

    def test_weighted_never_costs_more_bits_than_greedy(self):
        from repro.rns.bitlength import route_id_bit_length

        degrees = {f"n{i}": (i % 5) + 2 for i in range(20)}
        weights = {f"n{i}": float(20 - i) for i in range(20)}
        greedy = assign_switch_ids(degrees, "greedy")
        weighted = assign_switch_ids(degrees, "weighted", weights=weights)
        # Weighted routes through the heaviest switches are cheaper.
        heavy = [f"n{i}" for i in range(6)]
        w_bits = route_id_bit_length(
            math.prod(weighted[n] for n in heavy)
        )
        g_bits = route_id_bit_length(math.prod(greedy[n] for n in heavy))
        assert w_bits <= g_bits


class TestXsrAssignment:
    def test_pool_is_dual_coprime(self):
        from repro.rns.gf2 import gf2_pairwise_coprime

        degrees = {f"n{i}": (i % 4) + 1 for i in range(16)}
        ids = assign_switch_ids(degrees, "xsr")
        assert pairwise_coprime(ids.values())
        assert gf2_pairwise_coprime(ids.values())

    def test_ids_cover_ports_in_both_rings(self):
        from repro.rns.gf2 import gf2_degree

        degrees = {f"n{i}": i + 1 for i in range(10)}
        ids = assign_switch_ids(degrees, "xsr")
        for name, ports in degrees.items():
            assert ids[name] >= ports
            assert (1 << gf2_degree(ids[name])) >= ports


def scan_assign(degrees, strategy, weights=None):
    """``assign_switch_ids`` as it picked before ``bisect_left``: a
    linear scan for the first pool value that fits, then ``remove``."""
    if weights is None and strategy in ("weighted", "xsr"):
        weights = {name: float(deg) for name, deg in degrees.items()}
    if weights is not None:
        order = sorted(
            degrees,
            key=lambda n: (-float(weights.get(n, 0.0)), degrees[n], n),
        )
    else:
        order = sorted(degrees, key=lambda n: (degrees[n], n))
    pool_size = len(degrees)
    while True:
        assignment = {}
        available = sorted(_pool(strategy, pool_size))
        for name in order:
            need = _min_id(strategy, degrees[name])
            pick = next((v for v in available if v >= need), None)
            if pick is None:
                break
            available.remove(pick)
            assignment[name] = pick
        else:
            return assignment
        pool_size += max(4, len(degrees) // 2)


class TestPickBySearch:
    @pytest.mark.parametrize("strategy", ASSIGN_STRATEGIES)
    @pytest.mark.parametrize("seed", range(6))
    def test_bisect_picks_what_the_scan_picked(self, strategy, seed):
        rng = random.Random(f"{strategy}:{seed}")
        names = [f"n{i}" for i in range(rng.randint(1, 40))]
        degrees = {n: rng.randint(0, 12) for n in names}
        weights = rng.choice([
            None,
            {n: float(rng.randint(0, 5)) for n in names if rng.random() < 0.8},
        ])
        assert assign_switch_ids(degrees, strategy, weights) == scan_assign(
            degrees, strategy, weights
        )


def queue_order_tree(graph, allowed, dst):
    """Rule Q: plain queue BFS over name-sorted neighbours — a node's
    parent is the earliest-*discovered* neighbour one level up."""
    parent = {dst: None}
    order = [dst]
    head = 0
    while head < len(order):
        cur = order[head]
        head += 1
        for nb in sorted(graph.neighbors(cur)):
            if nb in allowed and nb not in parent:
                parent[nb] = cur
                order.append(nb)
    return parent, order


def smallest_parent_tree(graph, allowed, dst):
    """Rule S: the frontier is re-sorted at every level, so a node's
    parent is the smallest-*named* neighbour one level up (the rule of
    ``DestinationTree`` and ``destination_tree_arrays``)."""
    parent = {dst: None}
    order = [dst]
    frontier = [dst]
    while frontier:
        nxt = []
        for cur in frontier:
            for nb in graph.neighbors(cur):
                if nb in allowed and nb not in parent:
                    parent[nb] = cur
                    nxt.append(nb)
        frontier = sorted(nxt)
        order.extend(frontier)
    return parent, order


def dict_loop_weights(graph, tree=queue_order_tree):
    """``route_frequency_weights`` as it was before the batched forest:
    one dict BFS per non-host node, subtree counts folded leaf to root.
    The oracle the array version is held bit-equal to."""
    names = sorted(n.name for n in graph.nodes() if n.kind != "host")
    allowed = set(names)
    weights = {n: 0.0 for n in names}
    for dst in names:
        parent, order = tree(graph, allowed, dst)
        counts = {n: 1 for n in order}
        for node in reversed(order[1:]):
            counts[parent[node]] += counts[node]
        for node, c in counts.items():
            weights[node] += float(c)
    return weights


@st.composite
def mixed_graphs(draw):
    """Up to nine nodes of any kind under shuffled names, any subset of
    the possible links: disconnected graphs, hosts lying on what would
    be the shortest path, edge nodes with several uplinks, one node."""
    n = draw(st.integers(min_value=1, max_value=9))
    names = draw(st.permutations("ABCDEFGHJ"))[:n]
    kinds = draw(st.lists(
        st.sampled_from(
            [NodeKind.CORE] * 3 + [NodeKind.EDGE] * 2 + [NodeKind.HOST]
        ),
        min_size=n, max_size=n,
    ))
    pairs = list(itertools.combinations(names, 2))
    links = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = PortGraph()
    for name, kind in zip(names, kinds):
        graph.add_node(name, kind=kind)
    for a, b in links:
        graph.add_link(a, b)
    return graph


def _same_weights(got, want):
    assert list(got) == list(want)  # same keys, same (sorted) order
    assert got == want
    assert all(type(v) is float for v in got.values())


@st.composite
def pendant_graphs(draw):
    """A drawn core with ``attach_edges`` on it, then what the pendant
    fold must get right: chains hung off any node (a pendant of a
    pendant), two-node components, hosts behind any node, and edge
    nodes with several uplinks."""
    size = draw(st.integers(min_value=1, max_value=6))
    cores = [f"C{i}" for i in range(size)]
    graph = PortGraph()
    for name in cores:
        graph.add_node(name)
    pairs = list(itertools.combinations(cores, 2))
    if pairs:
        for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)):
            graph.add_link(a, b)
    attach_edges(graph)
    kinds = st.sampled_from([NodeKind.CORE, NodeKind.EDGE])

    def non_hosts():
        return sorted(n.name for n in graph.nodes() if n.kind != "host")

    for i in range(draw(st.integers(min_value=0, max_value=3))):
        prev = draw(st.sampled_from(non_hosts()))
        for j in range(draw(st.integers(min_value=1, max_value=3))):
            graph.add_node(f"P{i}{j}", kind=draw(kinds))
            graph.add_link(prev, f"P{i}{j}")
            prev = f"P{i}{j}"
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        graph.add_node(f"T{i}a", kind=draw(kinds))
        graph.add_node(f"T{i}b", kind=draw(kinds))
        graph.add_link(f"T{i}a", f"T{i}b")
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        graph.add_node(f"H{i}", kind=NodeKind.HOST)
        graph.add_link(f"H{i}", draw(st.sampled_from(non_hosts())))
    if size >= 2:
        for i in range(draw(st.integers(min_value=0, max_value=2))):
            graph.add_node(f"U{i}", kind=NodeKind.EDGE)
            for core in draw(st.lists(st.sampled_from(cores), min_size=2,
                                      unique=True)):
                graph.add_link(f"U{i}", core)
    return graph


def _fixture_with_edges(fixture):
    with open(zoo_fixture_path(fixture), encoding="utf-8") as fh:
        graph = graph_from_gml(fh.read())
    attach_edges(graph)
    return graph


class TestRouteFrequencyWeights:
    @given(mixed_graphs())
    def test_equals_the_dict_loop_on_drawn_graphs(self, graph):
        _same_weights(route_frequency_weights(graph), dict_loop_weights(graph))

    @given(pendant_graphs())
    def test_equals_the_dict_loop_on_pendant_rich_graphs(self, graph):
        _same_weights(route_frequency_weights(graph), dict_loop_weights(graph))

    @pytest.mark.parametrize("fixture", ["abilene", "synthwan754"])
    def test_equals_the_dict_loop_on_the_fixtures(self, fixture):
        graph = _fixture_with_edges(fixture)
        _same_weights(route_frequency_weights(graph), dict_loop_weights(graph))

    def test_synthwan754_roots_only_its_inner_nodes(self, monkeypatch):
        # Every edge node is a pendant, so only the 754 cores root a
        # tree; a fall-back to one tree per non-host node would root
        # 1,508.
        graph = _fixture_with_edges("synthwan754")
        passes = []
        forest = csr_module.bfs_forest

        def recording(csr, roots, allowed):
            passes.append(list(roots))
            return forest(csr, roots, allowed)

        monkeypatch.setattr(csr_module, "bfs_forest", recording)
        weights = route_frequency_weights(graph)
        names = CsrTopology.from_graph(graph).names
        roots = [names[r] for batch in passes for r in batch]
        cores = sorted(n.name for n in graph.nodes(NodeKind.CORE))
        assert len(cores) == 754 and len(weights) == 1508
        assert roots == cores

    def test_hosts_neither_root_nor_forward(self):
        # A-H-B: the host is the only way from A to B.
        g = PortGraph()
        g.add_node("A", kind=NodeKind.EDGE)
        g.add_node("B", kind=NodeKind.EDGE)
        g.add_node("H", kind=NodeKind.HOST)
        g.add_link("A", "H")
        g.add_link("H", "B")
        assert route_frequency_weights(g) == {"A": 1.0, "B": 1.0}

    def test_disconnected_graph_counts_only_reached_nodes(self):
        g = PortGraph()
        for name in "ABCD":
            g.add_node(name)
        g.add_link("A", "B")
        g.add_link("B", "C")
        # D is alone: it is its own route and on nobody else's.
        assert route_frequency_weights(g) == {
            "A": 5.0, "B": 7.0, "C": 5.0, "D": 1.0,
        }

    def test_tie_break_rule_moves_the_trees_not_the_weights(self):
        # Every node is both a root and a source, so the two rules walk
        # the same shortest paths from opposite ends (see the docstring
        # of route_frequency_weights).
        cycle = "RAZVCB"
        g = PortGraph()
        for name in cycle:
            g.add_node(name)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            g.add_link(a, b)
        allowed = set(cycle)
        differing = [
            dst for dst in cycle
            if queue_order_tree(g, allowed, dst)[0]
            != smallest_parent_tree(g, allowed, dst)[0]
        ]
        assert len(differing) == 4
        by_queue = dict_loop_weights(g, queue_order_tree)
        by_name = dict_loop_weights(g, smallest_parent_tree)
        assert by_queue == by_name == route_frequency_weights(g)

    def test_path_graph_middle_is_heaviest(self):
        g = PortGraph()
        for n, sid in zip(("A", "B", "C"), (5, 7, 9)):
            g.add_node(n, switch_id=sid)
        g.add_link("A", "B")
        g.add_link("B", "C")
        w = route_frequency_weights(g)
        # B forwards for A<->C pairs on top of its own traffic.
        assert w["B"] > w["A"] == w["C"]


class TestReassign:
    def test_reassign_to_xsr_keeps_graph_valid(self):
        from repro.controller.idassign import reassign_switch_ids
        from repro.rns.gf2 import gf2_pairwise_coprime
        from repro.topology.generators import random_connected

        g = random_connected(12, extra_links=6, seed=3, min_switch_id=23)
        reassign_switch_ids(g, strategy="xsr")
        g.validate()
        assert gf2_pairwise_coprime(g.switch_ids().values())

    def test_reassign_weighted_is_deterministic(self):
        from repro.controller.idassign import reassign_switch_ids
        from repro.topology.generators import random_connected

        a = random_connected(10, extra_links=4, seed=5, min_switch_id=23)
        b = random_connected(10, extra_links=4, seed=5, min_switch_id=23)
        reassign_switch_ids(a, strategy="weighted")
        reassign_switch_ids(b, strategy="weighted")
        assert a.switch_ids() == b.switch_ids()
