"""Tests for the CSR topology arrays and the vectorized tree pass."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controller.provision import DestinationTree
from repro.topology import NodeKind, fifteen_node, random_connected, six_node
from repro.topology.csr import (
    CsrTopology,
    bfs_forest,
    destination_forest,
    destination_tree_arrays,
)
from repro.topology.generators import attach_edges
from repro.topology.paths import canonical_tree
from repro.topology.zoo import abilene, fat_tree


@pytest.fixture(scope="module")
def six():
    return six_node().graph


@pytest.fixture(scope="module")
def fifteen():
    return fifteen_node().graph


def _edge_names(graph):
    return sorted(n.name for n in graph.nodes(NodeKind.EDGE))


class TestCsrTopology:
    def test_names_sorted_and_indexed(self, six):
        csr = CsrTopology.from_graph(six)
        assert list(csr.names) == sorted(n.name for n in six.nodes())
        for i, name in enumerate(csr.names):
            assert csr.index[name] == i
            assert csr.node_index(name) == i

    def test_adjacency_matches_graph(self, six):
        csr = CsrTopology.from_graph(six)
        for name in csr.names:
            got = [csr.names[j] for j in csr.neighbors_of(name)]
            assert got == sorted(six.neighbors(name))

    def test_ports_mirror_port_of(self, six):
        csr = CsrTopology.from_graph(six)
        for u, name in enumerate(csr.names):
            sl = csr.edge_slice(u)
            for e in range(sl.start, sl.stop):
                v = csr.names[csr.indices[e]]
                assert csr.ports_out[e] == six.port_of(name, v)
                assert csr.ports_back[e] == six.port_of(v, name)

    def test_core_mask_and_switch_ids(self, six):
        csr = CsrTopology.from_graph(six)
        for i, name in enumerate(csr.names):
            info = six.node(name)
            assert bool(csr.core_mask[i]) == (info.kind == NodeKind.CORE)
            expected = info.switch_id if info.switch_id is not None else -1
            assert csr.switch_ids[i] == expected

    def test_down_links_excluded(self, six):
        down = frozenset({tuple(sorted(("SW4", "SW7")))})
        csr = CsrTopology.from_graph(six, down=down)
        sw4 = csr.node_index("SW4")
        assert csr.node_index("SW7") not in csr.neighbors_of("SW4").tolist()
        full = CsrTopology.from_graph(six)
        assert len(full.neighbors_of("SW4")) == len(csr.neighbors_of("SW4")) + 1
        assert sw4 == full.node_index("SW4")  # indexing is unaffected

    def test_arrays_read_only(self, six):
        csr = CsrTopology.from_graph(six)
        with pytest.raises(ValueError):
            csr.indptr[0] = 1
        with pytest.raises(ValueError):
            csr.switch_ids[0] = 99


def _assert_matches_reference(graph, dst, down=frozenset()):
    csr = CsrTopology.from_graph(graph, down=down)
    tree = destination_tree_arrays(csr, csr.node_index(dst))
    ref = DestinationTree(graph, dst, epoch=0, down=down)
    got_depth = {
        csr.names[i]: int(tree.depth[i])
        for i in range(csr.n)
        if tree.depth[i] >= 0 and bool(csr.core_mask[i])
    }
    ref_depth = {k: v for k, v in ref.depth.items() if k != dst}
    assert got_depth == ref_depth
    for name, parent in ref.parent.items():
        i = csr.node_index(name)
        assert csr.names[int(tree.parent[i])] == parent
        assert int(tree.parent_port[i]) == graph.port_of(name, parent)


class TestDestinationTreeArrays:
    def test_matches_reference_six(self, six):
        for dst in _edge_names(six):
            _assert_matches_reference(six, dst)

    def test_matches_reference_fifteen(self, fifteen):
        for dst in _edge_names(fifteen):
            _assert_matches_reference(fifteen, dst)

    def test_matches_reference_abilene_and_fat_tree(self):
        for graph in (abilene(), fat_tree(4)):
            attach_edges(graph)
            for dst in _edge_names(graph):
                _assert_matches_reference(graph, dst)

    def test_matches_reference_under_link_failure(self, six):
        down = frozenset({tuple(sorted(("SW7", "SW11")))})
        _assert_matches_reference(six, "E-D", down=down)

    def test_order_is_breadth_first(self, six):
        csr = CsrTopology.from_graph(six)
        tree = destination_tree_arrays(csr, csr.node_index("E-D"))
        depths = tree.depth[tree.order]
        assert (np.diff(depths) >= 0).all()
        assert set(tree.order.tolist()) == {
            i for i in range(csr.n) if tree.depth[i] >= 1
        }

    def test_isolated_root_yields_empty_tree(self, six):
        # Cut E-D off from its only switch: nothing is reachable.
        down = frozenset({tuple(sorted(("E-D", "SW11")))})
        csr = CsrTopology.from_graph(six, down=down)
        tree = destination_tree_arrays(csr, csr.node_index("E-D"))
        assert tree.order.size == 0
        assert (tree.depth[csr.core_mask] < 0).all()


class TestBfsForest:
    def test_each_slot_is_the_single_root_tree(self):
        # Every edge a root in one pass, listed backwards and with a
        # repeat, so slot order is not node order.
        for graph in (six_node().graph, fifteen_node().graph, fat_tree(4)):
            if not graph.nodes(NodeKind.EDGE):
                attach_edges(graph)
            csr = CsrTopology.from_graph(graph)
            n = csr.n
            roots = [csr.node_index(e) for e in _edge_names(graph)][::-1]
            roots.append(roots[0])
            parent, levels = bfs_forest(csr, np.array(roots), csr.core_mask)
            assert parent.shape == (len(roots) * n,)
            for slot, root in enumerate(roots):
                tree = destination_tree_arrays(csr, root)
                got = parent[slot * n:(slot + 1) * n]
                reached = tree.depth > 0
                assert (got[reached] - slot * n == tree.parent[reached]).all()
                assert got[root] == -1
                unreached = tree.depth < 0
                assert (got[unreached] == parent.size).all()
            for d, (keys, half_edges) in enumerate(levels, start=1):
                assert len(set(keys.tolist())) == keys.size
                assert (csr.indices[half_edges] == keys % n).all()
                for key in keys.tolist():
                    tree = destination_tree_arrays(csr, roots[key // n])
                    assert tree.depth[key % n] == d


def _assert_forest_is_per_root(csr, roots):
    """Slot i of one forest pass is the one-root tree of ``roots[i]``,
    array for array, and its order is canonical: (depth, index)."""
    forest = destination_forest(csr, roots)
    assert len(forest) == len(roots)
    for root, got in zip(roots, forest):
        want = destination_tree_arrays(csr, root)
        assert got.root == want.root == root
        for name in ("depth", "parent", "parent_port", "order"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        reached = np.flatnonzero(got.depth > 0)
        canonical = reached[np.lexsort((reached, got.depth[reached]))]
        assert np.array_equal(got.order, canonical)


class TestDestinationForest:
    @pytest.mark.parametrize("make", [
        lambda: six_node().graph,
        lambda: fifteen_node().graph,
        abilene,
        lambda: fat_tree(4),
    ], ids=["six", "fifteen", "abilene", "fat_tree4"])
    def test_each_slot_is_the_one_root_tree(self, make):
        graph = make()
        if not graph.nodes(NodeKind.EDGE):
            attach_edges(graph)
        csr = CsrTopology.from_graph(graph)
        # Backwards, with a repeat and a core root: slot order is not
        # node order, and a slot need not be an edge.
        roots = [csr.node_index(e) for e in _edge_names(graph)][::-1]
        roots += [roots[0], int(np.flatnonzero(csr.core_mask)[0])]
        _assert_forest_is_per_root(csr, roots)

    def test_unreachable_destination_is_an_empty_slot(self, six):
        down = frozenset({tuple(sorted(("E-D", "SW11")))})
        csr = CsrTopology.from_graph(six, down=down)
        roots = [csr.node_index("E-S"), csr.node_index("E-D")]
        _assert_forest_is_per_root(csr, roots)
        cut = destination_forest(csr, roots)[1]
        assert cut.order.size == 0
        assert (cut.depth[csr.core_mask] < 0).all()

    def test_no_roots_no_trees(self, six):
        assert destination_forest(CsrTopology.from_graph(six), []) == []

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 500),
        n=st.integers(3, 12),
        extra=st.integers(0, 6),
        data=st.data(),
    )
    def test_random_graphs_with_down_links(self, seed, n, extra, data):
        graph = random_connected(
            n, extra_links=extra, seed=seed, min_switch_id=53
        )
        edges = attach_edges(graph)
        keys = sorted(link.key for link in graph.links())
        down = set(data.draw(st.lists(st.sampled_from(keys), max_size=4)))
        # One destination loses its only switch: its slot reaches nothing.
        cut = data.draw(st.sampled_from(edges))
        down |= {key for key in keys if cut in key}
        csr = CsrTopology.from_graph(graph, down=frozenset(down))
        roots = data.draw(st.permutations([csr.index[e] for e in edges]))
        _assert_forest_is_per_root(csr, roots)
        assert destination_forest(csr, [csr.index[cut]])[0].order.size == 0
        for dst in edges:
            _assert_matches_reference(graph, dst, down=frozenset(down))


class TestCanonicalTreeTwin:
    """:func:`bfs_forest` is the array twin of :func:`canonical_tree`:
    one rule, held equal parent for parent and depth for depth."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 30),
        extra=st.integers(0, 30),
        data=st.data(),
    )
    def test_forest_slot_is_the_canonical_tree(self, seed, n, extra, data):
        graph = random_connected(
            n, extra_links=extra, seed=seed, min_switch_id=53
        )
        keys = sorted(link.key for link in graph.links())
        down = frozenset(data.draw(st.sets(st.sampled_from(keys))))
        allowed = np.array(
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        )
        roots = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=4))
        csr = CsrTopology.from_graph(graph, down=down)
        parent, levels = bfs_forest(csr, np.array(roots), allowed)
        depth = np.where(parent < 0, 0, -1)
        for d, (level_keys, _) in enumerate(levels, start=1):
            depth[level_keys] = d
        allowed_names = {csr.names[i] for i in np.flatnonzero(allowed)}
        for slot, root in enumerate(roots):
            base = slot * n
            want_parent, want_depth = canonical_tree(
                graph, csr.names[root], allowed_names, down
            )
            assert {
                csr.names[i]: int(depth[base + i])
                for i in range(n) if depth[base + i] >= 0
            } == want_depth
            assert {
                csr.names[i]: csr.names[int(parent[base + i]) - base]
                for i in range(n) if depth[base + i] > 0
            } == want_parent
