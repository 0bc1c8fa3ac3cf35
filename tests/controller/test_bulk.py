"""Tests for the vectorized bulk provisioner.

The contract under test is *bit identity*: every route the bulk path
produces — node path, hop tuple, route ID, modulus, out-port — must
equal what the per-flow :class:`ProvisioningEngine` produces for the
same pair, on paper topologies, reference WANs, random graphs
(Hypothesis), and under link failures.
"""

import gc
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.controller.bulk as bulk_module
import repro.topology.csr as csr_module
from repro.controller.bulk import (
    BulkProvisioner,
    full_mesh_pairs,
    mesh_digest,
    mesh_digest_reference,
)
from repro.controller.provision import ProvisionError, ProvisioningEngine
from repro.rns import NotCoprimeError
from repro.topology import (
    NodeKind,
    fifteen_node,
    random_connected,
    six_node,
)
from repro.topology.generators import attach_edges
from repro.topology.zoo import abilene, fat_tree


@pytest.fixture(scope="module")
def six():
    return six_node().graph


@pytest.fixture(scope="module")
def abilene_mesh():
    g = abilene()
    attach_edges(g)
    return g


def _edge_names(graph):
    return sorted(n.name for n in graph.nodes(NodeKind.EDGE))


def _with_edges(graph):
    attach_edges(graph)
    return graph


def _assert_mesh_identical(graph):
    """Every pair: bulk ProvisionedRoute == per-flow ProvisionedRoute."""
    engine = ProvisioningEngine(graph)
    bp = BulkProvisioner(graph)
    edges = _edge_names(graph)
    for dst in edges:
        got = bp.routes_for(dst, [s for s in edges if s != dst])
        for src, route in got.items():
            ref = engine.provision(src, dst)
            assert route == ref, (src, dst)
            assert route.route.hops == ref.route.hops


class TestBitIdentity:
    def test_paper_route_id_44(self, six):
        bp = BulkProvisioner(six)
        p = bp.routes_for("E-D", ["E-S"])["E-S"]
        assert p.node_path == ("E-S", "SW4", "SW7", "SW11", "E-D")
        assert (p.route.route_id, p.route.modulus) == (44, 308)
        assert p.out_port == six.port_of("E-S", "SW4")

    def test_six_node_mesh(self, six):
        _assert_mesh_identical(six)

    def test_fifteen_node_mesh(self):
        _assert_mesh_identical(fifteen_node().graph)

    def test_abilene_mesh(self, abilene_mesh):
        _assert_mesh_identical(abilene_mesh)

    def test_fat_tree_mesh(self):
        g = fat_tree(4)
        attach_edges(g)
        _assert_mesh_identical(g)

    def test_mesh_digest_equals_reference(self, abilene_mesh):
        engine = ProvisioningEngine(abilene_mesh)
        bp = BulkProvisioner(abilene_mesh)
        pairs = full_mesh_pairs(abilene_mesh)
        d_bulk, n_bulk = mesh_digest(bp.iter_full_mesh())
        d_ref, n_ref = mesh_digest_reference(engine, pairs)
        assert (d_bulk, n_bulk) == (d_ref, n_ref)
        assert n_bulk == len(pairs)

    def test_shared_entry_shares_route_object(self, abilene_mesh):
        bp = BulkProvisioner(abilene_mesh)
        edges = _edge_names(abilene_mesh)
        dst = edges[0]
        routes = bp.routes_for(dst, [s for s in edges if s != dst])
        by_entry = {}
        for p in routes.values():
            by_entry.setdefault(p.node_path[1], p.route)
            assert routes[p.src_edge].route is by_entry[p.node_path[1]]

    def test_identity_under_link_failure(self, six):
        down = frozenset({tuple(sorted(("SW7", "SW11")))})
        engine = ProvisioningEngine(six)
        engine.set_link_down("SW7", "SW11")
        bp = BulkProvisioner(six, down=down)
        p = bp.routes_for("E-D", ["E-S"])["E-S"]
        assert p == engine.provision("E-S", "E-D")


class TestErrors:
    def test_unreachable_destination(self, six):
        # Cut E-D off entirely: no source can reach it.
        down = frozenset({tuple(sorted(("E-D", "SW11")))})
        bp = BulkProvisioner(six, down=down)
        with pytest.raises(ProvisionError, match="no core neighbor") as e:
            bp.routes_for("E-D", ["E-S"])
        assert e.value.reason == "no-core-path"

    def test_non_edge_destination(self, six):
        bp = BulkProvisioner(six)
        with pytest.raises(ProvisionError, match="not an edge node") as e:
            bp.routes_for("SW4", ["E-S"])
        assert e.value.reason == "not-an-edge"

    # The per-flow engine is the oracle for refusals too: same slug,
    # same message, and no tree built for a request that is refused.
    @pytest.mark.parametrize("dst, srcs, reason", [
        ("E-D", ["E-S", "E-D"], "same-edge"),
        ("E-D", ["SW4"], "not-an-edge"),
        ("E-D", ["NOPE"], "unknown-node"),
        ("NOPE", ["E-S"], "unknown-node"),
    ], ids=["same-edge", "non-edge-source", "unknown-source",
            "unknown-destination"])
    def test_endpoint_refused_like_per_flow(self, six, dst, srcs, reason):
        bp = BulkProvisioner(six)
        with pytest.raises(ProvisionError) as bulk:
            bp.routes_for(dst, srcs)
        with pytest.raises(ProvisionError) as flow:
            ProvisioningEngine(six).provision(srcs[-1], dst)
        assert bulk.value.reason == flow.value.reason == reason
        assert str(bulk.value) == str(flow.value)
        assert (bp.trees_built, bp.block_hits) == (0, 0)


    # Toward E-D the six-node tree is SW11, then SW5 and SW7, then SW4:
    # a block reports the first bad switch in that order.
    @pytest.mark.parametrize("ids, message", [
        ({"SW7": None, "SW4": None},
         "core switch 'SW7' has no switch ID"),
        ({"SW4": 1, "SW5": None},
         "core switch 'SW5' has no switch ID"),
        ({"SW7": 2, "SW4": None},
         "SW7: port 2 not addressable by switch ID 2"),
    ], ids=["no-id", "no-id-before-id-one", "port-out-of-reach"])
    def test_unencodable_switch_is_a_bad_path(self, ids, message):
        graph = six_node().graph
        for name, switch_id in ids.items():
            graph.node(name).switch_id = switch_id
        with pytest.raises(ProvisionError) as e:
            BulkProvisioner(graph).mesh_row("E-D")
        assert e.value.reason == "bad-path"
        assert message in str(e.value)

    # A down key names a link in either order, as set_link_down takes it.
    @pytest.mark.parametrize("key", [("SW11", "SW7"), ("SW7", "SW11")])
    def test_down_key_in_either_order_fails_the_link(self, six, key):
        engine = ProvisioningEngine(six)
        engine.set_link_down(*key)
        p = BulkProvisioner(six, down={key}).routes_for("E-D", ["E-S"])["E-S"]
        assert p.node_path == ("E-S", "SW4", "SW7", "SW5", "SW11", "E-D")
        assert p == engine.provision("E-S", "E-D")

    @pytest.mark.parametrize("key, reason", [
        (("NOPE", "SW7"), "unknown-node"),
        (("SW4", "SW11"), "not-a-link"),
    ])
    def test_down_key_naming_no_link_refused_like_set_link_down(
        self, six, key, reason
    ):
        with pytest.raises(ProvisionError) as bulk:
            BulkProvisioner(six, down={key})
        with pytest.raises(ProvisionError) as flow:
            ProvisioningEngine(six).set_link_down(*key)
        assert bulk.value.reason == flow.value.reason == reason
        assert str(bulk.value) == str(flow.value)

    def test_ids_sharing_a_factor_are_refused_by_the_extension(self):
        graph = six_node().graph
        graph.node("SW5").switch_id = 22  # SW11's 11 divides it
        with pytest.raises(NotCoprimeError) as e:
            BulkProvisioner(graph).mesh_row("E-D")
        assert (e.value.pair, e.value.gcd) == ((11, 22), 11)

    # Only the requested branches are encoded, so a clash elsewhere in
    # the tree is refused by the request that reaches it, as the
    # per-flow engine refuses it.  E-S enters at SW4: SW4, SW7, SW11.
    def test_clash_off_the_requested_branch_is_not_refused(self):
        graph = six_node().graph
        graph.node("SW5").switch_id = 22  # SW11's 11 divides it
        got = BulkProvisioner(graph).routes_for("E-D", ["E-S"])["E-S"]
        assert got == ProvisioningEngine(graph).provision("E-S", "E-D")

    def test_clash_on_the_requested_branch_is_refused(self):
        graph = six_node().graph
        graph.node("SW7").switch_id = 22
        with pytest.raises(NotCoprimeError) as e:
            BulkProvisioner(graph).routes_for("E-D", ["E-S"])
        assert (e.value.pair, e.value.gcd) == ((11, 22), 11)

    @pytest.mark.parametrize("request_", ["routes_for", "mesh_row"])
    def test_a_deeper_clash_names_its_parents_modulus(self, request_):
        # SW4 = 22 meets SW11's 11 inside SW7's modulus 7 * 11, on the
        # walk up from E-S's entry and on the full row alike.
        graph = six_node().graph
        graph.node("SW4").switch_id = 22
        bp = BulkProvisioner(graph)
        with pytest.raises(NotCoprimeError) as e:
            if request_ == "routes_for":
                bp.routes_for("E-D", ["E-S"])
            else:
                bp.mesh_row("E-D")
        assert (e.value.pair, e.value.gcd) == ((77, 22), 11)


class TestPartialEncoding:
    """A request for some sources solves only the switches on their
    branches; a full row after it is what a fresh block gives."""

    @pytest.fixture
    def steps(self, monkeypatch):
        calls = []
        fold = bulk_module.crt_fold

        def counting(ids, mods, nodes, switch_ids, ports, parents):
            calls.extend(switch_ids)
            return fold(ids, mods, nodes, switch_ids, ports, parents)

        monkeypatch.setattr(bulk_module, "crt_fold", counting)
        return calls

    @staticmethod
    def _core(route):
        return set(route.node_path[1:-1])

    def test_one_source_steps_once_per_branch_switch(
        self, abilene_mesh, steps
    ):
        edges = _edge_names(abilene_mesh)
        dst, src = edges[0], edges[-1]
        got = BulkProvisioner(abilene_mesh).routes_for(dst, [src])[src]
        assert sorted(steps) == sorted(h.switch_id for h in got.route.hops)
        assert len(steps) == len(self._core(got)) > 1

    def test_second_source_steps_only_on_new_switches(
        self, abilene_mesh, steps
    ):
        edges = _edge_names(abilene_mesh)
        engine = ProvisioningEngine(abilene_mesh)
        dst, first = edges[0], edges[-1]
        a = self._core(engine.provision(first, dst))
        second = next(
            s for s in edges[1:-1]
            if a & self._core(engine.provision(s, dst))
            and self._core(engine.provision(s, dst)) - a
        )
        bp = BulkProvisioner(abilene_mesh)
        bp.routes_for(dst, [first])
        del steps[:]
        got = bp.routes_for(dst, [second])[second]
        assert got == engine.provision(second, dst)
        assert len(steps) == len(self._core(got) - a)

    def test_full_row_after_partial_requests_equals_a_fresh_row(
        self, abilene_mesh
    ):
        edges = _edge_names(abilene_mesh)
        bp = BulkProvisioner(abilene_mesh)
        for dst in edges[:4]:
            bp.routes_for(dst, edges[5:7])
            bp.mesh_row(dst, [s for s in edges[-3:] if s != dst])
        fresh = BulkProvisioner(abilene_mesh)
        for dst in edges[:4]:
            row, ref = bp.mesh_row(dst), fresh.mesh_row(dst)
            assert (row.dst_edge, row.src_edges, row.route_ids, row.moduli) \
                == (ref.dst_edge, ref.src_edges, ref.route_ids, ref.moduli)
            assert row.entries.tolist() == ref.entries.tolist()
            assert row.out_ports.tolist() == ref.out_ports.tolist()


class TestBlockMemo:
    def test_tree_builds_bounded_by_distinct_destinations(
        self, abilene_mesh
    ):
        bp = BulkProvisioner(abilene_mesh)
        edges = _edge_names(abilene_mesh)
        for _ in range(2):
            for dst in edges:
                bp.routes_for(dst, [s for s in edges if s != dst])
        assert bp.trees_built == len(edges)
        assert bp.block_hits == len(edges)


class TestMeshDigestStream:
    """The digest is a function of the route values only: the same
    values in other objects hash alike, other values never do."""

    @pytest.fixture(scope="class")
    def rows(self, abilene_mesh):
        return list(BulkProvisioner(abilene_mesh).iter_full_mesh())

    def test_fresh_objects_hash_alike(self, rows):
        fresh = [
            row._replace(
                dst_edge="".join(row.dst_edge),
                src_edges=["".join(src) for src in row.src_edges],
                route_ids=tuple(int(str(x)) for x in row.route_ids),
                moduli=tuple(int(str(x)) for x in row.moduli),
            )
            for row in rows
        ]
        assert fresh[0].dst_edge is not rows[0].dst_edge
        assert fresh[0].moduli[0] is not rows[0].moduli[0]
        digest, count = mesh_digest(fresh)
        assert (digest, count) == mesh_digest(rows)
        assert count == 11 * 10

    def test_same_residues_other_bits_change_the_digest(self, rows):
        row = rows[3]
        rid, mod = row.route_ids[0], row.moduli[0]
        moved = row._replace(route_ids=(rid + mod,) + row.route_ids[1:])
        changed = rows[:3] + [moved] + rows[4:]
        assert mesh_digest(changed) != mesh_digest(rows)

    def test_swapped_sources_change_the_digest(self, rows):
        row = rows[0]
        assert (row.route_ids[0], row.moduli[0]) != (
            row.route_ids[1], row.moduli[1]
        )
        swap = [1, 0] + list(range(2, len(row.src_edges)))
        swapped = row._replace(
            route_ids=tuple(row.route_ids[i] for i in swap),
            moduli=tuple(row.moduli[i] for i in swap),
        )
        assert mesh_digest([swapped] + rows[1:]) != mesh_digest(rows)


class TestUntrackedColumns:
    def test_route_columns_leave_the_collector(self, abilene_mesh):
        # Tuples of ints and None stop being tracked at the first
        # collection they survive; a list would be walked at every one.
        row = BulkProvisioner(abilene_mesh).mesh_row(
            _edge_names(abilene_mesh)[0]
        )
        gc.collect()
        for column in (
            row.route_ids, row.moduli, row.block._ids, row.block._mods
        ):
            assert type(column) is tuple and not gc.is_tracked(column)


class TestForestReadAhead:
    """A miss builds up to ``_FOREST_CELLS // n`` trees in one pass; the
    rest wait for their request.  Whatever the request order, every
    route and both counters are what one tree per request gives."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("make", [
        lambda: fifteen_node().graph,
        lambda: _with_edges(abilene()),
        lambda: _with_edges(fat_tree(4)),
    ], ids=["fifteen", "abilene", "fat_tree4"])
    def test_shuffled_requests_match_per_flow(self, monkeypatch, make, seed):
        graph = make()
        edges = _edge_names(graph)
        engine = ProvisioningEngine(graph)
        bp = BulkProvisioner(graph)
        monkeypatch.setattr(bulk_module, "_FOREST_CELLS", 3 * bp.csr.n)
        passes = []
        forest = csr_module.bfs_forest

        def recording(csr, roots, allowed):
            passes.append(list(roots))
            return forest(csr, roots, allowed)

        monkeypatch.setattr(csr_module, "bfs_forest", recording)
        rng = random.Random(seed)
        requests = edges + rng.sample(edges, len(edges) // 2)
        rng.shuffle(requests)
        for i, dst in enumerate(requests):
            srcs = [s for s in edges if s != dst]
            if i % 2:
                for src, route in bp.routes_for(dst, srcs).items():
                    assert route == engine.provision(src, dst)
            else:
                row = bp.mesh_row(dst)
                assert row.src_edges == srcs
                for src, rid, mod, port in zip(
                    srcs, row.route_ids, row.moduli, row.out_ports.tolist()
                ):
                    ref = engine.provision(src, dst)
                    assert (rid, mod, port) == (
                        ref.route.route_id, ref.route.modulus, ref.out_port
                    )
        roots = Counter(r for batch in passes for r in batch)
        assert sorted(roots) == sorted(bp.csr.index[e] for e in edges)
        assert set(roots.values()) == {1}
        assert all(len(batch) <= 3 for batch in passes)
        assert len(passes) == -(-len(edges) // 3)
        assert bp.trees_built == len(edges)
        assert bp.block_hits == len(requests) - len(edges)


class TestPropertyRandomTopologies:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 500),
        n=st.integers(4, 11),
        extra=st.integers(0, 6),
    )
    def test_random_mesh_bit_identical(self, seed, n, extra):
        graph = random_connected(
            n, extra_links=extra, seed=seed, min_switch_id=53
        )
        attach_edges(graph)
        engine = ProvisioningEngine(graph)
        bp = BulkProvisioner(graph)
        edges = _edge_names(graph)
        for dst in edges:
            got = bp.routes_for(dst, [s for s in edges if s != dst])
            for src, route in got.items():
                ref = engine.provision(src, dst)
                assert route == ref
                assert route.route.hops == ref.route.hops

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500), n=st.integers(5, 10))
    def test_random_mesh_digest_matches_reference(self, seed, n):
        graph = random_connected(
            n, extra_links=3, seed=seed, min_switch_id=53
        )
        attach_edges(graph)
        engine = ProvisioningEngine(graph)
        bp = BulkProvisioner(graph)
        pairs = full_mesh_pairs(graph)
        assert mesh_digest(bp.iter_full_mesh()) == mesh_digest_reference(
            engine, pairs
        )
