"""The ring contract: one property suite every registered encoder passes.

``RouteEncoder`` writes encode / decode / with_hop / without_switch /
with_port once over five ring primitives; a ring (the integers, or
GF(2)[X] in ``XsrEncoder``) supplies the primitives.  Everything here is
parametrized over ``BACKEND_NAMES``, so a third ring inherits the whole
suite by registering its name.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rns import (
    BACKEND_NAMES,
    CrtError,
    DuplicateSwitchError,
    Hop,
    RouteEncoder,
    XsrEncodedRoute,
    XsrEncoder,
    backend_by_name,
    greedy_coprime_pool,
)
from repro.rns.gf2 import dual_coprime_pool, gf2_degree
from repro.topology import shortest_path
from repro.topology.zoo import load_zoo_graph

# One switch-ID pool per ring that the ring accepts.
_POOLS = {
    "crt": greedy_coprime_pool(24, min_value=4),
    "xsr": dual_coprime_pool(24, min_value=4),
}


@st.composite
def systems(draw, name, min_size=1, max_size=8):
    """Random hops over the ring's pool, ports drawn from residue_space."""
    ring = backend_by_name(name)
    ids = draw(st.lists(st.sampled_from(_POOLS[name]), min_size=min_size,
                        max_size=max_size, unique=True))
    return [
        Hop(s, draw(st.integers(0, ring.residue_space(s) - 1))) for s in ids
    ]


@st.composite
def mutation_chains(draw, name, max_len=6):
    """Hops plus a chain of (switch_id, new_port) mutations.

    Chains deliberately include identity mutations (new port equal to
    the current port) and repeated mutations of the same switch.
    """
    ring = backend_by_name(name)
    hops = draw(systems(name, min_size=2))
    chain = []
    for _ in range(draw(st.integers(1, max_len))):
        sid = draw(st.sampled_from([h.switch_id for h in hops]))
        chain.append((sid, draw(st.integers(0, ring.residue_space(sid) - 1))))
    return hops, chain


class TestRegistry:
    def test_names_are_sorted_and_complete(self):
        assert BACKEND_NAMES == ("crt", "xsr")
        assert type(backend_by_name("crt")) is RouteEncoder
        assert type(backend_by_name("xsr")) is XsrEncoder
        for name in BACKEND_NAMES:
            assert backend_by_name(name).name == name

    def test_unknown_rejected(self):
        for name in ("base64", "pooled"):
            with pytest.raises(ValueError, match=r"unknown encoding backend"
                                                 r".*\['crt', 'xsr'\]"):
                backend_by_name(name)


class TestEncodeDecode:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @given(data=st.data())
    def test_round_trip(self, name, data):
        hops = data.draw(systems(name))
        ids = [h.switch_id for h in hops]
        ports = [h.port for h in hops]
        enc = backend_by_name(name)
        route = enc.encode(hops)
        assert enc.decode(route.route_id, ids) == ports
        assert [route.port_at(s) for s in ids] == ports
        assert [enc.port_at(route.route_id, s) for s in ids] == ports
        assert enc.header_bits(route.modulus) == route.bit_length
        assert route.residue_map() == dict(zip(ids, ports))

    def test_xsr_bits_are_exact_degree_sum(self):
        ids = _POOLS["xsr"][:4]
        route = backend_by_name("xsr").encode([Hop(s, 0) for s in ids])
        assert isinstance(route, XsrEncodedRoute)
        assert route.bit_length == sum(gf2_degree(s) for s in ids)

    def test_xsr_incremental_ops_match_fresh_encode(self):
        # One worked example beside the property below: 5 dual-coprime
        # IDs, grow by the last hop, shrink it away again.
        enc = backend_by_name("xsr")
        hops = [Hop(s, i % 2) for i, s in enumerate(_POOLS["xsr"][:5])]
        route = enc.encode(hops[:-1])
        grown = enc.with_hop(route, hops[-1])
        assert grown == enc.encode(hops)
        assert enc.without_switch(grown, hops[-1].switch_id) == route

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_duplicate_switch_rejected(self, name):
        s = _POOLS[name][0]
        enc = backend_by_name(name)
        with pytest.raises(DuplicateSwitchError):
            enc.encode([Hop(s, 0), Hop(s, 1)])
        with pytest.raises(DuplicateSwitchError):
            enc.with_hop(enc.encode([Hop(s, 0)]), Hop(s, 1))


class TestZooRoutes:
    """The contract on real routes, not drawn ones: shortest paths over
    the committed zoo fixtures, each loaded with the ring's own ID
    strategy (on synthwan754 some run past 150 bits; the drawn systems
    above stop at eight hops)."""

    @pytest.mark.parametrize("topology", ["abilene", "synthwan754"])
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_shortest_paths_decode_back(self, name, topology):
        enc = backend_by_name(name)
        graph = load_zoo_graph(topology, id_strategy=enc.id_strategy)
        ids = graph.switch_ids()
        names = sorted(ids)
        rng = random.Random(f"{name}/{topology}")
        for _ in range(64):
            path = shortest_path(graph, *rng.sample(names, 2))
            hops = [
                Hop(ids[a], graph.port_of(a, b))
                for a, b in zip(path, path[1:])
            ]
            switch_ids = [h.switch_id for h in hops]
            route = enc.encode(hops)
            assert enc.decode(route.route_id, switch_ids) == [
                h.port for h in hops
            ]
            assert enc.header_bits(route.modulus) == route.bit_length
            if name == "crt":
                # With the decode-back check this pins R exactly: the
                # unique CRT solution below the product of the IDs.
                assert 0 <= route.route_id < route.modulus == math.prod(
                    switch_ids
                )


class TestIncremental:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @given(data=st.data())
    def test_with_hop_and_without_switch_match_fresh_encode(self, name, data):
        hops = data.draw(systems(name, min_size=2))
        enc = backend_by_name(name)
        shorter = enc.encode(hops[:-1])
        grown = enc.with_hop(shorter, hops[-1])
        assert grown == enc.encode(hops)
        assert grown.residue_map() == {h.switch_id: h.port for h in hops}
        shrunk = enc.without_switch(grown, hops[-1].switch_id)
        assert shrunk == shorter
        assert type(grown) is type(shrunk) is enc.route_type

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_without_switch_rejects_unknown_and_last(self, name):
        a, b = _POOLS[name][:2]
        enc = backend_by_name(name)
        route = enc.encode([Hop(a, 0)])
        with pytest.raises(CrtError, match="not encoded"):
            enc.without_switch(route, b)
        with pytest.raises(CrtError, match="last hop"):
            enc.without_switch(route, a)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    @given(data=st.data())
    @settings(max_examples=100)
    def test_with_port_chain_equals_fresh_encode(self, name, data):
        """A chain of with_port steps — identity steps and repeat
        mutations included — equals a fresh encode of the mutated hop
        list at every step."""
        hops, chain = data.draw(mutation_chains(name))
        fresh = backend_by_name(name)
        enc = backend_by_name(name)
        route = enc.encode(hops)
        current = list(hops)
        changed = 0
        for sid, new_port in chain:
            before = route
            route = enc.with_port(route, sid, new_port)
            if before.residue_map()[sid] == new_port:
                assert route is before
            else:
                changed += 1
            current = [
                Hop(sid, new_port) if h.switch_id == sid else h
                for h in current
            ]
            want = fresh.encode(current)
            assert route == want
            assert route.residue_map() == want.residue_map()
        assert enc.identity_skips == len(chain) - changed
        assert enc.deltas_applied == changed

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_with_port_never_re_solves(self, name, monkeypatch):
        """with_port is one CRT step on the live route ID: with the
        ring's solve disabled, a chain over every hop still lands on a
        fresh encode of the mutated hop list."""
        ring = backend_by_name(name)
        hops = [Hop(s, 0) for s in _POOLS[name][:6]]
        enc = backend_by_name(name)
        route = enc.encode(hops)

        def no_solve(residues, moduli):
            raise AssertionError("with_port re-solved the route")

        monkeypatch.setattr(enc, "solve", no_solve)
        for step, hop in enumerate(hops * 2):
            new_port = (step + 1) % ring.residue_space(hop.switch_id)
            route = enc.with_port(route, hop.switch_id, new_port)
            hops = [
                Hop(h.switch_id, new_port) if h.switch_id == hop.switch_id
                else h for h in hops
            ]
            assert route == ring.encode(hops)
        assert enc.deltas_applied == 12

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_with_port_unknown_switch_raises(self, name):
        a, b = _POOLS[name][:2]
        enc = backend_by_name(name)
        with pytest.raises(CrtError, match="not encoded in this route"):
            enc.with_port(enc.encode([Hop(a, 1)]), b, 0)

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_with_port_out_of_range_raises(self, name):
        a, b = _POOLS[name][:2]
        enc = backend_by_name(name)
        route = enc.encode([Hop(a, 1), Hop(b, 0)])
        with pytest.raises(CrtError, match="out of range|not addressable"):
            enc.with_port(route, a, enc.residue_space(a))
        assert enc.deltas_applied == 0


class TestFeasibility:
    def test_residue_space(self):
        assert backend_by_name("crt").residue_space(19) == 19
        # deg(19) = 4: GF(2) remainders span [0, 16).
        assert backend_by_name("xsr").residue_space(19) == 16

    def test_min_switch_id_covers_ports(self):
        for name in BACKEND_NAMES:
            backend = backend_by_name(name)
            for ports in range(1, 20):
                assert backend.residue_space(
                    backend.min_switch_id(ports)
                ) >= ports

    def test_xsr_rejects_gf2_noncoprime_pool(self):
        # 3 = x+1 divides 5 = x^2+1 over GF(2), integers coprime.
        with pytest.raises(ValueError, match="binary polynomials"):
            backend_by_name("xsr").validate_switch_ids([3, 5, 7])

    def test_integer_backend_accepts_that_pool(self):
        backend_by_name("crt").validate_switch_ids([3, 5, 7])

    def test_switch_decode_is_none_only_for_the_integer_ring(self):
        assert backend_by_name("crt").switch_decode() is None
        xsr = backend_by_name("xsr")
        assert xsr.switch_decode()(0b1011, 0b111) == xsr.port_at(0b1011, 0b111)
