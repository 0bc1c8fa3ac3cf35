"""Unit tests for what keeps the per-hop cost flat: encode-time residue
hints, and a technique's two array statements evaluated on numpy arrays
against ``decide`` on plain values.  Both statements are held to
Algorithm 1 state by state in ``tests/verify/test_pseudocode.py``."""

import itertools
import random

import numpy as np
import pytest

from repro.rns.encoder import Hop, RouteEncoder
from repro.sim import KarHeader, Link, Packet, Simulator
from repro.sim.node import Node
from repro.sim.vector import _rank_ports
from repro.switches import KarSwitch, NoDeflection, NotInputPort
from repro.switches.deflection import (
    AnyValidPort,
    HotPotato,
    STRATEGY_NAMES,
    strategy_by_name,
)
from tests.verify.test_pseudocode import CandidateList


class Collector(Node):
    def __init__(self, name, sim):
        super().__init__(name, sim, 1)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append(packet)


def build_switch(strategy=None, switch_id=7, decode=None):
    sim = Simulator()
    sw = KarSwitch(
        "SW", sim, 3, switch_id,
        strategy or NoDeflection(), random.Random(1), decode=decode,
    )
    sinks = []
    for i, name in enumerate(("X", "Y", "Z")):
        sink = Collector(name, sim)
        Link(sim, sw, i, sink, 0, rate_mbps=100.0, delay_s=0.0001)
        sinks.append(sink)
    return sim, sw, sinks


def _pkt(route_id, residues=None, ttl=64):
    return Packet(src_host="s", dst_host="d", size_bytes=100,
                  kar=KarHeader(route_id=route_id, ttl=ttl,
                                residues=residues))


def _counting_decode():
    """A ``decode=`` hook that is ``R mod s`` and logs every call."""
    calls = []

    def decode(route_id, switch_id):
        calls.append((route_id, switch_id))
        return route_id % switch_id

    return decode, calls


class TestResidueHint:
    def test_hinted_hop_never_decodes(self):
        decode, calls = _counting_decode()
        sim, sw, sinks = build_switch(decode=decode)
        for _ in range(3):
            sw.receive(_pkt(7 * 10**20 + 2, residues={7: 2}), in_port=0)
        sim.run_until(10.0)
        assert len(sinks[2].received) == 3
        assert calls == []

    def test_off_hint_hop_decodes_once_per_hop(self):
        # A hint for *other* switch IDs (a deflected packet visiting an
        # off-path switch) must not be trusted for this one; every such
        # hop pays one decode, even for a route ID seen before.
        decode, calls = _counting_decode()
        sim, sw, sinks = build_switch(decode=decode)
        rid = 7 * 10**20 + 2
        for residues in ({11: 0}, None, {11: 0}):
            sw.receive(_pkt(rid, residues=residues), in_port=0)
        sim.run_until(10.0)
        assert len(sinks[rid % 7].received) == 3
        assert calls == [(rid, 7)] * 3


class TestEncoderResidueMap:
    def test_residue_map_matches_crt(self):
        hops = [Hop(11, 1), Hop(13, 0), Hop(17, 2)]
        route = RouteEncoder().encode(hops)
        residues = route.residue_map()
        assert residues == {11: 1, 13: 0, 17: 2}
        for sid, port in residues.items():
            assert route.route_id % sid == port

    def test_residue_map_is_memoized(self):
        route = RouteEncoder().encode([Hop(11, 1), Hop(13, 0)])
        assert route.residue_map() is route.residue_map()

    def test_with_hop_and_without_switch_keep_maps_consistent(self):
        encoder = RouteEncoder()
        route = encoder.encode([Hop(11, 1), Hop(13, 0)])
        grown = encoder.with_hop(route, Hop(17, 2))
        assert grown.residue_map() == {11: 1, 13: 0, 17: 2}
        shrunk = encoder.without_switch(grown, 13)
        assert 13 not in shrunk.residue_map()
        for sid, port in shrunk.residue_map().items():
            assert shrunk.route_id % sid == port


class _ExplodingRng:
    def __getattr__(self, name):
        raise AssertionError(f"happy-path packet drew rng.{name}")


def _mask(strategy, healthy, in_port, computed, deflected):
    """``happy_mask`` on a one-packet batch, the way ``run_epoch_vector``
    calls it."""
    return bool(strategy.happy_mask(
        np.array([computed in healthy]), np.array([in_port]),
        np.array([computed]), np.array([deflected]),
    )[0])


class TestStrategySplitEquivalence:
    """``decide`` evaluates ``happy_mask`` and ``fallback_ports`` on plain
    values; the flat kernel evaluates them on numpy arrays.  The two
    evaluations must agree: the mask is true exactly where ``decide``
    forwards on the computed port, undeflected and without a draw, and
    everywhere else ``fallback_ports`` read off the kernel's port tables
    is exactly the list ``decide`` draws from."""

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    @pytest.mark.parametrize("deflected", [False, True])
    def test_same_ports_flags_and_rng_consumption(self, name, deflected):
        strategy = strategy_by_name(name)
        for num_ports in (2, 3, 4):
            ports = range(num_ports)
            subsets = itertools.chain.from_iterable(
                itertools.combinations(ports, r) for r in range(num_ports + 1)
            )
            for healthy in subsets:
                for in_port in ports:
                    for computed in range(num_ports + 2):  # incl. out of range
                        case = (name, healthy, in_port, computed, deflected)
                        happy = _mask(
                            strategy, healthy, in_port, computed, deflected
                        )
                        got = strategy.decide(
                            healthy, in_port, computed, deflected,
                            _ExplodingRng() if happy else random.Random(901),
                        )
                        assert happy == (got == (computed, False)), case

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_fallback_ports_is_the_list_decide_draws_from(self, name):
        # ``CandidateList.choice`` hands back the candidate list instead
        # of drawing, so ``decide`` shows what it would have drawn from;
        # the array side reads it off the kernel's own port tables.
        strategy = strategy_by_name(name)
        cases = 0
        for num_ports in range(1, 6):
            for bits in itertools.product((False, True), repeat=num_ports):
                up = np.array(bits)
                healthy = tuple(np.flatnonzero(up).tolist())
                up_ports, kth_up, up_below = _rank_ports(up)
                for in_port, computed, deflected in itertools.product(
                    range(num_ports), range(num_ports + 2), (False, True)
                ):
                    if _mask(strategy, healthy, in_port, computed, deflected):
                        continue
                    count, skip = strategy.fallback_ports(
                        up_ports, up[in_port]
                    )
                    described = [
                        int(kth_up[r + (skip and r >= up_below[in_port])])
                        for r in range(count)
                    ]
                    got = strategy.decide(
                        healthy, in_port, computed, deflected, CandidateList()
                    )
                    assert got == (
                        (described, True) if count else (None, False)
                    ), (name, healthy, in_port, computed, deflected)
                    cases += 1
        assert cases > 1000

    def test_all_ports_down_drops(self):
        strategy = AnyValidPort()
        assert not _mask(strategy, (), 0, 0, False)
        assert strategy.decide((), 0, 0, False, _ExplodingRng()) == (
            None, False
        )

    def test_hot_potato_deflected_always_falls_back(self):
        # Computed port is healthy, but a deflected HP packet must
        # random-walk — the happy path may not capture it.
        assert not _mask(HotPotato(), (0, 1, 2), 0, 2, True)
        assert _mask(HotPotato(), (0, 1, 2), 0, 2, False)

    def test_nip_never_returns_input_port(self):
        assert not _mask(NotInputPort(), (0, 1, 2), 2, 2, False)
        port, deflected = NotInputPort().decide(
            (0, 1, 2), 2, 2, False, random.Random(1)
        )
        assert deflected and port != 2
