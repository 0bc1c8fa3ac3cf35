"""Tests for the KAR core switch dataplane."""

import random

import pytest

from repro.sim import Link, PacketTracer, Packet, KarHeader, Simulator
from repro.sim.node import Node
from repro.switches import KarSwitch, NoDeflection, NotInputPort


class Collector(Node):
    def __init__(self, name, sim):
        super().__init__(name, sim, 1)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append(packet)


def build_switch(strategy=None, tracer=None, switch_id=7):
    """SW with 3 ports: 0 -> X, 1 -> Y, 2 -> Z collectors."""
    sim = Simulator()
    sw = KarSwitch(
        "SW", sim, 3, switch_id,
        strategy or NoDeflection(), random.Random(1), tracer=tracer,
    )
    sinks = []
    for i, name in enumerate(("X", "Y", "Z")):
        sink = Collector(name, sim)
        Link(sim, sw, i, sink, 0, rate_mbps=100.0, delay_s=0.0001)
        sinks.append(sink)
    return sim, sw, sinks


def _pkt(route_id, ttl=64):
    return Packet(src_host="s", dst_host="d", size_bytes=100,
                  kar=KarHeader(route_id=route_id, ttl=ttl))


class TestModuloForwarding:
    def test_forwards_on_residue_port(self):
        sim, sw, sinks = build_switch()
        # 44 mod 7 == 2 -> port 2 (Z).
        sw.receive(_pkt(44), in_port=0)
        sim.run_until(10.0)
        assert len(sinks[2].received) == 1
        assert sw.forwarded == 1

    def test_each_residue_maps_to_its_port(self):
        for route_id, port in ((7, 0), (8, 1), (9, 2)):
            sim, sw, sinks = build_switch()
            sw.receive(_pkt(route_id), in_port=1 if port != 1 else 0)
            sim.run_until(10.0)
            assert len(sinks[port].received) == 1

    def test_hop_count_and_ttl(self):
        sim, sw, sinks = build_switch()
        p = _pkt(44, ttl=10)
        sw.receive(p, in_port=0)
        sim.run_until(10.0)
        assert p.hops == 1
        assert p.kar.ttl == 9

    def test_ttl_expiry_drops(self):
        tracer = PacketTracer()
        sim, sw, sinks = build_switch(tracer=tracer)
        sw.receive(_pkt(44, ttl=0), in_port=0)
        sim.run_until(10.0)
        assert sw.drops == 1
        assert tracer.drop_reasons["ttl-expired"] == 1
        assert all(not s.received for s in sinks)

    def test_packet_without_header_dropped(self):
        tracer = PacketTracer()
        sim, sw, sinks = build_switch(tracer=tracer)
        sw.receive(Packet(src_host="s", dst_host="d", size_bytes=50), 0)
        sim.run_until(10.0)
        assert tracer.drop_reasons["no-kar-header"] == 1

    def test_invalid_residue_drops_without_deflection(self):
        tracer = PacketTracer()
        sim, sw, sinks = build_switch(tracer=tracer)
        # 5 mod 7 == 5 -> no port 5; NoDeflection drops.
        sw.receive(_pkt(5), in_port=0)
        sim.run_until(10.0)
        assert sw.drops == 1
        assert tracer.drop_reasons["no-usable-port(none)"] == 1


def build_chain(tracer=None):
    """Two-switch chain: A(id 7) port 2 -> B(id 11) port 1 -> Z.

    Route 44 walks it end to end (44 mod 7 == 2, 44 mod 11 == 0).
    """
    sim = Simulator()
    a = KarSwitch("A", sim, 3, 7, NoDeflection(), random.Random(1),
                  tracer=tracer)
    b = KarSwitch("B", sim, 3, 11, NoDeflection(), random.Random(2),
                  tracer=tracer)
    Link(sim, a, 2, b, 1, rate_mbps=100.0, delay_s=0.0001)
    z = Collector("Z", sim)
    Link(sim, b, 0, z, 0, rate_mbps=100.0, delay_s=0.0001)
    return sim, a, b, z


class TestTtlOffByOne:
    """Pin the expiry rule: drop when ttl <= 0 *on arrival*, decrement
    after — so a TTL of N buys exactly N core hops, matching the wire
    codec's hop semantics (encode carries the post-decrement value)."""

    @pytest.mark.parametrize("ttl,delivered", [
        (0, False), (1, False), (2, True), (3, True),
    ])
    def test_ttl_n_buys_exactly_n_core_hops(self, ttl, delivered):
        sim, a, b, z = build_chain()
        a.receive(_pkt(44, ttl=ttl), in_port=0)
        sim.run_until(10.0)
        assert bool(z.received) == delivered

    def test_ttl_zero_dies_before_the_first_hop(self):
        tracer = PacketTracer()
        sim, a, b, z = build_chain(tracer=tracer)
        p = _pkt(44, ttl=0)
        a.receive(p, in_port=0)
        sim.run_until(10.0)
        assert (a.drops, a.forwarded) == (1, 0)
        assert tracer.drop_reasons["ttl-expired"] == 1
        # Check-then-decrement: an expired packet is not decremented.
        assert p.kar.ttl == 0
        assert p.hops == 0

    def test_ttl_one_does_one_hop_then_expires(self):
        tracer = PacketTracer()
        sim, a, b, z = build_chain(tracer=tracer)
        p = _pkt(44, ttl=1)
        a.receive(p, in_port=0)
        sim.run_until(10.0)
        assert a.forwarded == 1       # first hop happens...
        assert b.drops == 1           # ...expiry is at the *second* switch
        assert p.kar.ttl == 0
        assert p.hops == 1
        assert not z.received

    def test_delivered_ttl_is_initial_minus_hops(self):
        sim, a, b, z = build_chain()
        a.receive(_pkt(44, ttl=5), in_port=0)
        sim.run_until(10.0)
        [p] = z.received
        assert p.hops == 2
        assert p.kar.ttl == 3

    def test_rule_matches_wire_codec_round_trip(self):
        # A header that just crossed the wire (ttl=1) must behave like
        # the in-memory one: one more hop, then expiry — and the final
        # ttl=0 header is still encodable (0 is a legal wire value).
        from repro.rns.wire import decode_header, encode_header

        decoded, _ = decode_header(
            encode_header(KarHeader(route_id=44, modulus=0, ttl=1))
        )
        sim, a, b, z = build_chain()
        p = Packet(src_host="s", dst_host="d", size_bytes=100, kar=decoded)
        a.receive(p, in_port=0)
        sim.run_until(10.0)
        assert b.drops == 1 and not z.received
        assert p.kar.ttl == 0
        assert encode_header(p.kar)  # ttl=0 still round-trips the wire


class TestDeflectionIntegration:
    def test_nip_deflects_and_flags(self):
        tracer = PacketTracer()
        sim, sw, sinks = build_switch(strategy=NotInputPort(), tracer=tracer)
        p = _pkt(5)  # invalid residue -> random among ports != input
        sw.receive(p, in_port=0)
        sim.run_until(10.0)
        assert p.kar.deflected
        assert sw.deflections == 1
        assert tracer.deflection_count == 1
        delivered = [s for s in sinks if s.received]
        assert len(delivered) == 1
        assert delivered[0].name != "X"  # not the input port

    def test_id_must_exceed_ports(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="cannot address"):
            KarSwitch("SW", sim, 5, 4, NoDeflection(), random.Random(0))

    def test_tracer_records_forward(self):
        tracer = PacketTracer(trace_paths=True)
        sim, sw, sinks = build_switch(tracer=tracer)
        p = _pkt(44)
        sw.receive(p, in_port=0)
        sim.run_until(10.0)
        assert tracer.switch_sequence(p.uid) == ["SW"]
