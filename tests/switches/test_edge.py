"""Tests for edge-node encapsulation, delivery and misdelivery handling."""

import pytest

from repro.runner import KarSimulation
from repro.sim import Link, PacketTracer, Packet, KarHeader, Simulator
from repro.sim.node import Node
from repro.switches import EdgeNode, IngressEntry
from repro.topology import FULL, fifteen_node


class Collector(Node):
    def __init__(self, name, sim):
        super().__init__(name, sim, 1)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append(packet)


class FakeController:
    def __init__(self, entry=None, rtt=0.01):
        self.entry = entry
        self.requests = []
        self._rtt = rtt

    @property
    def control_rtt_s(self):
        return self._rtt

    def reencode(self, edge_name, dst_host):
        self.requests.append((edge_name, dst_host))
        return self.entry


@pytest.fixture
def rig():
    """Edge with port 0 -> core collector, port 1 -> host collector."""
    sim = Simulator()
    tracer = PacketTracer()
    edge = EdgeNode("E", sim, 2, tracer=tracer)
    core = Collector("CORE", sim)
    host = Collector("H1", sim)
    Link(sim, edge, 0, core, 0, delay_s=0.0001)
    Link(sim, edge, 1, host, 0, delay_s=0.0001)
    edge.serve_host("H1", 1)
    return sim, edge, core, host, tracer


class TestIngress:
    def test_encapsulates_and_sends(self, rig):
        sim, edge, core, host, tracer = rig
        edge.install_ingress("H2", IngressEntry(route_id=44, modulus=308,
                                                out_port=0, ttl=32))
        p = Packet(src_host="H1", dst_host="H2", size_bytes=100)
        edge.receive(p, in_port=1)
        sim.run()
        assert len(core.received) == 1
        assert p.kar.route_id == 44
        assert p.kar.ttl == 32
        assert edge.encapsulated == 1

    def test_no_route_drops(self, rig):
        sim, edge, core, host, tracer = rig
        p = Packet(src_host="H1", dst_host="H9", size_bytes=100)
        edge.receive(p, in_port=1)
        sim.run()
        assert tracer.drop_reasons["no-ingress-route"] == 1
        assert not core.received


class TestEgress:
    def test_strips_header_and_delivers(self, rig):
        sim, edge, core, host, tracer = rig
        p = Packet(src_host="H9", dst_host="H1", size_bytes=100,
                   kar=KarHeader(route_id=77))
        edge.receive(p, in_port=0)
        sim.run()
        assert len(host.received) == 1
        assert host.received[0].kar is None
        assert edge.delivered == 1
        assert tracer.delivered_count == 1


class TestMisdelivery:
    def _stray(self):
        return Packet(src_host="H9", dst_host="H-ELSEWHERE", size_bytes=100,
                      kar=KarHeader(route_id=77, deflected=True, ttl=20))

    def test_reencode_and_reinject(self, rig):
        sim, edge, core, host, tracer = rig
        ctrl = FakeController(IngressEntry(route_id=99, modulus=500, out_port=0))
        edge.set_controller(ctrl)
        p = self._stray()
        edge.receive(p, in_port=0)
        sim.run()
        assert ctrl.requests == [("E", "H-ELSEWHERE")]
        assert len(core.received) == 1
        assert p.kar.route_id == 99
        assert p.kar.deflected is False       # fresh route, fresh flag
        assert p.kar.ttl == 20                # TTL carries over

    def test_reinjection_is_delayed_by_control_rtt(self, rig):
        sim, edge, core, host, tracer = rig
        ctrl = FakeController(IngressEntry(route_id=99, modulus=500, out_port=0),
                              rtt=0.05)
        edge.set_controller(ctrl)
        edge.receive(self._stray(), in_port=0)
        sim.run_until(0.04)
        assert not core.received
        sim.run_until(0.06)
        assert len(core.received) == 1

    def test_no_controller_drops(self, rig):
        sim, edge, core, host, tracer = rig
        edge.receive(self._stray(), in_port=0)
        sim.run()
        assert tracer.drop_reasons["misdelivered-no-controller"] == 1

    def test_controller_without_route_drops(self, rig):
        sim, edge, core, host, tracer = rig
        edge.set_controller(FakeController(entry=None))
        edge.receive(self._stray(), in_port=0)
        sim.run()
        assert tracer.drop_reasons["misdelivered-no-route"] == 1

    def test_expired_ttl_dropped_at_reinjection(self, rig):
        sim, edge, core, host, tracer = rig
        ctrl = FakeController(IngressEntry(route_id=99, modulus=500, out_port=0))
        edge.set_controller(ctrl)
        p = Packet(src_host="H9", dst_host="H-X", size_bytes=100,
                   kar=KarHeader(route_id=77, ttl=0))
        edge.receive(p, in_port=0)
        sim.run()
        assert tracer.drop_reasons["ttl-expired"] == 1
        assert not core.received

    def test_reencode_survives_failure(self):
        # AVP deflects packets into edges; re-encoding at the controller
        # (the paper's evaluated approach, the only one modelled) keeps
        # every packet accounted for and nearly all of them delivered.
        ks = KarSimulation(
            fifteen_node(rate_mbps=20.0, delay_s=0.0002),
            deflection="avp", protection=FULL, seed=11,
        )
        ks.schedule_failure("SW10", "SW7", at=0.5)
        src, sink = ks.add_udp_probe(rate_pps=200, duration_s=1.5)
        src.start(at=1.0)
        ks.run(until=8.0)
        edges = [n for n in ks.network.nodes.values()
                 if isinstance(n, EdgeNode)]
        assert sum(e.reencode_requests for e in edges) > 0
        accounted = sink.received + sum(ks.tracer.drop_reasons.values())
        assert accounted == src.sent
        assert sink.received >= 0.9 * src.sent
