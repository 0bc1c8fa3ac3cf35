"""Tests for network assembly and failure scheduling."""

import pytest

from repro.sim import Network, Packet, Simulator
from repro.sim.node import Node
from repro.topology import NodeKind, PortGraph


class Sink(Node):
    def __init__(self, name, sim, num_ports):
        super().__init__(name, sim, num_ports)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((packet, in_port))


def _factories():
    def make(info, sim):
        return Sink(info.name, sim, info.degree)

    return {NodeKind.CORE: make, NodeKind.EDGE: make, NodeKind.HOST: make}


@pytest.fixture
def triangle():
    g = PortGraph()
    for name, sid in (("A", 5), ("B", 7), ("C", 11)):
        g.add_node(name, switch_id=sid)
    g.add_link("A", "B")
    g.add_link("B", "C")
    g.add_link("C", "A")
    sim = Simulator()
    return g, sim, Network(g, sim, _factories())


class TestAssembly:
    def test_nodes_built_with_correct_ports(self, triangle):
        g, sim, net = triangle
        for name in ("A", "B", "C"):
            assert net.node(name).num_ports == 2

    def test_port_numbering_preserved(self, triangle):
        g, sim, net = triangle
        # Topology: A port0->B; sending there must arrive at B.
        net.node("A").send(g.port_of("A", "B"), Packet(
            src_host="x", dst_host="y", size_bytes=100))
        sim.run_until(10.0)
        b = net.node("B")
        assert len(b.received) == 1
        assert b.received[0][1] == g.port_of("B", "A")

    def test_link_lookup(self, triangle):
        g, sim, net = triangle
        assert net.link_between("A", "B") is net.link_between("B", "A")
        with pytest.raises(KeyError):
            net.link_between("A", "Z")

    def test_unknown_node(self, triangle):
        g, sim, net = triangle
        with pytest.raises(KeyError):
            net.node("Z")

    def test_missing_factory(self):
        g = PortGraph()
        g.add_node("E", kind=NodeKind.EDGE)
        with pytest.raises(ValueError, match="no factory"):
            Network(g, Simulator(), {})

    def test_factory_port_mismatch(self, triangle):
        g, sim, _ = triangle

        def bad(info, s):
            return Sink(info.name, s, info.degree + 1)

        with pytest.raises(ValueError, match="ports"):
            Network(g, Simulator(), {NodeKind.CORE: bad})


class TestFailureSchedule:
    def test_fail_and_repair(self, triangle):
        # The primitive under KarSimulation.schedule_failure: link flips
        # put on the clock apply at their instants.
        g, sim, net = triangle
        link = net.link_between("A", "B")
        sim.schedule_at(1.0, link.set_up, False)
        sim.schedule_at(2.0, link.set_up, True)
        assert link.up
        sim.run_until(1.5)
        assert not link.up
        sim.run_until(2.5)
        assert link.up
