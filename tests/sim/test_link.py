"""Tests for link serialization, queueing, propagation and failure."""

import pytest

from repro.sim import Link, Packet, Simulator
from repro.sim.node import Node


class Recorder(Node):
    """Test node that records arrivals."""

    def __init__(self, name, sim, num_ports=1):
        super().__init__(name, sim, num_ports)
        self.received = []

    def receive(self, packet, in_port):
        self.received.append((self.sim.now, packet, in_port))


@pytest.fixture
def pair():
    sim = Simulator()
    a = Recorder("A", sim)
    b = Recorder("B", sim)
    # 8 Mbit/s -> a 1000-byte packet serializes in 1 ms; 2 ms propagation.
    link = Link(sim, a, 0, b, 0, rate_mbps=8.0, delay_s=0.002, queue_packets=2)
    return sim, a, b, link


def _pkt(size=1000):
    return Packet(src_host="ha", dst_host="hb", size_bytes=size)


class TestDelivery:
    def test_serialization_plus_propagation(self, pair):
        sim, a, b, link = pair
        assert a.send(0, _pkt()) is True
        sim.run_until(10.0)
        assert len(b.received) == 1
        # 1 ms serialization + 2 ms propagation.
        assert b.received[0][0] == pytest.approx(0.003)
        assert b.received[0][2] == 0

    def test_bidirectional(self, pair):
        sim, a, b, link = pair
        a.send(0, _pkt())
        b.send(0, _pkt())
        sim.run_until(10.0)
        assert len(a.received) == 1 and len(b.received) == 1

    def test_back_to_back_serialize(self, pair):
        sim, a, b, link = pair
        a.send(0, _pkt())
        a.send(0, _pkt())
        sim.run_until(10.0)
        times = [t for t, _, _ in b.received]
        assert times == [pytest.approx(0.003), pytest.approx(0.004)]

    def test_pipelining_under_propagation(self, pair):
        # Propagation (2 ms) exceeds serialization (1 ms): packets overlap
        # on the wire and arrive 1 ms apart.
        sim, a, b, link = pair
        for _ in range(3):
            a.send(0, _pkt())
        sim.run_until(10.0)
        arrive = [t for t, _, _ in b.received]
        assert arrive == [pytest.approx(0.003), pytest.approx(0.004),
                          pytest.approx(0.005)]


class TestQueueing:
    def test_queue_overflow_drops(self, pair):
        sim, a, b, link = pair
        # 1 transmitting + 2 queued fit; the 4th and 5th drop.
        results = [a.send(0, _pkt()) for _ in range(5)]
        assert results == [True, True, True, False, False]
        sim.run_until(10.0)
        assert len(b.received) == 3
        assert link.stats_ab.queue_drops == 2

    def test_stats_counters(self, pair):
        sim, a, b, link = pair
        a.send(0, _pkt())
        sim.run_until(10.0)
        assert link.stats_ab.tx_packets == 1
        assert link.stats_ab.tx_bytes == 1000
        assert link.stats_ab.delivered_packets == 1
        assert link.stats_ba.tx_packets == 0


class TestFailure:
    def test_down_link_refuses_packets(self, pair):
        sim, a, b, link = pair
        link.set_up(False)
        assert a.send(0, _pkt()) is False
        sim.run_until(10.0)
        assert b.received == []
        assert link.stats_ab.failure_drops == 1

    def test_down_drops_queued_and_inflight(self, pair):
        sim, a, b, link = pair
        for _ in range(3):
            a.send(0, _pkt())
        # Fail mid-transfer: first packet is mid-flight at 1.5 ms.
        sim.schedule(0.0015, link.set_up, False)
        sim.run_until(10.0)
        assert b.received == []

    def test_repair_restores_service(self, pair):
        sim, a, b, link = pair
        link.set_up(False)
        link.set_up(True)
        a.send(0, _pkt())
        sim.run_until(10.0)
        assert len(b.received) == 1

    def test_endpoints_notified(self, pair):
        sim, a, b, link = pair
        events = []
        a.on_link_state = lambda port, up: events.append(("A", port, up))
        b.on_link_state = lambda port, up: events.append(("B", port, up))
        link.set_up(False)
        assert ("A", 0, False) in events and ("B", 0, False) in events

    def test_port_up_reflects_state(self, pair):
        sim, a, b, link = pair
        assert a.port_up(0)
        link.set_up(False)
        assert not a.port_up(0)
        assert a.healthy_ports() == ()

    def test_set_up_idempotent(self, pair):
        sim, a, b, link = pair
        link.set_up(True)  # already up: no-op
        link.set_up(False)
        link.set_up(False)
        assert not link.up


class TestNodeWiring:
    def test_double_attach_rejected(self, pair):
        sim, a, b, link = pair
        with pytest.raises(Exception, match="already attached"):
            Link(sim, a, 0, b, 0)

    def test_send_on_uncabled_port(self):
        sim = Simulator()
        lone = Recorder("L", sim, num_ports=2)
        assert lone.send(1, _pkt()) is False

    def test_peer_name(self, pair):
        sim, a, b, link = pair
        assert a.peer_name(0) == "B"
        assert b.peer_name(0) == "A"


class TestParameterValidation:
    """Bad rates, delays and queue sizes are refused when the link is built."""

    @pytest.mark.parametrize("kwargs", [
        {"rate_mbps": 0.0},
        {"rate_mbps": -8.0},
        {"rate_mbps": float("nan")},
        {"rate_mbps": float("inf")},
        {"delay_s": -0.001},
        {"delay_s": float("nan")},
        {"delay_s": float("inf")},
        {"queue_packets": -1},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        sim = Simulator()
        a, b = Recorder("A", sim), Recorder("B", sim)
        with pytest.raises(ValueError, match=r"A:0 <-> B:0") as err:
            Link(sim, a, 0, b, 0, **kwargs)
        assert next(iter(kwargs)) in str(err.value)
        assert a.link_on(0) is None and b.link_on(0) is None

    def test_zero_delay_and_zero_queue_accepted(self):
        sim = Simulator()
        a, b = Recorder("A", sim), Recorder("B", sim)
        Link(sim, a, 0, b, 0, delay_s=0.0, queue_packets=0)
        assert a.send(0, _pkt()) is True
        assert a.send(0, _pkt()) is False  # no queue: the second drops
        sim.run_until(10.0)
        assert len(b.received) == 1


class TestSameTimeArrivals:
    def test_earlier_serialization_arrives_first(self):
        # A sends P1 and P2 back to back, so P2 queues behind P1.  B
        # sends Q at exactly the float time P1's serialization ends.  Q
        # and P2 then finish serializing, and reach C, at the same float
        # time; Q started serializing first, so it must arrive first.
        sim = Simulator()
        a, b = Recorder("A", sim), Recorder("B", sim)
        c = Recorder("C", sim, num_ports=2)
        rate_mbps, delay_s, size = 7.0, 0.0013, 1000
        Link(sim, a, 0, c, 0, rate_mbps=rate_mbps, delay_s=delay_s)
        Link(sim, b, 0, c, 1, rate_mbps=rate_mbps, delay_s=delay_s)
        p1_done = 0.0 + size * (8 / (rate_mbps * 1e6))  # as Channel does
        q = _pkt(size)
        sim.schedule_at(p1_done, b.send, 0, q)
        p1, p2 = _pkt(size), _pkt(size)
        a.send(0, p1)
        a.send(0, p2)
        sim.run_until(10.0)
        assert [(p, port) for _, p, port in c.received] == [
            (p1, 0), (q, 1), (p2, 0)
        ]
        assert c.received[1][0] == c.received[2][0]  # a true tie
