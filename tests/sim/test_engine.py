"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Link, Packet, SimError, Simulator
from repro.sim.node import Node


class Sink(Node):
    """Records each arriving packet's payload."""

    def __init__(self, name, sim, num_ports, log=None):
        super().__init__(name, sim, num_ports)
        self.log = log if log is not None else []

    def receive(self, packet, in_port):
        self.log.append(packet.payload)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run_until(10.0)
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [2.5]

    def test_schedule_during_run(self):
        sim = Simulator()
        order = []

        def first():
            order.append(("first", sim.now))
            sim.schedule(1.0, lambda: order.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run_until(10.0)
        assert order == [("first", 1.0), ("second", 2.0)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [5.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(1.0)
        with pytest.raises(SimError):
            sim.schedule_at(0.5, lambda: None)


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run_until(2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run_until(6.0)
        assert fired == [1, 5]

    def test_boundary_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, 1)
        sim.run_until(2.0)
        assert fired == [1]

    def test_clock_reaches_end_even_when_idle(self):
        sim = Simulator()
        sim.run_until(7.0)
        assert sim.now == 7.0

    def test_backwards_run_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimError):
            sim.run_until(3.0)

    def test_reentrant_run_rejected(self):
        sim = Simulator()

        def reenter():
            with pytest.raises(SimError):
                sim.run_until(10.0)

        sim.schedule(1.0, reenter)
        sim.run_until(2.0)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run_until(10.0)
        assert sim.events_processed == 4


class TestPostFastPath:
    """A Channel pushes its own heap entries (the old ``post`` path)."""

    def test_post_and_schedule_interleave_fifo(self):
        # Channel entries draw from the simulator's counter, so a
        # channel arrival and scheduled events at one instant fire in
        # the order they were pushed — the property that lets Channel
        # skip schedule() without moving a digest.
        sim = Simulator()
        order = []
        a, b = Sink("A", sim, 1), Sink("B", sim, 1, log=order)
        # 8 Mbit/s: 1000 bytes serialize in 1 ms; 1 ms propagation.
        Link(sim, a, 0, b, 0, rate_mbps=8.0, delay_s=0.001)
        sim.schedule(0.002, order.append, "s1")
        a.send(0, Packet(src_host="a", dst_host="b", size_bytes=1000,
                         payload="p1"))
        # Pushed at t=0.001, after the serializer pushed the arrival.
        sim.schedule(0.001, sim.schedule, 0.001, order.append, "s2")
        sim.run_until(0.002)
        assert order == ["s1", "p1", "s2"]


NAN = float("nan")


class TestNonFiniteTimes:
    """NaN compares false with everything, so `delay < 0` let it through."""

    @pytest.mark.parametrize("method", ["schedule"])
    def test_nan_delay_rejected(self, method):
        sim = Simulator()
        with pytest.raises(SimError):
            getattr(sim, method)(NAN, lambda: None)
        sim.run_until(1.0)
        assert sim.events_processed == 0

    @pytest.mark.parametrize("method", ["schedule_at"])
    def test_nan_time_rejected(self, method):
        sim = Simulator()
        with pytest.raises(SimError):
            getattr(sim, method)(NAN, lambda: None)
        sim.run_until(1.0)
        assert sim.events_processed == 0

    def test_nan_end_time_rejected(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        with pytest.raises(SimError):
            sim.run_until(NAN)
        assert fired == [] and sim.now == 0.0
        sim.run_until(2.0)  # the engine is still usable
        assert fired == [1]


class TestPendingAccounting:
    """What stays pending in the heap across runs, and what is counted."""

    def test_run_until_pushes_back_the_overshooting_entry(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.schedule(5.0, fired.append, "c")
        sim.run_until(2.0)
        assert fired == ["a"] and sim.now == 2.0
        assert sim.events_processed == 1
        sim.schedule(3.0, fired.append, "d")  # lands at 5.0, after b and c
        sim.run_until(6.0)
        assert fired == ["a", "b", "c", "d"]
        assert sim.events_processed == 4

    def test_entry_at_end_time_fires_and_next_stays_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "at")
        sim.schedule(2.0 + 1e-12, fired.append, "after")
        sim.run_until(2.0)
        assert fired == ["at"]
        assert sim.now == 2.0
        assert sim.events_processed == 1
        sim.run_until(3.0)
        assert fired == ["at", "after"]

    def test_link_down_leaves_stale_channel_entries(self):
        sim = Simulator()
        a, b = Sink("A", sim, 1), Sink("B", sim, 1)
        # 8 Mbit/s: 1000 bytes serialize in 1 ms; 2 ms propagation.
        link = Link(sim, a, 0, b, 0, rate_mbps=8.0, delay_s=0.002)
        for _ in range(2):
            a.send(0, Packet(src_host="a", dst_host="b", size_bytes=1000))
        sim.run_until(0.0015)  # first on the wire, second serializing
        assert sim.events_processed == 1
        link.set_up(False)
        assert link.stats_ab.failure_drops == 2
        # The arrival and the completion stay in the heap as no-ops.
        sim.run_until(1.0)
        assert sim.events_processed == 3  # first completion + two no-ops
        assert link.stats_ab.delivered_packets == 0
        assert b.log == []
