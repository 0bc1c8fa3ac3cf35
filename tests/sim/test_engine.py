"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Link, Packet, SimError, Simulator
from repro.sim.node import Node


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, order.append, "c")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(2.0, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_for_simultaneous_events(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(1.0, order.append, tag)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_during_run(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(1.0, lambda: order.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0

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
        sim.run()
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


class TestPostFastPath:
    """post()/post_at(): the handle-free path for uncancellable events."""

    def test_post_fires_with_args(self):
        sim = Simulator()
        seen = []
        sim.post(1.0, seen.append, "a")
        sim.post(0.5, seen.append, "b")
        sim.run()
        assert seen == ["b", "a"]
        assert sim.now == 1.0

    def test_post_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.post_at(5.0, lambda: seen.append(sim.now))
        sim.run_until(10.0)
        assert seen == [5.0]

    def test_post_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.post(-0.1, lambda: None)

    def test_post_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimError):
            sim.post_at(0.5, lambda: None)

    def test_post_and_schedule_interleave_fifo(self):
        # Both paths consume one sequence number per call, so mixing
        # them preserves scheduling order among same-time events — the
        # property that makes post() digest-neutral.
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, "s1")
        sim.post(1.0, order.append, "p1")
        sim.schedule(1.0, order.append, "s2")
        sim.post(1.0, order.append, "p2")
        sim.run()
        assert order == ["s1", "p1", "s2", "p2"]

    def test_post_counts_in_pending_and_processed(self):
        sim = Simulator()
        sim.post(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 2

    def test_cancelled_events_not_counted_as_processed(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(1.5, lambda: None).cancel()
        sim.post(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_pending_counts_live_events(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        h1.cancel()
        assert sim.pending() == 1

    def test_cancel_after_fire_does_not_corrupt_pending(self):
        # Regression: cancelling a handle whose event already fired
        # used to decrement the live counter a second time, driving
        # pending() negative and corrupting later accounting.
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.pending() == 0
        handle.cancel()
        assert sim.pending() == 0
        handle.cancel()  # still idempotent after firing
        assert sim.pending() == 0
        # The counter must stay coherent for events scheduled later.
        sim.schedule(1.0, lambda: None)
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0

    def test_cancel_after_fire_inside_run(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, 1)
        # A later event cancels the earlier, already-fired one: the
        # cancel must be a no-op, not a second live-counter decrement.
        sim.schedule(2.0, handle.cancel)
        sim.run()
        assert fired == [1]
        assert handle.cancelled  # fired handles read as cancelled
        assert sim.pending() == 0
        assert sim.events_processed == 2


class TestStop:
    def test_stop_halts_processing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, fired.append, 3)
        sim.run()
        assert fired == [1]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


NAN = float("nan")


class TestNonFiniteTimes:
    """NaN compares false with everything, so `delay < 0` let it through."""

    @pytest.mark.parametrize("method", ["schedule", "post"])
    def test_nan_delay_rejected(self, method):
        sim = Simulator()
        with pytest.raises(SimError):
            getattr(sim, method)(NAN, lambda: None)
        assert sim.pending() == 0

    @pytest.mark.parametrize("method", ["schedule_at", "post_at"])
    def test_nan_time_rejected(self, method):
        sim = Simulator()
        with pytest.raises(SimError):
            getattr(sim, method)(NAN, lambda: None)
        assert sim.pending() == 0

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
    """pending() is the heap size less the cancelled entries in it."""

    def test_mixed_schedule_post_cancel_fire(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.post(2.0, lambda: None)
        h3 = sim.schedule(3.0, lambda: None)
        sim.post_at(4.0, lambda: None)
        assert sim.pending() == 4
        h3.cancel()
        h3.cancel()
        assert sim.pending() == 3
        sim.run_until(1.0)
        assert sim.pending() == 2
        h1.cancel()  # already fired: no-op
        assert sim.pending() == 2
        sim.run_until(3.5)  # fires the post, discards cancelled h3
        assert sim.pending() == 1
        assert sim.events_processed == 2
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 3

    def test_pending_exact_inside_a_run(self):
        sim = Simulator()
        seen = []
        later = sim.schedule(3.0, lambda: None)
        sim.schedule(1.0, lambda: (later.cancel(), seen.append(sim.pending())))
        sim.post(2.0, lambda: seen.append(sim.pending()))
        sim.run()
        assert seen == [1, 0]
        assert sim.pending() == 0

    def test_run_until_pushes_back_the_overshooting_entry(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.post(5.0, fired.append, "b")
        sim.post(5.0, fired.append, "c")
        sim.run_until(2.0)
        assert fired == ["a"] and sim.now == 2.0
        assert sim.pending() == 2
        sim.post(3.0, fired.append, "d")  # lands at 5.0, after b and c
        sim.run_until(6.0)
        assert fired == ["a", "b", "c", "d"]
        assert sim.pending() == 0

    def test_cancelled_entry_past_end_time_stays_counted(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None).cancel()
        sim.run_until(2.0)
        assert sim.pending() == 0
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 0

    def test_entry_at_end_time_fires_and_next_stays_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "at")
        sim.schedule(2.0 + 1e-12, fired.append, "after")
        sim.schedule(1.5, lambda: None).cancel()
        sim.run_until(2.0)
        assert fired == ["at"]
        assert sim.now == 2.0
        assert sim.pending() == 1
        assert sim.events_processed == 1  # the cancelled entry is not counted

    def test_stop_mid_run(self):
        sim = Simulator()
        for t in (1.0, 3.0, 4.0):
            sim.schedule(t, lambda: None)
        sim.post(2.0, sim.stop)
        sim.run_until(10.0)
        assert sim.now == 2.0  # a stopped run leaves the clock where it stopped
        assert sim.pending() == 2
        assert sim.events_processed == 2
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 4

    def test_link_down_leaves_stale_channel_entries(self):
        class Sink(Node):
            def receive(self, packet, in_port):
                pass

        sim = Simulator()
        a, b = Sink("A", sim, 1), Sink("B", sim, 1)
        # 8 Mbit/s: 1000 bytes serialize in 1 ms; 2 ms propagation.
        link = Link(sim, a, 0, b, 0, rate_mbps=8.0, delay_s=0.002)
        for _ in range(2):
            a.send(0, Packet(src_host="a", dst_host="b", size_bytes=1000))
        sim.run_until(0.0015)  # first on the wire, second serializing
        assert sim.pending() == 2
        link.set_up(False)
        # The arrival and the completion stay in the heap as no-ops.
        assert sim.pending() == 2
        assert link.stats_ab.failure_drops == 2
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 3  # first completion + two no-ops
        assert link.stats_ab.delivered_packets == 0
