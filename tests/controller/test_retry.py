"""Tests for the edge's re-encode retry discipline: the fixed timeout,
backoff and attempt constants of :mod:`repro.switches.edge`, and the
degradation path they drive when the controller does not answer."""

import random

import pytest

from repro.sim.engine import Simulator
from repro.sim.packet import KarHeader, Packet
from repro.switches.edge import (
    RETRY_MAX_ATTEMPTS,
    EdgeNode,
    IngressEntry,
    backoff_s,
)


class _NoJitter(random.Random):
    """A stream whose every draw is 0.0: the backoff before jitter."""

    def random(self):
        return 0.0


class TestBackoffSchedule:
    def test_exponential_growth_without_jitter(self):
        rng = _NoJitter()
        waits = [backoff_s(a, rng) for a in (1, 2, 3, 4)]
        assert waits == pytest.approx([0.01, 0.02, 0.04, 0.08])

    def test_backoff_capped(self):
        # The attempt limit is the cap: the last retry waits from 0.04 s.
        rng = _NoJitter()
        assert backoff_s(5, rng) == pytest.approx(0.16)
        for seed in range(20):
            wait = backoff_s(RETRY_MAX_ATTEMPTS - 1, random.Random(seed))
            assert wait <= 0.04 * 1.5

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            backoff_s(0, random.Random(0))

    def test_jitter_is_deterministic_under_fixed_seed(self):
        a = [backoff_s(i, random.Random(42)) for i in (1, 2, 3)]
        b = [backoff_s(i, random.Random(42)) for i in (1, 2, 3)]
        assert a == b

    def test_jitter_stays_within_fraction(self):
        rng = random.Random(7)
        for attempt in range(1, 20):
            base = backoff_s(attempt, _NoJitter())
            wait = backoff_s(attempt, rng)
            assert base <= wait < base * 1.5


class _Controller:
    """Scriptable re-encode service for edge tests."""

    def __init__(self, entry=None):
        self.entry = entry
        self.reachable = True
        self.control_rtt_s = 0.001
        self.calls = 0

    def reencode(self, edge_name, dst_host):
        self.calls += 1
        return self.entry


def _stray_packet(ttl=32):
    return Packet(src_host="S", dst_host="D", size_bytes=100,
                  kar=KarHeader(route_id=1, modulus=5, ttl=ttl))


def _edge(sim, ctrl, seed=1):
    edge = EdgeNode("E1", sim, num_ports=2, rng=random.Random(seed))
    edge.set_controller(ctrl)
    return edge


def _drop_log(edge):
    """Record ``(time, reason)`` for every drop at *edge*."""
    drops = []

    class Tracer:
        def on_drop(self, time, node, packet, reason):
            drops.append((time, reason))

    edge.tracer = Tracer()
    return drops


class TestEdgeDegradation:
    """The hardened misdelivery path: timeout, retry, give up, recover."""

    def test_unreachable_controller_exhausts_attempts_and_drops(self):
        sim = Simulator()
        ctrl = _Controller()
        ctrl.reachable = False
        edge = _edge(sim, ctrl)

        # Route a stray core packet in (port 0 is not a host port).
        edge.receive(_stray_packet(), in_port=0)
        sim.run_until(10.0)
        assert ctrl.calls == 0  # never answered, never invoked
        assert RETRY_MAX_ATTEMPTS == 4
        assert edge.reencode_requests == 4
        assert edge.reencode_timeouts == 4
        assert edge.reencode_retries == 3
        assert edge.reencode_giveups == 1
        assert edge.drops == 1

    def test_drop_reason_is_reencode_unreachable(self):
        sim = Simulator()
        ctrl = _Controller()
        ctrl.reachable = False
        edge = _edge(sim, ctrl)
        drops = _drop_log(edge)
        edge.receive(_stray_packet(), in_port=0)
        sim.run_until(10.0)
        [(time, reason)] = drops
        assert reason == "reencode-unreachable"
        # Four 0.02 s timeouts plus backoffs of 0.01, 0.02 and 0.04 s,
        # each stretched by less than half of itself.
        assert 0.15 <= time < 0.185

    def test_recovery_mid_retries_answers_the_request(self):
        sim = Simulator()
        ctrl = _Controller(entry=IngressEntry(
            route_id=3, modulus=5, out_port=0, ttl=16))
        ctrl.reachable = False
        edge = _edge(sim, ctrl)
        # Controller comes back after the first timeout (0.02 s) and
        # before the second attempt (0.03-0.035 s).
        sim.schedule_at(0.025, setattr, ctrl, "reachable", True)
        edge.receive(_stray_packet(), in_port=0)
        sim.run_until(10.0)
        assert ctrl.calls == 1          # second attempt got through
        assert edge.reencode_timeouts == 1
        assert edge.reencode_giveups == 0
        assert edge.drops == 0

    def test_retry_timing_is_seed_deterministic(self):
        def run(seed):
            sim = Simulator()
            ctrl = _Controller()
            ctrl.reachable = False
            edge = _edge(sim, ctrl, seed=seed)
            drops = _drop_log(edge)
            edge.receive(_stray_packet(), in_port=0)
            sim.run_until(10.0)
            return drops

        assert run(5) == run(5)
        assert run(5) != run(6)  # jitter actually draws from the stream

    def test_reachable_controller_unaffected_by_policy(self):
        sim = Simulator()
        ctrl = _Controller(entry=IngressEntry(
            route_id=3, modulus=5, out_port=0, ttl=16))
        edge = _edge(sim, ctrl)
        edge.receive(_stray_packet(), in_port=0)
        sim.run_until(10.0)
        assert ctrl.calls == 1
        assert edge.reencode_timeouts == 0
        assert edge.reencode_requests == 1
