"""Tests for the edge->controller retry policy and its edge integration."""

import random

import pytest

from repro.controller.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.sim.engine import Simulator
from repro.sim.packet import KarHeader, Packet
from repro.switches.edge import EdgeNode


class TestPolicyValidation:
    def test_defaults_are_valid(self):
        assert DEFAULT_RETRY_POLICY.max_attempts >= 1

    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": 0.0},
        {"timeout_s": -1.0},
        {"max_attempts": 0},
        {"base_backoff_s": 0.0},
        {"multiplier": 0.5},
        {"max_backoff_s": 0.001, "base_backoff_s": 0.01},
        {"jitter_frac": 1.5},
        {"jitter_frac": -0.1},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestBackoffSchedule:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base_backoff_s=0.01, multiplier=2.0,
                             max_backoff_s=1.0, jitter_frac=0.0)
        rng = random.Random(0)
        waits = [policy.backoff_s(a, rng) for a in (1, 2, 3, 4)]
        assert waits == pytest.approx([0.01, 0.02, 0.04, 0.08])

    def test_backoff_capped(self):
        policy = RetryPolicy(base_backoff_s=0.01, multiplier=10.0,
                             max_backoff_s=0.05, jitter_frac=0.0)
        rng = random.Random(0)
        assert policy.backoff_s(5, rng) == pytest.approx(0.05)

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            DEFAULT_RETRY_POLICY.backoff_s(0, random.Random(0))

    def test_jitter_is_deterministic_under_fixed_seed(self):
        policy = RetryPolicy(jitter_frac=0.5)
        a = [policy.backoff_s(i, random.Random(42)) for i in (1, 2, 3)]
        b = [policy.backoff_s(i, random.Random(42)) for i in (1, 2, 3)]
        assert a == b

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_backoff_s=0.01, multiplier=1.0,
                             max_backoff_s=0.01, jitter_frac=0.5)
        rng = random.Random(7)
        for attempt in range(1, 20):
            wait = policy.backoff_s(attempt, rng)
            assert 0.01 <= wait < 0.01 * 1.5

    def test_schedule_shape(self):
        # max_attempts timeouts interleaved with max_attempts-1 backoffs.
        policy = RetryPolicy(max_attempts=4)
        waits = policy.schedule(random.Random(0))
        assert len(waits) == 4 + 3
        assert waits[0] == policy.timeout_s
        assert waits[-1] == policy.timeout_s

    def test_worst_case_bounds_every_schedule(self):
        policy = RetryPolicy()
        for seed in range(20):
            total = sum(policy.schedule(random.Random(seed)))
            assert total <= policy.worst_case_s() + 1e-12


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


def _edge(sim, policy, ctrl):
    edge = EdgeNode("E1", sim, num_ports=2, retry_policy=policy,
                    rng=random.Random(1))
    edge.set_controller(ctrl)
    return edge


class TestEdgeDegradation:
    """The hardened misdelivery path: timeout, retry, give up, recover."""

    def test_unreachable_controller_exhausts_attempts_and_drops(self):
        sim = Simulator()
        policy = RetryPolicy(timeout_s=0.01, max_attempts=3,
                             base_backoff_s=0.005, jitter_frac=0.0)
        ctrl = _Controller()
        ctrl.reachable = False
        edge = _edge(sim, policy, ctrl)

        # Route a stray core packet in (port 0 is not a host port).
        edge.receive(_stray_packet(), in_port=0)
        sim.run()
        assert ctrl.calls == 0  # never answered, never invoked
        assert edge.reencode_requests == 3
        assert edge.reencode_timeouts == 3
        assert edge.reencode_retries == 2
        assert edge.reencode_giveups == 1
        assert edge.drops == 1

    def test_drop_reason_is_reencode_unreachable(self):
        sim = Simulator()
        policy = RetryPolicy(timeout_s=0.01, max_attempts=2,
                             base_backoff_s=0.005, jitter_frac=0.0)
        ctrl = _Controller()
        ctrl.reachable = False
        edge = _edge(sim, policy, ctrl)
        reasons = []

        class Tracer:
            def on_drop(self, time, node, packet, reason):
                reasons.append(reason)

        edge.tracer = Tracer()
        edge.receive(_stray_packet(), in_port=0)
        sim.run()
        assert reasons == ["reencode-unreachable"]

    def test_recovery_mid_retries_answers_the_request(self):
        from repro.switches.edge import IngressEntry

        sim = Simulator()
        policy = RetryPolicy(timeout_s=0.01, max_attempts=4,
                             base_backoff_s=0.005, jitter_frac=0.0)
        ctrl = _Controller(entry=IngressEntry(
            route_id=3, modulus=5, out_port=0, ttl=16))
        ctrl.reachable = False
        edge = _edge(sim, policy, ctrl)
        # Controller comes back after the first timeout+backoff window.
        sim.schedule_at(0.012, setattr, ctrl, "reachable", True)
        edge.receive(_stray_packet(), in_port=0)
        sim.run()
        assert ctrl.calls == 1          # second attempt got through
        assert edge.reencode_timeouts == 1
        assert edge.reencode_giveups == 0
        assert edge.drops == 0

    def test_retry_timing_is_seed_deterministic(self):
        def run(seed):
            sim = Simulator()
            policy = RetryPolicy(timeout_s=0.01, max_attempts=4,
                                 base_backoff_s=0.005, jitter_frac=0.5)
            ctrl = _Controller()
            ctrl.reachable = False
            edge = EdgeNode("E1", sim, num_ports=2, retry_policy=policy,
                            rng=random.Random(seed))
            edge.set_controller(ctrl)
            times = []

            class Tracer:
                def on_drop(self, time, node, packet, reason):
                    times.append(time)

            edge.tracer = Tracer()
            edge.receive(_stray_packet(), in_port=0)
            sim.run()
            return times

        assert run(5) == run(5)
        assert run(5) != run(6)  # jitter actually draws from the stream

    def test_reachable_controller_unaffected_by_policy(self):
        from repro.switches.edge import IngressEntry

        sim = Simulator()
        ctrl = _Controller(entry=IngressEntry(
            route_id=3, modulus=5, out_port=0, ttl=16))
        edge = _edge(sim, DEFAULT_RETRY_POLICY, ctrl)
        edge.receive(_stray_packet(), in_port=0)
        sim.run()
        assert ctrl.calls == 1
        assert edge.reencode_timeouts == 0
        assert edge.reencode_requests == 1
