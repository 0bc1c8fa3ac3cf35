"""Tests for the generative chaos injectors.

The contract under test: every injector is a pure function of
(topology, config, seed) — bit-identical event logs across runs — and
none of them may exceed the concurrent-down budget or touch host access
links.
"""

import pytest

from repro import KarSimulation, fifteen_node
from repro.sim.chaos import (
    CHAOS_MODES,
    ControllerOutageChaos,
    MtbfMttrChaos,
    events_digest,
)
from repro.topology import NodeKind

HORIZON = 3.0


def _sim(seed=42):
    return KarSimulation(fifteen_node(), deflection="nip", seed=seed)


def _mode_kwargs(mode):
    # Parameters aggressive enough that every mode fires within HORIZON.
    return {
        "mtbf": {"mtbf_s": 0.5, "mttr_s": 0.2},
        "srlg": {"group_mtbf_s": 0.5, "mttr_s": 0.2},
        "adversarial": {"interval_s": 0.5, "hold_s": 0.2},
        "dynamic": {"strikes": 16, "min_down_s": 0.05, "max_down_s": 0.2},
    }[mode]


def _run_mode(mode, seed, with_traffic=False):
    ks = _sim(seed)
    injector = ks.add_chaos(mode, until=HORIZON, **_mode_kwargs(mode))
    if with_traffic:
        src, _ = ks.add_udp_probe(rate_pps=200, duration_s=HORIZON)
        src.start(at=0.05)
    ks.run(until=HORIZON + 1.0)
    return injector


class TestReproducibility:
    @pytest.mark.parametrize("mode", sorted(CHAOS_MODES))
    def test_same_seed_same_event_log(self, mode):
        # Adversarial chaos reacts to traffic, so drive identical traffic.
        a = _run_mode(mode, seed=42, with_traffic=True)
        b = _run_mode(mode, seed=42, with_traffic=True)
        assert a.events == b.events
        assert a.digest() == b.digest()
        assert a.events, f"{mode} produced no events; params too tame"

    def test_different_seed_different_trajectory(self):
        a = _run_mode("mtbf", seed=1)
        b = _run_mode("mtbf", seed=2)
        assert a.digest() != b.digest()

    def test_digest_reflects_event_content(self):
        a = _run_mode("mtbf", seed=1)
        assert events_digest(a.events) == a.digest()
        assert events_digest(a.events[:-1]) != a.digest()


class TestBudgetAndEligibility:
    def test_eligible_defaults_to_core_core_links(self):
        ks = _sim()
        injector = ks.add_chaos("mtbf", until=HORIZON)
        graph = ks.network.graph
        for a, b in injector.eligible:
            assert graph.node(a).kind == NodeKind.CORE
            assert graph.node(b).kind == NodeKind.CORE

    @pytest.mark.parametrize("mode", sorted(CHAOS_MODES))
    def test_concurrent_down_never_exceeds_budget(self, mode):
        ks = _sim()
        injector = ks.add_chaos(mode, until=HORIZON, **_mode_kwargs(mode))
        if mode == "adversarial":
            src, _ = ks.add_udp_probe(rate_pps=200, duration_s=HORIZON)
            src.start(at=0.05)
        ks.run(until=HORIZON + 1.0)
        down = set()
        for ev in injector.events:
            if ev.kind == "fail":
                down.add(ev.link)
            elif ev.kind == "repair":
                down.discard(ev.link)
            assert len(down) <= injector.max_down

    def test_everything_repaired_after_quiesce(self):
        ks = _sim()
        ks.add_chaos("mtbf", until=HORIZON, mtbf_s=0.3, mttr_s=0.1)
        ks.run(until=HORIZON + 5.0)
        assert ks.network.down_link_keys() == []

    def test_bad_link_rejected_early(self):
        ks = _sim()
        with pytest.raises(KeyError):
            ks.add_chaos("mtbf", until=HORIZON,
                         links=[("SW1", "NOPE")])

    def test_unknown_mode(self):
        ks = _sim()
        with pytest.raises(ValueError, match="teleport"):
            ks.add_chaos("teleport", until=HORIZON)

    def test_nonpositive_horizon_rejected(self):
        ks = _sim()
        with pytest.raises(ValueError, match="horizon"):
            ks.add_chaos("mtbf", until=0.0)

    def test_double_install_rejected(self):
        ks = _sim()
        injector = ks.add_chaos("mtbf", until=HORIZON)
        with pytest.raises(RuntimeError, match="already installed"):
            injector.install()


class TestMtbfMttr:
    def test_per_link_events_alternate_fail_repair(self):
        injector = _run_mode("mtbf", seed=42)
        by_link = {}
        for ev in injector.events:
            by_link.setdefault(ev.link, []).append(ev.kind)
        assert by_link
        for link, kinds in by_link.items():
            assert kinds[0] == "fail"
            for first, second in zip(kinds, kinds[1:]):
                assert first != second, f"{link}: {kinds}"

    def test_bad_parameters_rejected(self):
        ks = _sim()
        with pytest.raises(ValueError, match="mtbf/mttr"):
            MtbfMttrChaos(ks.network, ks.rng, until=1.0, mtbf_s=-1.0)


class TestSrlg:
    def test_group_members_fail_and_repair_together(self):
        ks = _sim()
        group = ks.network.core_link_keys()[:3]
        injector = ks.add_chaos(
            "srlg", until=HORIZON, groups=[group],
            group_mtbf_s=0.5, mttr_s=0.2, max_down=len(group),
        )
        ks.run(until=HORIZON + 2.0)
        assert injector.events
        by_time = {}
        for ev in injector.events:
            by_time.setdefault((ev.time, ev.kind), set()).add(ev.link)
        for (_, kind), links in by_time.items():
            # Every strike/repair lands on the whole group at one instant.
            assert links == set(group), (kind, links)

    def test_empty_explicit_groups_rejected(self):
        ks = _sim()
        with pytest.raises(ValueError, match="empty"):
            ks.add_chaos("srlg", until=HORIZON, groups=[[]])

    def test_node_star_groups_take_a_switch_dark(self):
        # One group per core switch's links: a strike takes the switch
        # dark.
        ks = _sim()
        core = sorted({name for key in ks.network.core_link_keys()
                       for name in key})
        stars = [[key for key in ks.network.core_link_keys() if sw in key]
                 for sw in core]
        injector = ks.add_chaos("srlg", until=HORIZON, groups=stars,
                                group_mtbf_s=0.3, mttr_s=0.2)
        ks.run(until=HORIZON + 2.0)
        strikes = {}
        for ev in injector.events:
            if ev.kind == "fail":
                strikes.setdefault((ev.time, ev.cause), []).append(ev.link)
        assert len(strikes) >= 3
        for (at, cause), victims in strikes.items():
            switch = core[int(cause.removeprefix("srlg-"))]
            assert all(switch in key for key in victims), (switch, victims)
            repairs = {
                next(e.time for e in injector.events
                     if e.kind == "repair" and e.link == key
                     and e.time > at)
                for key in victims
            }
            # The whole strike comes back at one instant.
            assert len(repairs) == 1, (cause, victims, repairs)


class TestAdversarial:
    def test_targets_the_hottest_link(self):
        ks = _sim()
        injector = ks.add_chaos("adversarial", until=1.0,
                                interval_s=0.5, hold_s=0.2)
        hot = injector.eligible[3]
        # Synthesize traffic on one link after the baseline snapshot.
        ks.network.link_between(*hot).stats_ab.tx_packets += 100
        ks.run(until=1.0)
        fails = [e for e in injector.events if e.kind == "fail"]
        assert fails and fails[0].link == hot
        assert fails[0].cause == "hot:100pkts"

    def test_idle_network_is_left_alone(self):
        injector = _run_mode("adversarial", seed=42, with_traffic=False)
        assert injector.events == []


class TestFlipOrdering:
    """Same-instant link flips must apply in one canonical order.

    Regression for the old ``_set_link`` behaviour, where simultaneous
    events applied in scheduler insertion order — the final link state
    and the event digest depended on which injector armed first.
    """

    def _injector(self):
        ks = _sim()
        # Constructed but never install()ed: no events of its own, so
        # the test fully controls what gets staged.
        return ks, MtbfMttrChaos(ks.network, ks.rng, until=HORIZON)

    def _collide(self, order):
        ks, inj = self._injector()
        link = inj.eligible[0]
        flips = [(link, False, "strike"), (link, True, "rescue")]
        if order == "repair-first":
            flips.reverse()
        for key, up, cause in flips:
            ks.sim.schedule_at(1.0, inj._set_link, key, up, cause)
        ks.run(until=2.0)
        return ks, inj, link

    @pytest.mark.parametrize("order", ["fail-first", "repair-first"])
    def test_fail_beats_simultaneous_repair(self, order):
        ks, inj, link = self._collide(order)
        # Canonical outcome regardless of insertion order: the link
        # ends DOWN and only the fail is logged (the repair is a no-op
        # against the staged state).
        assert not ks.network.link_between(*link).up
        assert [(e.kind, e.link) for e in inj.events] == [("fail", link)]

    def test_colliding_orders_produce_identical_digests(self):
        _, a, _ = self._collide("fail-first")
        _, b, _ = self._collide("repair-first")
        assert a.events == b.events
        assert a.digest() == b.digest()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_same_instant_fails_sort_by_link_key(self, reverse):
        ks, inj = self._injector()
        links = sorted(inj.eligible[:3])
        staged = list(reversed(links)) if reverse else list(links)
        for key in staged:
            ks.sim.schedule_at(1.0, inj._set_link, key, False, "strike")
        ks.run(until=2.0)
        assert [e.link for e in inj.events] == links

    def test_repair_applies_before_fail_on_distinct_links(self):
        ks, inj = self._injector()
        l1, l2 = sorted(inj.eligible[:2])
        ks.network.link_between(*l1).set_up(False)
        # Same instant: fail l2 (staged first) and repair l1.
        ks.sim.schedule_at(1.0, inj._set_link, l2, False, "strike")
        ks.sim.schedule_at(1.0, inj._set_link, l1, True, "rescue")
        ks.run(until=2.0)
        # Canonical order: repairs first, then fails.
        assert [(e.kind, e.link) for e in inj.events] == [
            ("repair", l1), ("fail", l2),
        ]

    def test_duplicate_fail_requests_collapse(self):
        ks, inj = self._injector()
        link = inj.eligible[0]
        ks.sim.schedule_at(1.0, inj._set_link, link, False, "first")
        ks.sim.schedule_at(1.0, inj._set_link, link, False, "second")
        ks.run(until=2.0)
        assert [e.cause for e in inj.events] == ["first"]


class _FakeController:
    def __init__(self):
        self.reachable = True
        self.toggles = []

    def set_reachable(self, up):
        self.reachable = up
        self.toggles.append(up)


class TestControllerOutage:
    def test_outage_windows_toggle_reachability(self):
        ks = _sim()
        ctrl = _FakeController()
        injector = ControllerOutageChaos(
            ks.network, ks.rng, until=HORIZON, controller=ctrl,
            outage_mtbf_s=0.5, outage_s=0.2,
        ).install()
        ks.run(until=HORIZON + 2.0)
        assert injector.events
        kinds = [e.kind for e in injector.events]
        assert kinds[0] == "ctrl-down"
        for first, second in zip(kinds, kinds[1:]):
            assert first != second
        # Every outage ends: the controller is reachable at quiesce.
        assert ctrl.reachable
        assert ctrl.toggles[0] is False

    def test_requires_set_reachable(self):
        ks = _sim()
        with pytest.raises(ValueError, match="set_reachable"):
            ControllerOutageChaos(ks.network, ks.rng, until=1.0,
                                  controller=object())
