"""Tests for the dynamic link-failure adversary and worst-case search."""

import pytest

from repro import KarSimulation, fifteen_node
from repro.experiments.frontier import search_worst_schedule
from repro.sim.chaos import CHAOS_MODES, DynamicLinkChaos

HORIZON = 2.0


def _run(seed=42, schedule_seed=0, **kwargs):
    ks = KarSimulation(fifteen_node(), deflection="nip", seed=seed)
    injector = ks.add_chaos(
        "dynamic", until=HORIZON, schedule_seed=schedule_seed,
        strikes=12, min_down_s=0.01, max_down_s=0.05, **kwargs,
    )
    src, sink = ks.add_udp_probe(rate_pps=200, duration_s=HORIZON)
    src.start(at=0.05)
    ks.run(until=HORIZON + 1.0)
    return ks, injector, src, sink


class TestDynamicLinkChaos:
    def test_registered_as_chaos_mode(self):
        assert CHAOS_MODES["dynamic"] is DynamicLinkChaos

    def test_seed_reproducible_event_log(self):
        _, a, _, _ = _run(seed=7)
        _, b, _, _ = _run(seed=7)
        assert a.events == b.events
        assert a.digest() == b.digest()
        assert a.events

    def test_schedule_seed_changes_the_trajectory(self):
        _, a, _, _ = _run(seed=7, schedule_seed=0)
        _, b, _, _ = _run(seed=7, schedule_seed=1)
        assert a.digest() != b.digest()

    def test_links_recover_during_the_run(self):
        # The defining property of the dynamic adversary: every strike
        # is a fail+repair pair with a sub-horizon down window, so
        # links come back while traffic is still flowing.
        ks, injector, _, _ = _run()
        fails = {}
        windows = []
        for ev in injector.events:
            if ev.kind == "fail":
                fails[(ev.link, ev.cause)] = ev.time
            else:
                start = fails.pop((ev.link, ev.cause))
                windows.append(ev.time - start)
        assert not fails, "every applied strike must be repaired"
        assert windows
        for window in windows:
            assert 0.01 <= window <= 0.05 + 1e-9
        assert ks.network.down_link_keys() == []

    def test_budget_caps_concurrent_down(self):
        _, injector, _, _ = _run(max_down=1)
        down = set()
        for ev in injector.events:
            if ev.kind == "fail":
                down.add(ev.link)
            else:
                down.discard(ev.link)
            assert len(down) <= 1

    def test_oblivious_to_traffic(self):
        # Unlike the adversarial injector, the schedule is drawn up
        # front: an idle network sees the same strikes as a busy one.
        ks = KarSimulation(fifteen_node(), deflection="nip", seed=7)
        idle = ks.add_chaos("dynamic", until=HORIZON, strikes=12,
                            min_down_s=0.01, max_down_s=0.05)
        ks.run(until=HORIZON + 1.0)
        _, busy, _, _ = _run(seed=7)
        assert idle.digest() == busy.digest()

    def test_bad_parameters_rejected(self):
        ks = KarSimulation(fifteen_node(), deflection="nip", seed=0)
        with pytest.raises(ValueError, match="strikes"):
            DynamicLinkChaos(ks.network, ks.rng, until=1.0, strikes=0)
        with pytest.raises(ValueError, match="down window"):
            DynamicLinkChaos(ks.network, ks.rng, until=1.0,
                             min_down_s=0.2, max_down_s=0.1)
        with pytest.raises(ValueError, match="down window"):
            DynamicLinkChaos(ks.network, ks.rng, until=1.0,
                             min_down_s=0.0)


class TestWorstScheduleSearch:
    def test_ranked_worst_first_and_reproducible(self):
        cells = search_worst_schedule(
            "clique", "nip", seed=1, schedules=3, budget=2,
            adversary={"strikes": 16},
        )
        assert len(cells) == 3
        ratios = [c.delivery_ratio for c in cells]
        assert ratios == sorted(ratios)
        assert {c.schedule_seed for c in cells} == {0, 1, 2}
        for cell in cells:
            assert cell.mode == "dynamic"
            assert cell.violation_count == 0
        again = search_worst_schedule(
            "clique", "nip", seed=1, schedules=3, budget=2,
            adversary={"strikes": 16},
        )
        assert [c.digest for c in again] == [c.digest for c in cells]

    def test_validation(self):
        with pytest.raises(ValueError, match="schedule"):
            search_worst_schedule("clique", "nip", schedules=0)
        with pytest.raises(ValueError, match="budget"):
            search_worst_schedule("clique", "nip", budget=0)
