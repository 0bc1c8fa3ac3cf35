"""Tests for scripted link failures (``KarSimulation.schedule_failure``).

The paper's pattern: fail a link at t, repair it at t'.  Every refusal
names the link and happens before anything reaches the clock.
"""

import pytest

from repro import KarSimulation, fifteen_node


def _ks():
    return KarSimulation(fifteen_node(), deflection="nip", seed=0,
                         install_primary_flow=False)


class TestEventValidation:
    def test_negative_fail_time_rejected(self):
        with pytest.raises(ValueError, match="SW7-SW13.*non-negative"):
            _ks().schedule_failure("SW7", "SW13", at=-1.0)

    def test_negative_repair_time_rejected(self):
        # A repair before t=0 comes before any valid failure time.
        with pytest.raises(ValueError, match="SW13-SW29.*must come after"):
            _ks().schedule_failure("SW13", "SW29", at=0.0, repair_at=-0.5)

    def test_fail_between_rejects_inverted_window(self):
        # The message must name the link and both times.
        with pytest.raises(ValueError) as exc:
            _ks().schedule_failure("SW7", "SW13", at=5.0, repair_at=2.0)
        msg = str(exc.value)
        assert "SW7-SW13" in msg
        assert "t=2.0" in msg and "t=5.0" in msg

    def test_fail_between_rejects_zero_width_window(self):
        with pytest.raises(ValueError):
            _ks().schedule_failure("SW7", "SW13", at=3.0, repair_at=3.0)

    def test_fail_between_valid_window_produces_pair(self):
        ks = _ks()
        link = ks.network.link_between("SW7", "SW13")
        states = []
        for t in (0.5, 1.5, 2.5):
            ks.sim.schedule_at(t, lambda: states.append(link.up))
        ks.schedule_failure("SW7", "SW13", at=1.0, repair_at=2.0)
        ks.run(until=3.0)
        assert states == [True, False, True]


class TestInstallValidation:
    def test_install_rejects_unknown_link(self):
        with pytest.raises(ValueError) as exc:
            _ks().schedule_failure("SW7", "SW99", at=1.0)
        msg = str(exc.value)
        assert "SW7-SW99" in msg
        assert "does not exist" in msg
        # The offending event is spelled out too.
        assert "t=1" in msg and "fail" in msg

    def test_install_validates_before_scheduling_anything(self):
        # A refused call leaves nothing on the clock, whichever check
        # refused it.
        ks = _ks()
        for a, b, at, repair_at in (
            ("SW7", "SW99", 1.0, 2.0),    # typo'd endpoint
            ("SW7", "SW13", -1.0, None),  # negative time
            ("SW7", "SW13", 2.0, 1.0),    # inverted window
            ("SW7", "SW13", 1.0, 1.0),    # empty window
        ):
            with pytest.raises(ValueError):
                ks.schedule_failure(a, b, at=at, repair_at=repair_at)
        ks.run(until=3.0)
        assert ks.sim.events_processed == 0
        assert ks.network.link_between("SW7", "SW13").up

    def test_install_applies_valid_schedule(self):
        ks = _ks()
        ks.schedule_failure("SW7", "SW13", at=1.0, repair_at=2.0)
        ks.run(until=1.5)
        assert not ks.network.link_between("SW7", "SW13").up
        ks.run(until=2.5)
        assert ks.network.link_between("SW7", "SW13").up
