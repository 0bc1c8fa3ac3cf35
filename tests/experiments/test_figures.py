"""The paper's figures as shape checks on a shortened timeline.

Each check asserts a qualitative claim of Section 3 — who wins, by
roughly what factor — on the numbers ``repro report`` computes, so a
regression in the dataplane or the transport fails here.  ``QUICK``
keeps the whole module at about a minute on one core; ``repro report``
runs the full-length timeline.
"""

import pytest

from repro.experiments.common import (
    Timeline,
    run_failure_experiment,
    scenario_factory,
)
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure7 import run_figure7
from repro.experiments.figure8 import analytical_model, run_figure8
from repro.runner import KarSimulation
from repro.topology.topologies import FULL, PARTIAL, UNPROTECTED

#: The failure window starts 1.5 s after the failure so the measured
#: plateau skips TCP's reordering-adaptation transient (the full-length
#: timeline in repro.experiments.common does the same proportionally).
QUICK = Timeline(
    flow_start=0.2,
    fail_at=2.0,
    repair_at=6.0,
    end=8.0,
    baseline_window=(1.0, 2.0),
    failure_window=(3.5, 6.0),
    sample_interval_s=0.25,
)


# ---------------------------------------------------------------------------
# Fig. 4 — throughput across the SW7-SW13 failure, by technique.  These
# runs stay on run_failure_experiment: the disordering check reads the
# live iperf's reordering counters, which a farm record does not carry.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fig4():
    return {
        technique: run_failure_experiment(
            scenario_factory("fifteen_node")(), technique, PARTIAL,
            ("SW7", "SW13"), 1, QUICK,
        )
        for technique in ("nip", "avp", "hp", "none")
    }


def test_figure4_nip_keeps_most_and_techniques_rank(fig4):
    assert fig4["nip"].ratio > 0.5  # paper: ~0.75
    assert fig4["nip"].ratio > fig4["avp"].ratio > fig4["hp"].ratio
    assert fig4["none"].ratio < 0.05
    assert fig4["nip"].failure_mbps > 0 and fig4["avp"].failure_mbps > 0


def test_figure4_no_deflection_stops_then_recovers(fig4):
    none = fig4["none"]
    in_window = [
        mbps for t, mbps in none.iperf.intervals
        if QUICK.failure_window[0] + 0.5 < t <= QUICK.failure_window[1]
    ]
    assert max(in_window, default=0.0) < 1.0
    post = [
        mbps for t, mbps in none.iperf.intervals if t > QUICK.repair_at + 1.0
    ]
    assert max(post, default=0.0) > 0.3 * none.baseline_mbps


def test_figure4_deflection_bounds_disordering(fig4):
    # The paper's core claim: driven deflection *bounds* disordering.
    assert fig4["nip"].iperf.reordering.reordered_ratio < 0.25


# ---------------------------------------------------------------------------
# Fig. 5 — protection x technique x failure location on the 15-node net
# ---------------------------------------------------------------------------

FIG5_FAILURES = (("SW10", "SW7"), ("SW7", "SW13"), ("SW13", "SW29"))


@pytest.fixture(scope="module")
def fig5():
    return {
        (cell.technique, cell.protection, cell.failure): cell.ratio.mean
        for cell in run_figure5(seeds=(1, 2, 3), timeline=QUICK)
    }


def test_figure5_full_protection_is_best(fig5):
    for technique in ("avp", "nip"):
        for failure in FIG5_FAILURES:
            full = fig5[(technique, FULL, failure)]
            # Tolerance covers seed noise: cells where deflected packets
            # wander have a per-run spread of ~0.15.
            assert full >= fig5[(technique, PARTIAL, failure)] - 0.2, (
                technique, failure)
            assert full >= fig5[(technique, UNPROTECTED, failure)] - 0.2, (
                technique, failure)


def test_figure5_partial_equals_full_where_paper_says(fig5):
    for failure in (("SW7", "SW13"), ("SW13", "SW29")):
        full = fig5[("nip", FULL, failure)]
        assert abs(full - fig5[("nip", PARTIAL, failure)]) < 0.2, failure


def test_figure5_partial_gap_at_sw10(fig5):
    # Paper: 80 vs 140 Mbit/s — partial roughly half of full.
    failure = ("SW10", "SW7")
    assert fig5[("nip", PARTIAL, failure)] < 0.75 * fig5[("nip", FULL, failure)]


def test_figure5_nip_beats_avp(fig5):
    wins = sum(
        fig5[("nip", protection, failure)] >= fig5[("avp", protection, failure)]
        for protection in (UNPROTECTED, PARTIAL, FULL)
        for failure in FIG5_FAILURES
    )
    assert wins >= 8  # NIP wins (essentially) everywhere


# ---------------------------------------------------------------------------
# Fig. 7 — RNP backbone, Boa Vista -> São Paulo
# ---------------------------------------------------------------------------

def test_figure7_rnp():
    ratio = {
        point.failure: point.ratio.mean
        for point in run_figure7(seeds=(1, 2), timeline=QUICK)
    }
    assert ratio[None] == pytest.approx(1.0, abs=0.05)
    # SW7-SW13: near-nominal (paper < 5 % loss; we allow 15 %).
    assert ratio[("SW7", "SW13")] > 0.85
    # SW13-SW41 (a 5-way split, 3 of 5 wander) is the worst case.
    assert ratio[("SW13", "SW41")] <= ratio[("SW41", "SW73")] + 0.05
    assert ratio[("SW13", "SW41")] < ratio[("SW7", "SW13")]
    # Liveness: deflection keeps every case above zero.
    assert all(r > 0.05 for r in ratio.values())


# ---------------------------------------------------------------------------
# Fig. 8 — the redundant-path worst case
# ---------------------------------------------------------------------------

def test_figure8_redundant():
    result = run_figure8(seeds=(1,), timeline=QUICK)
    # Paper: 54.8 % of nominal.  Same mechanism, looser bounds.
    assert 0.15 < result.ratio.mean < 0.85
    # The retry loop shows up as retransmissions and reordering, not as
    # lost connectivity.
    assert result.throughput_mbps.mean > 0


def test_figure8_geometric_model_matches_simulated_hops():
    # A UDP probe during the SW73-SW107 failure: mean hops against the
    # closed-form geometric expectation.
    scenario = scenario_factory("redundant_path")()
    ks = KarSimulation(scenario, deflection="nip", protection=PARTIAL, seed=3)
    ks.schedule_failure("SW73", "SW107", at=0.5)
    src, sink = ks.add_udp_probe(rate_pps=400, duration_s=4.0)
    src.start(at=1.0)
    ks.run(until=6.0)

    assert sink.received == src.sent  # liveness: nothing lost
    # Two hops (SW41, SW73) lead up to the decision at SW73.
    expected = 2 + analytical_model().expected_total_hops
    assert sink.mean_hops() == pytest.approx(expected, rel=0.15)
