"""Tests for random-walk models and statistics helpers."""

import math

import pytest

from repro.analysis.stats import mean_ci
from repro.analysis.walk import deterministic_strategy_walk, geometric_retry
from repro.switches.deflection import NoDeflection, NotInputPort


class TestGeometricRetry:
    def test_paper_fig8_model(self):
        model = geometric_retry(p_success=0.5, direct_hops=2, loop_hops=4)
        assert model.expected_attempts == 2.0
        assert model.expected_extra_hops == pytest.approx(4.0)
        assert model.expected_total_hops == pytest.approx(6.0)

    def test_certain_success(self):
        model = geometric_retry(1.0, direct_hops=3, loop_hops=10)
        assert model.expected_extra_hops == 0.0
        assert model.expected_total_hops == 3.0

    def test_distribution_geometric(self):
        model = geometric_retry(0.25, 1, 2)
        dist = model.attempt_distribution(4)
        assert dist == pytest.approx([0.25, 0.1875, 0.140625, 0.10546875])

    def test_validation(self):
        with pytest.raises(ValueError):
            geometric_retry(0.0, 1, 1)
        with pytest.raises(ValueError):
            geometric_retry(1.5, 1, 1)
        with pytest.raises(ValueError):
            geometric_retry(0.5, -1, 1)


class TestStrategyWalk:
    """The one graph walk, on the paper's 15-node network."""

    @staticmethod
    def _walk(strategy, down_links=()):
        from repro.runner import KarSimulation
        from repro.topology.topologies import fifteen_node

        scn = fifteen_node()
        ks = KarSimulation(scn, deflection="none", protection="unprotected")
        graph = scn.graph
        ingress = graph.edge_of_host(scn.src_host)
        entry = ks.network.node(ingress).ingress_entry(scn.dst_host)
        table = dict.fromkeys(graph.switch_ids(), strategy)
        verdict = deterministic_strategy_walk(
            graph, table, entry.route_id, entry.ttl, ingress,
            entry.out_port, scn.dst_host, down_links=down_links,
        )
        return scn, verdict

    def test_no_deflection_follows_the_route_then_drops_at_the_failure(self):
        scn, verdict = self._walk(NoDeflection())
        assert verdict.delivered and verdict.node == scn.dst_host
        assert [h.node for h in verdict.hops] == list(scn.primary_route)
        assert not any(h.deflected for h in verdict.hops)

        _, verdict = self._walk(NoDeflection(), [("SW7", "SW13")])
        assert (verdict.outcome, verdict.node, verdict.reason) == (
            "dropped", "SW7", "no-usable-port(none)"
        )

    def test_randomized_strategy_is_an_error_not_a_guess(self):
        # NIP on the healthy route never draws, so the walk is fine ...
        scn, verdict = self._walk(NotInputPort())
        assert verdict.delivered
        # ... and the first deflection asks the stand-in for a draw.
        with pytest.raises(RuntimeError, match="RNG-free.*rng.choice"):
            self._walk(NotInputPort(), [("SW7", "SW13")])


class TestMeanCI:
    def test_known_interval(self):
        ci = mean_ci([10.0, 12.0, 11.0, 13.0, 9.0])
        assert ci.mean == pytest.approx(11.0)
        assert ci.low < 11.0 < ci.high
        assert ci.n == 5
        # t(0.975, df=4) = 2.776; sem = sqrt(2.5/5).
        assert ci.half_width == pytest.approx(
            2.7764 * math.sqrt(2.5 / 5), rel=1e-3
        )

    def test_single_sample(self):
        ci = mean_ci([42.0])
        assert ci.mean == 42.0
        assert ci.half_width == 0.0

    def test_identical_samples(self):
        ci = mean_ci([5.0, 5.0, 5.0])
        assert ci.half_width == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mean_ci([])
        with pytest.raises(ValueError):
            mean_ci([1.0], confidence=1.5)

    def test_describe(self):
        assert "95% CI" in mean_ci([1.0, 2.0]).describe()
