"""Tests for random-walk models and statistics helpers."""

import math

import pytest

from repro.analysis.stats import mean_ci
from repro.analysis.walk import (
    absorption_probability,
    deterministic_strategy_walk,
    geometric_retry,
    hot_potato_hitting_time,
)
from repro.switches.deflection import NoDeflection, NotInputPort
from repro.topology.generators import ring_lattice
from repro.topology.graph import PortGraph, TopologyError


@pytest.fixture(scope="module")
def path3():
    # A - B - C line graph.
    g = PortGraph()
    for name, sid in (("A", 5), ("B", 7), ("C", 11)):
        g.add_node(name, switch_id=sid)
    g.add_link("A", "B")
    g.add_link("B", "C")
    return g


class TestHittingTime:
    def test_line_graph_known_value(self, path3):
        # From A on A-B-C: E[T_C] = 4 (classic gambler's-ruin value).
        assert hot_potato_hitting_time(path3, "A", ["C"]) == pytest.approx(4.0)

    def test_adjacent_target(self, path3):
        # From B, C is reached w.p. 1/2 per step both ways symmetric:
        # E = 1*(1/2) + (1/2)(1 + E[T from A]) with E[T from A] = 1 + E[B].
        value = hot_potato_hitting_time(path3, "B", ["C"])
        assert value == pytest.approx(3.0)

    def test_start_on_target(self, path3):
        assert hot_potato_hitting_time(path3, "B", ["B"]) == 0.0

    def test_cycle_antipode(self):
        ring = ring_lattice(8, min_switch_id=11)
        names = ring.node_names()
        # E[hit antipode on n-cycle] = k(n-k) with k = 4: 4*4 = 16.
        assert hot_potato_hitting_time(
            ring, names[0], [names[4]]
        ) == pytest.approx(16.0)

    def test_more_targets_never_slower(self):
        ring = ring_lattice(12, min_switch_id=13)
        names = ring.node_names()
        one = hot_potato_hitting_time(ring, names[0], [names[6]])
        two = hot_potato_hitting_time(ring, names[0], [names[6], names[3]])
        assert two < one

    def test_unknown_nodes_rejected(self, path3):
        with pytest.raises(TopologyError):
            hot_potato_hitting_time(path3, "Z", ["C"])
        with pytest.raises(TopologyError):
            hot_potato_hitting_time(path3, "A", ["Z"])


class TestAbsorption:
    def test_line_graph_even_odds(self, path3):
        # From B with absorbers at both ends: 1/2 each.
        assert absorption_probability(
            path3, "B", ["A"], ["C"]
        ) == pytest.approx(0.5)

    def test_degenerate_cases(self, path3):
        assert absorption_probability(path3, "A", ["A"], ["C"]) == 1.0
        assert absorption_probability(path3, "C", ["A"], ["C"]) == 0.0

    def test_complementarity(self):
        ring = ring_lattice(9, min_switch_id=11)
        names = ring.node_names()
        p = absorption_probability(ring, names[2], [names[0]], [names[5]])
        q = absorption_probability(ring, names[2], [names[5]], [names[0]])
        assert p + q == pytest.approx(1.0)


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
