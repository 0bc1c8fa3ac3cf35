"""Tests for the header-overhead study over real topologies."""

import math
from statistics import median

import pytest

from repro.experiments.header_overhead import (
    ZOO_CELLS,
    ZOO_TOPOLOGIES,
    _all_pairs_route_bits,
    capacity_table,
    render_overhead_report,
    scenario_overhead,
    zoo_overhead,
)
from repro.rns import backend_by_name
from repro.rns.bitlength import route_id_bit_length
from repro.topology import fifteen_node, shortest_path
from repro.topology.zoo import load_zoo_graph


class TestScenarioOverhead:
    def test_table1_anchors_and_wire_cost(self):
        by_level = {r.level: r for r in scenario_overhead(fifteen_node())}
        assert by_level["unprotected"].bits == 15
        assert by_level["partial"].bits == 28
        assert by_level["full"].bits == 43
        # The paper's design point: protection stays cheap on the wire.
        assert by_level["full"].wire_bytes <= 10
        assert by_level["full"].mtu_fraction < 0.01

    def test_report_sections(self):
        # The zoo rows are TestZooOverhead's; the report test renders them.
        text = render_overhead_report(zoo_topologies=None)
        assert "fifteen_node" in text and "% of MTU" in text
        assert "best-case" in text and "worst-case" in text


class TestAllPairsRouteBits:
    def test_matches_per_pair_shortest_paths_on_a_tree(self):
        # Trees have unique shortest paths, so the BFS-tree accumulation
        # must agree with per-pair products exactly.  (On meshes the
        # two can tie-break equal-length paths differently.)
        from repro.topology import random_connected

        graph = random_connected(14, extra_links=0, seed=7,
                                 min_switch_id=23)
        backend = backend_by_name("crt")
        got = sorted(_all_pairs_route_bits(graph, backend))
        names = sorted(graph.switch_ids())
        want = []
        for src in names:
            for dst in names:
                if src == dst:
                    continue
                path = shortest_path(graph, src, dst)
                modulus = math.prod(
                    graph.switch_id(n) for n in path[:-1]
                )
                want.append(route_id_bit_length(modulus))
        assert got == sorted(want)

    def test_counts_every_ordered_pair_on_abilene(self):
        graph = load_zoo_graph("abilene")
        bits = _all_pairs_route_bits(graph, backend_by_name("crt"))
        n = len(graph.switch_ids())
        assert len(bits) == n * (n - 1)
        assert all(b > 0 for b in bits)

    def test_xsr_accumulates_degrees(self):
        from repro.rns.gf2 import gf2_degree

        graph = load_zoo_graph("abilene", id_strategy="xsr")
        bits = _all_pairs_route_bits(graph, backend_by_name("xsr"))
        n = len(graph.switch_ids())
        assert len(bits) == n * (n - 1)
        max_deg = sum(gf2_degree(s) for s in graph.switch_ids().values())
        assert all(0 < b <= max_deg for b in bits)


class TestZooOverhead:
    @pytest.mark.parametrize("topology", ZOO_TOPOLOGIES)
    def test_weighted_assigner_beats_greedy(self, topology):
        rows = {
            (r.backend, r.assigner): r
            for r in zoo_overhead(topologies=(topology,), cells=ZOO_CELLS)
        }
        greedy = rows[("crt", "greedy")]
        weighted = rows[("crt", "weighted")]
        assert greedy.nodes == weighted.nodes
        assert greedy.pairs == weighted.pairs > 0
        assert weighted.median_bits < greedy.median_bits
        assert weighted.max_bits <= greedy.max_bits
        assert greedy.median_bits == median(
            _all_pairs_route_bits(
                load_zoo_graph(topology), backend_by_name("crt")
            )
        )

    def test_wire_bytes_cover_the_max_route(self):
        for row in zoo_overhead(topologies=("abilene",)):
            assert row.max_wire_bytes * 8 >= row.max_bits
            assert 0 < row.mtu_fraction < 1


class TestCapacityTable:
    def test_budget_rows_are_monotone(self):
        table = capacity_table(
            budgets_bits=(32, 64, 128), strategies=("greedy", "prime", "xsr")
        )
        for strategy, rows in table.items():
            fits = [fit for _, fit in rows]
            assert fits == sorted(fits), strategy
            assert fits[-1] > 0

    def test_best_case_fits_at_least_worst_case(self):
        worst = capacity_table(worst_case=True)
        best = capacity_table(worst_case=False)
        for strategy in worst:
            for (b, wfit), (_, bfit) in zip(worst[strategy], best[strategy]):
                assert bfit >= wfit, (strategy, b)

    def test_greedy_fits_at_least_prime(self):
        for worst_case in (True, False):
            table = capacity_table(worst_case=worst_case)
            for (_, greedy), (_, prime) in zip(table["greedy"], table["prime"]):
                assert greedy >= prime, worst_case
