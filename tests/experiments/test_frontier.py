"""Tests for the resilience-frontier sweep."""

import dataclasses

import pytest

from repro.baselines import BASELINE_SCHEMES
from repro.experiments.frontier import (
    FRONTIER_SCHEMES,
    FRONTIER_TOPOLOGIES,
    FrontierCell,
    _pick_static_failures,
    frontier_rows,
    max_tolerated,
    render_frontier,
    run_frontier,
    run_frontier_once,
)
from repro.farm.executor import FarmOptions
from repro.topology import NodeKind, is_reachable_without

FAST = dict(rate_pps=100.0, traffic_s=0.5)
FARM = FarmOptions(jobs=1, no_cache=True)


class TestGrid:
    def test_schemes_cover_kar_and_baselines(self):
        assert len(FRONTIER_SCHEMES) >= 5
        for scheme in BASELINE_SCHEMES:
            assert scheme in FRONTIER_SCHEMES

    @pytest.mark.parametrize("topology", sorted(FRONTIER_TOPOLOGIES))
    def test_scenarios_build_and_validate(self, topology):
        scn = FRONTIER_TOPOLOGIES[topology]()
        scn.graph.validate()
        assert scn.primary_route[0] in scn.graph.neighbors(
            scn.graph.edge_of_host(scn.src_host)
        )


class TestStaticFailures:
    def test_deterministic_and_scheme_independent(self):
        scn = FRONTIER_TOPOLOGIES["torus"]()
        a = _pick_static_failures(scn, 2, seed=42)
        b = _pick_static_failures(scn, 2, seed=42)
        assert a == b
        assert len(a) == 2
        assert a != _pick_static_failures(scn, 2, seed=43)

    def test_keeps_the_host_pair_connected(self):
        scn = FRONTIER_TOPOLOGIES["clique"]()
        for k in (1, 2, 3):
            failed = _pick_static_failures(scn, k, seed=1)
            assert is_reachable_without(
                scn.graph, scn.src_host, scn.dst_host, failed
            )

    def test_only_core_links_drawn(self):
        scn = FRONTIER_TOPOLOGIES["abilene"]()
        g = scn.graph
        for a, b in _pick_static_failures(scn, 3, seed=7):
            assert g.node(a).kind == NodeKind.CORE
            assert g.node(b).kind == NodeKind.CORE


class TestRunOnce:
    def test_static_cell_is_reproducible(self):
        a = run_frontier_once("clique", "nip", "static", 1, seed=5, **FAST)
        b = run_frontier_once("clique", "nip", "static", 1, seed=5, **FAST)
        assert a == b
        assert a.sent > 0
        assert a.failed_links and a.digest not in ("", "-")

    def test_zero_failures_is_the_healthy_baseline(self):
        cell = run_frontier_once("clique", "hp", "static", 0, seed=5, **FAST)
        assert cell.digest == "-"
        assert cell.failed_links == ()
        assert cell.tolerated

    def test_dynamic_cell_digest_tracks_the_schedule(self):
        kwargs = dict(seed=5, adversary={"strikes": 8}, **FAST)
        a = run_frontier_once("clique", "arb", "dynamic", 1,
                              schedule_seed=0, **kwargs)
        b = run_frontier_once("clique", "arb", "dynamic", 1,
                              schedule_seed=0, **kwargs)
        c = run_frontier_once("clique", "arb", "dynamic", 1,
                              schedule_seed=1, **kwargs)
        assert a.digest == b.digest
        assert a.chaos_events == b.chaos_events > 0
        assert a.digest != c.digest

    def test_per_backend_header_bits(self):
        from repro.rns import BACKEND_NAMES

        cell = run_frontier_once("clique", "nip", "static", 0, seed=5,
                                 **FAST)
        bits = dict(cell.header_bits_by_backend)
        assert set(bits) == set(BACKEND_NAMES)
        assert bits["crt"] == cell.header_bits
        assert bits["xsr"] > 0
        arb = run_frontier_once("clique", "arb", "static", 0, seed=5,
                                **FAST)
        assert all(b == 0 for _, b in arb.header_bits_by_backend)

    def test_baseline_costs(self):
        arb = run_frontier_once("clique", "arb", "static", 0, **FAST)
        ff = run_frontier_once("clique", "ff", "static", 0, **FAST)
        hp = run_frontier_once("clique", "hp", "static", 0, **FAST)
        # arb pays purely in state; KAR purely in header bits; ff both.
        assert arb.header_bits == 0 and arb.state_entries > 0
        assert hp.header_bits > 0 and hp.state_entries == 0
        assert ff.header_bits == hp.header_bits and ff.state_entries > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="topology"):
            run_frontier_once("mobius", "nip")
        with pytest.raises(ValueError, match="mode"):
            run_frontier_once("clique", "nip", mode="quantum")
        with pytest.raises(ValueError, match="failure count"):
            run_frontier_once("clique", "nip", failures=-1)


def _cell(topology="clique", scheme="nip", mode="static", failures=0,
          sent=10, delivered=10, violations=()):
    return FrontierCell(
        topology=topology, scheme=scheme, mode=mode, failures=failures,
        seed=42, schedule_seed=0, sent=sent, delivered=delivered,
        drop_reasons=(), violations=tuple(violations), header_bits=11,
        state_entries=0, mean_stretch=1.0, max_stretch=1.0,
        chaos_events=0, digest="-", failed_links=(),
        header_bits_by_backend=(),
    )


class TestMaxTolerated:
    def test_requires_every_level_up_to_k(self):
        cells = [
            _cell(failures=0),
            _cell(failures=1, delivered=9),
            _cell(failures=2),  # lucky draw above a loss: must not count
        ]
        assert max_tolerated(cells, "clique", "nip") == 0

    def test_gap_in_the_grid_stops_the_claim(self):
        cells = [_cell(failures=0), _cell(failures=2)]
        assert max_tolerated(cells, "clique", "nip") == 0

    def test_healthy_baseline_failure_scores_minus_one(self):
        cells = [_cell(failures=0, delivered=0)]
        assert max_tolerated(cells, "clique", "nip") == -1

    def test_violations_disqualify_a_level(self):
        cells = [
            _cell(failures=0),
            _cell(failures=1, violations=(("loop", 1),)),
        ]
        assert max_tolerated(cells, "clique", "nip") == 0

    def test_all_levels_clean(self):
        cells = [_cell(failures=k) for k in range(3)]
        assert max_tolerated(cells, "clique", "nip") == 2


class TestReportAndExport:
    def _cells(self):
        return [
            _cell(failures=0),
            _cell(failures=1),
            _cell(scheme="arb", failures=0),
            _cell(mode="dynamic", failures=1, delivered=9),
        ]

    def test_render_mentions_every_scheme_and_totals(self):
        text = render_frontier(self._cells())
        assert "frontier — clique" in text
        assert "nip" in text and "arb" in text
        assert "dyn-delivery" in text
        assert "cells: 4, invariant violations: 0" in text

    def test_rows_are_flat_and_complete(self):
        rows = frontier_rows(self._cells())
        assert len(rows) == 4
        for row, cell in zip(rows, self._cells()):
            assert row["delivery_ratio"] == cell.delivery_ratio
            assert isinstance(row["failed_links"], str)
        field_names = {f.name for f in dataclasses.fields(FrontierCell)}
        # header_bits_by_backend flattens to header_bits_<name> columns.
        assert field_names - {"drop_reasons", "header_bits_by_backend"} <= (
            set(rows[0]) | {"violations", "failed_links", "digest"}
        )


class TestRunFrontier:
    def test_small_grid_covers_five_schemes_cleanly(self):
        cells = run_frontier(
            topologies=("clique",), schemes=FRONTIER_SCHEMES,
            max_failures=1, seeds=(42,), farm=FARM,
        )
        assert len(cells) == len(FRONTIER_SCHEMES) * 2
        assert {c.scheme for c in cells} == set(FRONTIER_SCHEMES)
        assert sum(c.violation_count for c in cells) == 0
        for cell in cells:
            assert cell.sent > 0

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown frontier"):
            run_frontier(topologies=("mobius",), farm=FARM)
