"""Tests for the experiment modules (fast paths only — the full runs
live in benchmarks/)."""

import pytest

from repro.experiments import common, figure8, table1, table2


class TestTable1:
    def test_matches_paper(self):
        rows = table1.compute_table1()
        assert [(r.bit_length, r.switch_count) for r in rows] == [
            (15, 4), (28, 7), (43, 10),
        ]

    def test_render_contains_rows(self):
        text = table1.render_table1()
        for token in ("Unprotected", "Partial protection",
                      "Full protection", "15", "28", "43"):
            assert token in text


class TestTable2:
    def test_render(self):
        text = table2.render_table2()
        assert "KAR" in text


class TestCommon:
    def test_scenario_factories(self):
        for name in ("fifteen_node", "rnp28", "redundant_path"):
            scn = common.scenario_factory(name)()
            assert scn.name == name
            # Standard experiment parameters applied.
            link = scn.graph.links()[0]
            assert link.rate_mbps <= common.SCENARIO_RATE_MBPS

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            common.scenario_factory("mininet")

    def test_seeds_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEEDS", raising=False)
        assert common.seeds_from_env(default=4) == [1, 2, 3, 4]
        monkeypatch.setenv("REPRO_SEEDS", "2")
        assert common.seeds_from_env() == [1, 2]
        monkeypatch.setenv("REPRO_SEEDS", "0")
        with pytest.raises(ValueError):
            common.seeds_from_env()

    def test_resolve_seeds(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEEDS", raising=False)
        # Explicit argument wins and is copied to a fresh list.
        given = (5, 9)
        assert common.resolve_seeds(given) == [5, 9]
        # No argument falls back to the environment default.
        assert common.resolve_seeds(default=2) == [1, 2]
        monkeypatch.setenv("REPRO_SEEDS", "4")
        assert common.resolve_seeds() == [1, 2, 3, 4]
        assert common.resolve_seeds([7]) == [7]  # env ignored if given

    def test_run_outcome_ratio(self):
        class FakeIperf:
            pass

        outcome = common.RunOutcome(
            baseline_mbps=20.0, failure_mbps=15.0, iperf=FakeIperf()
        )
        assert outcome.ratio == pytest.approx(0.75)
        zero = common.RunOutcome(0.0, 1.0, FakeIperf())
        assert zero.ratio == 0.0

    def test_single_run_experiment(self):
        # One short end-to-end run through the experiment plumbing.
        timeline = common.Timeline(
            flow_start=0.1, fail_at=0.8, repair_at=1.6, end=2.4,
            baseline_window=(0.4, 0.8), failure_window=(1.0, 1.6),
            sample_interval_s=0.2,
        )
        scn = common.scenario_factory("fifteen_node")()
        outcome = common.run_failure_experiment(
            scn, "nip", "partial", ("SW7", "SW13"), seed=1,
            timeline=timeline,
        )
        assert outcome.baseline_mbps > 0
        assert 0.0 <= outcome.ratio <= 1.5


class TestFigure8Model:
    def test_analytical_model(self):
        model = figure8.analytical_model()
        assert model.p_success == 0.5
        assert model.expected_total_hops == pytest.approx(6.0)

    def test_paper_ratio_constant(self):
        assert figure8.PAPER_RATIO == pytest.approx(0.548)


class TestChaosSweep:
    def test_single_run_is_reproducible_and_clean(self):
        from repro.experiments.chaos_sweep import run_chaos_once

        a = run_chaos_once(technique="avp", seed=42, traffic_s=1.0,
                           chaos_kwargs={"mtbf_s": 1.0, "mttr_s": 0.3})
        b = run_chaos_once(technique="avp", seed=42, traffic_s=1.0,
                           chaos_kwargs={"mtbf_s": 1.0, "mttr_s": 0.3})
        assert a == b                     # the whole summary, bit for bit
        assert a.digest == b.digest
        assert a.violation_count == 0
        assert a.sent > 0
        assert a.delivered + a.dropped == a.sent

    def test_render_sweep_flags_violations(self):
        from repro.experiments.chaos_sweep import ChaosRun, render_chaos_sweep

        def run(technique, mtbf, violations):
            return ChaosRun(
                scenario="fifteen_node", technique=technique, mode="mtbf",
                seed=1, sent=100, delivered=90, drop_reasons=(),
                violations=violations, chaos_events=4, digest="abc",
                peak_links_down=2, reencode_requests=0,
                reencode_timeouts=0, reencode_giveups=0, mtbf_s=mtbf,
            )

        clean = render_chaos_sweep([run("hp", 2.0, ()),
                                    run("nip", 2.0, ())])
        assert "violations across all runs: 0" in clean
        dirty = render_chaos_sweep(
            [run("hp", 2.0, (("dead-port-forward", 3),))])
        assert "!" in dirty
