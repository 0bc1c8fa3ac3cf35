"""Tests for the ``repro bench sim`` harness (small cells only)."""

import json

import pytest

from repro.bench.simbench import (
    EPOCH_WORKLOADS,
    SIZES,
    render_sim_bench,
    run_sim_bench,
)


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_sim.json"
    res = run_sim_bench(
        sizes=["small"], strategies=["none", "nip"],
        repeats=1, quick=True, out=str(out),
    )
    return res, out


class TestRunSimBench:
    def test_digests_match_in_every_cell(self, result):
        res, _ = result
        assert res["digests_match_reference"] is True
        runs = res["epoch"]["runs"]
        assert [r["strategy"] for r in runs] == ["none", "nip"]
        for run in runs:
            assert run["digests_match"], run

    def test_throughput_fields_populated(self, result):
        res, _ = result
        for run in res["epoch"]["runs"]:
            for engine in ("reference_epoch", "vector"):
                assert run[engine]["wall_s"] >= 0
                assert run[engine]["forwarded_per_min"] > 0
            assert run["packets"] > 0 and run["forwarded"] > 0
            assert run["speedup_vs_reference"] > 0

    def test_json_written_and_round_trips(self, result):
        res, out = result
        data = json.loads(out.read_text())
        assert data["digests_match_reference"] is True
        assert data["repeats"] == 1
        assert data["sizes"]["small"] == SIZES["small"]

    def test_render_mentions_every_cell(self, result):
        res, _ = result
        text = render_sim_bench(res)
        assert "none" in text and "nip" in text
        assert "digests match reference: True" in text
        assert "MISMATCH" not in text

    def test_unknown_size_rejected(self):
        with pytest.raises(ValueError, match="unknown size"):
            run_sim_bench(sizes=["galactic"], out=None)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            run_sim_bench(sizes=["small"], repeats=0, out=None)


class TestEpochMode:
    def test_epoch_cells_verified_before_timing(self, result):
        res, _ = result
        for cell in res["epoch"]["runs"]:
            assert cell["digests_match"] is True

    def test_epoch_workloads_echoed(self, result):
        res, _ = result
        assert res["epoch"]["workloads"]["small"] == EPOCH_WORKLOADS["small"]
        assert res["epoch"]["target_forwarded_per_min"] == 10_000_000

    def test_render_includes_epoch_table(self, result):
        res, _ = result
        text = render_sim_bench(res)
        assert "epoch datapath" in text
        assert "fwd/min" in text
        assert "digests match reference: True" in text
