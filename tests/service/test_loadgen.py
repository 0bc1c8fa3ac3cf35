"""The churn load generator: invariants, digests, farm integration."""

import dataclasses
import json

import pytest

from repro.farm import FarmOptions, RunSpec, run_specs
from repro.service.loadgen import (
    ChurnReport,
    churn_rows,
    render_churn,
    run_churn,
)

QUICK = dict(topology="six_node", seed=3, users=40, operations=120,
             qos_fraction=0.4)


@pytest.fixture(scope="module")
def direct_report():
    return run_churn(transport="direct", **QUICK)


class TestChurnInvariants:
    def test_clean_run(self, direct_report):
        r = direct_report
        assert r.ok, (r.violations, r.bit_identity_mismatches)
        assert r.operations == 120
        assert r.violations == []
        assert r.bit_identity_mismatches == 0
        assert r.qos_violations == 0
        assert r.bit_identity_checked > 0
        assert r.drained is True

    def test_deterministic_digest(self, direct_report):
        again = run_churn(transport="direct", **QUICK)
        assert again.digest == direct_report.digest
        assert dataclasses.asdict(again) == \
            dataclasses.asdict(direct_report)

    def test_seed_changes_digest(self, direct_report):
        other = run_churn(transport="direct", **{**QUICK, "seed": 4})
        assert other.digest != direct_report.digest

    def test_http_transport_same_digest(self, direct_report):
        # The tentpole transport-independence claim: one dispatch()
        # shared by both transports ⇒ byte-identical operation logs.
        http = run_churn(transport="http", **QUICK)
        assert http.ok
        assert http.digest == direct_report.digest

    def test_render_and_rows(self, direct_report):
        text = render_churn([direct_report])
        assert "six_node" in text and direct_report.digest in text
        (row,) = churn_rows([direct_report])
        assert row["digest"] == direct_report.digest
        assert row["ok"] is True


class TestChurnRecordRoundtrip:
    def test_report_record_report(self, direct_report):
        record = json.loads(json.dumps(dataclasses.asdict(direct_report)))
        back = ChurnReport.from_record(record)
        assert isinstance(back, ChurnReport)
        assert back == direct_report


class TestFarmIntegration:
    def test_sweep_and_cache_hit(self, tmp_path):
        specs = [
            RunSpec.make("service", "six_node", seed,
                         {"users": 30, "operations": 80})
            for seed in (1, 2)
        ]
        options = FarmOptions(cache_dir=str(tmp_path / "cache"))
        first, again = (
            [ChurnReport.from_record(r["result"])
             for r in run_specs(specs, options, "loadgen-test")]
            for _ in range(2)
        )
        assert first == again
        assert all(r.ok and r.transport == "direct" for r in first)
