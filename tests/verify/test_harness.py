"""The verify driver: trial records, aggregation, rendering."""

import pytest

from repro.farm.executor import FarmOptions
from repro.verify.cases import FuzzCase, generate_case
from repro.verify.harness import (
    TrialDivergence,
    VerifyOutcome,
    render_verify,
    run_trial_record,
    run_verify,
    trial_seed,
)

#: Fast oracle subset for smoke runs (no simulations).
FAST_ORACLES = ("strategy", "wire")


class TestTrialSeed:
    def test_stable_across_trial_counts(self):
        # Trial 7 must mean the same case whether --trials is 25 or 100.
        assert trial_seed(3, 7) == trial_seed(3, 7)

    def test_roots_do_not_collide(self):
        seeds = {trial_seed(s, i) for s in range(4) for i in range(200)}
        assert len(seeds) == 4 * 200


class TestRunTrialRecord:
    def test_record_shape(self):
        rec = run_trial_record(5, oracles=FAST_ORACLES)
        assert rec["trial_seed"] == 5
        assert FuzzCase.from_record(rec["case"]) == generate_case(5)
        assert sorted(rec["oracles"]) == sorted(FAST_ORACLES)
        for oracle_rec in rec["oracles"].values():
            assert oracle_rec["checks"] > 0
            assert oracle_rec["divergences"] == []


class TestRunVerify:
    def test_smoke_clean(self, tmp_path):
        outcome = run_verify(
            trials=3, seed=0, oracles=FAST_ORACLES,
            artifact_dir=str(tmp_path / "artifacts"),
            farm=FarmOptions(jobs=1),
        )
        assert outcome.ok
        assert outcome.trials == 3
        assert sorted(outcome.checks) == sorted(FAST_ORACLES)
        assert outcome.total_checks == sum(outcome.checks.values()) > 0
        # Clean runs leave no artifact directory behind.
        assert not (tmp_path / "artifacts").exists()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="trials must be positive"):
            run_verify(trials=0)
        with pytest.raises(ValueError, match="unknown oracle"):
            run_verify(trials=1, oracles=("vibes",))


class TestRenderVerify:
    def test_clean_run(self, tmp_path):
        outcome = run_verify(
            trials=2, seed=1, oracles=FAST_ORACLES,
            artifact_dir=str(tmp_path),
            farm=FarmOptions(jobs=1),
        )
        text = render_verify(outcome)
        assert "2 trials (seed 1)" in text
        assert "no divergences" in text
        for name in FAST_ORACLES:
            assert name in text

    def test_divergent_outcome(self):
        case = generate_case(8)
        outcome = VerifyOutcome(
            trials=1, seed=8, checks={"strategy": 600},
            divergences=[TrialDivergence(
                oracle="strategy",
                case=case,
                shrunk_case=case.with_(ttl=4, failures=()),
                details=("impl=1 paper=2", "impl=3 paper=4",
                         "a", "b", "c"),
                artifact_path="out/divergence.json",
            )],
        )
        text = render_verify(outcome)
        assert "1 DIVERGENT" in text
        assert "DIVERGENCE [strategy] trial seed" in text
        assert "shrunk to:" in text and "ttl 4" in text
        assert "impl=1 paper=2" in text
        assert "... and 2 more" in text  # details beyond the first 3
        assert "artifact: out/divergence.json" in text
        assert "no divergences" not in text
