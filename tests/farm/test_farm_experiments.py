"""The farm produces bit-identical results to the pre-farm code paths.

This is the porting contract from the orchestrator issue: running an
experiment directly, through the farm inline, through the cache, or
with worker processes must all yield the same digest.  A tiny timeline
keeps each simulated run fast while exercising the full failure/repair
cycle.
"""

import pytest

from repro.experiments.chaos_sweep import run_chaos_once
from repro.experiments.common import (
    Timeline,
    run_failure_experiment,
    scenario_factory,
)
from repro.farm import (
    FarmOptions,
    chaos_spec,
    failure_spec,
    run_chaos_specs,
    run_failure_specs,
)
from repro.farm.executor import Farm
from repro.farm.jobs import (
    FailureResult,
    failure_outcome_record,
    record_digest,
)

TINY = Timeline(
    flow_start=0.1,
    fail_at=0.8,
    repair_at=1.6,
    end=2.4,
    baseline_window=(0.4, 0.8),
    failure_window=(1.0, 1.6),
    sample_interval_s=0.2,
)

FAILURE_ARGS = dict(
    scenario="fifteen_node",
    deflection="nip",
    protection="partial",
    failure=("SW7", "SW13"),
    seed=1,
)


def tiny_spec(**overrides):
    args = dict(FAILURE_ARGS, timeline=TINY)
    args.update(overrides)
    return failure_spec(**args)


class TestFailureEquivalence:
    def test_direct_inline_and_cached_digests_match(self, tmp_path):
        direct = run_failure_experiment(
            scenario_factory(FAILURE_ARGS["scenario"])(),
            FAILURE_ARGS["deflection"],
            FAILURE_ARGS["protection"],
            FAILURE_ARGS["failure"],
            FAILURE_ARGS["seed"],
            timeline=TINY,
        )
        opts = FarmOptions(cache_dir=str(tmp_path / "c"), progress=False)
        [fresh] = run_failure_specs([tiny_spec()], opts)
        [hit] = run_failure_specs([tiny_spec()], opts)
        assert fresh.digest == record_digest(failure_outcome_record(direct))
        assert hit.digest == fresh.digest
        assert hit == fresh  # full record, not just the digest
        assert fresh.baseline_mbps == direct.baseline_mbps
        assert fresh.failure_mbps == direct.failure_mbps
        assert fresh.intervals == tuple(direct.iperf.intervals)
        # Worker processes: nip and avp through a two-worker pool give
        # the inline farm's records, every field.
        specs = [tiny_spec(), tiny_spec(deflection="avp")]
        inline = Farm(FarmOptions(progress=False)).run(specs)
        pool = Farm(FarmOptions(jobs=2, progress=False))
        assert pool.run(specs) == inline
        assert pool.stats.executed == len(specs)
        assert inline[0]["digest"] == fresh.digest

    def test_result_survives_json_round_trip(self, tmp_path):
        opts = FarmOptions(cache_dir=str(tmp_path / "c"), progress=False)
        [fresh] = run_failure_specs([tiny_spec()], opts)
        # The cache hit has been through json.dumps/json.loads; tuple
        # reconstruction and float repr round-tripping must be exact.
        [hit] = run_failure_specs([tiny_spec()], opts)
        assert isinstance(hit, FailureResult)
        assert isinstance(hit.intervals[0], tuple)
        assert hit == fresh

    def test_changed_seed_and_config_get_distinct_keys(self):
        base = tiny_spec()
        assert base.content_key() != tiny_spec(seed=2).content_key()
        assert base.content_key() != tiny_spec(
            deflection="avp"
        ).content_key()
        assert base.content_key() != tiny_spec(
            failure=None
        ).content_key()
        wider = Timeline(
            flow_start=0.1,
            fail_at=0.8,
            repair_at=1.6,
            end=3.0,
            baseline_window=(0.4, 0.8),
            failure_window=(1.0, 1.6),
            sample_interval_s=0.2,
        )
        assert base.content_key() != tiny_spec(
            timeline=wider
        ).content_key()

    def test_env_backend_lands_in_the_key(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        default = tiny_spec()
        monkeypatch.setenv("REPRO_BACKEND", "xsr")
        swept = tiny_spec()
        assert swept.content_key() == tiny_spec(backend="xsr").content_key()
        assert swept.content_key() != default.content_key()

    @pytest.mark.parametrize("name", ["pooled", "base64"])
    def test_unknown_env_backend_fails_at_spec_build(self, monkeypatch, name):
        # A retired or mistyped name must never run silently under a
        # default: both resolution sites refuse before any simulation.
        monkeypatch.setenv("REPRO_BACKEND", name)
        with pytest.raises(ValueError, match=r"\['crt', 'xsr'\]"):
            tiny_spec()
        with pytest.raises(ValueError, match=r"\['crt', 'xsr'\]"):
            run_failure_experiment(
                scenario_factory(FAILURE_ARGS["scenario"])(),
                FAILURE_ARGS["deflection"],
                FAILURE_ARGS["protection"],
                FAILURE_ARGS["failure"],
                FAILURE_ARGS["seed"],
                timeline=TINY,
            )


class TestChaosEquivalence:
    def test_direct_and_farm_chaos_runs_are_equal(self, tmp_path):
        kwargs = dict(
            scenario_name="fifteen_node",
            technique="nip",
            mode="mtbf",
            seed=7,
            chaos_kwargs={"mtbf_s": 0.5},
            traffic_s=1.0,
        )
        direct = run_chaos_once(**kwargs)
        spec = chaos_spec(
            scenario="fifteen_node",
            technique="nip",
            mode="mtbf",
            seed=7,
            chaos_kwargs={"mtbf_s": 0.5},
            traffic_s=1.0,
        )
        opts = FarmOptions(cache_dir=str(tmp_path / "c"), progress=False)
        [farm_run] = run_chaos_specs([spec], opts)
        assert farm_run == direct  # dataclass equality, every field
        # And again via the cache: the JSON round trip must restore
        # the tuple-typed fields exactly.
        [cached_run] = run_chaos_specs([spec], opts)
        assert cached_run == direct

