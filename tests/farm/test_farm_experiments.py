"""Every job kind gives the same typed result directly, through the
farm, through a worker pool and from a JSON cache hit.

A job kind is one call to its experiment function, so "direct" is that
call made in-process; "typed" is the result type's ``from_record`` on
the farm record, which must undo the JSON round trip exactly (a list
left where the dataclass holds a tuple breaks equality here).  Every
case is sized to run in well under a second.
"""

import pytest

from repro.experiments.chaos_sweep import ChaosRun
from repro.experiments.common import (
    Timeline,
    run_failure_experiment,
    scenario_factory,
)
from repro.experiments.frontier import FrontierCell
from repro.farm import (
    FailureResult,
    Farm,
    FarmJobError,
    FarmOptions,
    RunSpec,
    failure_spec,
    run_specs,
)
from repro.farm.jobs import JOB_KINDS
from repro.service.loadgen import ChurnReport

TINY = Timeline(
    flow_start=0.1,
    fail_at=0.8,
    repair_at=1.6,
    end=2.4,
    baseline_window=(0.4, 0.8),
    failure_window=(1.0, 1.6),
    sample_interval_s=0.2,
)

FAILURE_ARGS = dict(deflection="nip", protection="partial",
                    failure=("SW7", "SW13"))


def tiny_spec(seed=1, timeline=TINY, **overrides):
    return failure_spec("fifteen_node", seed, timeline,
                        **{**FAILURE_ARGS, **overrides})


#: kind -> (spec, typed result from the record's "result").
KINDS = {
    "failure": (tiny_spec(), FailureResult.from_record),
    "chaos": (
        RunSpec.make("chaos", "fifteen_node", 7, {
            "technique": "nip", "chaos_kwargs": {"mtbf_s": 0.5},
            "traffic_s": 1.0,
        }),
        ChaosRun.from_record,
    ),
    "verify": (
        RunSpec.make("verify", "fuzz", 5, {"oracles": ["strategy", "wire"]}),
        dict,
    ),
    "frontier": (
        RunSpec.make("frontier", "clique", 5, {
            "scheme": "nip", "failures": 1, "rate_pps": 100.0,
            "traffic_s": 0.5,
        }),
        FrontierCell.from_record,
    ),
    "service": (
        RunSpec.make("service", "six_node", 1,
                     {"users": 30, "operations": 80}),
        ChurnReport.from_record,
    ),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_direct_inline_and_cache_hit_agree(kind, tmp_path):
    spec, typed = KINDS[kind]
    direct = JOB_KINDS[kind](spec.scenario, seed=spec.seed, **spec.params)
    opts = FarmOptions(cache_dir=str(tmp_path / "c"))
    fresh_farm, hit_farm = Farm(opts), Farm(opts)
    [fresh] = fresh_farm.run([spec])
    [hit] = hit_farm.run([spec])
    assert (fresh_farm.stats.executed, hit_farm.stats.cached) == (1, 1)
    assert hit["digest"] == fresh["digest"]
    # fresh["result"] is the in-process asdict form (tuples), hit's the
    # JSON-loaded one (lists).
    assert typed(fresh["result"]) == typed(hit["result"]) == direct


def test_unknown_parameter_fails_naming_the_spec():
    spec = RunSpec.make("chaos", "fifteen_node", 7,
                        {"technique": "nip", "trafic_s": 1.0})
    with pytest.raises(FarmJobError, match="trafic_s") as raised:
        run_specs([spec])
    assert raised.value.spec == spec
    assert spec.label() in str(raised.value)


class TestFailureEquivalence:
    def test_direct_inline_and_cached_digests_match(self, tmp_path):
        direct = run_failure_experiment(
            scenario_factory("fifteen_node")(), seed=1, timeline=TINY,
            **FAILURE_ARGS,
        )
        opts = FarmOptions(cache_dir=str(tmp_path / "c"))
        [fresh] = run_specs([tiny_spec()], opts)
        [hit] = run_specs([tiny_spec()], opts)
        assert hit["digest"] == fresh["digest"]
        result = FailureResult.from_record(hit["result"])
        assert result.baseline_mbps == direct.baseline_mbps
        assert result.failure_mbps == direct.failure_mbps
        assert result.intervals == tuple(direct.iperf.intervals)
        assert result.ratio == direct.ratio
        # Worker processes: nip and avp through a two-worker pool give
        # the inline farm's records, every field.
        specs = [tiny_spec(), tiny_spec(deflection="avp")]
        inline = Farm().run(specs)
        pool = Farm(FarmOptions(jobs=2))
        assert pool.run(specs) == inline
        assert pool.stats.executed == len(specs)
        assert inline[0]["digest"] == fresh["digest"]

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
        assert default.params["backend"] is None  # written, not omitted
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
                scenario_factory("fifteen_node")(), seed=1, timeline=TINY,
                **FAILURE_ARGS,
            )
