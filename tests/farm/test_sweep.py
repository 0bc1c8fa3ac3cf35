"""Resuming a sweep: there is no checkpoint, the cache is the resume."""

import pytest

from repro.farm.executor import Farm, FarmOptions
from repro.farm.jobs import JOB_KINDS, job_kind
from repro.farm.spec import RunSpec
from tests.farm.test_executor import echo, values


def opts(tmp_path):
    return FarmOptions(cache_dir=str(tmp_path / "cache"))


class TestResume:
    def test_killed_then_resumed_runs_only_missing_jobs(self, tmp_path):
        """Ctrl-C at job 3 of 4, then the same sweep again: the two
        finished jobs are reported as cached, the other two execute."""
        armed = [True]

        @job_kind("_test_ctrl_c")
        def _interruptible(scenario, seed):
            if armed[0] and seed == 2:
                raise KeyboardInterrupt
            return {"value": seed}

        specs = [RunSpec.make("_test_ctrl_c", "none", i) for i in range(4)]
        try:
            killed = Farm(opts(tmp_path))
            with pytest.raises(KeyboardInterrupt):
                killed.run(specs, label="resume-me")
            assert killed.stats.executed == 2
            armed[0] = False
            rerun = Farm(opts(tmp_path))
            records = rerun.run(specs, label="resume-me")
        finally:
            del JOB_KINDS["_test_ctrl_c"]
        assert values(records) == [0, 1, 2, 3]
        assert (rerun.stats.cached, rerun.stats.executed) == (2, 2)
        assert "2 executed, 2 cached" in rerun.stats.summary("resume-me")
        # nothing but content-addressed records on disk
        assert not (tmp_path / "cache" / "sweeps").exists()

    def test_full_resume_is_all_hits(self, tmp_path):
        specs = [echo(i, seed=i) for i in range(3)]
        Farm(opts(tmp_path)).run(specs, label="twice")
        again = Farm(opts(tmp_path))
        records = again.run(specs, label="twice")
        assert again.stats.executed == 0
        assert again.stats.cached == 3
        assert values(records) == [0, 1, 2]
