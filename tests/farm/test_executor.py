"""Executor behaviour: caching, parallelism, crashes, timeouts.

Worker-pool tests use the built-in ``echo`` job kind so they stay fast
(no simulation); the spawn start method means each pool generation
re-imports the package, which is why test-local job kinds only appear
in inline (``jobs=1``) tests.
"""

import pytest

from repro.farm.executor import (
    Farm,
    FarmError,
    FarmJobError,
    FarmOptions,
    WORKER_START_METHOD,
    run_specs,
)
from repro.farm.jobs import JOB_KINDS, job_kind
from repro.farm.spec import RunSpec


def echo(value, seed=0, **knobs):
    """A self-test job: ``sleep_s`` / ``crash_marker`` knobs, no
    simulation."""
    return RunSpec.make("echo", "none", seed, {"value": value, **knobs})


def values(records):
    return [r["result"]["value"] for r in records]


class TestInline:
    def test_executes_in_order(self):
        farm = Farm(FarmOptions())
        records = farm.run([echo(i, seed=i) for i in range(5)])
        assert values(records) == [0, 1, 2, 3, 4]
        assert farm.stats.executed == 5
        assert farm.stats.cached == 0

    def test_same_spec_twice_is_one_execution_one_hit(self, tmp_path):
        opts = FarmOptions(cache_dir=str(tmp_path / "c"))
        spec = echo("once", seed=1)
        first = Farm(opts)
        [r1] = first.run([spec])
        assert (first.stats.executed, first.stats.cached) == (1, 0)
        second = Farm(opts)
        [r2] = second.run([spec])
        assert (second.stats.executed, second.stats.cached) == (0, 1)
        assert r1 == r2
        assert r1["digest"] == r2["digest"]

    def test_refresh_re_executes(self, tmp_path):
        opts = FarmOptions(cache_dir=str(tmp_path / "c"))
        spec = echo("again", seed=1)
        Farm(opts).run([spec])
        refresh = Farm(FarmOptions(cache_dir=str(tmp_path / "c"),
                                   refresh=True))
        refresh.run([spec])
        assert refresh.stats.executed == 1
        assert refresh.stats.cached == 0

    def test_default_options_are_silent(self, capsys):
        run_specs([echo("hush", seed=1)])
        assert capsys.readouterr() == ("", "")

    def test_no_cache_writes_nothing(self, tmp_path):
        root = tmp_path / "c"
        opts = FarmOptions(cache_dir=str(root), no_cache=True)
        Farm(opts).run([echo("quiet", seed=1)])
        assert not root.exists()

    def test_unknown_kind_raises_farm_job_error(self):
        bad = RunSpec.make("no-such-kind", "none", 0)
        with pytest.raises(FarmJobError, match="no-such-kind"):
            Farm(FarmOptions()).run([bad])

    def test_deterministic_job_error_aborts(self):
        @job_kind("_test_boom")
        def _boom(scenario, seed):
            raise ValueError("deterministic failure")

        try:
            with pytest.raises(FarmJobError, match="deterministic"):
                Farm(FarmOptions()).run(
                    [RunSpec.make("_test_boom", "none", 0)]
                )
        finally:
            del JOB_KINDS["_test_boom"]


class TestPool:
    def test_start_method_is_spawn(self):
        # Determinism contract: identical digests on Linux (fork
        # default) and macOS/Windows (spawn default).
        assert WORKER_START_METHOD == "spawn"

    def test_parallel_matches_inline(self, tmp_path):
        specs = [echo(i, seed=i) for i in range(4)]
        inline = Farm(FarmOptions()).run(specs)
        pool = Farm(FarmOptions(jobs=2))
        parallel = pool.run(specs)
        assert parallel == inline
        assert pool.stats.executed == 4

    def test_parallel_reads_and_fills_cache(self, tmp_path):
        cache = str(tmp_path / "c")
        specs = [echo(i, seed=i) for i in range(4)]
        cold = Farm(FarmOptions(jobs=2, cache_dir=cache))
        first = cold.run(specs)
        warm = Farm(FarmOptions(jobs=2, cache_dir=cache))
        second = warm.run(specs)
        assert first == second
        assert warm.stats.cached == 4
        assert warm.stats.executed == 0

    def test_crashed_worker_is_retried(self, tmp_path):
        marker = tmp_path / "crash-once"
        specs = [
            echo("survivor", seed=1),
            echo("crasher", seed=2, crash_marker=str(marker)),
        ]
        farm = Farm(FarmOptions(jobs=2))
        records = farm.run(specs)
        assert values(records) == ["survivor", "crasher"]
        assert farm.stats.retries >= 1
        assert marker.exists()  # first attempt really did crash

    def test_persistent_crash_exhausts_retries(self, tmp_path):
        # No marker file cleanup: echo crashes only when the marker is
        # absent, so to crash persistently point each attempt at a
        # fresh path via max_retries=0 (one attempt, one crash).
        marker = tmp_path / "always"
        spec = echo("doomed", seed=3, crash_marker=str(marker))
        farm = Farm(FarmOptions(jobs=2, max_retries=0))
        marker.unlink(missing_ok=True)
        with pytest.raises(FarmError, match="did not complete"):
            farm.run([spec, echo("bystander", seed=4)])

    def test_stalled_job_times_out(self):
        farm = Farm(FarmOptions(jobs=2, timeout_s=1.0, max_retries=0))
        with pytest.raises(FarmError, match="did not complete"):
            farm.run([echo("fast", seed=5),
                      echo("slow", seed=6, sleep_s=60.0)])


class TestStatsSummary:
    def test_summary_line_shape(self):
        farm = Farm(FarmOptions())
        farm.run([echo(i, seed=i) for i in range(3)])
        line = farm.stats.summary("demo")
        assert line.startswith("demo: 3 jobs — 3 executed, 0 cached")
