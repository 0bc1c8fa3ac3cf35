"""``repro.farm`` — parallel experiment orchestrator with result cache.

The experiment layer's job farm: every figure/table/chaos run is a
:class:`~repro.farm.spec.RunSpec` (a pure-data job with a stable
content key), executed by a cache-aware
:class:`~repro.farm.executor.Farm` (inline at ``jobs=1``, a spawn-
context process pool above that), with results stored in a
content-addressed :class:`~repro.farm.cache.ResultCache` — which is
also how a killed sweep resumes: rerun it, finished jobs are hits.

Module map:

* :mod:`~repro.farm.spec` — the job model and content hashing;
* :mod:`~repro.farm.jobs` — job kinds (failure / chaos / echo);
* :mod:`~repro.farm.cache` — the on-disk result cache;
* :mod:`~repro.farm.executor` — inline + multiprocess execution;
* :mod:`~repro.farm.progress` — done/total + ETA + cache-hit reporting;
* :mod:`~repro.farm.sweep` — typed sweep runners over the farm.
"""

from repro.farm.cache import CacheStats, ResultCache
from repro.farm.executor import (
    Farm,
    FarmError,
    FarmJobError,
    FarmOptions,
    FarmStats,
    WORKER_START_METHOD,
    run_specs,
)
from repro.farm.jobs import (
    FailureResult,
    chaos_spec,
    execute_spec,
    failure_spec,
)
from repro.farm.progress import ProgressReporter
from repro.farm.spec import FORMAT_VERSION, RunSpec
from repro.farm.sweep import run_chaos_specs, run_failure_specs

__all__ = [
    "FORMAT_VERSION",
    "WORKER_START_METHOD",
    "RunSpec",
    "CacheStats",
    "ResultCache",
    "Farm",
    "FarmError",
    "FarmJobError",
    "FarmOptions",
    "FarmStats",
    "FailureResult",
    "ProgressReporter",
    "run_specs",
    "run_failure_specs",
    "run_chaos_specs",
    "failure_spec",
    "chaos_spec",
    "execute_spec",
]
