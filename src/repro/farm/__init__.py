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
* :mod:`~repro.farm.jobs` — job kinds, each one call to its experiment
  function with the spec's params as keyword arguments;
* :mod:`~repro.farm.cache` — the on-disk result cache;
* :mod:`~repro.farm.executor` — inline + multiprocess execution;
* :mod:`~repro.farm.progress` — done/total + ETA + cache-hit reporting.

A sweep is ``run_specs(specs, farm, label)``; each typed result is its
type's ``from_record(record["result"])``.
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
from repro.farm.jobs import FailureResult, execute_spec, failure_spec
from repro.farm.progress import ProgressReporter
from repro.farm.spec import RunSpec

__all__ = [
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
    "failure_spec",
    "execute_spec",
]
