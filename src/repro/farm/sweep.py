"""Typed sweep runners: spec lists in, experiment result objects out.

There is no sweep state beyond the content-addressed cache: every
finished job is a cache record keyed by its spec, so a killed sweep is
resumed by rerunning the same command against the same ``--cache-dir``
— the finished jobs come back as cache hits and only the rest execute.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.farm.executor import FarmOptions, run_specs
from repro.farm.jobs import (
    FailureResult,
    chaos_run_from_record,
)
from repro.farm.spec import RunSpec

__all__ = [
    "run_failure_specs",
    "run_chaos_specs",
    "run_service_specs",
]

#: Library-default options: sequential, cacheless, silent — the exact
#: pre-farm behaviour for callers that never mention the farm.
_INLINE = FarmOptions(progress=False)


def run_failure_specs(
    specs: Sequence[RunSpec],
    options: Optional[FarmOptions] = None,
    label: str = "failure-sweep",
) -> List[FailureResult]:
    """Run failure-experiment specs; typed results in spec order."""
    records = run_specs(specs, options or _INLINE, label)
    return [FailureResult.from_record(r) for r in records]


def run_chaos_specs(
    specs: Sequence[RunSpec],
    options: Optional[FarmOptions] = None,
    label: str = "chaos-sweep",
) -> List[Any]:
    """Run chaos specs; :class:`ChaosRun` objects in spec order."""
    records = run_specs(specs, options or _INLINE, label)
    return [chaos_run_from_record(r) for r in records]


def run_service_specs(
    specs: Sequence[RunSpec],
    options: Optional[FarmOptions] = None,
    label: str = "service-churn",
) -> List[Any]:
    """Run service-churn specs; :class:`ChurnReport` objects in order."""
    from repro.service.loadgen import churn_report_from_record

    records = run_specs(specs, options or _INLINE, label)
    return [churn_report_from_record(r) for r in records]
