"""Analytical models: coverage, random walks, stats, header growth."""

from repro.analysis.bitgrowth import (
    GrowthPoint,
    bit_growth_by_strategy,
    protection_budget_table,
)
from repro.analysis.coverage import (
    CandidateOutcome,
    CoverageReport,
    Fate,
    analyze_failure,
)
from repro.analysis.stats import MeanCI, mean_ci
from repro.analysis.walk import (
    GeometricRetryModel,
    absorption_probability,
    geometric_retry,
    hot_potato_hitting_time,
)

__all__ = [
    "analyze_failure",
    "CoverageReport",
    "CandidateOutcome",
    "Fate",
    "hot_potato_hitting_time",
    "absorption_probability",
    "geometric_retry",
    "GeometricRetryModel",
    "mean_ci",
    "MeanCI",
    "bit_growth_by_strategy",
    "GrowthPoint",
    "protection_budget_table",
]
