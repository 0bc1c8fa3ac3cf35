"""Analytical models: random walks, stats, header growth."""

from repro.analysis.stats import MeanCI, mean_ci
from repro.analysis.walk import GeometricRetryModel, geometric_retry

__all__ = [
    "geometric_retry",
    "GeometricRetryModel",
    "mean_ci",
    "MeanCI",
]
