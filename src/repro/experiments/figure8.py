"""Figure 8 — the redundant-path worst case.

KAR's intrinsic constraint (one residue per switch) means SW73 cannot
address both of its paths to SW113; when SW73–SW107 fails, delivery
relies on a coin flip between SW109 (success) and the protection loop
SW71→SW17→SW41→SW73 (retry).  The paper measures TCP throughput at
54.8 % of nominal.

This module reproduces both the *measured* number (simulation) and the
*model* (the geometric-retry expectation from
:mod:`repro.analysis.walk`), and reports them side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.stats import MeanCI, mean_ci
from repro.analysis.walk import GeometricRetryModel, geometric_retry
from repro.experiments.common import (
    DEFAULT_TIMELINE,
    Timeline,
    resolve_seeds,
)
from repro.farm.executor import FarmOptions, run_specs
from repro.farm.jobs import FailureResult, failure_spec
from repro.topology.topologies import PARTIAL

__all__ = ["Figure8Result", "run_figure8", "render_figure8", "PAPER_RATIO"]

#: The paper's measured throughput fraction for this scenario.
PAPER_RATIO = 0.548

FAILURE = ("SW73", "SW107")


@dataclass(frozen=True)
class Figure8Result:
    ratio: MeanCI
    throughput_mbps: MeanCI
    model: GeometricRetryModel


def analytical_model() -> GeometricRetryModel:
    """The closed-form retry model for the Fig. 8 topology.

    At SW73 the NIP candidates are {SW109, SW71} (p = 1/2 each).  The
    success branch delivers in 2 hops (SW109, SW113); a failed attempt
    burns 4 hops (SW71, SW17, SW41, back to SW73).
    """
    return geometric_retry(p_success=0.5, direct_hops=2, loop_hops=4)


def run_figure8(
    seeds: Sequence[int] | None = None,
    timeline: Timeline = DEFAULT_TIMELINE,
    farm: FarmOptions | None = None,
) -> Figure8Result:
    seeds = resolve_seeds(seeds)
    specs = [
        failure_spec("redundant_path", seed, timeline, deflection="nip",
                     protection=PARTIAL, failure=FAILURE)
        for seed in seeds
    ]
    results = [
        FailureResult.from_record(r["result"])
        for r in run_specs(specs, farm, "fig8")
    ]
    return Figure8Result(
        ratio=mean_ci([r.ratio for r in results]),
        throughput_mbps=mean_ci([r.failure_mbps for r in results]),
        model=analytical_model(),
    )


def render_figure8(result: Figure8Result) -> str:
    m = result.model
    return "\n".join([
        "Fig. 8 — redundant-path worst case (SW73-SW107 failure, NIP, "
        "protection loop)",
        f"measured: {100 * result.ratio.mean:.1f}% ±"
        f"{100 * result.ratio.half_width:.1f} of nominal "
        f"(paper: {100 * PAPER_RATIO:.1f}%)",
        f"model: E[attempts] = {m.expected_attempts:.1f}, "
        f"E[extra hops] = {m.expected_extra_hops:.1f}, "
        f"E[total hops after SW73] = {m.expected_total_hops:.1f}",
    ])


if __name__ == "__main__":
    print(render_figure8(run_figure8()))
