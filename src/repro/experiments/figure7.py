"""Figure 7 — RNP backbone: throughput by failure location.

Boa Vista (SW7) → São Paulo (SW73) over the 28-PoP RNP reconstruction,
NIP deflection, partial protection {SW17→SW71, SW61→SW67, SW67→SW71,
SW71→SW73}.  Paper headlines:

* no failure: nominal throughput;
* SW7–SW13 failure: <5 % reduction (single deterministic alternative
  SW11→SW17, already covered — one extra hop, no disordering);
* SW13–SW41 failure: largest reduction (≈40 %) and largest variance
  (5-way deflection split, 3 of 5 candidates wander);
* SW41–SW73 failure: ≈30 % reduction (2-way split, both covered, but
  asymmetric branch lengths disorder packets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.stats import MeanCI, mean_ci
from repro.experiments.common import (
    DEFAULT_TIMELINE,
    Timeline,
    resolve_seeds,
)
from repro.farm.executor import FarmOptions, run_specs
from repro.farm.jobs import FailureResult, failure_spec
from repro.topology.topologies import PARTIAL

__all__ = ["Figure7Point", "run_figure7", "render_figure7", "CASES"]

#: Failure cases in paper order (None = the no-failure reference bar).
CASES: Tuple[Optional[Tuple[str, str]], ...] = (
    None, ("SW7", "SW13"), ("SW13", "SW41"), ("SW41", "SW73"),
)


@dataclass(frozen=True)
class Figure7Point:
    failure: Optional[Tuple[str, str]]
    throughput_mbps: MeanCI
    ratio: MeanCI

    @property
    def label(self) -> str:
        if self.failure is None:
            return "no failure"
        return f"{self.failure[0]}-{self.failure[1]}"


def run_figure7(
    seeds: Sequence[int] | None = None,
    timeline: Timeline = DEFAULT_TIMELINE,
    farm: FarmOptions | None = None,
) -> List[Figure7Point]:
    seeds = resolve_seeds(seeds)
    specs = [
        failure_spec("rnp28", seed, timeline, deflection="nip",
                     protection=PARTIAL, failure=failure)
        for failure in CASES
        for seed in seeds
    ]
    results = [
        FailureResult.from_record(r["result"])
        for r in run_specs(specs, farm, "fig7")
    ]
    points: List[Figure7Point] = []
    for i, failure in enumerate(CASES):
        chunk = results[i * len(seeds):(i + 1) * len(seeds)]
        points.append(
            Figure7Point(
                failure=failure,
                throughput_mbps=mean_ci([r.failure_mbps for r in chunk]),
                ratio=mean_ci([r.ratio for r in chunk]),
            )
        )
    return points


def render_figure7(points: List[Figure7Point]) -> str:
    lines = [
        "Fig. 7 — RNP (Boa Vista -> São Paulo), NIP, partial protection",
        f"{'failure':12s} {'Mbit/s':>18s} {'% of baseline':>20s}",
    ]
    for p in points:
        lines.append(
            f"{p.label:12s} {p.throughput_mbps.mean:9.2f} "
            f"±{p.throughput_mbps.half_width:5.2f} "
            f"{100 * p.ratio.mean:12.1f}% ±{100 * p.ratio.half_width:5.1f}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_figure7(run_figure7()))
