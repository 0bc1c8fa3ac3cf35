"""Figure 5 — throughput vs (failure location × protection × technique).

The paper's trade-off study on the 15-node network: for failures at
SW10–SW7, SW7–SW13 and SW13–SW29, measure mean TCP throughput with 95 %
confidence intervals for AVP and NIP under unprotected, partial and
full protection.  Headlines:

* full protection achieves the highest throughput regardless of
  technique or failure location;
* partial ≈ full for SW7–SW13 and SW13–SW29 (the partial tree already
  encloses the alternatives);
* partial is far below full for SW10–SW7: only 1 of 3 deflection
  candidates is covered — "there is still 2/3 of packets that will be
  sent to switches SW17 or SW37".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.stats import MeanCI, mean_ci
from repro.experiments.common import (
    DEFAULT_TIMELINE,
    Timeline,
    resolve_seeds,
)
from repro.farm.executor import FarmOptions, run_specs
from repro.farm.jobs import FailureResult, failure_spec
from repro.topology.topologies import FULL, PARTIAL, UNPROTECTED

__all__ = ["Figure5Cell", "run_figure5", "render_figure5",
           "FAILURES", "PROTECTIONS", "TECHNIQUES"]

FAILURES: Tuple[Tuple[str, str], ...] = (
    ("SW10", "SW7"), ("SW7", "SW13"), ("SW13", "SW29"),
)
PROTECTIONS = (UNPROTECTED, PARTIAL, FULL)
TECHNIQUES = ("avp", "nip")


@dataclass(frozen=True)
class Figure5Cell:
    """One bar of Fig. 5: mean throughput ratio with a 95 % CI."""

    technique: str
    protection: str
    failure: Tuple[str, str]
    throughput_mbps: MeanCI
    ratio: MeanCI  # failure-window / baseline


def run_figure5(
    seeds: Sequence[int] | None = None,
    timeline: Timeline = DEFAULT_TIMELINE,
    farm: FarmOptions | None = None,
) -> List[Figure5Cell]:
    """Run the full grid; one cell per (technique, protection, failure)."""
    seeds = resolve_seeds(seeds)
    grid = [
        (technique, protection, failure)
        for technique in TECHNIQUES
        for protection in PROTECTIONS
        for failure in FAILURES
    ]
    specs = [
        failure_spec("fifteen_node", seed, timeline, deflection=technique,
                     protection=protection, failure=failure)
        for technique, protection, failure in grid
        for seed in seeds
    ]
    results = [
        FailureResult.from_record(r["result"])
        for r in run_specs(specs, farm, "fig5")
    ]
    cells: List[Figure5Cell] = []
    for i, (technique, protection, failure) in enumerate(grid):
        chunk = results[i * len(seeds):(i + 1) * len(seeds)]
        cells.append(
            Figure5Cell(
                technique=technique,
                protection=protection,
                failure=failure,
                throughput_mbps=mean_ci([r.failure_mbps for r in chunk]),
                ratio=mean_ci([r.ratio for r in chunk]),
            )
        )
    return cells


def render_figure5(cells: List[Figure5Cell]) -> str:
    lines = [
        "Fig. 5 — mean TCP throughput during failure (ratio of no-failure "
        "baseline, 95% CI)",
        f"{'technique':9s} {'protection':12s} "
        + "".join(f"{a}-{b}".rjust(18) for a, b in FAILURES),
    ]
    index: Dict[Tuple[str, str], Dict[Tuple[str, str], Figure5Cell]] = {}
    for c in cells:
        index.setdefault((c.technique, c.protection), {})[c.failure] = c
    for technique in TECHNIQUES:
        for protection in PROTECTIONS:
            row = index.get((technique, protection), {})
            cols = []
            for failure in FAILURES:
                cell = row.get(failure)
                if cell is None:
                    cols.append(" " * 18)
                else:
                    cols.append(
                        f"{100 * cell.ratio.mean:6.1f}%"
                        f" ±{100 * cell.ratio.half_width:5.1f}".rjust(18)
                    )
            lines.append(f"{technique:9s} {protection:12s} " + "".join(cols))
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_figure5(run_figure5()))
