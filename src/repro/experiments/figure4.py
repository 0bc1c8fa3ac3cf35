"""Figure 4 — TCP throughput time series across a failure, by technique.

The paper fails SW7–SW13 in the 15-node network with driven-deflection
protection installed and plots TCP throughput over time for NIP, AVP,
HP and no deflection.  Headline: traffic never stops under deflection;
NIP keeps the highest throughput (≈ 75 % of nominal); no-deflection
drops to zero for the failure's duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.experiments.common import DEFAULT_TIMELINE, Timeline
from repro.farm.executor import FarmOptions, run_specs
from repro.farm.jobs import FailureResult, failure_spec
from repro.topology.topologies import PARTIAL

__all__ = ["Figure4Series", "run_figure4", "render_figure4", "TECHNIQUES"]

#: Plotted techniques, paper order.
TECHNIQUES = ("nip", "avp", "hp", "none")

#: The failed link of Fig. 4.
FAILURE = ("SW7", "SW13")


@dataclass(frozen=True)
class Figure4Series:
    """One curve of Fig. 4."""

    technique: str
    intervals: Tuple[Tuple[float, float], ...]  # (time, Mbit/s)
    baseline_mbps: float
    failure_mbps: float

    @property
    def failure_ratio(self) -> float:
        return self.failure_mbps / self.baseline_mbps if self.baseline_mbps else 0.0


def run_figure4(
    seed: int = 1,
    timeline: Timeline = DEFAULT_TIMELINE,
    farm: Optional[FarmOptions] = None,
) -> Dict[str, Figure4Series]:
    """Run the four curves; returns technique -> series."""
    specs = [
        failure_spec("fifteen_node", seed, timeline, deflection=technique,
                     protection=PARTIAL, failure=FAILURE)
        for technique in TECHNIQUES
    ]
    results = [
        FailureResult.from_record(r["result"])
        for r in run_specs(specs, farm, "fig4")
    ]
    out: Dict[str, Figure4Series] = {}
    for technique, result in zip(TECHNIQUES, results):
        out[technique] = Figure4Series(
            technique=technique,
            intervals=result.intervals,
            baseline_mbps=result.baseline_mbps,
            failure_mbps=result.failure_mbps,
        )
    return out


def render_figure4(series: Dict[str, Figure4Series]) -> str:
    """Text rendering: per-interval table, sparklines, summary rows."""
    from repro.experiments.export import sparkline

    techniques = [t for t in TECHNIQUES if t in series]
    times = [t for t, _ in series[techniques[0]].intervals]
    lines = ["Fig. 4 — TCP throughput (Mbit/s) vs time; link SW7-SW13 "
             f"fails at {DEFAULT_TIMELINE.fail_at:g}s, repairs at "
             f"{DEFAULT_TIMELINE.repair_at:g}s"]
    header = "  time " + "".join(f"{t:>8s}" for t in techniques)
    lines.append(header)
    for i, t in enumerate(times):
        row = f"{t:6.1f} " + "".join(
            f"{series[name].intervals[i][1]:8.2f}" for name in techniques
        )
        lines.append(row)
    lines.append("")
    for name in techniques:
        s = series[name]
        shape = sparkline([mbps for _, mbps in s.intervals], width=32)
        lines.append(
            f"{name:5s} {shape}  baseline {s.baseline_mbps:.2f}, during "
            f"failure {s.failure_mbps:.2f} "
            f"({100 * s.failure_ratio:.1f}% of baseline)"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_figure4(run_figure4()))
