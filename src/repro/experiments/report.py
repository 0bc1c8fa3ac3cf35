"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Run as ``python -m repro.experiments.report [output-path]``.  With
``REPRO_SEEDS=30`` the run matches the paper's n=30 averaging (slower);
the default (3 seeds) finishes in a few minutes on one core.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, List, Optional

from repro.experiments import (
    figure4,
    figure5,
    figure7,
    figure8,
    header_overhead,
    table1,
    table2,
)

if TYPE_CHECKING:
    from repro.farm.executor import FarmOptions

__all__ = ["build_report", "main"]


def _fig4_section(farm: "Optional[FarmOptions]" = None) -> List[str]:
    series = figure4.run_figure4(farm=farm)
    lines = [
        "## Figure 4 — TCP throughput across a SW7–SW13 failure, by technique",
        "",
        "Paper: deflection keeps traffic flowing; NIP retains the most "
        "throughput (~75 % of nominal, \"impact of around 25 %\"); "
        "no-deflection drops to zero for the failure's duration.",
        "",
        "| technique | baseline (Mbit/s) | during failure (Mbit/s) | % of baseline | paper |",
        "|---|---|---|---|---|",
    ]
    paper = {"nip": "~75 %", "avp": "< NIP", "hp": "lower bound (≈0)",
             "none": "0"}
    for name in figure4.TECHNIQUES:
        s = series[name]
        lines.append(
            f"| {name} | {s.baseline_mbps:.2f} | {s.failure_mbps:.2f} | "
            f"{100 * s.failure_ratio:.1f} % | {paper[name]} |"
        )
    lines += ["", "```", figure4.render_figure4(series), "```", ""]
    return lines


def _fig5_section(farm: "Optional[FarmOptions]" = None) -> List[str]:
    cells = figure5.run_figure5(farm=farm)
    lines = [
        "## Figure 5 — protection × technique × failure location (15-node)",
        "",
        "Paper: full protection is best everywhere (~70 %); partial ≈ full "
        "for SW7–SW13 and SW13–SW29; partial collapses for SW10–SW7 "
        "(1 of 3 deflection candidates covered → ~40 % vs ~70 %).",
        "",
        "```",
        figure5.render_figure5(cells),
        "```",
        "",
    ]
    return lines


def _fig7_section(farm: "Optional[FarmOptions]" = None) -> List[str]:
    points = figure7.run_figure7(farm=farm)
    lines = [
        "## Figure 7 — RNP backbone (Boa Vista → São Paulo), NIP + partial",
        "",
        "Paper: SW7–SW13 < 5 % loss; SW13–SW41 ≈ 40 % loss with the "
        "highest variance; SW41–SW73 ≈ 30 % loss.",
        "",
        "```",
        figure7.render_figure7(points),
        "```",
        "",
    ]
    return lines


def _fig8_section(farm: "Optional[FarmOptions]" = None) -> List[str]:
    result = figure8.run_figure8(farm=farm)
    lines = [
        "## Figure 8 — redundant-path worst case",
        "",
        f"Paper: throughput decreases to {100 * figure8.PAPER_RATIO:.1f} % "
        "of nominal under the SW73–SW107 failure (geometric retry through "
        "the SW71→SW17→SW41 protection loop).",
        "",
        "```",
        figure8.render_figure8(result),
        "```",
        "",
    ]
    return lines


def build_report(farm: "Optional[FarmOptions]" = None) -> str:
    """Render the full report markdown.

    Pure with respect to wall time: two runs over the same measurements
    produce byte-identical text (the old wall-time footer made
    otherwise-identical reports differ — timing now lives in
    :func:`main`, outside the exported file).
    """
    sections: List[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Regenerated by `python -m repro.experiments.report`.  All TCP",
        "numbers are scaled-down simulations (20 Mbit/s links); ratios to",
        "the no-failure baseline are the quantities compared against the",
        "paper (whose own headline numbers are ratios of 200 Mbit/s).",
        "",
        "## Table 1 — route-ID bit length (15-node network)",
        "",
        "Computed from the scenario definition via Eq. 9; matches the",
        "paper exactly (15/28/43 bits for 4/7/10 switches).",
        "",
        "```",
        table1.render_table1(),
        "```",
        "",
    ]
    sections += _fig4_section(farm)
    sections += _fig5_section(farm)
    sections += _fig7_section(farm)
    sections += _fig8_section(farm)
    sections += [
        "## Known quantitative deviations",
        "",
        "The *shape* of every result (who wins, where partial ≈ full, "
        "which failure is worst) reproduces; the absolute ratios deviate "
        "where the mechanism is sensitive to parameters the paper does "
        "not publish:",
        "",
        "* **Fig. 4/5, NIP on SW7–SW13**: we measure ~80–90 % of baseline "
        "vs the paper's 75 % — our Eifel-style TCP absorbs slightly more "
        "of the deflection reordering than the authors' 2014-era Linux "
        "stack did.",
        "* **Fig. 5, SW13–SW29 failures**: levels run below the paper "
        "(~30 % vs ~70 %) because deflected ACKs at SW29 can reach the "
        "neighbouring AS edge and pay a controller re-encode round trip; "
        "the paper does not describe its edge placement around SW29.  "
        "Partial ≈ full still holds, which is the claim under test.",
        "* **Fig. 7, SW41–SW73**: with the default (long) timeline TCP "
        "adapts to the two-branch reordering and loses almost nothing vs "
        "the paper's ~30 % — the deviation direction that *favours* KAR. "
        "Shorter windows (the tests' timeline) show the transient "
        "cost (~15–60 %).",
        "* **Fig. 8**: 46 % vs the paper's 54.8 % — same geometric-retry "
        "mechanism.  The scaled-down rate does not explain the gap: at the "
        "paper's 200 Mbit/s the ratio falls further, 0.457 → 0.289 "
        "(ROADMAP item 13).",
        "",
        "Increase averaging with ``REPRO_SEEDS=30`` to tighten the "
        "confidence intervals (the paper uses n=30).",
        "",
        "## Table 2 — related-work feature matrix",
        "",
        "Reproduced as data (`repro.baselines.feature_matrix`); the",
        "OpenFlow-FF and Arborescence Failover rows also exist as runnable",
        "systems (`repro.baselines`).",
        "",
        "```",
        table2.render_table2(),
        "```",
        "",
        "## Header overhead (Section 2.3, extended)",
        "",
        "```",
        header_overhead.render_overhead_report(),
        "```",
        "",
    ]
    return "\n".join(sections)


def main(argv: List[str]) -> int:
    out_path = argv[1] if len(argv) > 1 else "EXPERIMENTS.md"
    start = time.time()
    report = build_report()
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(report)
    # Timing goes to the console, never into the exported file — the
    # report itself must be run-to-run identical.
    print(f"wrote {out_path} ({time.time() - start:.0f} s of wall time)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
