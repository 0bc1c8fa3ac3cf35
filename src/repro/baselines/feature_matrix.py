"""Table 2 — qualitative comparison of failure-reaction systems.

The paper's Table 2 positions KAR against prior art along three axes:
support for multiple link failures, source routing, and whether the
core keeps state.  The rows are reproduced here as data (with the
paper's own citations) plus a renderer that regenerates the table.

Beyond the paper, the matrix carries two extensions of ours (clearly
separated from the verbatim columns/rows):

* an ``Arborescence Failover`` row — Chiesa et al.'s circular hopping
  over edge-disjoint spanning arborescences, executable in this
  repository as :mod:`repro.baselines.arborescence`;
* a ``Dynamic failures`` column — whether the scheme's failure
  reaction still functions when links fail *and recover* on the
  forwarding timescale (Dai & Foerster's adversary, measurable here
  via :mod:`repro.sim.adversary` and the frontier sweep).  Schemes
  that react by re-selecting per packet (deflection, splicing) keep
  working; schemes whose guarantees are proven against a *static*
  failure set (precomputed failover tables) do not.

Two of the rows also have executable counterparts in this repository:

* ``OpenFlow Fast Failover`` — :mod:`repro.baselines.fastfailover`
  (stateful precomputed backup ports), and
* ``Arborescence Failover`` — :mod:`repro.baselines.arborescence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["FeatureRow", "TABLE2_ROWS", "render_table2"]


@dataclass(frozen=True)
class FeatureRow:
    """One row of Table 2 (plus the dynamic-failures extension).

    The first three feature columns are the paper's; ``dynamic_failures``
    is our addition and does not appear in the original table.
    """

    system: str
    reference: str
    multiple_link_failures: bool
    source_routing: bool
    stateless_core: bool
    dynamic_failures: bool = False

    def cells(self) -> Tuple[str, str, str, str, str]:
        return (
            self.system,
            "Yes" if self.multiple_link_failures else "No",
            "Yes" if self.source_routing else "No",
            "Stateless" if self.stateless_core else "Statefull",
            "Yes" if self.dynamic_failures else "No",
        )


#: The paper's Table 2 rows verbatim (including its "Statefull"
#: spelling and its classification choices), plus the Arborescence
#: Failover row and the dynamic-failures column described in the
#: module docstring.  KAR stays last, as in the paper.
TABLE2_ROWS: List[FeatureRow] = [
    FeatureRow("MPLS Fast Reroute", "[12]", True, True, True, False),
    FeatureRow("SafeGuard", "[13]", True, False, False, False),
    FeatureRow("OpenFlow Fast Failover", "[14]", True, False, False, False),
    FeatureRow("Routing Deflections", "[3]", True, True, False, True),
    FeatureRow("Path Splicing", "[4]", True, False, False, True),
    FeatureRow("Slick Packets", "[6]", False, True, True, False),
    FeatureRow("KeyFlow and SlickFlow", "[2], [5]", False, True, True, False),
    FeatureRow("Arborescence Failover", "(Chiesa et al.)",
               True, False, False, False),
    FeatureRow("KAR", "(this work)", True, True, True, True),
]


def render_table2() -> str:
    """Render Table 2 as aligned text (the benchmark prints this)."""
    header = (
        "Work", "Support multiple link failures", "Source routing",
        "State core network", "Dynamic failures",
    )
    rows = [header] + [r.cells() for r in TABLE2_ROWS]
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
