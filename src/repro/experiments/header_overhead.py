"""Header-overhead study (Section 2.3, extended).

The paper notes that the route-ID bit length "should be considered for
implementation purposes" and offers Table 1 as its only datapoint.
This module maps the whole trade-off:

* for each scenario topology, the wire bytes of unprotected vs
  protected route IDs and their share of a 1500-byte MTU;
* for each **real GML topology** of the committed Topology Zoo corpus
  (abilene, synthwan754), per-encoding-backend and per-ID-assigner
  route-ID bits over all-pairs shortest paths — the cross-backend ×
  cross-assigner study;
* capacity planning: with a fixed header budget (32/64/128-bit route-ID
  fields), the longest route each ID-assignment strategy supports.

The budget sweep reuses :func:`repro.analysis.bitgrowth.prefix_route_bits`
— prefix bit lengths cached once per pool, budgets answered by binary
search instead of per-budget re-multiplication.

Run as ``python -m repro.experiments.header_overhead``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.bitgrowth import (
    growth_pool,
    max_prefix_within_budget,
    prefix_route_bits,
)
from repro.controller.idassign import reassign_switch_ids, route_frequency_weights
from repro.rns.backends import backend_by_name
from repro.rns.bitlength import route_id_bit_length
from repro.rns.encoder import RouteEncoder
from repro.rns.gf2 import gf2_degree
from repro.rns.wire import FIXED_HEADER_BYTES, header_wire_size
from repro.topology.graph import PortGraph
from repro.topology.topologies import (
    Scenario,
    fifteen_node,
    redundant_path,
    rnp28,
    six_node,
)
from repro.topology.zoo import load_zoo_graph

__all__ = [
    "OverheadRow",
    "ZooOverheadRow",
    "scenario_overhead",
    "zoo_overhead",
    "capacity_table",
    "render_overhead_report",
    "ZOO_TOPOLOGIES",
    "ZOO_CELLS",
]

MTU_BYTES = 1500

#: Real GML fixtures the zoo study runs over.
ZOO_TOPOLOGIES: Tuple[str, ...] = ("abilene", "synthwan754")

#: (backend, assigner) cells of the zoo study.  The integer backends
#: share the greedy pool, so the assigner is the free variable there;
#: the XSR backend requires the dual-coprime pool, where the ``xsr``
#: assigner is already weight-ordered.
ZOO_CELLS: Tuple[Tuple[str, str], ...] = (
    ("crt", "greedy"),
    ("crt", "weighted"),
    ("xsr", "xsr"),
)


@dataclass(frozen=True)
class OverheadRow:
    """Wire cost of one scenario's route ID at one protection level."""

    scenario: str
    level: str
    switches: int
    bits: int
    wire_bytes: int

    @property
    def mtu_fraction(self) -> float:
        return self.wire_bytes / MTU_BYTES


def scenario_overhead(scenario: Scenario) -> List[OverheadRow]:
    """Overhead rows for every protection level of a scenario."""
    rows: List[OverheadRow] = []
    for level in scenario.protection_levels():
        ids = scenario.route_switch_ids() + [
            scenario.graph.switch_id(s.at) for s in scenario.segments(level)
        ]
        modulus = math.prod(ids)
        rows.append(
            OverheadRow(
                scenario=scenario.name,
                level=level,
                switches=len(ids),
                bits=route_id_bit_length(modulus),
                wire_bytes=header_wire_size(modulus),
            )
        )
    return rows


@dataclass(frozen=True)
class ZooOverheadRow:
    """Route-ID cost of one (topology, backend, assigner) cell.

    Bits are measured over all-pairs shortest paths (per-destination
    BFS trees), the same routes bulk provisioning installs.
    """

    topology: str
    backend: str
    assigner: str
    nodes: int
    pairs: int
    median_bits: float
    max_bits: int

    @property
    def max_wire_bytes(self) -> int:
        return FIXED_HEADER_BYTES + (self.max_bits + 7) // 8

    @property
    def mtu_fraction(self) -> float:
        return self.max_wire_bytes / MTU_BYTES


def _all_pairs_route_bits(graph: PortGraph, backend: RouteEncoder) -> List[int]:
    """Header bits of every shortest path, one BFS tree per source.

    The bits accumulate *down the BFS tree* — one modulus extension per
    node, not one re-multiplication per (pair, hop) — the same cached-
    prefix idea as :func:`repro.analysis.bitgrowth.prefix_route_bits`.
    A route's modulus covers its forwarding switches (every node on the
    path except the terminus), matching ``controller.routing``'s hops.
    """
    ids = graph.switch_ids()
    names = sorted(ids)
    xsr = backend.name == "xsr"
    bits: List[int] = []
    for src in names:
        # acc[node]: modulus (integer rings) or degree sum (GF(2)) of
        # the forwarding switches on the path src -> node.
        acc: Dict[str, int] = {src: 0 if xsr else 1}
        seen = {src}
        queue = deque([src])
        while queue:
            node = queue.popleft()
            if node != src:
                bits.append(
                    acc[node] if xsr else route_id_bit_length(acc[node])
                )
            extended = (
                acc[node] + gf2_degree(ids[node])
                if xsr
                else acc[node] * ids[node]
            )
            for nb in graph.neighbors(node):
                if nb not in seen:
                    seen.add(nb)
                    acc[nb] = extended
                    queue.append(nb)
    return bits


def zoo_overhead(
    topologies: Sequence[str] = ZOO_TOPOLOGIES,
    cells: Sequence[Tuple[str, str]] = ZOO_CELLS,
) -> List[ZooOverheadRow]:
    """The cross-backend x cross-assigner study over real GML topologies.

    Each cell loads the topology with the backend's native ID strategy,
    optionally re-assigns IDs with the traffic-weighted assigner (route
    frequencies from the same all-pairs BFS trees the bits are measured
    on), and reports median/max route-ID bits over all ordered pairs.
    """
    rows: List[ZooOverheadRow] = []
    for topology in topologies:
        for backend_name, assigner in cells:
            backend = backend_by_name(backend_name)
            graph = load_zoo_graph(topology, id_strategy=backend.id_strategy)
            if assigner != backend.id_strategy:
                reassign_switch_ids(
                    graph,
                    strategy=assigner,
                    weights=route_frequency_weights(graph),
                )
            bits = _all_pairs_route_bits(graph, backend)
            rows.append(
                ZooOverheadRow(
                    topology=topology,
                    backend=backend_name,
                    assigner=assigner,
                    nodes=len(graph.switch_ids()),
                    pairs=len(bits),
                    median_bits=median(bits),
                    max_bits=max(bits),
                )
            )
    return rows


def capacity_table(
    budgets_bits: Sequence[int] = (32, 64, 128),
    strategies: Sequence[str] = ("greedy", "prime"),
    min_value: int = 4,
    pool_size: int = 64,
    worst_case: bool = True,
) -> Dict[str, List[Tuple[int, int]]]:
    """Max hops per route-ID budget, per ID strategy.

    With ``worst_case=True`` routes run through the *largest* IDs of a
    *pool_size* network — the provisioning floor an operator must
    guarantee.  With ``worst_case=False`` they run through the smallest
    IDs — the best case, where the greedy pool's composite IDs (4, 9,
    25, ...) buy extra hops over a prime pool.  ``xsr`` is accepted too:
    its hops-per-budget use the GF(2) degree sum on the dual-coprime
    pool.  Prefix bit lengths are cached once per strategy; each budget
    is a binary search.
    """
    out: Dict[str, List[Tuple[int, int]]] = {}
    for strategy in strategies:
        pool = growth_pool(strategy, pool_size, min_value=min_value)
        ordered = sorted(pool, reverse=worst_case)
        if strategy == "xsr":
            prefix_bits: List[int] = []
            degree_sum = 0
            for sid in ordered:
                degree_sum += gf2_degree(sid)
                prefix_bits.append(degree_sum)
        else:
            prefix_bits = prefix_route_bits(ordered)
        out[strategy] = [
            (budget, max_prefix_within_budget(prefix_bits, budget))
            for budget in budgets_bits
        ]
    return out


def render_overhead_report(
    zoo_topologies: Optional[Sequence[str]] = ZOO_TOPOLOGIES,
) -> str:
    lines = [
        "Route-ID header overhead by scenario and protection level",
        f"{'scenario':16s} {'level':12s} {'switches':>8s} {'bits':>5s} "
        f"{'wire bytes':>10s} {'% of MTU':>9s}",
    ]
    for build in (six_node, fifteen_node, rnp28, redundant_path):
        for row in scenario_overhead(build()):
            lines.append(
                f"{row.scenario:16s} {row.level:12s} {row.switches:8d} "
                f"{row.bits:5d} {row.wire_bytes:10d} "
                f"{100 * row.mtu_fraction:8.2f}%"
            )
    if zoo_topologies:
        lines.append("")
        lines.append(
            "Zoo corpus: route-ID bits over all-pairs shortest paths "
            "(backend x assigner)"
        )
        lines.append(
            f"{'topology':14s} {'backend':8s} {'assigner':9s} {'nodes':>5s} "
            f"{'pairs':>7s} {'med bits':>8s} {'max bits':>8s} "
            f"{'max wire':>8s} {'% of MTU':>9s}"
        )
        for row in zoo_overhead(topologies=zoo_topologies):
            lines.append(
                f"{row.topology:14s} {row.backend:8s} {row.assigner:9s} "
                f"{row.nodes:5d} {row.pairs:7d} {row.median_bits:8.1f} "
                f"{row.max_bits:8d} {row.max_wire_bytes:8d} "
                f"{100 * row.mtu_fraction:8.2f}%"
            )
    for worst, label in ((True, "worst-case (largest IDs)"),
                         (False, "best-case (smallest IDs)")):
        lines.append("")
        lines.append("Capacity: max hops by route-ID field width "
                     f"(64-switch pool, {label})")
        table = capacity_table(
            strategies=("greedy", "prime", "xsr"), worst_case=worst
        )
        budgets = [b for b, _ in table["greedy"]]
        lines.append("strategy  " + "".join(f"{b:>8d}b" for b in budgets))
        for strategy, rows in table.items():
            lines.append(
                f"{strategy:9s} "
                + "".join(f"{hops:>8d} " for _, hops in rows)
            )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_overhead_report())
