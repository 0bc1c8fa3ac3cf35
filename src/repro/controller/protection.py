"""Driven-deflection protection planning.

Protection in KAR is a set of extra ``(switch, port)`` residues folded
into the route ID, forming a logical tree rooted at the destination
(Fig. 1b).  This module provides:

* :func:`segments_to_hops` — turn declarative
  :class:`~repro.topology.topologies.ProtectionSegment` lists (the
  paper's pinned scenarios) into encodable hops;
* :class:`ProtectionPlanner` — *automatic* planners that derive full or
  bit-budgeted partial protection for arbitrary topologies (the paper
  designs its protection by hand; the planner generalizes the same
  construction: cover every first-hop deflection candidate and chain it
  to the destination along a shortest-path tree).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.rns.bitlength import route_id_bit_length
from repro.rns.encoder import Hop
from repro.topology.graph import NodeKind, PortGraph
from repro.topology.paths import canonical_tree
from repro.topology.topologies import ProtectionSegment

__all__ = ["segments_to_hops", "ProtectionPlanner", "ProtectionPlan"]


def segments_to_hops(
    graph: PortGraph, segments: Iterable[ProtectionSegment]
) -> List[Hop]:
    """Convert protection segments to hops using topology port numbers."""
    hops: List[Hop] = []
    for seg in segments:
        sid = graph.switch_id(seg.at)
        port = graph.port_of(seg.at, seg.to)
        hops.append(Hop(switch_id=sid, port=port))
    return hops


@dataclass(frozen=True)
class ProtectionPlan:
    """An automatically planned protection set.

    Attributes:
        segments: the driven-deflection segments, deterministic order.
        covered: first-hop deflection candidates covered by the plan.
        uncovered: candidates left out (empty for full protection unless
            disconnected or blocked by the one-residue constraint).
        bit_length: route-ID bits for primary route + this plan.
    """

    segments: Tuple[ProtectionSegment, ...]
    covered: Tuple[str, ...]
    uncovered: Tuple[str, ...]
    bit_length: int


class ProtectionPlanner:
    """Plans driven-deflection forwarding paths for a primary route.

    The construction mirrors the paper's hand-built trees:

    1. The *deflection candidates* are the core neighbours of the
       primary-route switches that are not themselves on the route —
       exactly the places a NIP/AVP deflection can land in one hop.
    2. Build the canonical shortest-path tree (hop count) toward the
       destination switch over the core subgraph, excluding
       primary-route switches as intermediates (their residues are
       taken — KAR's one-residue constraint; reaching one means the
       packet simply resumes the primary route).
    3. For *full* protection, add the tree edges that chain every
       candidate to the destination (or to a primary-route switch).
       For *partial* protection, add candidates in order of usefulness
       until the route-ID bit budget is exhausted.
    """

    def __init__(self, graph: PortGraph):
        self.graph = graph

    # -- public API ------------------------------------------------------
    def deflection_candidates(self, route: Sequence[str]) -> List[str]:
        """Core neighbours of route switches that are off-route."""
        on_route = set(route)
        seen: Set[str] = set()
        out: List[str] = []
        for sw in route:
            for nb in self.graph.core_subgraph_neighbors(sw):
                if nb not in on_route and nb not in seen:
                    seen.add(nb)
                    out.append(nb)
        return out

    def full(self, route: Sequence[str]) -> ProtectionPlan:
        """Cover every deflection candidate (when reachable)."""
        return self._plan(route, budget_bits=None)

    def partial(self, route: Sequence[str], budget_bits: int) -> ProtectionPlan:
        """Cover candidates best-first within a route-ID bit budget."""
        if budget_bits < 1:
            raise ValueError(f"budget must be >= 1 bit, got {budget_bits}")
        return self._plan(route, budget_bits=budget_bits)

    # -- construction ------------------------------------------------------
    def _tree_parent(self, route: Sequence[str]) -> Dict[str, str]:
        """Canonical tree parents toward the destination switch.

        ``parent[x]`` is x's next hop toward the destination.  The tree
        is rooted at the destination *only* and grows through off-route
        switches: a chain must not route through (or terminate at) an
        upstream route switch, whose residue may point straight back at
        the failed link.  This mirrors the paper's hand-built trees
        ("a logical tree with its root at destination ... has been
        built").
        """
        off_route = set(self.graph.node_names(NodeKind.CORE)) - set(route)
        return canonical_tree(self.graph, route[-1], off_route)[0]

    def _chain(
        self, start: str, parent: Dict[str, str], on_route: Set[str]
    ) -> Optional[List[ProtectionSegment]]:
        """Segments from *start* along the tree until home (route/dst)."""
        if start not in parent:
            return None
        segs: List[ProtectionSegment] = []
        cur = start
        while cur not in on_route:
            nxt = parent[cur]
            segs.append(ProtectionSegment(cur, nxt))
            cur = nxt
        return segs

    def _plan(
        self, route: Sequence[str], budget_bits: Optional[int]
    ) -> ProtectionPlan:
        if len(route) < 1:
            raise ValueError("route must contain at least one switch")
        on_route = set(route)
        parent = self._tree_parent(route)
        candidates = self.deflection_candidates(route)

        base_product = math.prod(self.graph.switch_id(sw) for sw in route)
        chosen: Dict[str, ProtectionSegment] = {}
        covered: List[str] = []
        uncovered: List[str] = []
        product = base_product

        # Candidates adjacent to *earlier* route switches first: a
        # failure early in the route strands the most traffic.
        for cand in candidates:
            chain = self._chain(cand, parent, on_route)
            if chain is None:
                uncovered.append(cand)
                continue
            new_segments = [s for s in chain if s.at not in chosen]
            extra = math.prod(
                self.graph.switch_id(s.at) for s in new_segments
            ) if new_segments else 1
            if budget_bits is not None and new_segments:
                if route_id_bit_length(product * extra) > budget_bits:
                    uncovered.append(cand)
                    continue
            for seg in new_segments:
                chosen[seg.at] = seg
            product *= extra
            covered.append(cand)

        return ProtectionPlan(
            segments=tuple(chosen.values()),
            covered=tuple(covered),
            uncovered=tuple(uncovered),
            bit_length=route_id_bit_length(product),
        )
