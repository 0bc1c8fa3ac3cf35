"""Static protection-coverage analysis.

Given a topology, a primary route, a protection set and a failure link,
this module answers — *without running a packet simulation* — the
question the paper's Section 3 narratives answer by hand: where can a
NIP-deflected packet land, and what happens to it there?

Each first-hop deflection candidate is classified:

* ``DRIVEN`` — every subsequent hop is determined by an encoded residue
  (route or protection) until the destination: the paper's driven
  deflection, zero randomness after the first hop.
* ``FORCED`` — the walk is deterministic even through *unencoded*
  switches because NIP leaves exactly one legal port (degree-2 rejoins).
* ``WANDERING`` — the walk reaches a switch where the next hop is
  genuinely random (invalid residue with ≥ 2 candidate ports).

The paper's "2/3 of packets will be sent to switches SW17 or SW37" is
exactly the WANDERING fraction at SW10; tests assert these numbers.

The per-hop rule is not restated here: every hop is one
``NotInputPort.decide`` call under an RNG stand-in that returns the
candidate set instead of drawing from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.walk import _CandidateSet
from repro.controller.protection import segments_to_hops
from repro.switches.deflection import NotInputPort
from repro.topology.graph import NodeKind, PortGraph, TopologyError
from repro.topology.topologies import ProtectionSegment

__all__ = ["Fate", "CandidateOutcome", "CoverageReport", "analyze_failure"]

#: the per-hop rule, and the RNG stand-in that makes it return sets.
_NIP, _CANDIDATES = NotInputPort(), _CandidateSet()


class Fate:
    """Classification constants for a deflection candidate."""

    DRIVEN = "driven"
    FORCED = "forced"
    WANDERING = "wandering"
    DEAD_END = "dead-end"


@dataclass(frozen=True)
class CandidateOutcome:
    """What happens to packets deflected to one candidate switch."""

    candidate: str
    fate: str
    path: Tuple[str, ...]  # deterministic prefix of the walk
    probability: float     # uniform over candidates (NIP)


@dataclass(frozen=True)
class CoverageReport:
    """Coverage of one failure case by one protection set."""

    failure: Tuple[str, str]
    deflection_switch: str
    outcomes: Tuple[CandidateOutcome, ...]

    @property
    def delivered_fraction(self) -> float:
        """Probability mass that is deterministically delivered."""
        return sum(
            o.probability
            for o in self.outcomes
            if o.fate in (Fate.DRIVEN, Fate.FORCED)
        )

    @property
    def wandering_fraction(self) -> float:
        return sum(
            o.probability for o in self.outcomes if o.fate == Fate.WANDERING
        )

    def describe(self) -> str:
        parts = [
            f"{o.candidate}: {o.fate} (p={o.probability:.3f})"
            for o in self.outcomes
        ]
        return (
            f"failure {self.failure[0]}-{self.failure[1]} at "
            f"{self.deflection_switch}: " + "; ".join(parts)
        )


def _residue_ports(
    graph: PortGraph,
    route: Sequence[str],
    dst_edge: str,
    segments: Iterable[ProtectionSegment],
) -> Dict[str, int]:
    """switch name -> encoded output port (route hops + protection)."""
    ports: Dict[str, int] = {}
    path = list(route) + [dst_edge]
    for current, nxt in zip(path, path[1:]):
        ports[current] = graph.port_of(current, nxt)
    for hop, seg in zip(segments_to_hops(graph, list(segments)), segments):
        ports[seg.at] = hop.port
    return ports


def analyze_failure(
    graph: PortGraph,
    route: Sequence[str],
    dst_edge: str,
    segments: Iterable[ProtectionSegment],
    failure: Tuple[str, str],
    max_walk: int = 64,
) -> CoverageReport:
    """Classify every NIP deflection candidate for one failure.

    Args:
        graph: the topology.
        route: primary core route (the failure must be one of its links).
        dst_edge: the egress edge node (walk target).
        segments: the protection segments encoded in the route ID.
        failure: (upstream, downstream) link on the route that fails.
        max_walk: deterministic-walk step bound (loop guard).
    """
    up, down = failure
    if up not in route:
        raise TopologyError(f"failure upstream {up!r} is not on the route")
    segments = tuple(segments)
    encoded = _residue_ports(graph, route, dst_edge, segments)

    idx = list(route).index(up)
    in_node = route[idx - 1] if idx > 0 else None  # None -> came from edge
    banned = {down}
    if in_node is not None:
        banned.add(in_node)

    candidates = [
        nb for nb in graph.core_subgraph_neighbors(up) if nb not in banned
    ]
    if not candidates:
        return CoverageReport(failure=failure, deflection_switch=up, outcomes=())
    p_each = 1.0 / len(candidates)

    outcomes = []
    for cand in candidates:
        fate, path = _walk(graph, encoded, route, dst_edge, up, cand,
                           failure, max_walk)
        outcomes.append(
            CandidateOutcome(candidate=cand, fate=fate, path=tuple(path),
                             probability=p_each)
        )
    return CoverageReport(
        failure=failure, deflection_switch=up, outcomes=tuple(outcomes)
    )


def _walk(
    graph: PortGraph,
    encoded: Dict[str, int],
    route: Sequence[str],
    dst_edge: str,
    prev: str,
    start: str,
    failure: Tuple[str, str],
    max_walk: int,
) -> Tuple[str, List[str]]:
    """Follow the deterministic portion of a NIP walk from *start*.

    At an *encoded* switch the residue dictates the hop (driven).  At an
    unencoded switch the modulo result is an arbitrary residue — treated
    as random, matching the paper's own narrative analysis — unless NIP
    leaves exactly one legal port (forced).
    """
    failed = frozenset(failure)
    path = [start]
    steps_taken = set()  # (from, to) pairs: revisiting one = fixed loop
    current, came_from = start, prev
    forced = False
    dst_switch = route[-1]
    for _ in range(max_walk):
        if current == dst_switch:
            return (Fate.FORCED if forced else Fate.DRIVEN), path
        if graph.node(current).kind != NodeKind.CORE:
            return (Fate.FORCED if forced else Fate.DRIVEN), path
        nxt, was_driven = _next_hop(graph, encoded, current, came_from, failed)
        if nxt is None:
            return Fate.WANDERING, path
        if nxt == "":
            return Fate.DEAD_END, path
        if not was_driven:
            forced = True
        if (current, nxt) in steps_taken:
            return Fate.DEAD_END, path  # deterministic loop
        steps_taken.add((current, nxt))
        came_from, current = current, nxt
        path.append(current)
    return Fate.DEAD_END, path


def _next_hop(
    graph: PortGraph,
    encoded: Dict[str, int],
    node: str,
    came_from: str,
    failed: frozenset,
) -> Tuple[Optional[str], bool]:
    """Deterministic NIP next hop, read out of ``NotInputPort.decide``.

    Returns ``(target, was_driven)``; target is None when the hop would
    be genuinely random, and "" for a dead end (no legal port at all).
    """
    in_port = graph.port_of(node, came_from)
    healthy = tuple(
        p for p in range(graph.degree(node))
        if not ({node, graph.neighbor_on_port(node, p)} <= failed)
    )
    # An unencoded switch's modulo result is an arbitrary residue,
    # treated as unusable: the input port is the one value NIP always
    # rejects, so passing it sends decide straight to its fallback set.
    chosen, deflected = _NIP.decide(
        healthy, in_port, encoded.get(node, in_port), False, _CANDIDATES
    )
    if chosen is None:
        return "", False
    if not deflected:
        return graph.neighbor_on_port(node, chosen), True
    if len(chosen) > 1:
        return None, False
    return graph.neighbor_on_port(node, chosen[0]), False
