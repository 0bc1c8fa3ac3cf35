"""Random-walk analysis of deflected packets.

Two exact (non-simulated) models:

* :func:`geometric_retry` — the Fig. 8 redundant-path loop: each visit
  to the decision switch succeeds with probability *p*; failures cost a
  fixed loop detour.  Expected extra hops follow the geometric series
  the paper describes qualitatively ("this protection loop will
  continue until SW109 is probabilistically chosen").
* :func:`deterministic_strategy_walk` — the dataplane as a pure graph
  walk: hop by hop ``R mod s`` handed to ``strategies[switch].decide``,
  TTL bookkeeping, drops, and edge misdelivery re-encodes, with no
  event engine, queues, or clocks involved.  It is the only off-engine
  replay of a hop: no-deflection forwarding is this walk under a table
  of no-deflection strategies, not a second loop.  The differential
  verifier (:mod:`repro.verify`) diffs its verdicts against the real
  simulator's packet traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.topology.graph import NodeKind, PortGraph, TopologyError

if TYPE_CHECKING:
    from repro.switches.deflection import DeflectionStrategy

__all__ = [
    "geometric_retry",
    "GeometricRetryModel",
    "WalkHop",
    "WalkVerdict",
    "deterministic_strategy_walk",
]


@dataclass(frozen=True)
class GeometricRetryModel:
    """Closed-form Fig. 8 model.

    Attributes:
        p_success: probability the decision switch picks the delivering
            branch (1/2 at SW73: SW109 vs SW71).
        direct_hops: hops from the decision switch to delivery on the
            success branch.
        loop_hops: hops consumed by one failed attempt (the protection
            loop back to the decision switch).
    """

    p_success: float
    direct_hops: int
    loop_hops: int

    @property
    def expected_attempts(self) -> float:
        return 1.0 / self.p_success

    @property
    def expected_extra_hops(self) -> float:
        """Mean hops added by the retry loop (excludes the direct tail)."""
        return (1.0 - self.p_success) / self.p_success * self.loop_hops

    @property
    def expected_total_hops(self) -> float:
        return self.direct_hops + self.expected_extra_hops

    def attempt_distribution(self, k_max: int) -> List[float]:
        """P(delivered on attempt k) for k = 1..k_max (geometric)."""
        return [
            (1.0 - self.p_success) ** (k - 1) * self.p_success
            for k in range(1, k_max + 1)
        ]


def geometric_retry(
    p_success: float, direct_hops: int, loop_hops: int
) -> GeometricRetryModel:
    """Build the Fig. 8 geometric-retry model (validated inputs)."""
    if not 0.0 < p_success <= 1.0:
        raise ValueError(f"p_success must be in (0, 1], got {p_success}")
    if direct_hops < 0 or loop_hops < 0:
        raise ValueError("hop counts must be non-negative")
    return GeometricRetryModel(
        p_success=p_success, direct_hops=direct_hops, loop_hops=loop_hops
    )


# ---------------------------------------------------------------------------
# Deterministic dataplane walk (the verifier's graph-only oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WalkHop:
    """One core-switch forwarding step of the modeled packet.

    ``deflected`` mirrors the dataplane's flag: the strategy departed
    from its happy path on this hop (never, under no-deflection).
    """

    node: str
    in_port: int
    out_port: int
    deflected: bool = False


@dataclass(frozen=True)
class WalkVerdict:
    """The predicted fate of a packet.

    Attributes:
        outcome: ``"delivered"`` or ``"dropped"``.
        node: the delivering host (delivered) or the dropping node.
        reason: the drop reason (matches the dataplane's strings), or
            ``""`` when delivered.
        hops: every core-switch forwarding step, in order.
    """

    outcome: str
    node: str
    reason: str
    hops: Tuple[WalkHop, ...]

    @property
    def delivered(self) -> bool:
        return self.outcome == "delivered"


#: re-encode hook: ``(edge_name, dst_host) -> (route_id, out_port)`` or
#: None when the controller knows no route from that edge.
ReencodeFn = Callable[[str, str], Optional[Tuple[int, int]]]

#: switch decode hook: ``(route_id, switch_id) -> port``.  ``None``
#: means the classic integer ``R mod s``; the XSR backend passes the
#: carry-less polynomial remainder instead.
PortAtFn = Callable[[int, int], int]


class _NoRandomness:
    """RNG stand-in that fails loudly if a strategy draws from it.

    The strategy walk only models deterministic strategies (the
    planned baselines); a randomized strategy slipping in must be an
    error, not silent divergence from the simulator.
    """

    def __getattr__(self, name: str):
        raise RuntimeError(
            "deterministic_strategy_walk only models RNG-free strategies; "
            f"the strategy asked for rng.{name}"
        )


def deterministic_strategy_walk(
    graph: PortGraph,
    strategies: "Mapping[str, DeflectionStrategy]",
    route_id: int,
    ttl: int,
    ingress_edge: str,
    out_port: int,
    dst_host: str,
    down_links: Collection[Tuple[str, str]] = (),
    reencode: Optional[ReencodeFn] = None,
    port_at: Optional[PortAtFn] = None,
) -> WalkVerdict:
    """Predict one packet's path and fate without running the simulator.

    Replays the dataplane's per-hop rules as pure graph arithmetic: a
    core switch drops a packet arriving with TTL <= 0, else decrements
    the TTL, computes ``route_id mod switch_id`` and takes the out-port
    from ``strategies[switch].decide`` over the ports *down_links*
    leaves up — exactly the call the real switch makes, minus the event
    engine.  An edge serving the destination delivers; any other edge
    re-encodes via *reencode* (keeping the packet's remaining TTL) or
    drops.  TTL strictly decreases across core hops, so the walk always
    terminates — a wandering (fuzzed) route ID ends in a ``ttl-expired``
    verdict, which is exactly the loop verdict the verifier diffs.

    *strategies* is the per-switch table the simulation runs with (the
    stateful failover baselines of :mod:`repro.baselines`), or a table
    of no-deflection strategies for the plain KeyFlow dataplane.
    Strategies must be RNG-free; one that draws randomness raises.
    Each hop records the strategy's deflected flag, so expected traces
    compare bit-for-bit against :class:`~repro.sim.trace.PacketTracer`
    paths, and the drop-reason strings deliberately match the
    dataplane's.

    *port_at* swaps the per-hop decode for an encoding backend's (the
    XSR polynomial remainder); by default the integer ``R mod s`` runs.
    """
    hops: List[WalkHop] = []

    def dropped(node: str, reason: str) -> WalkVerdict:
        return WalkVerdict("dropped", node, reason, tuple(hops))

    down = {tuple(sorted(key)) for key in down_links}
    rng = _NoRandomness()
    rid = route_id
    deflected = False
    current = graph.neighbor_on_port(ingress_edge, out_port)
    in_port = graph.port_of(current, ingress_edge)
    while True:
        kind = graph.node(current).kind
        if kind == NodeKind.CORE:
            if ttl <= 0:
                return dropped(current, "ttl-expired")
            ttl -= 1
            strategy = strategies[current]
            if port_at is None:
                computed = rid % graph.switch_id(current)
            else:
                computed = port_at(rid, graph.switch_id(current))
            healthy = tuple(
                p for p in range(graph.degree(current))
                if tuple(sorted((current, graph.neighbor_on_port(current, p))))
                not in down
            )
            port, hop_deflected = strategy.decide(
                healthy, in_port, computed, deflected, rng
            )
            if port is None:
                return dropped(current, f"no-usable-port({strategy.name})")
            deflected = deflected or hop_deflected
            neighbor = graph.neighbor_on_port(current, port)
            hops.append(WalkHop(current, in_port, port, hop_deflected))
            in_port = graph.port_of(neighbor, current)
            current = neighbor
            continue
        if kind == NodeKind.EDGE:
            if dst_host in graph.hosts_of_edge(current):
                return WalkVerdict("delivered", dst_host, "", tuple(hops))
            # Misdelivered: the edge asks for a fresh route ID.  The
            # dataplane checks reachability/route first and TTL only at
            # re-injection time, so the order here matters.
            if reencode is None:
                return dropped(current, "misdelivered-no-controller")
            entry = reencode(current, dst_host)
            if entry is None:
                return dropped(current, "misdelivered-no-route")
            if ttl <= 0:
                return dropped(current, "ttl-expired")
            rid, port = entry
            deflected = False  # fresh route, fresh deflected flag
            neighbor = graph.neighbor_on_port(current, port)
            in_port = graph.port_of(neighbor, current)
            current = neighbor
            continue
        raise TopologyError(
            f"walk reached {current!r} of kind {kind!r}; core routes "
            f"never point at hosts"
        )
