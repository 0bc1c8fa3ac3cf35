"""Admission control: per-link bandwidth reservations + CSPF.

KAR's controller hands out route IDs; a *service* in front of it must
also decide whether the network can actually carry the flow it is
being asked for.  This module implements the classic two-step CSPF
discipline (the link-state/QoS daemon shape — see SNIPPETS.md
Snippet 1):

1. **Feasibility** — prune every link whose *residual* capacity
   (capacity minus existing reservations) cannot carry the requested
   bandwidth, and every link currently overlaid as down.
2. **Quality** — run Dijkstra over what remains with propagation delay
   as the metric, deterministic tie-breaks, and reject the winner if
   its end-to-end latency exceeds the request's budget.

Accepted flows reserve bandwidth on every link of their path in the
:class:`ReservationLedger`; released flows return it.  The ledger is
the service's safety argument, so it is self-auditing: :meth:`
ReservationLedger.audit` re-derives every per-link total from the
per-flow book and reports any oversubscription or drift, and the
load-generator/CI assert the audit stays empty under churn.

Rejections raise :class:`AdmissionError` with a machine-readable
``reason`` (``insufficient-bandwidth``, ``latency-exceeded``,
``no-route``) — the service's structured 4xx payloads.
"""

from __future__ import annotations

import heapq
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.controller.provision import require_flow_endpoints
from repro.topology.graph import NodeKind, PortGraph, link_key

__all__ = [
    "AdmissionError",
    "ReservationLedger",
    "cspf_path",
    "path_link_keys",
]

LinkKey = Tuple[str, str]

#: Reservation arithmetic tolerance.  Reservations are added and
#: subtracted as the same float values, so totals cancel exactly; the
#: epsilon only guards audit comparisons against representation noise.
_EPS = 1e-9


class AdmissionError(Exception):
    """A flow request the admission controller must refuse.

    Attributes:
        reason: machine-readable slug (``insufficient-bandwidth``,
            ``latency-exceeded``, ``no-route``) — returned verbatim in
            the service's 4xx response body.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def path_link_keys(node_path: Sequence[str]) -> Tuple[LinkKey, ...]:
    """Canonical link keys along a node path, in path order."""
    return tuple(
        link_key(a, b) for a, b in zip(node_path, node_path[1:])
    )


class ReservationLedger:
    """Per-link bandwidth book for one topology.

    Link capacities are read from the graph at construction.  Every
    accepted flow records ``(bandwidth, link keys)`` under its flow ID;
    totals per link are maintained incrementally and re-derivable from
    the per-flow book (:meth:`audit` checks both properties).
    """

    def __init__(self, graph: PortGraph):
        self.capacity: Dict[LinkKey, float] = {
            link.key: float(link.rate_mbps) for link in graph.links()
        }
        self.reserved: Dict[LinkKey, float] = {
            key: 0.0 for key in self.capacity
        }
        self._flows: Dict[str, Tuple[float, Tuple[LinkKey, ...]]] = {}
        self.accepted = 0
        self.rejected: Dict[str, int] = {}
        self.released = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def residual(self, key: LinkKey) -> float:
        """Unreserved capacity on one link (canonical key)."""
        return self.capacity[key] - self.reserved[key]

    def flow_reservation(
        self, flow_id: str
    ) -> Optional[Tuple[float, Tuple[LinkKey, ...]]]:
        """The ``(bandwidth, links)`` a flow holds, if any."""
        return self._flows.get(flow_id)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def reserve(
        self,
        flow_id: str,
        bandwidth_mbps: float,
        links: Iterable[LinkKey],
    ) -> None:
        """Atomically reserve bandwidth on every link of a path.

        Checks every residual before committing anything, so a failed
        reserve leaves the ledger untouched.

        Raises:
            AdmissionError: ``insufficient-bandwidth`` naming the first
                link (in path order) that cannot carry the flow.
            ValueError: non-positive bandwidth, duplicate flow ID, or
                an unknown link key (caller bugs, not client errors).
        """
        keys = tuple(links)
        if bandwidth_mbps <= 0:
            raise ValueError(
                f"reservation bandwidth must be positive, got "
                f"{bandwidth_mbps}"
            )
        if flow_id in self._flows:
            raise ValueError(f"flow {flow_id!r} already holds a reservation")
        for key in keys:
            if key not in self.capacity:
                raise ValueError(f"unknown link {key!r}")
            if self.reserved[key] + bandwidth_mbps > self.capacity[key] + _EPS:
                self.count_reject("insufficient-bandwidth")
                raise AdmissionError(
                    "insufficient-bandwidth",
                    f"link {key[0]}-{key[1]} has "
                    f"{self.residual(key):g} Mbit/s residual, "
                    f"flow needs {bandwidth_mbps:g}",
                )
        for key in keys:
            self.reserved[key] += bandwidth_mbps
        self._flows[flow_id] = (float(bandwidth_mbps), keys)
        self.accepted += 1

    def release(self, flow_id: str) -> bool:
        """Return a flow's bandwidth; True if it held a reservation."""
        entry = self._flows.pop(flow_id, None)
        if entry is None:
            return False
        bandwidth, keys = entry
        for key in keys:
            self.reserved[key] -= bandwidth
        self.released += 1
        return True

    def count_reject(self, reason: str) -> None:
        """Tally one rejection under a reason slug."""
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # invariants / observability
    # ------------------------------------------------------------------
    def audit(
        self, live_flow_ids: Optional[Iterable[str]] = None
    ) -> List[str]:
        """Invariant violations, as human-readable strings (empty = ok).

        Checks, in order: no link oversubscribed; every per-link total
        equals the sum over the per-flow book (no drift); and — when
        the caller passes the service's live flow IDs — no orphaned
        reservations (ledger entries without a live flow).
        """
        violations: List[str] = []
        for key in sorted(self.capacity):
            if self.reserved[key] > self.capacity[key] + _EPS:
                violations.append(
                    f"link {key[0]}-{key[1]} oversubscribed: "
                    f"{self.reserved[key]:g} > {self.capacity[key]:g}"
                )
        totals: Dict[LinkKey, float] = {key: 0.0 for key in self.capacity}
        for flow_id, (bandwidth, keys) in self._flows.items():
            for key in keys:
                totals[key] += bandwidth
        for key in sorted(self.capacity):
            if abs(totals[key] - self.reserved[key]) > _EPS:
                violations.append(
                    f"link {key[0]}-{key[1]} reservation drift: "
                    f"book says {totals[key]:g}, "
                    f"ledger says {self.reserved[key]:g}"
                )
        if live_flow_ids is not None:
            live = set(live_flow_ids)
            for flow_id in sorted(self._flows):
                if flow_id not in live:
                    violations.append(
                        f"orphaned reservation for flow {flow_id!r}"
                    )
        return violations

    def stats(self) -> Dict[str, object]:
        """JSON-able ledger summary for the ``/stats`` endpoint."""
        utilized = {
            f"{key[0]}-{key[1]}": round(self.reserved[key], 6)
            for key in sorted(self.capacity)
            if self.reserved[key] > _EPS
        }
        return {
            "accepted": self.accepted,
            "rejected": dict(sorted(self.rejected.items())),
            "released": self.released,
            "reserved_flows": len(self._flows),
            "links_with_reservations": len(utilized),
            "reserved_mbps": utilized,
        }


def cspf_path(
    graph: PortGraph,
    src_edge: str,
    dst_edge: str,
    bandwidth_mbps: float = 0.0,
    max_latency_s: Optional[float] = None,
    residual: Optional[Callable[[LinkKey], float]] = None,
    down: FrozenSet[LinkKey] = frozenset(),
) -> List[str]:
    """Constrained shortest path: feasibility prune, then min latency.

    Returns the full node path ``[src_edge, SW..., dst_edge]`` with
    intermediates restricted to core switches, minimizing summed link
    ``delay_s``.  Ties break deterministically on (latency, hop count,
    node name order), independent of dict/heap insertion order.

    Args:
        bandwidth_mbps: links whose ``residual`` is below this are
            pruned (0 disables the prune).
        max_latency_s: reject the winner if its end-to-end propagation
            delay exceeds this budget.
        residual: residual-capacity lookup (canonical link key →
            Mbit/s); defaults to raw link capacity.
        down: canonical keys of links overlaid as failed.

    Raises:
        AdmissionError: ``insufficient-bandwidth`` when pruning is what
            disconnected the pair, ``no-route`` when even the
            unconstrained residual topology has no path,
            ``latency-exceeded`` when the best feasible path is too
            slow.
        ProvisionError: ``same-edge`` / ``unknown-node`` /
            ``not-an-edge`` — a malformed request, the same answer the
            best-effort path gives, and not an admission decision.
    """
    require_flow_endpoints(graph, src_edge, dst_edge)

    def usable(a: str, b: str, prune_bandwidth: bool) -> bool:
        key = link_key(a, b)
        if key in down:
            return False
        if prune_bandwidth and bandwidth_mbps > 0:
            cap = (
                residual(key) if residual is not None
                else graph.link(a, b).rate_mbps
            )
            if cap + _EPS < bandwidth_mbps:
                return False
        return True

    def search(prune_bandwidth: bool) -> Optional[Tuple[List[str], float]]:
        # Dijkstra keyed on (latency, hops, name): the tuple order is
        # the documented tie-break, so the chosen path is unique for a
        # given topology + reservation state.
        best: Dict[str, Tuple[float, int]] = {src_edge: (0.0, 0)}
        parent: Dict[str, str] = {}
        heap: List[Tuple[float, int, str]] = [(0.0, 0, src_edge)]
        visited = set()
        while heap:
            cost, hops, cur = heapq.heappop(heap)
            if cur in visited:
                continue
            visited.add(cur)
            if cur == dst_edge:
                path = [cur]
                while path[-1] != src_edge:
                    path.append(parent[path[-1]])
                return list(reversed(path)), cost
            for nb in sorted(graph.neighbors(cur)):
                kind = graph.node(nb).kind
                if nb == dst_edge:
                    pass  # the egress edge is always allowed
                elif kind != NodeKind.CORE:
                    continue  # no hairpinning through other edges/hosts
                if nb in visited or not usable(cur, nb, prune_bandwidth):
                    continue
                link = graph.link(cur, nb)
                cand = (cost + link.delay_s, hops + 1)
                if nb not in best or cand < best[nb]:
                    best[nb] = cand
                    parent[nb] = cur
                    heapq.heappush(heap, (cand[0], cand[1], nb))
        return None

    found = search(prune_bandwidth=True)
    if found is None:
        if bandwidth_mbps > 0 and search(prune_bandwidth=False) is not None:
            raise AdmissionError(
                "insufficient-bandwidth",
                f"no path from {src_edge!r} to {dst_edge!r} with "
                f"{bandwidth_mbps:g} Mbit/s residual on every link",
            )
        raise AdmissionError(
            "no-route",
            f"no residual path from {src_edge!r} to {dst_edge!r}",
        )
    path, latency = found
    if max_latency_s is not None and latency > max_latency_s + _EPS:
        raise AdmissionError(
            "latency-exceeded",
            f"best feasible path takes {latency:g}s one-way, "
            f"budget is {max_latency_s:g}s",
        )
    return path
