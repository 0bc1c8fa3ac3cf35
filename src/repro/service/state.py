"""The controller service's state machine (synchronous, deterministic).

Everything the service can do — provision, release, reroute, absorb a
topology event — lives here as plain synchronous methods over one
:class:`~repro.controller.provision.ProvisioningEngine` and one
:class:`~repro.service.admission.ReservationLedger`.  The HTTP layer
(:mod:`repro.service.server`) is a thin framing shell around this
class, and the load generator can drive it directly in-process; both
produce identical results for identical operation sequences, which is
what makes the farm digests transport-independent.

Two flow classes:

* **Best-effort** (no bandwidth, no latency budget): the engine's
  destination-tree path, no reservation.  On a link failure the flow is
  re-provisioned on the residual tree: it gets exactly what a new flow
  of its edge pair would, so every flow of one pair shares one encode
  per epoch (the route a function of the path alone).
* **QoS** (bandwidth and/or latency budget): a CSPF path over the
  residual-capacity graph, admitted only if every link can carry the
  bandwidth and the end-to-end delay fits the budget; admitted flows
  hold ledger reservations.  On a link failure the reservation moves
  with the flow or, if no compliant path survives, the flow is evicted
  (counted, with the admission reason).

The safety argument is :meth:`ControllerState.audit`: ledger totals
conserved and oversubscription-free, every reservation owned by a live
flow, and no QoS flow reserved across a failed link.  The concurrency
tests and the farm load generator assert it stays empty under churn.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.controller.provision import (
    ProvisionError,
    ProvisioningEngine,
)
from repro.rns.encoder import EncodedRoute
from repro.service.admission import (
    AdmissionError,
    ReservationLedger,
    cspf_path,
    path_link_keys,
)
from repro.sim.packet import DEFAULT_TTL
from repro.topology.graph import PortGraph

__all__ = ["ControllerState", "FlowRecord", "UnknownFlowError"]

LinkKey = Tuple[str, str]


class UnknownFlowError(KeyError):
    """Lookup of a flow ID the service is not holding (service 404)."""

    def __init__(self, flow_id: str):
        super().__init__(flow_id)
        self.flow_id = flow_id

    def __str__(self) -> str:
        return f"unknown flow {self.flow_id!r}"


@dataclass
class FlowRecord:
    """One live flow: identity, constraints, and its current route."""

    flow_id: str
    tenant: str
    src_edge: str
    dst_edge: str
    bandwidth_mbps: float
    max_latency_s: Optional[float]
    qos: bool
    node_path: Tuple[str, ...]
    links: Tuple[LinkKey, ...]
    route: EncodedRoute
    out_port: int
    ttl: int
    repairs: int = 0
    detoured: bool = False

    def describe(self) -> Dict[str, Any]:
        """JSON-able flow view (the service's flow resource body)."""
        body: Dict[str, Any] = {
            "flow_id": self.flow_id,
            "tenant": self.tenant,
            "src": self.src_edge,
            "dst": self.dst_edge,
            "qos": self.qos,
            "node_path": list(self.node_path),
            "route_id": self.route.route_id,
            "modulus": self.route.modulus,
            "bits": self.route.bit_length,
            "out_port": self.out_port,
            "ttl": self.ttl,
            "residues": {
                str(s): p for s, p in sorted(self.route.residue_map().items())
            },
            "repairs": self.repairs,
            "detoured": self.detoured,
        }
        if self.qos:
            body["bandwidth_mbps"] = self.bandwidth_mbps
            body["max_latency_s"] = self.max_latency_s
        return body


class ControllerState:
    """All service state behind the API, with deterministic behavior.

    Determinism contract: for a fixed topology and the same sequence of
    operations, every assigned flow ID, chosen path, and route ID is
    identical — regardless of transport (HTTP vs. direct calls) or
    wall-clock.  Flow IDs are sequence numbers, path choices tie-break
    on names, and repairs process flows in flow-ID order.
    """

    def __init__(self, graph: PortGraph, default_ttl: int = DEFAULT_TTL):
        self.graph = graph
        self.engine = ProvisioningEngine(graph, default_ttl=default_ttl)
        self.ledger = ReservationLedger(graph)
        self.flows: Dict[str, FlowRecord] = {}
        self._seq = 0
        self.released = 0
        self.rerouted = 0
        self.repaired = 0
        self.evicted: Dict[str, int] = {}
        self.events: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # flow lifecycle
    # ------------------------------------------------------------------
    def _next_flow_id(self) -> str:
        self._seq += 1
        return f"f{self._seq:08d}"

    def provision(
        self,
        tenant: str,
        src_edge: str,
        dst_edge: str,
        bandwidth_mbps: float = 0.0,
        max_latency_s: Optional[float] = None,
        ttl: Optional[int] = None,
    ) -> FlowRecord:
        """Admit and provision one flow; returns its record.

        A request with a bandwidth or latency constraint takes the QoS
        path (CSPF + reservation); an unconstrained request takes the
        engine's destination-tree path.  Both encode through the same
        encoder, so either way the route ID is bit-identical to
        the offline engine's encoding of the same node path.

        Raises:
            AdmissionError: QoS constraints unsatisfiable (service 409).
            ProvisionError: malformed request (service 4xx).
        """
        qos = bandwidth_mbps > 0 or max_latency_s is not None
        if bandwidth_mbps < 0:
            raise ProvisionError(
                "bad-request",
                f"bandwidth must be non-negative, got {bandwidth_mbps}",
            )
        if qos:
            try:
                node_path = cspf_path(
                    self.graph,
                    src_edge,
                    dst_edge,
                    bandwidth_mbps=bandwidth_mbps,
                    max_latency_s=max_latency_s,
                    residual=self.ledger.residual,
                    down=self.engine.down_links,
                )
            except AdmissionError as exc:
                # CSPF rejections never reach the ledger's reserve();
                # count them here so accepted + rejected covers every
                # admission decision in /stats.
                self.ledger.count_reject(exc.reason)
                raise
            provisioned = self.engine.encode_path(node_path)
        else:
            provisioned = self.engine.provision(src_edge, dst_edge)
            node_path = list(provisioned.node_path)
        flow_id = self._next_flow_id()
        links = path_link_keys(node_path)
        if bandwidth_mbps > 0:
            # May raise insufficient-bandwidth on a latency-tied race;
            # nothing to roll back — the flow ID burn is harmless and
            # keeps numbering append-only.
            self.ledger.reserve(flow_id, bandwidth_mbps, links)
        record = FlowRecord(
            flow_id=flow_id,
            tenant=tenant,
            src_edge=src_edge,
            dst_edge=dst_edge,
            bandwidth_mbps=bandwidth_mbps,
            max_latency_s=max_latency_s,
            qos=qos,
            node_path=tuple(node_path),
            links=links,
            route=provisioned.route,
            out_port=provisioned.out_port,
            ttl=ttl if ttl is not None else self.engine.default_ttl,
        )
        self.flows[flow_id] = record
        return record

    def release(self, flow_id: str) -> FlowRecord:
        """Tear a flow down, returning its bandwidth; returns the record.

        Raises:
            UnknownFlowError: no such flow (service 404).
        """
        record = self.flows.pop(flow_id, None)
        if record is None:
            raise UnknownFlowError(flow_id)
        self.ledger.release(flow_id)
        self.released += 1
        return record

    def flow(self, flow_id: str) -> FlowRecord:
        try:
            return self.flows[flow_id]
        except KeyError:
            raise UnknownFlowError(flow_id) from None

    def list_flows(self, tenant: Optional[str] = None) -> List[FlowRecord]:
        records = (
            f for f in self.flows.values()
            if tenant is None or f.tenant == tenant
        )
        return sorted(records, key=lambda f: f.flow_id)

    # ------------------------------------------------------------------
    # reroute (KAR driven deflection, as an API call)
    # ------------------------------------------------------------------
    def reroute(
        self, flow_id: str, switch_name: str, new_next: str
    ) -> FlowRecord:
        """Point one on-route switch at a different neighbor.

        The incremental re-encode path (one CRT step).  Refused for
        flows holding bandwidth reservations: a detour would move
        traffic onto links the ledger never admitted it to, so the
        admission invariants would be fiction — QoS flows only move via
        topology-event repair, which re-runs admission.

        Raises:
            UnknownFlowError: no such flow.
            ProvisionError: invalid detour (see
                :meth:`~repro.controller.provision.ProvisioningEngine
                .reroute_hop`), or a reserved flow
                (``qos-reroute-unsupported``).
        """
        record = self.flow(flow_id)
        if record.bandwidth_mbps > 0:
            raise ProvisionError(
                "qos-reroute-unsupported",
                f"flow {flow_id!r} holds a bandwidth reservation; "
                f"detours must go through admission (topology events)",
            )
        record.route = self.engine.reroute_hop(
            record.route, switch_name, new_next
        )
        record.detoured = True
        self.rerouted += 1
        return record

    # ------------------------------------------------------------------
    # topology events
    # ------------------------------------------------------------------
    def topology_event(self, kind: str, a: str, b: str) -> Dict[str, Any]:
        """Apply one link event and repair every affected flow.

        Kinds: ``link_down``, ``link_up``, ``port_flap`` (down, repair,
        immediately back up — transient failure).  Each state change
        bumps the engine's epoch through the link-granular invalidation
        (:meth:`~repro.controller.provision.ProvisioningEngine
        .note_link_change`), which rebuilds trees and nothing else.

        Returns a summary: ``{"kind", "link", "changed", "repaired":
        [...], "evicted": {flow_id: reason}}``.

        Raises:
            ProvisionError: unknown nodes or a nonexistent link
                (``unknown-node`` / ``not-a-link``), or an unknown event
                kind (``bad-request``).
        """
        if kind not in ("link_down", "link_up", "port_flap"):
            raise ProvisionError(
                "bad-request", f"unknown topology event kind {kind!r}"
            )
        self.events[kind] = self.events.get(kind, 0) + 1
        summary: Dict[str, Any] = {
            "kind": kind,
            "link": sorted((a, b)),
            "changed": False,
            "repaired": [],
            "evicted": {},
        }
        if kind == "link_up":
            summary["changed"] = self.engine.set_link_up(a, b)
            return summary
        changed = self.engine.set_link_down(a, b)
        summary["changed"] = changed
        if changed:
            summary["repaired"], summary["evicted"] = (
                self._repair_after_failure()
            )
            if kind == "port_flap":
                # Only the flap's own down step is undone: a link that
                # was already down stays down.
                self.engine.set_link_up(a, b)
        return summary

    def _repair_after_failure(self) -> Tuple[List[str], Dict[str, str]]:
        """Move every flow off failed links; evict what cannot move."""
        down = self.engine.down_links
        affected = sorted(
            record.flow_id
            for record in self.flows.values()
            if not down.isdisjoint(record.links)
        )
        repaired: List[str] = []
        evicted: Dict[str, str] = {}
        for flow_id in affected:
            record = self.flows[flow_id]
            try:
                if record.qos:
                    self._repair_qos(record)
                else:
                    self._repair_best_effort(record)
            except (AdmissionError, ProvisionError) as exc:
                reason = exc.reason
                self._evict(record, reason)
                evicted[flow_id] = reason
            else:
                record.repairs += 1
                self.repaired += 1
                repaired.append(flow_id)
        return repaired, evicted

    def _repair_qos(self, record: FlowRecord) -> None:
        """Re-admit a QoS flow over the residual graph, moving its
        reservation; raises AdmissionError when no compliant path is
        left (the caller evicts)."""
        self.ledger.release(record.flow_id)
        try:
            node_path = cspf_path(
                self.graph,
                record.src_edge,
                record.dst_edge,
                bandwidth_mbps=record.bandwidth_mbps,
                max_latency_s=record.max_latency_s,
                residual=self.ledger.residual,
                down=self.engine.down_links,
            )
            links = path_link_keys(node_path)
            if record.bandwidth_mbps > 0:
                self.ledger.reserve(
                    record.flow_id, record.bandwidth_mbps, links
                )
        except AdmissionError:
            raise  # reservation already released; _evict just drops the flow
        provisioned = self.engine.encode_path(node_path)
        record.node_path = tuple(node_path)
        record.links = links
        record.route = provisioned.route
        record.out_port = provisioned.out_port

    def _repair_best_effort(self, record: FlowRecord) -> None:
        """Re-provision a best-effort flow on the residual tree.

        The flow gets exactly what a new flow of its edge pair gets:
        :meth:`~repro.controller.provision.ProvisioningEngine.provision`
        memoises the route per pair and epoch, so the flows of one pair
        share one encode.  Raises ProvisionError(``no-core-path``) when
        the residual graph disconnects the pair.
        """
        provisioned = self.engine.provision(record.src_edge, record.dst_edge)
        record.node_path = provisioned.node_path
        record.links = path_link_keys(provisioned.node_path)
        record.route = provisioned.route
        record.out_port = provisioned.out_port
        record.detoured = False

    def _evict(self, record: FlowRecord, reason: str) -> None:
        self.flows.pop(record.flow_id, None)
        self.ledger.release(record.flow_id)
        self.evicted[reason] = self.evicted.get(reason, 0) + 1

    # ------------------------------------------------------------------
    # invariants / observability
    # ------------------------------------------------------------------
    def audit(self) -> List[str]:
        """All admission invariant violations (empty list = healthy).

        Ledger conservation and oversubscription checks, orphaned-
        reservation detection against the live flow table, plus: no
        QoS flow may hold a reservation across a link currently down.
        """
        violations = self.ledger.audit(live_flow_ids=self.flows)
        down = self.engine.down_links
        for flow_id in sorted(self.flows):
            record = self.flows[flow_id]
            if record.bandwidth_mbps <= 0:
                continue
            for key in record.links:
                if key in down:
                    violations.append(
                        f"QoS flow {flow_id!r} reserved across down link "
                        f"{key[0]}-{key[1]}"
                    )
        return violations

    def stats(self) -> Dict[str, Any]:
        """Service + engine + ledger counters, one JSON-able mapping."""
        return {
            "service": {
                "flows_live": len(self.flows),
                "flows_total": self._seq,
                "released": self.released,
                "rerouted": self.rerouted,
                "repaired": self.repaired,
                "evicted": dict(sorted(self.evicted.items())),
                "events": dict(sorted(self.events.items())),
            },
            "admission": self.ledger.stats(),
            "engine": self.engine.stats(),
        }

    def topology_view(self) -> Dict[str, Any]:
        """The topology as the service sees it (``/topology``)."""
        down = self.engine.down_links
        links = []
        for link in sorted(self.graph.links(), key=lambda l: l.key):
            links.append({
                "a": link.key[0],
                "b": link.key[1],
                "rate_mbps": link.rate_mbps,
                "delay_s": link.delay_s,
                "up": link.key not in down,
            })
        switches = {
            name: sid for name, sid in sorted(
                self.graph.switch_ids().items()
            )
        }
        return {
            "epoch": self.engine.epoch,
            "switches": switches,
            "links": links,
            "links_down": sorted(
                [k[0], k[1]] for k in down
            ),
        }
