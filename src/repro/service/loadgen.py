"""Farm-driven churn load generator for the controller service.

Simulates a population of users arriving (provision), departing
(release), detouring (reroute), and suffering transient link failures
(port-flap) against a controller service, then audits what the service
promised:

* **Admission invariants** — the service's ``/audit`` endpoint is
  polled throughout the run and after a full drain: no link
  oversubscribed, ledger totals conserved, no orphaned reservations,
  no QoS flow reserved across a down link.
* **Route-ID bit-identity** — every served flow is re-derived offline:
  the flow's node path is re-walked on a locally built copy of the
  same topology and its hop residues re-solved with the *reference*
  :func:`~repro.rns.crt.crt` solver; the served ``(route_id,
  modulus)`` must match exactly.  Detoured flows (whose node path no
  longer describes their residues) are checked residue-by-residue
  against ``route_id mod switch_id`` plus a reference re-solve of the
  residue system.
* **QoS compliance** — accepted constrained flows are spot-checked
  client-side (path latency within budget).

The op sequence is a pure function of ``(topology, seed, users,
operations, qos_fraction)`` and every service response is deterministic
(see :class:`~repro.service.state.ControllerState`), so the report's
``digest`` — a sha256 over the full operation/outcome log — is
*transport-independent*: a run through real HTTP sockets and a run
calling :func:`~repro.service.server.dispatch` directly must produce
the same digest.  The farm job kind ``service`` (see
:mod:`repro.farm.jobs`) runs one churn shard; identical shards are
content-addressed cache hits, and CI replays a sweep twice to pin the
digests down.

No wall-clock anything appears in the report — timing lives in the
``abilene-svc-churn`` workload of ``benchmarks/e2e``, which drives the
same API under a like op mix over loopback HTTP for seconds and reports
per-op latencies.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.controller.routing import hops_for_path
from repro.rns.crt import crt
from repro.service.server import ServiceThread, dispatch
from repro.service.state import ControllerState
from repro.service.topology import edge_names, service_topology
from repro.topology.graph import NodeKind, PortGraph

__all__ = ["ChurnReport", "run_churn", "render_churn", "churn_rows"]

#: Operation mix (must sum to 1.0): mostly arrivals/departures with a
#: steady trickle of detours and transient link failures.
_OP_WEIGHTS = (
    ("arrive", 0.50),
    ("depart", 0.25),
    ("reroute", 0.15),
    ("flap", 0.10),
)

#: QoS request palette: bandwidths in Mbit/s and one-way latency
#: budgets in seconds (None = bandwidth-only).  Budgets are chosen to
#: straddle realistic path delays so churn runs exercise *both*
#: admission outcomes.
_QOS_BANDWIDTHS = (1.0, 2.0, 5.0, 10.0)
_QOS_LATENCIES = (None, 0.002, 0.003, 0.005, 0.010)


@dataclass
class ChurnReport:
    """Everything one churn run proved.  Deliberately wall-clock-free:
    equal inputs must mean an equal ``digest``, across processes and
    transports."""

    topology: str
    seed: int
    users: int
    operations: int
    qos_fraction: float
    transport: str
    ops: Dict[str, int] = field(default_factory=dict)
    statuses: Dict[str, int] = field(default_factory=dict)
    admission_rejected: Dict[str, int] = field(default_factory=dict)
    flows_provisioned: int = 0
    flows_evicted: int = 0
    flows_repaired: int = 0
    audits: int = 0
    violations: List[str] = field(default_factory=list)
    bit_identity_checked: int = 0
    bit_identity_mismatches: int = 0
    qos_checked: int = 0
    qos_violations: int = 0
    drained: bool = False
    digest: str = ""

    @property
    def ok(self) -> bool:
        """The run's single verdict: every promise held."""
        return (
            not self.violations
            and self.bit_identity_mismatches == 0
            and self.qos_violations == 0
            and self.drained
        )

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "ChurnReport":
        """Inverse of ``asdict``, also after a JSON round trip."""
        return cls(**record)


class _Transport:
    """Uniform ``op(method, path, query, body)`` over both transports."""

    def __init__(self, kind: str, topology: str, host: Optional[str],
                 port: Optional[int]):
        self.kind = kind
        self._thread: Optional[ServiceThread] = None
        self._client = None
        self._state: Optional[ControllerState] = None
        if kind == "direct":
            self._state = ControllerState(service_topology(topology))
        elif kind == "http":
            from repro.service.client import ServiceClient

            if host is None or port is None:
                self._thread = ServiceThread(service_topology(topology))
                self._thread.start()
                host, port = self._thread.host, self._thread.port
            self._client = ServiceClient(host, port)
        else:
            raise ValueError(
                f"unknown transport {kind!r}; use 'direct' or 'http'"
            )

    def op(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, str]] = None,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        if self._state is not None:
            return dispatch(self._state, method, path, query or {}, body)
        target = path
        if query:
            target = path + "?" + "&".join(
                f"{k}={v}" for k, v in sorted(query.items())
            )
        return self._client.request(method, target, body)

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
        if self._thread is not None:
            self._thread.stop()


def _core_links(graph: PortGraph) -> List[Tuple[str, str]]:
    """Canonical keys of core-core links — the flappable set.  Edge
    attachment links are excluded: flapping a single-homed edge's only
    uplink just evicts everything behind it, which tests nothing."""
    keys = []
    for link in graph.links():
        a, b = link.key
        if (graph.node(a).kind == NodeKind.CORE
                and graph.node(b).kind == NodeKind.CORE):
            keys.append(link.key)
    return sorted(keys)


def _pick_op(rng, active: int, users: int) -> str:
    roll = rng.random()
    acc = 0.0
    choice = _OP_WEIGHTS[-1][0]
    for name, weight in _OP_WEIGHTS:
        acc += weight
        if roll < acc:
            choice = name
            break
    # Degenerate states fall back to the op that makes progress.
    if choice == "arrive" and active >= users:
        return "depart"
    if choice in ("depart", "reroute") and active == 0:
        return "arrive"
    return choice


def run_churn(
    topology: str = "torus33",
    seed: int = 0,
    users: int = 2000,
    operations: int = 4000,
    qos_fraction: float = 0.3,
    transport: str = "direct",
    host: Optional[str] = None,
    port: Optional[int] = None,
    audit_every: int = 250,
) -> ChurnReport:
    """Run one seeded churn shard and audit every service promise.

    ``users`` bounds the concurrent flow population; ``operations``
    is the number of API operations issued (plus the final drain).
    ``transport`` is ``direct`` (in-process dispatch) or ``http`` (a
    live in-process threaded server unless ``host``/``port`` point at
    an external one).
    """
    import random

    rng = random.Random(f"service-churn:{topology}:{seed}")
    report = ChurnReport(
        topology=topology, seed=seed, users=users, operations=operations,
        qos_fraction=qos_fraction, transport=transport,
    )
    # The offline reference copy: same builder, same names, same switch
    # IDs and port numbering — what "bit-identity to the offline
    # engine" is measured against.
    ref_graph = service_topology(topology)
    edges = edge_names(ref_graph)
    flappable = _core_links(ref_graph)
    log = hashlib.sha256()

    def note(index: int, op: str, status: int, extra: Any) -> None:
        log.update(json.dumps(
            [index, op, status, extra], sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8"))
        report.statuses[str(status)] = (
            report.statuses.get(str(status), 0) + 1
        )
        report.ops[op] = report.ops.get(op, 0) + 1

    def check_flow_body(body: Dict[str, Any]) -> None:
        """Offline re-derivation of one served flow."""
        report.bit_identity_checked += 1
        route_id, modulus = body["route_id"], body["modulus"]
        residues = {int(s): p for s, p in body["residues"].items()}
        ok = all(route_id % s == p for s, p in residues.items())
        ref = crt(list(residues.values()), list(residues.keys()))
        ok = ok and ref == (route_id, modulus)
        if ok and not body["detoured"]:
            hops = hops_for_path(ref_graph, body["node_path"])
            ref = crt([h.port for h in hops], [h.switch_id for h in hops])
            ok = (
                ref == (route_id, modulus)
                and body["out_port"] == ref_graph.port_of(
                    body["node_path"][0], body["node_path"][1]
                )
            )
        if not ok:
            report.bit_identity_mismatches += 1
        if body["qos"] and body.get("max_latency_s") is not None:
            report.qos_checked += 1
            latency = sum(
                ref_graph.link(a, b).delay_s
                for a, b in zip(body["node_path"], body["node_path"][1:])
            )
            if latency > body["max_latency_s"] + 1e-9:
                report.qos_violations += 1

    def audit(index: int) -> None:
        status, body = transport_.op("GET", "/audit")
        note(index, "audit", status, body.get("violations"))
        report.audits += 1
        report.violations.extend(body.get("violations") or [])

    transport_ = _Transport(transport, topology, host, port)
    try:
        # flow_id -> last known body; plus an O(1)-removal pick list.
        flows: Dict[str, Dict[str, Any]] = {}
        order: List[str] = []
        position: Dict[str, int] = {}

        def add_flow(body: Dict[str, Any]) -> None:
            fid = body["flow_id"]
            flows[fid] = body
            position[fid] = len(order)
            order.append(fid)

        def drop_flow(fid: str) -> None:
            if fid not in position:
                return
            idx = position.pop(fid)
            last = order.pop()
            if last != fid:
                order[idx] = last
                position[last] = idx
            flows.pop(fid, None)

        for i in range(operations):
            op = _pick_op(rng, len(order), users)
            if op == "arrive":
                src, dst = rng.sample(edges, 2)
                request: Dict[str, Any] = {
                    "tenant": f"u{rng.randrange(users):05d}",
                    "src": src,
                    "dst": dst,
                }
                if rng.random() < qos_fraction:
                    request["bandwidth_mbps"] = rng.choice(_QOS_BANDWIDTHS)
                    latency = rng.choice(_QOS_LATENCIES)
                    if latency is not None:
                        request["max_latency_s"] = latency
                status, body = transport_.op("POST", "/flows", body=request)
                if status == 201:
                    add_flow(body["flow"])
                    report.flows_provisioned += 1
                    check_flow_body(body["flow"])
                    note(i, op, status, body["flow"]["route_id"])
                else:
                    reason = body.get("error", "?")
                    if status == 409:
                        report.admission_rejected[reason] = (
                            report.admission_rejected.get(reason, 0) + 1
                        )
                    note(i, op, status, reason)
            elif op == "depart":
                fid = order[rng.randrange(len(order))]
                status, body = transport_.op("DELETE", f"/flows/{fid}")
                drop_flow(fid)
                note(i, op, status, fid)
            elif op == "reroute":
                fid = order[rng.randrange(len(order))]
                cached = flows[fid]
                cores = [
                    n for n in cached["node_path"][1:-1]
                    if ref_graph.node(n).kind == NodeKind.CORE
                ]
                if not cores:
                    note(i, op, -1, "no-core")
                    continue
                switch = rng.choice(cores)
                new_next = rng.choice(sorted(
                    nb for nb in ref_graph.neighbors(switch)
                    if ref_graph.node(nb).kind == NodeKind.CORE
                ))
                status, body = transport_.op(
                    "POST", f"/flows/{fid}/reroute",
                    body={"switch": switch, "next": new_next},
                )
                if status == 200:
                    flows[fid] = body["flow"]
                    check_flow_body(body["flow"])
                    note(i, op, status, body["flow"]["route_id"])
                else:
                    note(i, op, status, body.get("error", "?"))
            else:  # flap
                a, b = flappable[rng.randrange(len(flappable))]
                status, body = transport_.op(
                    "POST", "/topology/events",
                    body={"kind": "port_flap", "a": a, "b": b},
                )
                evicted = sorted((body.get("evicted") or {}).items())
                repaired = body.get("repaired") or []
                for fid, _reason in evicted:
                    drop_flow(fid)
                report.flows_evicted += len(evicted)
                report.flows_repaired += len(repaired)
                note(i, op, status, [evicted, repaired])
            if audit_every and (i + 1) % audit_every == 0:
                audit(i)

        # Final survey: every live flow re-derived offline against the
        # *server's* current view (repairs included), then a full
        # drain, then the orphan audit on the empty service.
        status, body = transport_.op("GET", "/flows")
        note(operations, "survey", status, len(body.get("flows", [])))
        for flow_body in body.get("flows", []):
            check_flow_body(flow_body)
        for flow_body in body.get("flows", []):
            fid = flow_body["flow_id"]
            status, _ = transport_.op("DELETE", f"/flows/{fid}")
            note(operations, "drain", status, fid)
        audit(operations)
        status, stats = transport_.op("GET", "/stats")
        report.drained = (
            status == 200
            and stats["service"]["flows_live"] == 0
            and stats["admission"]["reserved_flows"] == 0
        )
    finally:
        transport_.close()

    report.ops = dict(sorted(report.ops.items()))
    report.statuses = dict(sorted(report.statuses.items()))
    report.admission_rejected = dict(
        sorted(report.admission_rejected.items())
    )
    report.digest = log.hexdigest()[:16]
    return report


def render_churn(reports: List[ChurnReport]) -> str:
    """Human summary of one or more churn shards."""
    lines = []
    for r in reports:
        verdict = "OK" if r.ok else "VIOLATIONS"
        rejected = sum(r.admission_rejected.values())
        lines.append(
            f"[{verdict}] {r.topology} seed={r.seed} "
            f"transport={r.transport} ops={r.operations} "
            f"provisioned={r.flows_provisioned} rejected={rejected} "
            f"repaired={r.flows_repaired} evicted={r.flows_evicted} "
            f"digest={r.digest}"
        )
        lines.append(
            f"    bit-identity {r.bit_identity_checked} checked, "
            f"{r.bit_identity_mismatches} mismatches; "
            f"qos {r.qos_checked} checked, {r.qos_violations} violations; "
            f"audits={r.audits} violations={len(r.violations)}; "
            f"drained={r.drained}"
        )
        for violation in r.violations[:5]:
            lines.append(f"    ! {violation}")
    total_viol = sum(
        len(r.violations) + r.bit_identity_mismatches + r.qos_violations
        for r in reports
    )
    lines.append(
        f"{len(reports)} shard(s), "
        f"{sum(r.flows_provisioned for r in reports)} flows provisioned, "
        f"{total_viol} total violations"
    )
    return "\n".join(lines)


def churn_rows(reports: List[ChurnReport]) -> List[Dict[str, Any]]:
    """Flat per-shard rows for ``--export`` (CSV/JSON friendly)."""
    return [
        {
            "topology": r.topology,
            "seed": r.seed,
            "transport": r.transport,
            "users": r.users,
            "operations": r.operations,
            "qos_fraction": r.qos_fraction,
            "flows_provisioned": r.flows_provisioned,
            "admission_rejected": sum(r.admission_rejected.values()),
            "flows_repaired": r.flows_repaired,
            "flows_evicted": r.flows_evicted,
            "violations": len(r.violations),
            "bit_identity_checked": r.bit_identity_checked,
            "bit_identity_mismatches": r.bit_identity_mismatches,
            "qos_checked": r.qos_checked,
            "qos_violations": r.qos_violations,
            "drained": r.drained,
            "ok": r.ok,
            "digest": r.digest,
        }
        for r in reports
    ]
