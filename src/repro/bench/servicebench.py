"""``repro bench service`` — controller-service throughput, four cells.

The service stack under test is :func:`repro.service.server.dispatch`
over one :class:`~repro.service.state.ControllerState` — the exact code
both transports run — so every number here is a *service request* rate,
not a bare engine call rate:

* **provision_tree** — best-effort provision/release churn through
  ``POST /flows`` + ``DELETE /flows/{id}``: the destination-tree path
  with a pooled CRT encode per flow;
* **reroute_incremental** — ``POST /flows/{id}/reroute`` alternating
  one switch between two live neighbors: the steady-state churn path,
  one :meth:`~repro.rns.encoder.RouteEncoder.with_port` addend per
  request.
  This is the cell with a stated target — **>= 100k requests/sec on
  one core** (the whole stack is single-threaded Python, so one core
  by construction); the artifact carries ``incremental_target_met``;
* **admission_cspf** — QoS provisions (bandwidth + latency budgets)
  driven to saturation: CSPF over residual capacity, ledger
  reservations, and honest accept/reject counts per reason;
* **http_roundtrip** — the same provision/release churn through the
  real asyncio HTTP server and the keep-alive client, with per-request
  p50/p99 latency (the only cell where transport framing is the point).

Honesty rules match the other benches: **bit-identity before any
timing** — a pre-pass provisions every edge pair (best-effort and QoS)
and checks each served route against a fresh :func:`~repro.rns.crt.crt`
solve over an independent copy of the topology — the minimum wall time
over interleaved repeats is reported, per-request latency is collected
in a separate instrumented pass (so percentile bookkeeping never taxes
the throughput numbers), and the admission cell must produce identical
accept/reject counts on every repeat (fresh state + same request list
= determinism check).  After every cell the service audit must be
empty; CI asserts only ``bit_identical_reference`` and
``zero_admission_violations``, never wall-clock.

Results land in ``BENCH_service.json``.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.artifact import finish_artifact
from repro.controller.routing import hops_for_path
from repro.rns.crt import crt
from repro.service.client import ServiceClient
from repro.service.server import ServiceThread, dispatch
from repro.service.state import ControllerState
from repro.service.topology import edge_names, service_topology
from repro.topology import NodeKind

__all__ = [
    "INCREMENTAL_TARGET_REQ_PER_SEC",
    "run_service_bench",
    "render_service_bench",
]

#: The tentpole number: sustained reroute requests/sec through the full
#: service dispatch on the incremental re-encode path, one core.
INCREMENTAL_TARGET_REQ_PER_SEC = 100_000


def _percentile(sorted_vals: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_vals:
        return 0.0
    rank = max(1, -(-len(sorted_vals) * pct // 100))  # ceil
    return sorted_vals[int(rank) - 1]


def _expect(status: int, payload: Dict[str, Any], want: int) -> None:
    if status != want:
        raise RuntimeError(
            f"service returned {status} (wanted {want}): {payload}"
        )


def _check_flow_body(
    body: Dict[str, Any], ref_graph, strict_path: bool = True
) -> List[str]:
    """Bit-identity checks of one served flow against the reference.

    Residues must forward (``route_id mod switch_id == port``), the
    reference :func:`crt` over the served residues must reproduce the
    ``(route ID, modulus)`` pair, and — when *strict_path* — so must a
    fresh solve over the hop list an *independent* copy of the topology
    derives for the served ``node_path``.
    """
    problems: List[str] = []
    route_id, modulus = body["route_id"], body["modulus"]
    residues = {int(s): p for s, p in body["residues"].items()}
    for sid, port in residues.items():
        if route_id % sid != port:
            problems.append(
                f"{body['flow_id']}: route_id mod {sid} != {port}"
            )
    ports = [p for _, p in sorted(residues.items())]
    sids = [s for s, _ in sorted(residues.items())]
    if crt(ports, sids) != (route_id, modulus):
        problems.append(f"{body['flow_id']}: crt(residues) mismatch")
    if strict_path:
        path = body["node_path"]
        hops = hops_for_path(ref_graph, path)
        ref = crt([h.port for h in hops], [h.switch_id for h in hops])
        if ref != (route_id, modulus):
            problems.append(
                f"{body['flow_id']}: route != reference encode of path"
            )
        if body["out_port"] != ref_graph.port_of(path[0], path[1]):
            problems.append(f"{body['flow_id']}: out_port mismatch")
    return problems


def _verify_bit_identity(
    topology: str, pairs: Sequence[Tuple[str, str]]
) -> List[str]:
    """Pre-timing pass: every pair, both flow classes, one reroute."""
    state = ControllerState(service_topology(topology), validated_pool=True)
    ref_graph = service_topology(topology)  # independent copy
    problems: List[str] = []
    flow_ids: List[str] = []
    for src, dst in pairs:
        for body in (
            {"tenant": "verify", "src": src, "dst": dst},
            {"tenant": "verify", "src": src, "dst": dst,
             "bandwidth_mbps": 0.5, "max_latency_s": 1.0},
        ):
            status, payload = dispatch(state, "POST", "/flows", {}, body)
            _expect(status, payload, 201)
            problems.extend(_check_flow_body(payload["flow"], ref_graph))
            flow_ids.append(payload["flow"]["flow_id"])
    # One detour: the incremental path must stay residue-consistent.
    reroute = _reroute_plan(state, pairs)
    if reroute is not None:
        flow_id, switch, alt, orig = reroute
        for nxt in (alt, orig):
            status, payload = dispatch(
                state, "POST", f"/flows/{flow_id}/reroute", {},
                {"switch": switch, "next": nxt},
            )
            _expect(status, payload, 200)
            # A detour leaves node_path describing the pre-detour path,
            # so the independent-path solve only applies once the flow
            # is pointed back at its original next hop.
            problems.extend(
                _check_flow_body(payload["flow"], ref_graph,
                                 strict_path=(nxt == orig))
            )
        flow_ids.append(flow_id)
    for flow_id in dict.fromkeys(flow_ids):
        status, payload = dispatch(
            state, "DELETE", f"/flows/{flow_id}", {}, None
        )
        _expect(status, payload, 200)
    status, payload = dispatch(state, "GET", "/audit", {}, None)
    problems.extend(payload["violations"])
    return problems


def _reroute_plan(
    state: ControllerState, pairs: Sequence[Tuple[str, str]]
) -> Optional[Tuple[str, str, str, str]]:
    """Provision one flow a detour can alternate on.

    Returns ``(flow_id, switch, alternate_next, original_next)`` where
    *switch* is the first core hop, *original_next* its on-path
    successor, and *alternate_next* a different live core neighbor —
    or ``None`` if no pair offers one (degenerate topologies).
    """
    core = set(state.graph.node_names(NodeKind.CORE))
    for src, dst in pairs:
        status, payload = dispatch(
            state, "POST", "/flows", {},
            {"tenant": "bench", "src": src, "dst": dst},
        )
        _expect(status, payload, 201)
        flow = payload["flow"]
        path = flow["node_path"]
        if len(path) >= 4:  # src, c1, c2(+), dst — detour at c1
            switch, orig = path[1], path[2]
            for alt in sorted(state.graph.neighbors(switch)):
                if alt in core and alt != orig:
                    return flow["flow_id"], switch, alt, orig
        status, payload = dispatch(
            state, "DELETE", f"/flows/{flow['flow_id']}", {}, None
        )
        _expect(status, payload, 200)
    return None


def _admission_requests(
    graph, pairs: Sequence[Tuple[str, str]], count: int, seed: int
) -> List[Dict[str, Any]]:
    """A deterministic QoS request list that drives links to saturation.

    Bandwidths are sized off the smallest link so acceptance flips to
    ``insufficient-bandwidth`` partway through; a slice of requests
    carries a sub-propagation latency budget so ``latency-exceeded``
    is exercised too (when the topology has nonzero delays).
    """
    cap = min(link.rate_mbps for link in graph.links())
    min_delay = min(link.delay_s for link in graph.links())
    rng = random.Random(f"service-bench-admission:{seed}")
    requests: List[Dict[str, Any]] = []
    for i in range(count):
        src, dst = pairs[i % len(pairs)]
        body: Dict[str, Any] = {
            "tenant": f"t{i % 7}",
            "src": src,
            "dst": dst,
            "bandwidth_mbps": round(cap * rng.uniform(0.05, 0.25), 3),
        }
        if i % 5 == 4:
            # Tighter than two hops can propagate (when delays > 0).
            body["max_latency_s"] = min_delay * 1.5
        elif i % 3 == 2:
            body["max_latency_s"] = 1.0
        requests.append(body)
    return requests


def _audit_violations(state: ControllerState) -> List[str]:
    status, payload = dispatch(state, "GET", "/audit", {}, None)
    _expect(status, payload, 200)
    return list(payload["violations"])


def _run_provision_cell(
    state: ControllerState,
    pairs: Sequence[Tuple[str, str]],
    flows: int,
    repeats: int,
    violations: List[str],
) -> Dict[str, Any]:
    """Best-effort provision+release churn through dispatch."""
    def one_pass() -> None:
        ids = []
        for i in range(flows):
            src, dst = pairs[i % len(pairs)]
            status, payload = dispatch(
                state, "POST", "/flows", {},
                {"tenant": f"t{i % 7}", "src": src, "dst": dst},
            )
            _expect(status, payload, 201)
            ids.append(payload["flow"]["flow_id"])
        for flow_id in ids:
            status, payload = dispatch(
                state, "DELETE", f"/flows/{flow_id}", {}, None
            )
            _expect(status, payload, 200)

    one_pass()  # warm the pool's subset contexts and the engine's trees
    times = []
    for _ in range(repeats):
        # Drain prior cells' garbage so a mid-window gen2 sweep of the
        # whole heap doesn't land on this pass's clock (min-of-repeats
        # absorbs the rest of the collector's periodic work).
        gc.collect()
        start = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - start)
    violations.extend(_audit_violations(state))
    wall = min(times)
    requests = 2 * flows
    return {
        "flows": flows,
        "requests": requests,
        "wall_s": round(wall, 6),
        "requests_per_sec": round(requests / wall),
        "provisions_per_sec": round(flows / wall),
    }


def _run_reroute_cell(
    state: ControllerState,
    pairs: Sequence[Tuple[str, str]],
    reroutes: int,
    repeats: int,
    violations: List[str],
) -> Dict[str, Any]:
    """Alternating detours: one ``with_port`` addend per request."""
    plan = _reroute_plan(state, pairs)
    if plan is None:
        return {"skipped": "no multi-core path to detour"}
    flow_id, switch, alt, orig = plan
    path = f"/flows/{flow_id}/reroute"
    bodies = (
        {"switch": switch, "next": alt},
        {"switch": switch, "next": orig},
    )
    for body in bodies:  # warm-up: both directions through the delta
        _expect(*dispatch(state, "POST", path, {}, body), 200)

    def one_pass() -> None:
        for i in range(reroutes):
            status, payload = dispatch(state, "POST", path, {}, bodies[i % 2])
            _expect(status, payload, 200)

    before = state.engine.stats()
    times = []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - start)
    after = state.engine.stats()
    _expect(*dispatch(state, "DELETE", f"/flows/{flow_id}", {}, None), 200)
    violations.extend(_audit_violations(state))
    deltas = after["delta"]["applied"] - before["delta"]["applied"]
    full_solves = after["delta"]["full_solves"] - before["delta"]["full_solves"]
    if deltas != repeats * reroutes or full_solves != 0:
        violations.append(
            f"reroute cell left the incremental path: "
            f"{deltas} deltas / {full_solves} full solves "
            f"for {repeats * reroutes} requests"
        )
    wall = min(times)
    rate = round(reroutes / wall)
    return {
        "flow": {"switch": switch, "alternate": alt, "original": orig},
        "requests": reroutes,
        "wall_s": round(wall, 6),
        "requests_per_sec": rate,
        "deltas_applied": deltas,
        "full_solves": full_solves,
        "target_requests_per_sec": INCREMENTAL_TARGET_REQ_PER_SEC,
        "incremental_target_met": rate >= INCREMENTAL_TARGET_REQ_PER_SEC,
    }


def _run_admission_cell(
    topology: str,
    pairs: Sequence[Tuple[str, str]],
    count: int,
    repeats: int,
    seed: int,
    violations: List[str],
) -> Dict[str, Any]:
    """QoS churn to saturation; counts must repeat exactly."""
    graph = service_topology(topology)
    requests = _admission_requests(graph, pairs, count, seed)

    def one_pass() -> Tuple[float, int, Dict[str, int], ControllerState]:
        state = ControllerState(
            service_topology(topology), validated_pool=True
        )
        accepted: List[str] = []
        live: List[str] = []
        rejected: Dict[str, int] = {}
        gc.collect()
        start = time.perf_counter()
        for i, body in enumerate(requests):
            status, payload = dispatch(state, "POST", "/flows", {}, body)
            if status == 201:
                accepted.append(payload["flow"]["flow_id"])
                live.append(payload["flow"]["flow_id"])
            elif status == 409:
                reason = payload["error"]
                rejected[reason] = rejected.get(reason, 0) + 1
            else:
                raise RuntimeError(
                    f"admission request failed oddly: {status} {payload}"
                )
            if i % 3 == 1 and live:
                # Churn: tear one flow down so admission keeps deciding
                # against a moving residual, not a saturated wall.
                _expect(
                    *dispatch(state, "DELETE", f"/flows/{live.pop(0)}", {},
                              None),
                    200,
                )
        wall = time.perf_counter() - start
        for flow_id in live:
            _expect(*dispatch(state, "DELETE", f"/flows/{flow_id}", {}, None),
                    200)
        return wall, len(accepted), rejected, state

    results = [one_pass() for _ in range(repeats)]
    wall = min(r[0] for r in results)
    accepted, rejected = results[0][1], results[0][2]
    for other_wall, other_accepted, other_rejected, _ in results[1:]:
        if (other_accepted, other_rejected) != (accepted, rejected):
            violations.append(
                "admission counts varied across identical request lists: "
                f"{(accepted, rejected)} vs {(other_accepted, other_rejected)}"
            )
    for _, _, _, state in results:
        violations.extend(_audit_violations(state))
    return {
        "requests": count,
        "wall_s": round(wall, 6),
        "requests_per_sec": round(count / wall),
        "accepted": accepted,
        "rejected": dict(sorted(rejected.items())),
        "reject_reasons_seen": sorted(rejected),
    }


def _run_latency_pass(
    state: ControllerState,
    pairs: Sequence[Tuple[str, str]],
    ops: int,
) -> Dict[str, Any]:
    """Per-request direct-dispatch latency (separate instrumented pass)."""
    samples: List[float] = []
    ids: List[str] = []
    for i in range(ops):
        src, dst = pairs[i % len(pairs)]
        body = {"tenant": "lat", "src": src, "dst": dst}
        start = time.perf_counter()
        status, payload = dispatch(state, "POST", "/flows", {}, body)
        samples.append(time.perf_counter() - start)
        _expect(status, payload, 201)
        ids.append(payload["flow"]["flow_id"])
    for flow_id in ids:
        start = time.perf_counter()
        status, payload = dispatch(
            state, "DELETE", f"/flows/{flow_id}", {}, None
        )
        samples.append(time.perf_counter() - start)
        _expect(status, payload, 200)
    samples.sort()
    return {
        "ops": len(samples),
        "p50_us": round(_percentile(samples, 50) * 1e6, 1),
        "p99_us": round(_percentile(samples, 99) * 1e6, 1),
    }


def _run_http_cell(
    topology: str,
    pairs: Sequence[Tuple[str, str]],
    flows: int,
    violations: List[str],
) -> Dict[str, Any]:
    """Provision/release through the real server + keep-alive client."""
    graph = service_topology(topology)
    samples: List[float] = []
    with ServiceThread(graph, validated_pool=True) as service:
        client = ServiceClient("127.0.0.1", service.port)
        try:
            client.get("/healthz")  # connection + pool warm-up
            start_all = time.perf_counter()
            ids: List[str] = []
            for i in range(flows):
                src, dst = pairs[i % len(pairs)]
                start = time.perf_counter()
                status, payload = client.post(
                    "/flows", {"tenant": "http", "src": src, "dst": dst}
                )
                samples.append(time.perf_counter() - start)
                _expect(status, payload, 201)
                ids.append(payload["flow"]["flow_id"])
            for flow_id in ids:
                start = time.perf_counter()
                status, payload = client.delete(f"/flows/{flow_id}")
                samples.append(time.perf_counter() - start)
                _expect(status, payload, 200)
            wall = time.perf_counter() - start_all
            status, payload = client.get("/audit")
            _expect(status, payload, 200)
            violations.extend(payload["violations"])
        finally:
            client.close()
    samples.sort()
    return {
        "flows": flows,
        "requests": len(samples),
        "wall_s": round(wall, 6),
        "requests_per_sec": round(len(samples) / wall),
        "p50_us": round(_percentile(samples, 50) * 1e6, 1),
        "p99_us": round(_percentile(samples, 99) * 1e6, 1),
    }


def run_service_bench(
    topology: str = "torus33",
    seed: int = 1,
    quick: bool = False,
    repeats: Optional[int] = None,
    out: Optional[str] = "BENCH_service.json",
) -> Dict[str, Any]:
    """Run the four-cell service matrix; optionally write *out*.

    ``quick`` trims request counts for CI smoke runs; the bit-identity
    pre-pass still covers every edge pair at full strength.
    """
    if repeats is None:
        repeats = 2 if quick else 3
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    graph = service_topology(topology)
    edges = edge_names(graph)
    rng = random.Random(f"service-bench:{topology}:{seed}")
    pairs = [(a, b) for a in edges for b in edges if a != b]
    rng.shuffle(pairs)

    provision_flows = 400 if quick else 4000
    reroute_requests = 800 if quick else 8000
    admission_requests = 300 if quick else 2000
    latency_ops = 200 if quick else 1000  # x2 ops (provision + release)
    http_flows = 100 if quick else 1000

    # Bit-identity first: a throughput number over wrong route IDs is
    # not a throughput number.
    identity_problems = _verify_bit_identity(topology, pairs)

    violations: List[str] = []
    state = ControllerState(service_topology(topology), validated_pool=True)
    cells: Dict[str, Any] = {}
    cells["provision_tree"] = _run_provision_cell(
        state, pairs, provision_flows, repeats, violations
    )
    cells["reroute_incremental"] = _run_reroute_cell(
        state, pairs, reroute_requests, repeats, violations
    )
    cells["admission_cspf"] = _run_admission_cell(
        topology, pairs, admission_requests, repeats, seed, violations
    )
    latency_direct = _run_latency_pass(state, pairs, latency_ops)
    violations.extend(_audit_violations(state))
    cells["http_roundtrip"] = _run_http_cell(
        topology, pairs, http_flows, violations
    )

    result: Dict[str, Any] = {
        "bench": "repro.service",
        "topology": topology,
        "edges": len(edges),
        "seed": seed,
        "quick": quick,
        "repeats": repeats,
        "cells": cells,
        "latency_direct": latency_direct,
        "identity_checks": {
            "pairs": len(pairs),
            "problems": identity_problems,
        },
        "admission_violations": violations,
        "incremental_target_met": bool(
            cells["reroute_incremental"].get("incremental_target_met")
        ),
        "bit_identical_reference": not identity_problems,
        "zero_admission_violations": not violations,
    }
    return finish_artifact(result, out)


def render_service_bench(result: Dict[str, Any]) -> str:
    cells = result["cells"]
    prov, reroute = cells["provision_tree"], cells["reroute_incremental"]
    adm, http = cells["admission_cspf"], cells["http_roundtrip"]
    lat = result["latency_direct"]
    lines = [
        f"service bench — {result['topology']} "
        f"({result['edges']} edges, seed {result['seed']}, "
        f"{result['cpu_count']} CPU(s), single-threaded)",
        f"  provision (tree):   {prov['requests_per_sec']:>9} req/s  "
        f"({prov['provisions_per_sec']} flows/s over {prov['flows']} flows)",
    ]
    if "skipped" in reroute:
        lines.append(f"  reroute: skipped — {reroute['skipped']}")
    else:
        lines.append(
            f"  reroute (delta):    {reroute['requests_per_sec']:>9} req/s  "
            f"(target {reroute['target_requests_per_sec']}: "
            f"{'MET' if reroute['incremental_target_met'] else 'MISSED'}, "
            f"{reroute['full_solves']} full solves)"
        )
    lines += [
        f"  admission (CSPF):   {adm['requests_per_sec']:>9} req/s  "
        f"({adm['accepted']} accepted, "
        f"{sum(adm['rejected'].values())} rejected: "
        f"{adm['rejected'] or '{}'})",
        f"  http roundtrip:     {http['requests_per_sec']:>9} req/s  "
        f"(p50 {http['p50_us']}us, p99 {http['p99_us']}us)",
        f"  direct latency:     p50 {lat['p50_us']}us, "
        f"p99 {lat['p99_us']}us over {lat['ops']} ops",
        f"  bit-identical to reference crt(): "
        f"{result['bit_identical_reference']}",
        f"  zero admission violations: "
        f"{result['zero_admission_violations']}",
    ]
    return "\n".join(lines)
