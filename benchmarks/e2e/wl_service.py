"""``abilene-svc-churn``: the controller as a service, under churn.

A closed loop: one client connection over loopback HTTP sends its next
request only when the previous answer is in — callers of a provisioning
API wait for their route, so that is the honest model.  The seeded op
mix keeps a population of at most 2,000 live flows on Abilene:

    40 %  POST /flows            (30 % of them QoS: bandwidth + CSPF)
    25 %  DELETE /flows/<id>
    30 %  GET /flows/<id>
     4 %  POST /flows/<id>/reroute
     1 %  POST /topology/events  port_flap on a core link

This uses ``controller.provision`` and ``rns.pool`` the other way from
the cold start — per-flow pooled encodes, incremental re-encodes,
link-granular invalidation, writes beside reads — so a caching gain
that makes invalidation or repair dearer shows in the flap latency.

Which flow a request names depends on the IDs the service handed out,
so the sequence is generated as the loop runs; every choice comes from
one ``random.Random`` re-seeded per repeat and the service is
deterministic, so every repeat replays the same requests.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.controller import ProvisioningEngine
from repro.service import (
    ControllerState, ServiceClient, ServiceThread, cspf_path, dispatch,
    service_topology,
)
from repro.topology import NodeKind

import checks
from harness import (
    GraphCopy, Laps, Ops, Repeat, Tracer, median, percentile, seeded_pairs,
    sha256_json,
)

Request = Callable[[str, str, Optional[Dict[str, Any]]],
                   Tuple[int, Dict[str, Any]]]

OP_MIX = (("provision", 0.40), ("release", 0.25), ("get", 0.30),
          ("reroute", 0.04), ("flap", 0.01))
QOS_SHARE = 0.30
QOS_BANDWIDTHS = (1.0, 2.0, 5.0, 10.0)
#: One-way budgets straddling Abilene's 4-14 ms edge-to-edge delays, so
#: admission answers both ways; None asks for bandwidth only.
QOS_LATENCIES = (None, 0.006, 0.008, 0.012, 0.020)
AUDIT_EVERY = 2500
DECODE_EVERY = 16
#: Share of GETs aimed at a flow a flap summary reported evicted: the
#: one request whose right answer is 404.
EVICTED_GET_SHARE = 0.02
#: Turns of the op loop per timed slice (~35 ms).
SLICE_OPS = 250


class ServiceChurn:
    name = "abilene-svc-churn"
    work_unit = "requests"
    nominal_repeat_s = 2.6

    def __init__(self, seed: int, quick: bool, tracer: Tracer, ops: Ops):
        self.seed = seed
        self.tracer = tracer
        self.ops = ops
        self.topology = "abilene"
        self.operations = 400 if quick else 18000
        self.max_live = 60 if quick else 2000
        self.audit_every = 100 if quick else AUDIT_EVERY
        self.probe_calls = 50 if quick else 1000

    def sizes(self) -> Dict[str, Any]:
        return {
            "topology": self.topology, "operations": self.operations,
            "max_live_flows": self.max_live, "clients": 1,
            "transport": "loopback HTTP, keep-alive",
            "op_mix": dict(OP_MIX), "qos_share": QOS_SHARE,
        }

    def setup(self) -> None:
        reference = service_topology(self.topology)
        self.copy = GraphCopy(reference)
        self.edges = sorted(
            n for n, k in self.copy.kind.items() if k == NodeKind.EDGE
        )
        cores = {n for n, k in self.copy.kind.items() if k == NodeKind.CORE}
        self.core_neighbours = {
            n: sorted(nb for nb in self.copy.ports[n] if nb in cores)
            for n in cores
        }
        self.core_links = sorted(
            (a, b) for a in cores for b in self.core_neighbours[a] if a < b
        )

    # ------------------------------------------------------------------
    def churn(self, request: Request, traced: bool
              ) -> Tuple[List[float], List[Any], Dict[str, List[float]]]:
        """The op loop over one transport.  Returns ``(host seconds per
        slice of SLICE_OPS turns, log of selected response fields,
        latency samples by kind)``."""
        rng = random.Random(f"e2e-svc:{self.seed}")
        clock = time.perf_counter
        ops = self.ops
        log: List[Any] = []
        samples: Dict[str, List[float]] = {
            k: [] for k in ("provision", "qos_provision", "release", "get",
                            "reroute", "flap", "audit")
        }
        live: List[str] = []
        slot: Dict[str, int] = {}
        body_of: Dict[str, Dict[str, Any]] = {}
        stale: set = set()
        evicted: List[str] = []
        served = 0
        to_decode: List[Dict[str, Any]] = []

        def add(flow: Dict[str, Any]) -> None:
            fid = flow["flow_id"]
            slot[fid] = len(live)
            live.append(fid)
            body_of[fid] = flow

        def drop(fid: str) -> None:
            idx = slot.pop(fid)
            last = live.pop()
            if last != fid:
                live[idx] = last
                slot[last] = idx
            body_of.pop(fid, None)
            stale.discard(fid)

        def note_served(flow: Dict[str, Any]) -> None:
            nonlocal served
            if served % DECODE_EVERY == 0:
                to_decode.append(flow)
            served += 1

        def timed(kind: str, method: str, path: str,
                  body: Optional[Dict[str, Any]]
                  ) -> Tuple[int, Dict[str, Any]]:
            t0 = clock()
            status, payload = request(method, path, body)
            t1 = clock()
            samples[kind].append(t1 - t0)
            if traced:
                self.tracer.add(f"service.request.{kind}", t0, t1)
            return status, payload

        def pick_kind() -> str:
            roll, acc = rng.random(), 0.0
            choice = OP_MIX[-1][0]
            for kind, weight in OP_MIX:
                acc += weight
                if roll < acc:
                    choice = kind
                    break
            if choice == "provision" and len(live) >= self.max_live:
                return "release"
            if choice != "provision" and choice != "flap" and not live:
                return "provision"
            return choice

        laps = Laps()
        for i in range(self.operations):
            kind = pick_kind()
            if kind == "provision":
                src, dst = rng.sample(self.edges, 2)
                req: Dict[str, Any] = {
                    "tenant": f"t{rng.randrange(64):02d}",
                    "src": src, "dst": dst,
                }
                qos = rng.random() < QOS_SHARE
                if qos:
                    req["bandwidth_mbps"] = rng.choice(QOS_BANDWIDTHS)
                    budget = rng.choice(QOS_LATENCIES)
                    if budget is not None:
                        req["max_latency_s"] = budget
                status, body = timed(
                    "qos_provision" if qos else "provision",
                    "POST", "/flows", req,
                )
                checks.check_response("provision", status, body, ops)
                if status == 201:
                    flow = body["flow"]
                    add(flow)
                    note_served(flow)
                    log.append(["provision", status, flow["flow_id"],
                                flow["route_id"], flow["modulus"],
                                flow["out_port"]])
                else:
                    log.append(["provision", status, body.get("error")])
            elif kind == "release":
                fid = live[rng.randrange(len(live))]
                status, body = timed("release", "DELETE", f"/flows/{fid}",
                                     None)
                checks.check_response("release", status, body, ops)
                drop(fid)
                log.append(["release", status, fid])
            elif kind == "get":
                gone = bool(evicted) and rng.random() < EVICTED_GET_SHARE
                fid = (evicted[rng.randrange(len(evicted))] if gone
                       else live[rng.randrange(len(live))])
                status, body = timed("get", "GET", f"/flows/{fid}", None)
                checks.check_response("get", status, body, ops,
                                      evicted_target=gone)
                if status == 200:
                    flow = body["flow"]
                    body_of[fid] = flow
                    stale.discard(fid)
                    note_served(flow)
                    log.append(["get", status, fid, flow["route_id"],
                                flow["modulus"], flow["out_port"]])
                else:
                    log.append(["get", status, fid])
            elif kind == "reroute":
                fid = live[rng.randrange(len(live))]
                flow = body_of[fid]
                if flow.get("bandwidth_mbps", 0) > 0 or fid in stale:
                    # A detour needs a flow without a reservation whose
                    # path the benchmark knows to be current; otherwise
                    # this turn re-reads the flow instead.
                    status, body = timed("get", "GET", f"/flows/{fid}", None)
                    checks.check_response("get", status, body, ops)
                    if status == 200:
                        body_of[fid] = body["flow"]
                        stale.discard(fid)
                    log.append(["get", status, fid])
                else:
                    pivot = rng.choice(flow["node_path"][1:-1])
                    new_next = rng.choice(self.core_neighbours[pivot])
                    status, body = timed(
                        "reroute", "POST", f"/flows/{fid}/reroute",
                        {"switch": pivot, "next": new_next},
                    )
                    checks.check_response("reroute", status, body, ops)
                    if status == 200:
                        flow = body["flow"]
                        body_of[fid] = flow
                        note_served(flow)
                        ops.expect(
                            flow["route_id"] % self.copy.switch_id[pivot]
                            == self.copy.port_to(pivot, new_next),
                            f"reroute of {fid} at {pivot} not in route ID",
                        )
                        log.append(["reroute", status, fid, flow["route_id"],
                                    flow["modulus"], flow["out_port"]])
                    else:
                        log.append(["reroute", status, fid,
                                    body.get("error")])
            else:  # flap
                a, b = self.core_links[rng.randrange(len(self.core_links))]
                status, body = timed(
                    "flap", "POST", "/topology/events",
                    {"kind": "port_flap", "a": a, "b": b},
                )
                checks.check_response("flap", status, body, ops)
                repaired = list(body.get("repaired") or [])
                gone_now = sorted((body.get("evicted") or {}).items())
                for fid, _reason in gone_now:
                    if fid in slot:
                        drop(fid)
                        evicted.append(fid)
                stale.update(f for f in repaired if f in slot)
                log.append(["flap", status, a, b, repaired, gone_now])
            if (i + 1) % self.audit_every == 0:
                status, body = timed("audit", "GET", "/audit", None)
                checks.check_response("audit", status, body, ops)
                log.append(["audit", status, body.get("violations")])
            if (i + 1) % SLICE_OPS == 0:
                laps.mark()
        laps.mark()

        status, body = request("GET", "/audit", None)
        checks.check_response("audit", status, body, ops)
        for flow in to_decode:
            self._check_served(flow, ops)
        return laps.times, log, samples

    def _check_served(self, flow: Dict[str, Any], ops: Ops) -> None:
        """A served route decodes back along its node path; a detoured
        one (whose path no longer describes it) against its residues."""
        if flow["detoured"]:
            checks.check_residues(
                self.copy,
                {int(s): p for s, p in flow["residues"].items()},
                flow["route_id"], ops,
            )
        else:
            checks.check_route_follows(
                self.copy, flow["node_path"], flow["out_port"],
                flow["route_id"], ops,
            )

    # ------------------------------------------------------------------
    def repeat(self) -> Repeat:
        span = self.tracer.span
        with span("repeat"):
            with span("service.server.start"):
                server = ServiceThread(service_topology(self.topology))
                server.start()
            try:
                client = ServiceClient(server.host, server.port)
                try:
                    with span("service.churn"):
                        slices, log, samples = self.churn(
                            client.request, traced=self.tracer.enabled
                        )
                    _status, stats = client.get("/stats")
                finally:
                    client.close()
            finally:
                with span("service.server.stop"):
                    server.stop()
        requests = sum(len(v) for v in samples.values())
        return Repeat(
            slices=slices, work=float(requests), digest=sha256_json(log),
            facts={"requests": requests, "stats": stats},
            samples=samples,
        )

    def check(self, rep: Repeat) -> None:
        """Responses were checked as they arrived; what is left is the
        service's own books at the end of the run."""
        stats = rep.facts["stats"]
        self.ops.expect(
            stats["engine"]["encoder"]["fallback"] == 0
            and stats["engine"]["delta"]["full_solves"] == 0,
            "service left the pooled/incremental encode path",
        )

    # ------------------------------------------------------------------
    def named(self, reps: List[Repeat], quiet_s: float) -> Dict[str, float]:
        def posts(rep: Repeat) -> List[float]:
            return rep.samples["provision"] + rep.samples["qos_provision"]

        # Latencies follow the same rule as repeat_s: interference only
        # adds, so each percentile is that of the repeat where it was
        # lowest.
        return {
            "svc_req_per_s": reps[0].work / quiet_s,
            "svc_provision_p50_us": min(median(posts(r)) for r in reps) * 1e6,
            "svc_provision_p99_us": min(
                percentile(posts(r), 0.99) for r in reps) * 1e6,
            "svc_flap_p50_ms": min(
                median(r.samples["flap"]) for r in reps) * 1e3,
        }

    def golden_facts(self, rep: Repeat) -> Dict[str, Any]:
        stats = rep.facts["stats"]
        return {"requests": rep.facts["requests"],
                "flows_total": stats["service"]["flows_total"],
                "repaired": stats["service"]["repaired"]}

    def layers(self, spans: Dict[str, float], rep: Repeat,
               reps: List[Repeat]) -> Dict[str, float]:
        def p50_us(kind: str) -> float:
            return min(median(r.samples[kind]) for r in reps) * 1e6

        http_provision = min(
            median(r.samples["provision"] + r.samples["qos_provision"])
            for r in reps
        ) * 1e6
        out = {
            "service.server.start_s": spans["service.server.start"],
            "service.get_p50_us": p50_us("get"),
            "service.release_p50_us": p50_us("release"),
            "service.reroute_p50_us": p50_us("reroute"),
            "service.qos_provision_p50_us": p50_us("qos_provision"),
            "service.flap_p95_ms": min(
                percentile(r.samples["flap"], 0.95) for r in reps) * 1e3,
        }

        # The identical op sequence straight through dispatch(): what
        # the sockets and the HTTP framing add.
        state = ControllerState(service_topology(self.topology))
        _slices, log, samples = self.churn(
            lambda m, p, b: dispatch(state, m, p, {}, b), traced=False
        )
        self.ops.expect(
            sha256_json(log) == rep.digest,
            "dispatch() replay answered differently from HTTP",
        )
        direct_provision = median(
            samples["provision"] + samples["qos_provision"]) * 1e6
        out["service.dispatch.provision_p50_us"] = direct_provision
        out["service.dispatch.flap_p50_ms"] = median(samples["flap"]) * 1e3
        out["service.server.http_overhead_us"] = (
            http_provision - direct_provision
        )
        out.update(self._probe_direct())

        stats = rep.facts["stats"]
        admission, engine = stats["admission"], stats["engine"]
        rejected = sum(admission["rejected"].values())
        decided = admission["accepted"] + rejected
        trees, subsets = engine["trees"], engine["subsets"]
        flaps = stats["service"]["events"].get("port_flap", 0)
        out.update({
            "service.admission.accepted": float(admission["accepted"]),
            "service.admission.rejected": float(rejected),
            "service.admission.reject_share":
                rejected / decided if decided else 0.0,
            "controller.provision.trees_built": float(trees["built"]),
            "controller.provision.tree_hit_ratio":
                trees["hits"] / max(1, trees["hits"] + trees["built"]),
            "controller.provision.link_invalidations":
                float(engine["epochs"]["link_invalidations"]),
            "rns.pool.deltas_applied": float(engine["delta"]["applied"]),
            "rns.pool.full_solves": float(engine["delta"]["full_solves"]),
            "rns.pool.subset_hit_ratio":
                subsets["hits"] / max(1, subsets["hits"] + subsets["built"]),
            "service.state.repaired_per_flap":
                stats["service"]["repaired"] / flaps if flaps else 0.0,
            "service.state.evicted":
                float(sum(stats["service"]["evicted"].values())),
        })
        return out

    def _probe_direct(self) -> Dict[str, float]:
        """Mean cost of one direct call into each layer under the
        service, over seeded pairs on a warm object."""
        pairs = seeded_pairs(
            random.Random(f"e2e-svc-probe:{self.seed}"), self.edges,
            self.probe_calls,
        )
        rounds = max(1, self.probe_calls // len(pairs))
        calls = rounds * len(pairs)
        clock = time.perf_counter

        def mean_us(fn: Callable[[str, str], Any]) -> float:
            for src, dst in pairs:  # warm trees and subset contexts
                fn(src, dst)
            t0 = clock()
            for _ in range(rounds):
                for src, dst in pairs:
                    fn(src, dst)
            return (clock() - t0) / calls * 1e6

        graph = service_topology(self.topology)
        state = ControllerState(service_topology(self.topology))
        engine = ProvisioningEngine(service_topology(self.topology))
        return {
            "service.state.provision_us": mean_us(
                lambda s, d: state.provision("probe", s, d)),
            "controller.provision.provision_us": mean_us(engine.provision),
            "service.admission.cspf_us": mean_us(
                lambda s, d: cspf_path(graph, s, d, bandwidth_mbps=1.0)),
        }
