"""Epoch-batched forwarding: the million-packet datapath.

The DES engine (:mod:`repro.sim.engine`) prices every hop as a heap
event — exact, but bounded by Python per-event overhead.  This module
adds the ROADMAP's "million-packet datapath": an **epoch-quantized
forwarding model** in which every live packet advances exactly one
switch hop per epoch, and a whole switch's epoch queue is drained in
one vectorized numpy pass (the CPU analogue of the array-batched bulk
provisioner in :mod:`repro.controller.bulk`).

Two engines implement the *same* canonical model and must produce
bit-identical outcome records (digested with
:func:`repro.farm.jobs.record_digest`):

* :func:`run_epoch_reference` — the oracle.  A scalar loop over plain
  data: per-switch queue lists, one healthy-port tuple and one RNG
  stream per switch, and per packet per hop the big-int
  ``R mod switch_id`` followed by one
  :meth:`~repro.switches.deflection.DeflectionStrategy.decide` call.
* :func:`run_epoch_vector` — the batch engine.  Per switch per epoch
  it resolves ``R mod switch_id`` for the whole queue at once (from
  per-flow residue arrays seeded by
  :meth:`~repro.rns.encoder.EncodedRoute.residue_map`), applies the
  strategy's :meth:`~repro.switches.deflection.DeflectionStrategy.happy_mask`
  as a numpy mask, and only the fallback minority goes through
  ``decide`` — the same method on the same per-switch RNG stream in
  the same queue order, so every draw is the reference's draw.

Canonical model (shared by both engines):

1. At each epoch start, scheduled link flips apply in sorted link-key
   order; then this epoch's injections append to their ingress
   switches' queues **after** carried-over arrivals, in flow order.
2. Switches process their queues in node-index order (node indices are
   name-sorted ranks, the same canonical order
   :class:`~repro.topology.csr.CsrTopology` locks in).  Every packet a
   switch forwards lands in the target switch's *next*-epoch queue
   (one hop per epoch, no serialization or queueing model).
3. Arrival order in a queue is (sender node index, sender emission
   order) — exactly what processing switches in index order produces.
4. A forward onto an edge-facing port terminates the packet: delivered
   when that edge is the flow's egress, misdelivered otherwise (the
   epoch model has no re-encode path; misdelivery is a terminal
   outcome both engines count identically).
5. TTL follows the core switch's rule: drop when ``ttl <= 0`` on
   arrival, else decrement and forward.

The outcome record (per-switch forwarded/deflections/drops, drop
reasons, delivery/misdelivery tallies, and a fingerprint over every
switch RNG's final state) is the bit-identical contract: equal digests
mean both engines made the same decisions AND the same random draws.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.farm.jobs import record_digest
from repro.rns.encoder import Hop, RouteEncoder
from repro.sim.rng import RngRegistry
from repro.switches.deflection import strategy_by_name
from repro.topology import random_connected, shortest_path
from repro.topology.csr import CsrTopology
from repro.topology.graph import NodeKind, PortGraph

__all__ = [
    "EpochTopology",
    "EpochFlow",
    "EpochWorkload",
    "EpochOutcome",
    "WORKLOAD_BUILDERS",
    "synthetic_spec",
    "build_workload",
    "run_epoch_reference",
    "run_epoch_vector",
    "EpochCore",
    "iter_injections",
    "rng_state_digest",
    "merge_rng_fragments",
]

#: (epoch, a, b) — toggle the a-b link's state at the start of *epoch*.
FlipEvent = Tuple[int, str, str]


def rng_state_digest(rng: random.Random) -> str:
    """Canonical fingerprint of one RNG stream's current position."""
    return hashlib.sha256(
        repr(rng.getstate()).encode("utf-8")
    ).hexdigest()[:16]


def merge_rng_fragments(fragments: Sequence[Tuple[str, str]]) -> str:
    """Combine per-switch RNG fingerprints (name order) into one."""
    h = hashlib.sha256()
    for name, frag in sorted(fragments):
        h.update(f"{name}:{frag};".encode("utf-8"))
    return h.hexdigest()[:16]


class EpochTopology:
    """Dense per-node port maps for the epoch model.

    Built once from a :class:`PortGraph` via the CSR snapshot: for node
    ``u`` and port ``p``, ``peer[u][p]`` is the neighbor's node index
    and ``peer_port[u][p]`` the port **on the neighbor** facing ``u``
    (the arriving packet's input port).  Node indices are name-sorted
    ranks, matching :class:`~repro.topology.csr.CsrTopology`.
    """

    def __init__(self, graph: PortGraph):
        csr = CsrTopology.from_graph(graph)
        self.names: Tuple[str, ...] = csr.names
        self.index: Dict[str, int] = csr.index
        self.n = csr.n
        self.core_mask = csr.core_mask
        self.switch_ids = csr.switch_ids
        self.core_indices: Tuple[int, ...] = tuple(
            int(i) for i in np.nonzero(csr.core_mask)[0]
        )
        degree = np.diff(csr.indptr)
        self.degree: Tuple[int, ...] = tuple(int(d) for d in degree)
        self.peer: List[np.ndarray] = []
        self.peer_port: List[np.ndarray] = []
        for u in range(self.n):
            d = self.degree[u]
            peers = np.full(d, -1, dtype=np.int64)
            pports = np.full(d, -1, dtype=np.int64)
            sl = csr.edge_slice(u)
            for nb, p_out, p_back in zip(
                csr.indices[sl], csr.ports_out[sl], csr.ports_back[sl]
            ):
                peers[p_out] = nb
                pports[p_out] = p_back
            peers.setflags(write=False)
            pports.setflags(write=False)
            self.peer.append(peers)
            self.peer_port.append(pports)
        #: link key (sorted names) -> (u, port_on_u, v, port_on_v)
        self.links: Dict[Tuple[str, str], Tuple[int, int, int, int]] = {}
        for link in graph.links():
            u, v = self.index[link.a], self.index[link.b]
            self.links[link.key] = (u, link.a_port, v, link.b_port)

    def fresh_up_state(self) -> List[np.ndarray]:
        """All-ports-up carrier state, one bool array per node."""
        return [np.ones(d, dtype=bool) for d in self.degree]


@dataclass(frozen=True)
class EpochFlow:
    """One provisioned flow: a constant route ID entering at one switch.

    ``residues`` is the encode-time hint
    (:meth:`~repro.rns.encoder.EncodedRoute.residue_map`) the vector
    engine seeds its per-switch residue arrays from, taking the big-int
    ``route_id % switch_id`` once per (flow, switch) for switches not in
    it.  The reference engine ignores the hint and takes the modulo per
    packet per hop, so a wrong hint is a digest mismatch.
    """

    route_id: int
    residues: Optional[Mapping[int, int]]
    ingress: int  # node index of the first core switch
    in_port: int  # port on the ingress switch facing its edge
    egress: int  # node index of the destination edge
    ttl: int


@dataclass(frozen=True)
class EpochWorkload:
    """A complete epoch-model scenario, rebuildable from ``spec``."""

    topo: EpochTopology
    flows: Tuple[EpochFlow, ...]
    inject_per_epoch: int
    inject_epochs: int
    max_epochs: int
    seed: int
    strategy: str
    flips: Tuple[FlipEvent, ...]
    spec: Dict[str, Any]

    def __post_init__(self) -> None:
        # A bad flip would otherwise surface mid-run as a bare KeyError
        # (unknown link) or never apply at all (negative epoch).
        for flip in self.flips:
            try:
                epoch, a, b = flip
                ok = (
                    isinstance(epoch, int) and epoch >= 0
                    and (min(a, b), max(a, b)) in self.topo.links
                )
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(
                    f"bad flip {flip!r}: want (epoch >= 0, a, b) with a-b "
                    f"a link of the topology"
                )

    @property
    def injected_total(self) -> int:
        return len(self.flows) * self.inject_per_epoch * self.inject_epochs

    def flips_at(self, epoch: int) -> Tuple[Tuple[str, str], ...]:
        """Link keys toggling at *epoch*, in sorted key order."""
        keys = sorted(
            (min(a, b), max(a, b))
            for e, a, b in self.flips if e == epoch
        )
        return tuple(keys)


@dataclass
class EpochOutcome:
    """One engine run: the digested record plus optional diagnostics."""

    record: Dict[str, Any]
    fates: Optional[Dict[int, Tuple[Any, ...]]] = None
    traces: Optional[Dict[int, Tuple[Tuple[Any, ...], ...]]] = None

    @property
    def digest(self) -> str:
        return self.record["digest"]


# ---------------------------------------------------------------------------
# workload construction
# ---------------------------------------------------------------------------

#: spec["kind"] -> builder.  Populated at import time so spawn-started
#: workers (which re-import this module) can rebuild any workload from
#: its plain spec record — the same discipline as
#: :data:`repro.farm.jobs.JOB_KINDS`.
WORKLOAD_BUILDERS: Dict[str, Callable[[Mapping[str, Any]], "EpochWorkload"]] = {}


def synthetic_spec(
    num_switches: int = 8,
    extra_links: int = 3,
    min_switch_id: int = 29,
    id_strategy: str = "prime",
    seed: int = 1,
    strategy: str = "nip",
    flows: int = 4,
    ttl: int = 48,
    inject_per_epoch: int = 2,
    inject_epochs: int = 6,
    link_failures: int = 1,
    fail_epoch: int = 2,
    repair_epoch: Optional[int] = None,
    extra_flips: Sequence[FlipEvent] = (),
) -> Dict[str, Any]:
    """Plain spec record for the random-connected epoch workload."""
    return {
        "kind": "synthetic",
        "num_switches": num_switches,
        "extra_links": extra_links,
        "min_switch_id": min_switch_id,
        "id_strategy": id_strategy,
        "seed": seed,
        "strategy": strategy,
        "flows": flows,
        "ttl": ttl,
        "inject_per_epoch": inject_per_epoch,
        "inject_epochs": inject_epochs,
        "link_failures": link_failures,
        "fail_epoch": fail_epoch,
        "repair_epoch": repair_epoch,
        "extra_flips": [list(f) for f in extra_flips],
    }


def _build_synthetic(spec: Mapping[str, Any]) -> EpochWorkload:
    """Random connected core + one edge node per flow endpoint.

    Everything is a pure function of the spec: topology (seeded
    generator), flow endpoint choice (its own derived stream), routes
    (deterministic shortest paths + CRT encode) and the failure
    schedule (links on flow 0's route, innermost first).
    """
    graph = random_connected(
        spec["num_switches"],
        extra_links=spec["extra_links"],
        seed=spec["seed"],
        id_strategy=spec.get("id_strategy", "prime"),
        min_switch_id=spec["min_switch_id"],
        rate_mbps=100.0,
        delay_s=0.0002,
    )
    core = sorted(graph.node_names(NodeKind.CORE))
    rng = random.Random(f"epoch-flows-{spec['seed']}")
    pairs: List[Tuple[str, str]] = []
    seen = set()
    attempts = 0
    while len(pairs) < spec["flows"] and attempts < spec["flows"] * 20:
        attempts += 1
        src, dst = rng.sample(core, 2)
        if (src, dst) in seen:
            continue
        seen.add((src, dst))
        pairs.append((src, dst))
    # Attach one edge node per endpoint switch actually used.
    edge_of: Dict[str, str] = {}
    for sw in sorted({n for pair in pairs for n in pair}):
        edge = f"EV-{sw}"
        graph.add_node(edge, kind=NodeKind.EDGE)
        graph.add_link(sw, edge, rate_mbps=100.0, delay_s=0.0002)
        edge_of[sw] = edge

    encoder = RouteEncoder()
    topo = EpochTopology(graph)
    flows: List[EpochFlow] = []
    routes: List[List[str]] = []
    for src, dst in pairs:
        path = shortest_path(graph, src, dst)
        hops = [
            Hop(graph.switch_id(a), graph.port_of(a, b))
            for a, b in zip(path, path[1:])
        ]
        hops.append(
            Hop(graph.switch_id(dst), graph.port_of(dst, edge_of[dst]))
        )
        route = encoder.encode(hops)
        flows.append(EpochFlow(
            route_id=route.route_id,
            residues=dict(route.residue_map()),
            ingress=topo.index[src],
            in_port=graph.port_of(src, edge_of[src]),
            egress=topo.index[edge_of[dst]],
            ttl=spec["ttl"],
        ))
        routes.append(path)

    flips: List[FlipEvent] = [tuple(f) for f in spec.get("extra_flips", ())]
    failures = spec.get("link_failures", 0)
    if failures and routes and len(routes[0]) >= 2:
        path = routes[0]
        mid = len(path) // 2
        # Innermost links first: the most route-disturbing cuts.
        order = sorted(
            range(len(path) - 1), key=lambda i: (abs(i - mid), i)
        )
        fail_epoch = spec.get("fail_epoch", 2)
        repair_epoch = spec.get("repair_epoch")
        for i in order[:failures]:
            a, b = path[i], path[i + 1]
            flips.append((fail_epoch, a, b))
            if repair_epoch is not None:
                flips.append((repair_epoch, a, b))

    inject_epochs = spec["inject_epochs"]
    return EpochWorkload(
        topo=topo,
        flows=tuple(flows),
        inject_per_epoch=spec["inject_per_epoch"],
        inject_epochs=inject_epochs,
        max_epochs=inject_epochs + spec["ttl"] + 4,
        seed=spec["seed"],
        strategy=spec["strategy"],
        flips=tuple(flips),
        spec=dict(spec),
    )


WORKLOAD_BUILDERS["synthetic"] = _build_synthetic


def build_workload(spec: Mapping[str, Any]) -> EpochWorkload:
    """Rebuild a workload from its plain spec record (spawn-safe)."""
    try:
        builder = WORKLOAD_BUILDERS[spec["kind"]]
    except KeyError:
        raise ValueError(
            f"unknown workload kind {spec.get('kind')!r}; registered: "
            f"{sorted(WORKLOAD_BUILDERS)}"
        ) from None
    return builder(spec)


def iter_injections(
    workload: EpochWorkload, epoch: int
) -> List[Tuple[int, int]]:
    """Canonical injection list for *epoch*: ``(uid, flow_index)``.

    Uids are epoch-major, then flow order, then per-flow count — the
    shared numbering every engine reproduces.
    """
    if epoch >= workload.inject_epochs:
        return []
    per_epoch = len(workload.flows) * workload.inject_per_epoch
    base = epoch * per_epoch
    out = []
    for f in range(len(workload.flows)):
        for k in range(workload.inject_per_epoch):
            out.append((base + f * workload.inject_per_epoch + k, f))
    return out


def _finish_record(
    workload: EpochWorkload,
    epochs: int,
    switches: Dict[str, List[int]],
    delivered: int,
    misdelivered: Dict[str, int],
    drop_reasons: Dict[str, int],
    live_at_end: int,
    rng_fragments: Sequence[Tuple[str, str]],
) -> Dict[str, Any]:
    """The canonical outcome record — identical shape in every engine."""
    record: Dict[str, Any] = {
        "model": "epoch",
        "strategy": workload.strategy,
        "seed": workload.seed,
        "epochs": epochs,
        "injected": workload.injected_total,
        "delivered": delivered,
        "misdelivered": dict(sorted(misdelivered.items())),
        "drop_reasons": dict(sorted(drop_reasons.items())),
        "switches": {k: switches[k] for k in sorted(switches)},
        "hops": sum(v[0] for v in switches.values()),
        "live_at_end": live_at_end,
        "rng_fingerprint": merge_rng_fragments(rng_fragments),
    }
    record["digest"] = record_digest(record)
    return record


# ---------------------------------------------------------------------------
# reference engine: a scalar loop, one decide() per packet per hop
# ---------------------------------------------------------------------------

def run_epoch_reference(
    workload: EpochWorkload, trace: bool = False
) -> EpochOutcome:
    """The oracle: the canonical model, packet by packet, on plain data."""
    topo = workload.topo
    names = topo.names
    flows = workload.flows
    strategy = strategy_by_name(workload.strategy)
    no_port = f"no-usable-port({strategy.name})"
    registry = RngRegistry(workload.seed)
    core = topo.core_indices
    rngs = {u: registry.stream(f"deflect:{names[u]}") for u in core}
    healthy = {u: tuple(range(topo.degree[u])) for u in core}
    peer = [ports.tolist() for ports in topo.peer]
    peer_port = [ports.tolist() for ports in topo.peer_port]
    is_core = topo.core_mask.tolist()
    # counters[u] = [forwarded, deflections, drops]
    counters = {u: [0, 0, 0] for u in core}
    drop_reasons: Dict[str, int] = {}
    delivered = 0
    misdelivered: Dict[str, int] = {}
    fates: Dict[int, Tuple[Any, ...]] = {}
    hops: Dict[int, List[Tuple[Any, ...]]] = {}

    # Queue entries: (uid, flow index, ttl, sticky deflected bit, in-port).
    queues: Dict[int, List[Tuple[int, int, int, bool, int]]] = {
        u: [] for u in core
    }
    epoch = 0
    live = 0
    while epoch < workload.max_epochs and (
        live > 0 or epoch < workload.inject_epochs
    ):
        for key in workload.flips_at(epoch):
            u, pu, v, pv = topo.links[key]
            for node, port in ((u, pu), (v, pv)):
                if node in healthy:
                    healthy[node] = tuple(
                        sorted(set(healthy[node]) ^ {port})
                    )
        for uid, f in iter_injections(workload, epoch):
            flow = flows[f]
            queues[flow.ingress].append(
                (uid, f, flow.ttl, False, flow.in_port)
            )
            live += 1
        next_queues: Dict[int, List[Tuple[int, int, int, bool, int]]] = {
            u: [] for u in core
        }
        for u in core:
            name = names[u]
            sid = int(topo.switch_ids[u])
            tally = counters[u]
            for uid, f, ttl, deflected, in_port in queues[u]:
                if ttl <= 0:
                    port, reason = None, "ttl-expired"
                else:
                    port, hop_deflected = strategy.decide(
                        healthy[u], in_port, flows[f].route_id % sid,
                        deflected, rngs[u],
                    )
                    reason = no_port
                if port is None:
                    live -= 1
                    tally[2] += 1
                    drop_reasons[reason] = drop_reasons.get(reason, 0) + 1
                    fates[uid] = ("dropped", name, reason)
                    continue
                tally[0] += 1
                if hop_deflected:
                    tally[1] += 1
                    deflected = True
                if trace:
                    hops.setdefault(uid, []).append(
                        (name, in_port, port, hop_deflected)
                    )
                v = peer[u][port]
                if is_core[v]:
                    next_queues[v].append(
                        (uid, f, ttl - 1, deflected, peer_port[u][port])
                    )
                    continue
                live -= 1
                edge_name = names[v]
                if v == flows[f].egress:
                    delivered += 1
                    fates[uid] = ("delivered", edge_name)
                else:
                    misdelivered[edge_name] = (
                        misdelivered.get(edge_name, 0) + 1
                    )
                    fates[uid] = ("misdelivered", edge_name)
        queues = next_queues
        epoch += 1

    record = _finish_record(
        workload, epoch,
        {names[u]: tally for u, tally in counters.items()},
        delivered, misdelivered, drop_reasons,
        sum(len(q) for q in queues.values()),
        [(names[u], rng_state_digest(rng)) for u, rng in rngs.items()],
    )
    return EpochOutcome(
        record=record,
        fates=fates,
        traces={k: tuple(v) for k, v in hops.items()} if trace else None,
    )


# ---------------------------------------------------------------------------
# vector engine: per-switch-per-epoch numpy batches
# ---------------------------------------------------------------------------

class EpochCore:
    """Vectorized switch state for a topology.

    Owns per-switch counters, RNG streams and residue arrays for every
    core switch.  Carrier state covers the whole topology: flips are
    global knowledge, exactly as loss-of-carrier is local-but-instant
    in the DES model.
    """

    def __init__(self, workload: EpochWorkload, trace: bool = False):
        topo = workload.topo
        self.workload = workload
        self.topo = topo
        self.strategy = strategy_by_name(workload.strategy)
        core = topo.core_indices
        registry = RngRegistry(workload.seed)
        self.rngs: Dict[int, random.Random] = {
            u: registry.stream(f"deflect:{topo.names[u]}") for u in core
        }
        self.up: List[np.ndarray] = topo.fresh_up_state()
        # What decide() sees: each core switch's up ports as plain ints.
        self.healthy: Dict[int, Tuple[int, ...]] = {
            u: tuple(range(topo.degree[u])) for u in core
        }
        # counters[u] = [forwarded, deflections, drops]
        self.counters: Dict[int, List[int]] = {u: [0, 0, 0] for u in core}
        self.drop_reasons: Dict[str, int] = {}
        self.delivered = 0
        self.misdelivered: Dict[str, int] = {}
        self.trace = trace
        self.fates: Dict[int, Tuple[Any, ...]] = {}
        # uid -> [(switch, in_port, out_port, deflected), ...] in hop order.
        self.traces: Dict[int, List[Tuple[Any, ...]]] = {}
        # Lazily-built per-switch residue arrays over flows.
        self._residues: Dict[int, np.ndarray] = {}
        self._flow_egress = np.array(
            [f.egress for f in workload.flows], dtype=np.int64
        )
        self._flow_ttl = np.array(
            [f.ttl for f in workload.flows], dtype=np.int64
        )
        self._flow_ingress = np.array(
            [f.ingress for f in workload.flows], dtype=np.int64
        )
        self._flow_in_port = np.array(
            [f.in_port for f in workload.flows], dtype=np.int64
        )

    def apply_flips(self, keys: Sequence[Tuple[str, str]]) -> None:
        for key in keys:
            u, pu, v, pv = self.topo.links[key]
            self.up[u][pu] = not self.up[u][pu]
            self.up[v][pv] = not self.up[v][pv]
            for node_idx in (u, v):
                if node_idx in self.healthy:
                    self.healthy[node_idx] = tuple(
                        int(p) for p in np.nonzero(self.up[node_idx])[0]
                    )

    def residues_for(self, u: int) -> np.ndarray:
        res = self._residues.get(u)
        if res is None:
            sid = int(self.topo.switch_ids[u])
            vals = []
            for flow in self.workload.flows:
                r = None
                if flow.residues is not None:
                    r = flow.residues.get(sid)
                if r is None:
                    r = flow.route_id % sid
                vals.append(r)
            res = np.array(vals, dtype=np.int64)
            self._residues[u] = res
        return res

    def process_switch(
        self,
        u: int,
        flow: np.ndarray,
        ttl: np.ndarray,
        deflected: np.ndarray,
        in_port: np.ndarray,
        uid: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        """Drain one switch's epoch queue in one vectorized pass.

        Returns the surviving (core-bound) packets as arrays in
        emission order: ``sw``/``in_port``/``ttl``/``deflected``/
        ``flow``/``uid``.  Terminals (delivered, misdelivered, drops)
        are tallied on the core's counters.
        """
        topo = self.topo
        name = topo.names[u]
        deg = topo.degree[u]
        counters = self.counters[u]
        n = len(flow)

        expired = ttl <= 0
        n_expired = int(expired.sum())
        if n_expired:
            counters[2] += n_expired
            self._drop_n("ttl-expired", n_expired)
            if self.trace:
                for w in np.nonzero(expired)[0]:
                    self.fates[int(uid[w])] = ("dropped", name, "ttl-expired")
        alive = ~expired
        if not alive.all():
            flow = flow[alive]
            ttl = ttl[alive]
            deflected = deflected[alive]
            in_port = in_port[alive]
            uid = uid[alive]
        if len(flow) == 0:
            return _empty_batch()
        ttl = ttl - 1

        comp = self.residues_for(u)[flow]
        up_u = self.up[u]
        valid = comp < deg
        usable = np.zeros(len(comp), dtype=bool)
        if valid.any():
            usable[valid] = up_u[comp[valid]]
        strategy = self.strategy
        happy = strategy.happy_mask(usable, in_port, comp, deflected)

        out_port = np.where(happy, comp, -1)
        out_defl = deflected.copy()
        # The per-hop decision flag (what the tracer records) is not
        # the sticky kar.deflected bit: a happy-path hop traces False
        # even for a packet deflected upstream.
        hop_defl = np.zeros(len(comp), dtype=bool)
        dropped = np.zeros(len(comp), dtype=bool)
        # The fallback minority takes the scalar rule on the switch's
        # own RNG stream, in queue order — the reference engine's draws.
        healthy = self.healthy[u]
        rng = self.rngs[u]
        for w in np.nonzero(~happy)[0]:
            port, hop_deflected = strategy.decide(
                healthy, int(in_port[w]), int(comp[w]),
                bool(deflected[w]), rng,
            )
            if port is None:
                dropped[w] = True
            else:
                out_port[w] = port
                if hop_deflected:
                    out_defl[w] = True
                    hop_defl[w] = True
                    counters[1] += 1
        n_drop = int(dropped.sum())
        if n_drop:
            reason = f"no-usable-port({strategy.name})"
            counters[2] += n_drop
            self._drop_n(reason, n_drop)
            if self.trace:
                for w in np.nonzero(dropped)[0]:
                    self.fates[int(uid[w])] = ("dropped", name, reason)

        fwd = ~dropped
        n_fwd = int(fwd.sum())
        counters[0] += n_fwd
        if n_fwd == 0:
            return _empty_batch()
        flow = flow[fwd]
        ttl = ttl[fwd]
        out_defl = out_defl[fwd]
        hop_defl = hop_defl[fwd]
        out_port = out_port[fwd]
        uid = uid[fwd]
        in_port = in_port[fwd]

        peers = topo.peer[u][out_port]
        next_in = topo.peer_port[u][out_port]
        if self.trace:
            for w in range(len(uid)):
                self.traces.setdefault(int(uid[w]), []).append(
                    (name, int(in_port[w]), int(out_port[w]),
                     bool(hop_defl[w]))
                )
        is_core = self.topo.core_mask[peers]
        term = np.nonzero(~is_core)[0]
        if len(term):
            egress = self._flow_egress[flow[term]]
            ok = peers[term] == egress
            self.delivered += int(ok.sum())
            if (~ok).any():
                bad_edges = peers[term][~ok]
                for v, cnt in zip(*np.unique(bad_edges, return_counts=True)):
                    edge_name = topo.names[int(v)]
                    self.misdelivered[edge_name] = (
                        self.misdelivered.get(edge_name, 0) + int(cnt)
                    )
            if self.trace:
                for w, good in zip(term, ok):
                    edge_name = topo.names[int(peers[w])]
                    self.fates[int(uid[w])] = (
                        ("delivered", edge_name) if good
                        else ("misdelivered", edge_name)
                    )
        keep = is_core
        return {
            "sw": peers[keep],
            "in_port": next_in[keep],
            "ttl": ttl[keep],
            "deflected": out_defl[keep],
            "flow": flow[keep],
            "uid": uid[keep],
        }

    def _drop_n(self, reason: str, n: int) -> None:
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + n

    def rng_fragments(self) -> List[Tuple[str, str]]:
        return [
            (self.topo.names[u], rng_state_digest(rng))
            for u, rng in self.rngs.items()
        ]

    def switch_counters(self) -> Dict[str, List[int]]:
        return {
            self.topo.names[u]: list(c) for u, c in self.counters.items()
        }


def _empty_batch() -> Dict[str, np.ndarray]:
    return {
        "sw": np.empty(0, dtype=np.int64),
        "in_port": np.empty(0, dtype=np.int64),
        "ttl": np.empty(0, dtype=np.int64),
        "deflected": np.empty(0, dtype=bool),
        "flow": np.empty(0, dtype=np.int64),
        "uid": np.empty(0, dtype=np.int64),
    }


def _concat_batches(batches: List[Dict[str, np.ndarray]]) -> Dict[str, np.ndarray]:
    if not batches:
        return _empty_batch()
    return {
        k: np.concatenate([b[k] for b in batches]) for k in batches[0]
    }


def injection_batch(
    workload: EpochWorkload, injections: Sequence[Tuple[int, int]]
) -> Dict[str, np.ndarray]:
    """Array form of an ``iter_injections`` list (canonical order)."""
    if not injections:
        return _empty_batch()
    uid = np.array([u for u, _ in injections], dtype=np.int64)
    flow = np.array([f for _, f in injections], dtype=np.int64)
    flows = workload.flows
    return {
        "sw": np.array([flows[f].ingress for _, f in injections], np.int64),
        "in_port": np.array([flows[f].in_port for _, f in injections], np.int64),
        "ttl": np.array([flows[f].ttl for _, f in injections], np.int64),
        "deflected": np.zeros(len(injections), dtype=bool),
        "flow": flow,
        "uid": uid,
    }


def process_epoch_batch(
    core: EpochCore, batch: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """One epoch over *batch*: group per switch, drain each in one pass.

    The stable sort groups per-switch queues without perturbing arrival
    order (sender index, emission order) inside one.
    """
    sw = batch["sw"]
    if not len(sw):
        return _empty_batch()
    outputs: List[Dict[str, np.ndarray]] = []
    order = np.argsort(sw, kind="stable")
    sw_sorted = sw[order]
    bounds = np.nonzero(np.diff(sw_sorted))[0] + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(sw_sorted)]))
    for lo, hi in zip(starts, ends):
        sel = order[lo:hi]
        outputs.append(core.process_switch(
            int(sw_sorted[lo]),
            batch["flow"][sel],
            batch["ttl"][sel],
            batch["deflected"][sel],
            batch["in_port"][sel],
            batch["uid"][sel],
        ))
    return _concat_batches(outputs)


def run_epoch_vector(
    workload: EpochWorkload, trace: bool = False
) -> EpochOutcome:
    """The batch engine: one vectorized pass per switch per epoch."""
    core = EpochCore(workload, trace=trace)
    batch = _empty_batch()
    epoch = 0
    while epoch < workload.max_epochs and (
        len(batch["uid"]) > 0 or epoch < workload.inject_epochs
    ):
        core.apply_flips(workload.flips_at(epoch))
        inj = injection_batch(workload, iter_injections(workload, epoch))
        batch = process_epoch_batch(core, _concat_batches([batch, inj]))
        epoch += 1

    record = _finish_record(
        workload, epoch, core.switch_counters(),
        core.delivered, core.misdelivered, core.drop_reasons,
        int(len(batch["uid"])), core.rng_fragments(),
    )
    return EpochOutcome(
        record=record,
        fates=core.fates if trace else None,
        traces=(
            {k: tuple(v) for k, v in core.traces.items()} if trace else None
        ),
    )
