"""Epoch-batched forwarding: the million-packet datapath.

The DES engine (:mod:`repro.sim.engine`) prices every hop as a heap
event — exact, but bounded by Python per-event overhead.  This module
adds the ROADMAP's "million-packet datapath": an **epoch-quantized
forwarding model** in which every live packet advances exactly one
switch hop per epoch, and every in-flight packet of an epoch — across
all switches — takes that hop in one numpy pass over flat arrays (the
CPU analogue of the array-batched bulk provisioner in
:mod:`repro.controller.bulk`).

Two engines implement the *same* canonical model and must produce
bit-identical outcome records (digested with
:func:`repro.farm.jobs.record_digest`):

* :func:`run_epoch_reference` — the oracle.  A scalar loop over plain
  data: per-switch queue lists, one healthy-port tuple and one RNG
  stream per switch, and per packet per hop the big-int
  ``R mod switch_id`` followed by one
  :meth:`~repro.switches.deflection.DeflectionStrategy.decide` call.
* :func:`run_epoch_vector` — the batch engine.  Per epoch, one stable
  sort on the switch index puts every in-flight run (below) in (switch,
  queue) order; ``R mod switch_id`` is one gather from a dense
  ``residue[switch, flow]`` table (seeded by
  :meth:`~repro.rns.encoder.EncodedRoute.residue_map`, big-int modulo
  only per missed pair), port state and next hop are gathers from
  ``[n, max_degree]`` tables, the strategy's
  :meth:`~repro.switches.deflection.DeflectionStrategy.happy_mask`
  is one mask, and the fallback minority never reaches ``decide``
  either: :meth:`~repro.switches.deflection.DeflectionStrategy.fallback_ports`
  gives each run's candidate count, and :class:`_ChoiceWords`
  restates ``random.choice`` over arrays of raw MT19937 words read
  ahead in bulk from each switch's stream — the same words in the same
  queue order, so every draw (a run's, one per packet) is the
  reference's draw.  Index widths come
  from the workload's sizes (int16 below 2**15 nodes / switch IDs).

Canonical model (shared by both engines).  The vector engine's batch
row is a *run* of identical packets, one flow's injections of one epoch;
that changes the representation, not the model.  A run's packets decide
alike and stay adjacent in every queue (by rule 3: they leave a switch
one after another on one port) until they draw fallback ports, one draw
per packet, and split into a row each:

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
reasons, delivery/misdelivery tallies, and a fingerprint over the
32-bit words each switch's stream handed out — a stream is a pure
function of (seed, name), so that count *is* its final position) is the
bit-identical contract: equal digests mean both engines made the same
decisions AND the same random draws.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import (
    Any,
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
    "synthetic_spec",
    "build_workload",
    "run_epoch_reference",
    "run_epoch_vector",
    "iter_injections",
    "merge_rng_fragments",
]

#: (epoch, a, b) — toggle the a-b link's state at the start of *epoch*.
FlipEvent = Tuple[int, str, str]


def merge_rng_fragments(fragments: Sequence[Tuple[str, str]]) -> str:
    """Combine per-switch ``(name, words drawn)`` fragments (name order)
    into one fingerprint."""
    h = hashlib.sha256()
    for name, frag in sorted(fragments):
        h.update(f"{name}:{frag};".encode("utf-8"))
    return h.hexdigest()[:16]


def _narrow_int(limit: int) -> type:
    """Narrowest signed dtype (16 bits up) holding -1 and all of range(limit)."""
    if limit <= 2**15:
        return np.int16
    return np.int32 if limit <= 2**31 else np.int64


class EpochTopology:
    """Dense ``[n, max_degree]`` port maps for the epoch model.

    Built once from a :class:`PortGraph` via the CSR snapshot: for node
    ``u`` and port ``p``, ``peer[u][p]`` is the neighbor's node index
    and ``peer_port[u][p]`` the port **on the neighbor** facing ``u``
    (the arriving packet's input port); columns past ``degree[u]`` hold
    -1.  Node indices are name-sorted ranks, matching
    :class:`~repro.topology.csr.CsrTopology`.
    """

    def __init__(self, graph: PortGraph):
        csr = CsrTopology.from_graph(graph)
        self.names: Tuple[str, ...] = csr.names
        self.index: Dict[str, int] = csr.index
        self.n = csr.n
        self.core_mask = csr.core_mask
        self.switch_ids = csr.switch_ids
        self.core_indices: Tuple[int, ...] = tuple(
            np.nonzero(csr.core_mask)[0].tolist()
        )
        degree = np.diff(csr.indptr)
        self.degree: Tuple[int, ...] = tuple(degree.tolist())
        width = int(degree.max(initial=0))
        shape, dtype = (self.n, width), _narrow_int(max(self.n, width))
        rows = np.repeat(np.arange(self.n), degree)
        self.peer = np.full(shape, -1, dtype=dtype)
        self.peer[rows, csr.ports_out] = csr.indices
        self.peer_port = np.full(shape, -1, dtype=dtype)
        self.peer_port[rows, csr.ports_out] = csr.ports_back
        self.peer.setflags(write=False)
        self.peer_port.setflags(write=False)
        #: link key (sorted names) -> (u, port_on_u, v, port_on_v)
        self.links: Dict[Tuple[str, str], Tuple[int, int, int, int]] = {}
        for link in graph.links():
            u, v = self.index[link.a], self.index[link.b]
            self.links[link.key] = (u, link.a_port, v, link.b_port)


@dataclass(frozen=True)
class EpochFlow:
    """One provisioned flow: a constant route ID entering at one switch.

    ``residues`` is the encode-time hint
    (:meth:`~repro.rns.encoder.EncodedRoute.residue_map`) the vector
    engine seeds its residue table from, taking the big-int
    ``route_id % switch_id`` once per (flow, switch) pair a packet
    reaches outside it.  The reference engine ignores the hint and
    takes the modulo per packet per hop, so a wrong hint is a digest
    mismatch (and one outside ``range(switch_id)`` a ``ValueError``).
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
        # Bad input would otherwise surface mid-run as a bare KeyError or
        # IndexError (unknown link, ingress that is no core switch), never
        # apply at all (negative epoch or count) — or, in the flat kernel,
        # forward from an edge node or truncate a float TTL without
        # complaint; "NIP" would run as "nip" under a second digest.
        topo = self.topo
        strategy_by_name(self.strategy)
        if self.inject_per_epoch < 0 or self.inject_epochs < 0:
            raise ValueError(
                f"inject_per_epoch={self.inject_per_epoch!r} and "
                f"inject_epochs={self.inject_epochs!r} must be >= 0"
            )
        is_core = topo.core_mask.tolist()
        for i, flow in enumerate(self.flows):
            try:
                ok = (
                    0 <= flow.ingress < topo.n and is_core[flow.ingress]
                    and 0 <= flow.egress < topo.n and not is_core[flow.egress]
                    and 0 <= flow.in_port < topo.degree[flow.ingress]
                    and isinstance(flow.ttl, int)
                )
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(
                    f"bad flow #{i} (ingress={flow.ingress!r}, in_port="
                    f"{flow.in_port!r}, egress={flow.egress!r}, ttl="
                    f"{flow.ttl!r}): want a core-switch index, one of its "
                    f"ports, an edge index, an int ttl"
                )
        by_epoch: Dict[int, List[Tuple[str, str]]] = {}
        for flip in self.flips:
            try:
                epoch, a, b = flip
                key = (min(a, b), max(a, b))
                ok = isinstance(epoch, int) and epoch >= 0 and key in topo.links
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(
                    f"bad flip {flip!r}: want (epoch >= 0, a, b) with a-b "
                    f"a link of the topology"
                )
            by_epoch.setdefault(epoch, []).append(key)
        # Bucketed once here, not rescanned and re-sorted every epoch.
        object.__setattr__(self, "_flips_by_epoch", {
            epoch: tuple(sorted(keys)) for epoch, keys in by_epoch.items()
        })

    @property
    def injected_total(self) -> int:
        return len(self.flows) * self.inject_per_epoch * self.inject_epochs

    def flips_at(self, epoch: int) -> Tuple[Tuple[str, str], ...]:
        """Link keys toggling at *epoch*, in sorted key order."""
        return self._flips_by_epoch.get(epoch, ())


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


def build_workload(spec: Mapping[str, Any]) -> EpochWorkload:
    """Build the workload a :func:`synthetic_spec` record describes:
    random connected core + one edge node per flow endpoint.

    Everything is a pure function of the spec: topology (seeded
    generator), flow endpoint choice (its own derived stream), routes
    (deterministic shortest paths + CRT encode) and the failure
    schedule (links on flow 0's route, innermost first).
    """
    if spec.get("kind") != "synthetic":
        raise ValueError(
            f"unknown workload kind {spec.get('kind')!r}; "
            f"the one kind is 'synthetic'"
        )
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

class _CountingRandom(random.Random):
    """Stream *name*, seeded as :meth:`RngRegistry.stream` seeds it, that
    counts the 32-bit words it hands out.  ``choice`` is unchanged:
    CPython routes ``_randbelow`` through an overriding ``getrandbits``."""

    def __init__(self, seed: int, name: str):
        digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
        super().__init__(int.from_bytes(digest[:8], "big"))
        self.words = 0

    def getrandbits(self, k: int) -> int:
        self.words += (k + 31) // 32
        return super().getrandbits(k)


def run_epoch_reference(
    workload: EpochWorkload, trace: bool = False
) -> EpochOutcome:
    """The oracle: the canonical model, packet by packet, on plain data."""
    topo = workload.topo
    names = topo.names
    flows = workload.flows
    strategy = strategy_by_name(workload.strategy)
    no_port = f"no-usable-port({strategy.name})"
    core = topo.core_indices
    rngs = {
        u: _CountingRandom(workload.seed, f"deflect:{names[u]}") for u in core
    }
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
        [(names[u], str(rng.words)) for u, rng in rngs.items()],
    )
    return EpochOutcome(
        record=record,
        fates=fates,
        traces={k: tuple(v) for k, v in hops.items()} if trace else None,
    )


# ---------------------------------------------------------------------------
# vector engine: one numpy pass over every in-flight packet per epoch
# ---------------------------------------------------------------------------

def _residue_table(workload: EpochWorkload) -> np.ndarray:
    """Flat ``table[core_rank * flows + flow]`` of ``R mod switch_id``.

    Seeded from the flows' encode-time hints; -1 marks a pair no hint
    covers, which the engine fills by big-int modulo on first touch.
    """
    topo = workload.topo
    n_flows = len(workload.flows)
    ids = topo.switch_ids[topo.core_mask]
    rank_of = np.full(int(ids.max(initial=0)) + 1, -1, dtype=np.intp)
    rank_of[ids] = np.arange(len(ids))
    hints = [flow.residues or {} for flow in workload.flows]
    flow = np.repeat(np.arange(n_flows), [len(h) for h in hints])
    size = len(flow)
    sid = np.fromiter(itertools.chain.from_iterable(hints), np.int64, size)
    r = np.fromiter(
        itertools.chain.from_iterable(h.values() for h in hints),
        np.int64, size,
    )
    ours = (sid >= 0) & (sid < len(rank_of))  # foreign IDs are ignored
    rank = np.full(size, -1, dtype=np.intp)
    rank[ours] = rank_of[sid[ours]]
    ours = rank >= 0
    bad = np.flatnonzero(ours & ((r < 0) | (r >= sid)))
    if len(bad):
        i = bad[0]
        raise ValueError(
            f"bad residue hint {int(r[i])!r} on flow #{flow[i]} for switch "
            f"{topo.names[topo.core_indices[rank[i]]]}: want "
            f"0 <= r < switch_id {sid[i]}"
        )
    table = np.full(
        len(ids) * n_flows, -1, dtype=_narrow_int(int(ids.max(initial=0)))
    )
    table[rank[ours] * n_flows + flow[ours]] = r[ours]
    return table


def _rank_ports(up: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Per row of port-up bits: how many ports are up, the ``k``-th up
    port (ascending, down ports after), and the up ports below each."""
    below = np.cumsum(up, axis=-1) - up
    return up.sum(axis=-1), np.argsort(~up, axis=-1, kind="stable"), below


#: Words read ahead per stream: one ``[streams, CAP]`` uint32 table, 0.75
#: MiB on synthwan754, whose storm streams use ~400 words each (1,024 read
#: 3.0x the words used, 256 reads 1.4x).  A size, not a knob: any value
#: >= 8 draws the same.
CAP = 256


class _ChoiceWords:
    """``random.choice``'s index draws, restated once over arrays.

    CPython's ``rng.choice(seq)`` is ``seq[rng._randbelow(n)]``:
    ``r = getrandbits(n.bit_length())`` until ``r < n``, and
    ``getrandbits(k <= 32)`` is the top ``k`` bits of one MT19937 word
    (3.10 through 3.12; tier-1 holds this on each).  So the ``j``-th of
    ``m`` equal-``n`` draws on a stream is its ``j``-th word to pass
    ``word >> (32 - k) < n``.

    The words are CPython's own: each stream is created on its first draw
    (by :class:`RngRegistry`) and read ahead in bulk, all in C.  Reading
    too far ahead is harmless: ``_used`` counts the words the draws took,
    which is where the scalar stream would stand.
    """

    def __init__(self, seed: int, stream_names: Sequence[str]):
        self._registry = RngRegistry(seed)  # creates a stream on first use
        self._names = stream_names
        self._words = np.empty((len(stream_names), CAP), dtype=np.uint32)
        #: next unread word of each row; CAP = nothing read ahead (yet).
        self._pos = np.full(len(stream_names), CAP)
        self._used = np.zeros(len(stream_names), dtype=np.int64)

    def _refill(self, row: int) -> None:
        """Slide *row*'s unread words to the front, read ahead to CAP."""
        pos = int(self._pos[row])
        words = self._words[row]
        words[:CAP - pos] = words[pos:]
        rng = self._registry.stream(self._names[row])
        words[CAP - pos:] = np.frombuffer(
            rng.getrandbits(32 * pos).to_bytes(4 * pos, "little"), "<u4"
        )
        self._pos[row] = 0

    def draw(self, stream: np.ndarray, n: np.ndarray) -> np.ndarray:
        """``_randbelow(n[i])`` on ``stream[i]``, for draws listed in
        (stream, draw order) and every ``n >= 1``."""
        out = np.empty(len(stream), dtype=np.intp)
        # Runs of equal (stream, n) share one acceptance test; a stream's
        # runs go one per round, each starting where the last stopped.
        first = np.ones(len(stream), dtype=bool)
        first[1:] = (stream[1:] != stream[:-1]) | (n[1:] != n[:-1])
        start = np.flatnonzero(first)
        left = np.diff(np.append(start, len(stream)))
        stream, n = stream[start], n[start]
        shift = (32 - np.frexp(n)[1]).astype(np.uint32)  # 32 - n.bit_length()
        below = n.astype(np.uint32) << shift  # word >> shift < n, unshifted
        table = self._words.ravel()
        live = np.flatnonzero(left)
        while len(live):
            rows = stream[live]
            head = live[np.append(True, rows[1:] != rows[:-1])]
            rows, want = stream[head], left[head]
            # Acceptance is >= 1/2: 2m words serve m draws on average.  A
            # window that falls short is consumed whole; the run goes on.
            width = np.minimum(2 * want + 6, CAP)
            for row in rows[self._pos[rows] + width > CAP].tolist():
                self._refill(row)
            at = np.cumsum(width) - width
            run = np.repeat(np.arange(len(head)), width)
            word = table[
                (rows * CAP + self._pos[rows] - at)[run] + np.arange(len(run))
            ]
            ok = word < below[head][run]
            seen = np.cumsum(ok)
            base = seen[at] - ok[at]  # acceptances before each window
            # Read: every word up to the want-th acceptance, inclusive.
            read = seen - ok < (base + want)[run]
            ok &= read
            hit = np.flatnonzero(ok)
            of = run[hit]
            out[seen[hit] + (start[head] - base - 1)[of]] = (
                word[hit] >> shift[head][of]
            )
            served = np.add.reduceat(ok, at, dtype=np.intp)
            words = np.add.reduceat(read, at, dtype=np.intp)
            self._pos[rows] += words
            self._used[rows] += words
            start[head] += served
            left[head] -= served
            live = live[left[live] > 0]
        return out


def run_epoch_vector(
    workload: EpochWorkload, trace: bool = False
) -> EpochOutcome:
    """The batch engine: one pass over all in-flight packets per epoch."""
    topo = workload.topo
    names, n = topo.names, topo.n
    flows = workload.flows
    n_flows = len(flows)
    per_flow = workload.inject_per_epoch
    strategy = strategy_by_name(workload.strategy)
    no_port = f"no-usable-port({strategy.name})"
    core = topo.core_indices
    choice = _ChoiceWords(workload.seed, [f"deflect:{names[u]}" for u in core])
    width = topo.peer.shape[1]
    node_t = topo.peer.dtype
    up = np.arange(width) < np.array(topo.degree)[:, None]
    up_flat = up.ravel()  # a view: flips show through
    # A fallback candidate index -> port: the k-th up port, stepping
    # over the in-port where the technique skips it.
    up_ports, kth_up, up_below = _rank_ports(up)
    peer, peer_port = topo.peer.ravel(), topo.peer_port.ravel()
    is_core = topo.core_mask
    core_rank = np.cumsum(is_core) - 1
    residue = _residue_table(workload)
    route_ids = np.array([f.route_id for f in flows], dtype=object)
    switch_ids = topo.switch_ids[is_core].astype(object)
    egress = np.array([f.egress for f in flows], dtype=node_t)
    # counters[u] = [forwarded, deflections, drops]; float64, as the
    # packet-count-weighted bincounts return them (exact below 2**53).
    counters = np.zeros((n, 3))
    misdelivered = np.zeros(n)
    delivered = n_expired = n_no_port = 0
    fates: Optional[Dict[int, Tuple[Any, ...]]] = {} if trace else None
    hops: Optional[Dict[int, List[Tuple[Any, ...]]]] = {} if trace else None

    # The batch is parallel columns (switch, flow, ttl, sticky deflected
    # bit, in-port, packet count and, only when tracing, the first uid),
    # one row per run of identical packets.  One epoch's injections are
    # one run per flow, in flow order, with consecutive uids:
    inj_flow = np.arange(
        n_flows if per_flow else 0, dtype=_narrow_int(n_flows)
    )
    ttls = [f.ttl for f in flows]
    ttl_t = _narrow_int(max(map(abs, ttls), default=0) + 1)
    inject = [
        np.array([f.ingress for f in flows], dtype=node_t)[inj_flow],
        inj_flow,
        np.array(ttls, dtype=ttl_t)[inj_flow],
        np.zeros(len(inj_flow), dtype=bool),
        np.array([f.in_port for f in flows], dtype=node_t)[inj_flow],
        np.full(len(inj_flow), per_flow, dtype=_narrow_int(per_flow + 1)),
    ]
    if trace:
        inject.append(np.arange(len(inj_flow)) * per_flow)
    batch = [col[:0] for col in inject]

    epoch = 0
    while epoch < workload.max_epochs and (
        len(batch[0]) > 0 or epoch < workload.inject_epochs
    ):
        flipped: List[int] = []
        for key in workload.flips_at(epoch):
            u, pu, v, pv = topo.links[key]
            up[u, pu] ^= True
            up[v, pv] ^= True
            flipped += (u, v)
        if flipped:
            up_ports[flipped], kth_up[flipped], up_below[flipped] = (
                _rank_ports(up[flipped])
            )
        if epoch < workload.inject_epochs:
            # Injections queue after carried-over arrivals.
            batch = [np.concatenate(pair) for pair in zip(batch, inject)]
            if trace:
                inject[-1] = inject[-1] + n_flows * per_flow
        # Carried arrivals are in (sender index, emission order), so one
        # stable sort on the switch index yields every queue in order;
        # a run's packets leave a switch together on one port, so they
        # stay adjacent in every queue.
        order = np.argsort(batch[0], kind="stable")
        batch = [col[order] for col in batch]
        sw, flow, ttl, deflected, in_port, count = batch[:6]
        uid = batch[6] if trace else None
        row = sw.astype(np.intp)
        counters[:, 0] += np.bincount(row, count, minlength=n)

        computed = residue[core_rank[row] * n_flows + flow]
        missed = np.nonzero(computed < 0)[0]
        if len(missed):
            slot = core_rank[row[missed]] * n_flows + flow[missed]
            fill = np.unique(slot)
            residue[fill] = (
                route_ids[fill % n_flows] % switch_ids[fill // n_flows]
            )
            computed[missed] = residue[slot]
        row *= width
        in_range = computed < width
        out_port = np.where(in_range, computed, 0).astype(node_t, copy=False)
        usable = in_range & up_flat[row + out_port]
        alive = ttl > 0
        forward = alive & strategy.happy_mask(
            usable, in_port, computed, deflected
        )
        # The per-hop decision flag (what the tracer records) is not
        # the sticky deflected bit: a happy-path hop traces False even
        # for a packet deflected upstream.
        hop_deflected = np.zeros(len(sw), dtype=bool)
        # The fallback minority, already in (switch, queue) order, draws
        # a candidate index per packet — the reference engine's
        # rng.choice; a run's packets draw one after another.
        fallback = np.nonzero(alive & ~forward)[0]
        ports = None
        if len(fallback):
            at, own = sw[fallback], in_port[fallback]
            ways, skip = strategy.fallback_ports(up_ports[at], up[at, own])
            drawn = np.nonzero(ways)[0]  # no candidate: a drop, no draw
            moved = fallback[drawn]
            each = np.repeat(drawn, count[moved])
            at, own = at[each], own[each]
            index = choice.draw(core_rank[at], ways[each])
            index += skip[each] & (index >= up_below[at, own])
            ports = kth_up[at, index]
            forward[moved] = True
            hop_deflected[moved] = True
            deflected[moved] = True
            counters[:, 1] += np.bincount(sw[moved], count[moved], minlength=n)
        # Whatever is not forwarded is a drop: out of TTL, or out of ports.
        lost = np.nonzero(~forward)[0]
        if len(lost):
            runs = count[lost]
            drops = np.bincount(sw[lost], runs, minlength=n)
            counters[:, 0] -= drops
            counters[:, 2] += drops
            stuck = int(runs[alive[lost]].sum())
            n_no_port += stuck
            n_expired += int(runs.sum()) - stuck
            if trace:
                for i, c, u, live in zip(
                    uid[lost].tolist(), runs.tolist(), sw[lost].tolist(),
                    alive[lost].tolist(),
                ):
                    for k in range(i, i + c):
                        fates[k] = (
                            "dropped", names[u],
                            no_port if live else "ttl-expired",
                        )

        # Expanded row -> batch row, once each drawn run (the rows
        # hop_deflected marks) has split in place into one row per
        # packet.  Only the columns read below expand; ttl and the
        # deflected bit ride the onward gather.
        take = None
        if ports is not None and len(ports) > len(moved):
            reps = np.where(hop_deflected, count, 1)
            take = np.repeat(np.arange(len(sw)), reps)
            hop_deflected, count = hop_deflected[take], count[take]
            count[hop_deflected] = 1
            row, out_port, forward, flow = (
                row[take], out_port[take], forward[take], flow[take]
            )
            if trace:
                first = np.cumsum(reps) - reps
                sw, in_port = sw[take], in_port[take]
                uid = uid[take] + np.arange(len(take)) - first[take]
        if ports is not None:
            out_port[hop_deflected] = ports
        row += out_port
        nxt = peer[row]
        onward = forward & is_core[nxt]
        done = np.nonzero(forward & ~onward)[0]
        if len(done):
            edge = nxt[done]
            ok = edge == egress[flow[done]]
            runs = count[done]
            delivered += int(runs[ok].sum())
            misdelivered += np.bincount(edge[~ok], runs[~ok], minlength=n)
            if trace:
                for i, c, v, good in zip(
                    uid[done].tolist(), runs.tolist(), edge.tolist(),
                    ok.tolist(),
                ):
                    for k in range(i, i + c):
                        fates[k] = (
                            "delivered" if good else "misdelivered", names[v]
                        )
        if trace:
            for i, c, u, p, q, flag in zip(
                uid[forward].tolist(), count[forward].tolist(),
                sw[forward].tolist(), in_port[forward].tolist(),
                out_port[forward].tolist(), hop_deflected[forward].tolist(),
            ):
                for k in range(i, i + c):
                    hops.setdefault(k, []).append((names[u], p, q, flag))
        keep = np.nonzero(onward)[0]
        src = keep if take is None else take[keep]
        batch = [
            nxt[keep], flow[keep], ttl[src] - 1, deflected[src],
            peer_port[row[keep]], count[keep],
        ]
        if trace:
            batch.append(uid[keep])
        epoch += 1

    tallies = counters.astype(np.int64).tolist()
    record = _finish_record(
        workload, epoch, {names[u]: tallies[u] for u in core}, delivered,
        {names[v]: int(misdelivered[v]) for v in np.nonzero(misdelivered)[0]},
        {
            reason: count for reason, count in
            (("ttl-expired", n_expired), (no_port, n_no_port)) if count
        },
        int(batch[5].sum()),
        [(names[u], str(w)) for u, w in zip(core, choice._used.tolist())],
    )
    return EpochOutcome(
        record=record,
        fates=fates,
        traces={k: tuple(v) for k, v in hops.items()} if trace else None,
    )
