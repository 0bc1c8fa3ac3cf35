"""The differential oracles.

Each oracle takes a :class:`~repro.verify.cases.FuzzCase` and replays
it through two *independent* evaluations of the same semantics, then
diffs the outcomes:

* ``datapath`` — a full simulation on the production decision kernel
  (:mod:`repro.switches.deflection`) vs the same simulation with every
  switch deciding through the paper-pseudocode transcription
  (:mod:`repro.verify.pseudocode`): full outcome digest (per-switch
  counters, drop reasons, event counts, RNG stream positions) plus
  hop-by-hop per-packet traces.
* ``strategy`` — each deflection strategy's ``decide`` vs the same
  transcription, decision by decision on fuzzed switch states,
  including RNG stream identity.
* ``wire`` — the :mod:`repro.rns.wire` codec vs in-memory
  :class:`~repro.sim.packet.KarHeader` semantics: round trips, the
  encode/decode inverse pair on arbitrary bytes, truncation at every
  offset, and TTL decrement points against the core switch's expiry
  rule.
* ``walk`` — the event simulator's per-packet delivery/loop verdicts
  vs the pure-graph walk model
  (:func:`repro.analysis.walk.deterministic_strategy_walk`), for the
  controller's real route and a fuzzed route ID that wanders (walked
  under a table of no-deflection *transcriptions*, so the model shares
  no decision code with the simulator), and the stateful failover
  baselines (``ff``/``arb`` from :mod:`repro.baselines`, walked with
  the very strategy tables the simulator runs).
* ``vector`` — the vectorized epoch engine vs the scalar reference
  engine: records, digests, hop traces and terminal fates.
* ``backend`` — every registered encoder
  (:data:`repro.rns.backends.BACKEND_NAMES`) vs the reference
  semantics: encoder contract fuzzing, ``with_port`` mutation chains
  with identity steps, the integer ring held to the CRT definition
  itself, and XSR's full-sim walk-model equivalence.

Every oracle returns an :class:`OracleResult`; a non-empty
``divergences`` list means the two sides disagreed, and the attached
details say exactly where.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.walk import deterministic_strategy_walk
from repro.baselines import BASELINE_SCHEMES, plan_baseline_strategies
from repro.rns.crt import CrtError
from repro.rns.encoder import EncodedRoute, Hop
from repro.rns.wire import (
    WireError,
    decode_header,
    encode_header,
    header_wire_size,
)
from repro.runner import KarSimulation
from repro.sim.packet import KarHeader
from repro.switches.core import KarSwitch
from repro.switches.deflection import DeflectionStrategy, strategy_by_name
from repro.switches.edge import IngressEntry
from repro.topology.graph import NodeKind
from repro.verify.cases import FuzzCase, build_scenario
from repro.verify.pseudocode import PSEUDOCODE

__all__ = [
    "Divergence",
    "OracleResult",
    "ORACLE_NAMES",
    "PseudocodeStrategy",
    "check_datapaths",
    "check_strategy",
    "check_wire",
    "check_walk",
    "check_backend",
    "run_oracle",
    "run_case",
]

#: decision-fuzz trials per case in the strategy oracle.
_STRATEGY_TRIALS = 150

#: random headers per case in the wire oracle.
_WIRE_TRIALS = 80

#: fuzzed hop systems (each with a mutation chain) per ring per case in
#: the backend oracle.
_BACKEND_TRIALS = 40


@dataclass(frozen=True)
class Divergence:
    """One disagreement between an oracle's two sides."""

    oracle: str
    detail: str

    def to_record(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "detail": self.detail}


@dataclass
class OracleResult:
    """Outcome of one oracle over one case."""

    oracle: str
    checks: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def check(self, condition: bool, detail: Callable[[], str]) -> bool:
        """Count one comparison; record a divergence when it fails.

        *detail* is lazy so passing traces don't pay for formatting.
        """
        self.checks += 1
        if not condition:
            self.divergences.append(Divergence(self.oracle, detail()))
        return condition

    def to_record(self) -> Dict[str, Any]:
        return {
            "oracle": self.oracle,
            "checks": self.checks,
            "divergences": [d.to_record() for d in self.divergences],
        }


# ---------------------------------------------------------------------------
# (a) production decision kernel vs the paper pseudocode, whole simulations
# ---------------------------------------------------------------------------

class PseudocodeStrategy(DeflectionStrategy):
    """A switch that decides by the paper transcription, not the kernel."""

    def __init__(self, name: str, num_ports: int):
        self.name = name
        self._spec = PSEUDOCODE[name]
        self._num_ports = num_ports

    def decide(self, healthy, in_port, computed, deflected, rng):
        return self._spec(
            self._num_ports, frozenset(healthy), in_port, computed,
            deflected, rng,
        )


def _run_case_sim(
    case: FuzzCase,
    scenario,
    deflection,
    ttl: int,
    strategy_factory: Optional[Callable[[str], DeflectionStrategy]] = None,
) -> Tuple[KarSimulation, Any, Any]:
    ks = KarSimulation(
        scenario, deflection=deflection, protection="none",
        seed=case.seed, ttl=ttl, trace_paths=True,
        strategy_factory=strategy_factory,
    )
    src, sink = ks.add_udp_probe(
        rate_pps=case.rate_pps, duration_s=case.traffic_s
    )
    src.start(at=0.02)
    for a, b, at, repair in case.failures:
        ks.schedule_failure(a, b, at=at, repair_at=repair)
    ks.run(until=case.traffic_s + 1.5)
    return ks, src, sink


def _outcome_record(ks: KarSimulation, src, sink) -> Dict[str, Any]:
    """The full digestable outcome of one run — the bit-identical
    contract: counters, drop reasons, event order, RNG positions."""
    switches = {}
    rng_fp = hashlib.sha256()
    for info in sorted(ks.scenario.graph.nodes(NodeKind.CORE),
                       key=lambda i: i.name):
        sw = ks.network.node(info.name)
        assert isinstance(sw, KarSwitch)
        switches[info.name] = (sw.forwarded, sw.deflections, sw.drops)
        rng_fp.update(repr(sw._rng.getstate()).encode("utf-8"))
    return {
        "sent": src.sent,
        "received": sink.received,
        "events": ks.sim.events_processed,
        "drop_reasons": dict(sorted(ks.tracer.drop_reasons.items())),
        "switches": switches,
        "rng_fingerprint": rng_fp.hexdigest()[:16],
    }


def check_datapaths(case: FuzzCase) -> OracleResult:
    """Kernel DES vs pseudocode DES on the full case (oracle a)."""
    result = OracleResult("datapath")
    scenario = build_scenario(case)
    ks_spec, src, sink = _run_case_sim(
        case, scenario, case.strategy, case.ttl,
        strategy_factory=lambda switch: PseudocodeStrategy(
            case.strategy, scenario.graph.degree(switch)
        ),
    )
    spec = _outcome_record(ks_spec, src, sink)
    spec_paths = ks_spec.tracer._paths
    ks_kernel, src, sink = _run_case_sim(case, scenario, case.strategy, case.ttl)
    kernel = _outcome_record(ks_kernel, src, sink)
    kernel_paths = ks_kernel.tracer._paths

    for key in spec:
        result.check(
            kernel[key] == spec[key],
            lambda key=key: (
                f"outcome[{key}] differs: pseudocode={spec[key]!r} "
                f"kernel={kernel[key]!r}"
            ),
        )
    # Hop-by-hop digest: every packet must take the same ports with the
    # same deflected flags at the same times.  Packet uids come from a
    # process-global counter, so traces pair up in uid order.
    if result.check(
        len(kernel_paths) == len(spec_paths),
        lambda: (
            f"traced packet count differs: pseudocode={len(spec_paths)} "
            f"kernel={len(kernel_paths)}"
        ),
    ):
        for spec_uid, kernel_uid in zip(sorted(spec_paths), sorted(kernel_paths)):
            result.check(
                kernel_paths[kernel_uid] == spec_paths[spec_uid],
                lambda r=spec_uid, f=kernel_uid: (
                    f"hop trace differs for packet pair spec#{r}/kernel#{f}: "
                    f"pseudocode={spec_paths[r]!r} kernel={kernel_paths[f]!r}"
                ),
            )
    return result


# ---------------------------------------------------------------------------
# (b) strategy implementations vs paper pseudocode
# ---------------------------------------------------------------------------

def check_strategy(
    case: FuzzCase,
    strategy: Optional[DeflectionStrategy] = None,
) -> OracleResult:
    """Implementation vs pseudocode, decision by decision (oracle b).

    *strategy* overrides the case's strategy instance — the hook the
    harness's self-test uses to prove a mutated strategy is caught.
    """
    result = OracleResult("strategy")
    impl = strategy if strategy is not None else strategy_by_name(case.strategy)
    spec = PSEUDOCODE[case.strategy]
    rng = random.Random(f"verify-strategy-{case.seed}")
    for trial in range(_STRATEGY_TRIALS):
        num_ports = rng.randrange(2, 9)
        up = frozenset(
            p for p in range(num_ports) if rng.random() < 0.75
        )
        in_port = rng.randrange(num_ports)
        # R mod s ranges over the switch ID, which exceeds the degree,
        # so out-of-range computed ports are legal inputs.
        computed = rng.randrange(num_ports + 3)
        already_deflected = rng.random() < 0.5
        draw_seed = rng.getrandbits(32)

        state = (
            f"ports={num_ports} up={sorted(up)} in={in_port} "
            f"computed={computed} deflected={already_deflected} "
            f"draw_seed={draw_seed}"
        )

        rng_spec = random.Random(draw_seed)
        want = spec(
            num_ports, up, in_port, computed, already_deflected, rng_spec
        )

        rng_impl = random.Random(draw_seed)
        got = impl.decide(
            tuple(sorted(up)), in_port, computed, already_deflected, rng_impl
        )
        result.check(
            got == want,
            lambda s=state, g=got, w=want: (
                f"decide disagrees with pseudocode at {s}: "
                f"impl={g} paper={w}"
            ),
        )
        result.check(
            rng_impl.getstate() == rng_spec.getstate(),
            lambda s=state: (
                f"decide consumed a different RNG stream than the "
                f"pseudocode at {s}"
            ),
        )
    return result


# ---------------------------------------------------------------------------
# (c) wire codec vs in-memory header semantics
# ---------------------------------------------------------------------------

def _random_header(rng: random.Random) -> KarHeader:
    bits = rng.randrange(0, 80)
    route_id = rng.getrandbits(bits) if bits else 0
    ttl = rng.choice((0, 1, 255, rng.randrange(256)))
    modulus = 0
    if rng.random() < 0.5:
        modulus = route_id + 2 + rng.randrange(1000)
    return KarHeader(
        route_id=route_id, modulus=modulus,
        deflected=rng.random() < 0.5, ttl=ttl,
    )


def check_wire(case: FuzzCase) -> OracleResult:
    """Wire codec vs in-memory KarHeader semantics (oracle c)."""
    result = OracleResult("wire")
    rng = random.Random(f"verify-wire-{case.seed}")
    for trial in range(_WIRE_TRIALS):
        header = _random_header(rng)
        label = (
            f"rid={header.route_id} mod={header.modulus} "
            f"ttl={header.ttl} deflected={header.deflected}"
        )
        data = encode_header(header)

        # Round trip: every wire-carried field survives, trailing bytes
        # are untouched, and re-encoding is byte-identical.
        decoded, consumed = decode_header(data + b"payload")
        result.check(
            consumed == len(data)
            and decoded.route_id == header.route_id
            and decoded.ttl == header.ttl
            and decoded.deflected == header.deflected
            and decoded.modulus == 0,
            lambda l=label, d=decoded: (
                f"decode(encode(h)) mangled {l}: got rid={d.route_id} "
                f"ttl={d.ttl} deflected={d.deflected} mod={d.modulus}"
            ),
        )
        result.check(
            encode_header(decoded) == data,
            lambda l=label: f"encode(decode(encode(h))) != encode(h) for {l}",
        )
        if header.modulus >= 2:
            result.check(
                len(data) <= header_wire_size(header.modulus),
                lambda l=label, n=len(data): (
                    f"encoding of {l} is {n} bytes, above the "
                    f"header_wire_size worst case"
                ),
            )

        # Truncation at every byte offset must be detected, never
        # misparsed as a shorter valid header.
        truncation_ok = True
        for cut in range(len(data)):
            try:
                decode_header(data[:cut])
                truncation_ok = False
                break
            except WireError:
                pass
        result.check(
            truncation_ok,
            lambda l=label, c=cut: (
                f"decode accepted a {c}-byte truncation of {l}"
            ),
        )

        # TTL decrement points: walk the header through hops twice — as
        # wire bytes and as the in-memory header — applying the core
        # switch's arrival rule (drop when ttl <= 0, else decrement) to
        # both, and require them to agree at every point.
        mem = KarHeader(
            route_id=header.route_id, deflected=header.deflected,
            ttl=header.ttl,
        )
        wire = encode_header(mem)
        ttl_ok = True
        for hop in range(min(header.ttl + 2, 12)):
            dec, _ = decode_header(wire)
            if dec.ttl != mem.ttl or (dec.ttl <= 0) != (mem.ttl <= 0):
                ttl_ok = False
                break
            if mem.ttl <= 0:
                break
            mem.ttl -= 1
            dec.ttl -= 1
            wire = encode_header(dec)
            if encode_header(mem) != wire:
                ttl_ok = False
                break
        result.check(
            ttl_ok,
            lambda l=label, h=hop: (
                f"wire/in-memory TTL semantics diverge at hop {h} for {l}"
            ),
        )

        # Inverse pair on arbitrary bytes: decode either rejects a
        # mutated blob or parses it into a header whose canonical
        # encoding is exactly the bytes consumed.
        blob = bytearray(data)
        blob[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        blob = bytes(blob)
        try:
            parsed, used = decode_header(blob)
        except WireError:
            result.check(True, lambda: "")
        else:
            result.check(
                encode_header(parsed) == blob[:used],
                lambda l=label, b=blob.hex(): (
                    f"decode accepted mutated bytes {b} (from {l}) that "
                    f"do not re-encode to themselves"
                ),
            )
    return result


# ---------------------------------------------------------------------------
# (d) event simulator vs pure-graph walk model
# ---------------------------------------------------------------------------

def _fuzz_route_id(case: FuzzCase, graph) -> int:
    """A CRT-crafted wandering route ID.

    A uniformly random integer is a boring fuzz route: ``R mod s``
    lands outside the degree at the very first switch almost always
    (IDs are >= 23, degrees are small), so every packet dies on hop
    one.  Instead, solve the CRT system over the real switch IDs with
    per-switch residues drawn *mostly* in port range — the packet then
    genuinely wanders: misdeliveries, re-encodes, TTL expiry, and the
    occasional out-of-range drop all get exercised.
    """
    from repro.rns.crt import crt

    rng = random.Random(f"verify-walk-{case.seed}")
    moduli = []
    residues = []
    for info in sorted(graph.nodes(NodeKind.CORE), key=lambda i: i.name):
        moduli.append(info.switch_id)
        if rng.random() < 0.9:
            residues.append(rng.randrange(graph.degree(info.name)))
        else:
            residues.append(rng.randrange(info.switch_id))
    route_id, _ = crt(residues, moduli)
    return route_id


def _no_deflection_table(graph) -> Dict[str, DeflectionStrategy]:
    """Per-switch no-deflection strategies for the walk model.

    Built from the paper transcription, not ``NoDeflection``: the
    simulator side decides through the production kernel, so the two
    sides of the diff share no decision code.
    """
    return {
        info.name: PseudocodeStrategy("none", graph.degree(info.name))
        for info in graph.nodes(NodeKind.CORE)
    }


def _diff_static_run(
    result: OracleResult,
    label: str,
    case: FuzzCase,
    ks: KarSimulation,
    entry: IngressEntry,
    strategies: Dict[str, DeflectionStrategy],
    port_at: Optional[Callable[[int, int], int]] = None,
) -> None:
    """Run *ks* with the case's failures applied before traffic and
    diff every traced packet against the walk model's one verdict.

    The walk model has no clock, so the run is static and every packet
    must take the model's hops — deflection flags included — and meet
    its fate.  *entry* is the ingress entry the packets are stamped
    from, *strategies* the model's per-switch table.
    """
    scenario = ks.scenario
    graph = scenario.graph
    down = tuple({tuple(sorted((a, b))) for a, b, _, _ in case.failures})
    for a, b in down:
        ks.network.link_between(a, b).set_up(False)
    src, _ = ks.add_udp_probe(
        rate_pps=case.rate_pps, duration_s=case.traffic_s
    )
    src.start(at=0.01)
    ks.run(until=case.traffic_s + 2.0)
    sent, tracer = src.sent, ks.tracer

    def reencode(edge_name: str, dst: str):
        fresh = ks.controller.reencode(edge_name, dst)
        return None if fresh is None else (fresh.route_id, fresh.out_port)

    verdict = deterministic_strategy_walk(
        graph, strategies, entry.route_id, entry.ttl,
        graph.edge_of_host(scenario.src_host), entry.out_port,
        scenario.dst_host, down_links=down, reencode=reencode,
        port_at=port_at,
    )
    expected_hops = [
        (h.node, h.in_port, h.out_port, h.deflected) for h in verdict.hops
    ]
    predicted = f"{verdict.outcome}({verdict.node}, {verdict.reason})"
    drops_by_uid = {d.packet_uid: d for d in tracer.drops}
    uids = sorted(
        set(tracer._paths) | set(drops_by_uid) | set(tracer.deliveries)
    )
    result.check(
        len(uids) == sent,
        lambda: (
            f"[{label}] {sent} packets sent but {len(uids)} accounted for "
            f"in traces"
        ),
    )
    for uid in uids:
        got_hops = [
            (h.node, h.in_port, h.out_port, h.deflected)
            for h in tracer._paths.get(uid, [])
        ]
        result.check(
            got_hops == expected_hops,
            lambda u=uid, g=got_hops: (
                f"[{label}] packet #{u} hop trace differs from the walk "
                f"model: sim={g!r} model={expected_hops!r}"
            ),
        )
        if uid in tracer.deliveries:
            _, host = tracer.deliveries[uid]
            result.check(
                verdict.delivered and host == verdict.node,
                lambda u=uid, h=host: (
                    f"[{label}] packet #{u} delivered to {h} but the walk "
                    f"model predicted {predicted}"
                ),
            )
        else:
            drop = drops_by_uid.get(uid)
            result.check(
                drop is not None
                and not verdict.delivered
                and (drop.node, drop.reason) == (verdict.node, verdict.reason),
                lambda u=uid, d=drop: (
                    f"[{label}] packet #{u} sim fate "
                    f"{(d.node, d.reason) if d else 'lost'} differs from "
                    f"walk model {predicted}"
                ),
            )


def check_walk(case: FuzzCase) -> OracleResult:
    """Simulator verdicts vs the graph walk model (oracle d).

    Runs the case with the failures applied *statically* before
    traffic (the walk model has no clock), in four flavours, each
    diffed against :func:`~repro.analysis.walk.deterministic_strategy_walk`:
    the controller's real route and a fuzzed route ID that makes the
    packet wander through misdelivery re-encodes (both under
    no-deflection forwarding — production ``NoDeflection`` in the
    simulator, the transcription in the model), plus the two stateful
    failover baselines ``ff`` and ``arb`` (per-switch strategy tables
    installed through ``strategy_factory`` and walked over the *same*
    tables).  Every packet's hop-by-hop trace — deflection flags
    included — and final verdict must match the model's prediction.
    """
    result = OracleResult("walk")
    scenario = build_scenario(case)
    graph = scenario.graph
    ingress_edge = graph.edge_of_host(scenario.src_host)
    dst_edge = graph.edge_of_host(scenario.dst_host)
    for flavour in ("routed", "fuzzed") + BASELINE_SCHEMES:
        baseline = flavour in BASELINE_SCHEMES
        strategies = (
            plan_baseline_strategies(
                flavour, graph, scenario.primary_route, dst_edge
            )
            if baseline
            else _no_deflection_table(graph)
        )
        ks = KarSimulation(
            scenario, deflection="none", protection="none",
            seed=case.seed, ttl=case.ttl, trace_paths=True,
            strategy_factory=strategies.__getitem__ if baseline else None,
        )
        edge = ks.network.node(ingress_edge)
        entry = edge.ingress_entry(scenario.dst_host)
        assert entry is not None
        if flavour == "fuzzed":
            entry = IngressEntry(
                route_id=_fuzz_route_id(case, graph), modulus=0,
                out_port=entry.out_port, ttl=case.ttl, residues=None,
            )
            edge.install_ingress(scenario.dst_host, entry)
        _diff_static_run(result, flavour, case, ks, entry, strategies)
    return result


# ---------------------------------------------------------------------------
# (e) registered encoders vs the CRT definition / walk model
# ---------------------------------------------------------------------------

def _is_crt_solution(route: EncodedRoute, residues: Dict[int, int]) -> bool:
    """The integer CRT uniqueness definition, checked without a solver:
    ``0 <= R < M``, ``M`` the product of the route's switch IDs, and
    ``R mod s == p`` for every encoded hop."""
    route_id = route.route_id
    return (
        0 <= route_id < route.modulus == math.prod(residues)
        and all(route_id % s == p for s, p in residues.items())
        and route.residue_map() == residues
    )


def check_backend(case: FuzzCase) -> OracleResult:
    """Registered encoders vs the reference semantics (oracle e).

    Two layers:

    * **encoder contract** — for every name in
      :data:`~repro.rns.backends.BACKEND_NAMES`, fuzzed hop systems over
      a pool the ring accepts: ``decode(encode(hops))`` recovers every
      port, the advertised ``header_bits`` matches the route's own
      ``bit_length``, ``with_hop`` lands exactly where a fresh encode
      lands, ``without_switch`` inverts it, and a ``with_port`` mutation
      chain — identity steps and repeated switches included — equals a
      fresh encode of the mutated hops at every step, identity steps
      returning the route object itself.  Integer-ring routes must also
      satisfy the CRT definition itself (:func:`_is_crt_solution`), so
      the oracle does not lean on the solver it checks.
    * **XSR walk equivalence** — a full case run under ``xsr`` (the
      runner transparently re-IDs the graph onto the dual-coprime
      pool), diffed packet-by-packet against
      :func:`~repro.analysis.walk.deterministic_strategy_walk` under
      the no-deflection transcription table, driven by the encoder's
      own ``port_at`` — the same differential contract the ``walk``
      oracle pins on the integer datapath.
    """
    from repro.rns.backends import BACKEND_NAMES, backend_by_name
    from repro.rns.gf2 import dual_coprime_pool

    result = OracleResult("backend")
    scenario = build_scenario(case)
    rng = random.Random(f"verify-backend-{case.seed}")
    graph_ids = sorted(scenario.graph.switch_ids().values())

    for name in BACKEND_NAMES:
        enc = backend_by_name(name)
        try:
            enc.validate_switch_ids(graph_ids)
            ids_pool = list(graph_ids)
        except (ValueError, CrtError):
            # the graph's integer pool is infeasible for this ring
            # (XSR on non-GF(2)-coprime IDs) — fuzz on its native pool.
            ids_pool = dual_coprime_pool(max(len(graph_ids), 6))
        for trial in range(_BACKEND_TRIALS):
            k = rng.randrange(2, min(len(ids_pool), 8) + 1)
            ids = rng.sample(ids_pool, k)
            ports = [rng.randrange(enc.residue_space(s)) for s in ids]
            hops = [Hop(s, p) for s, p in zip(ids, ports)]
            label = f"[{name}] trial {trial}: system {list(zip(ports, ids))}"

            route = enc.encode(hops)
            result.check(
                enc.decode(route.route_id, ids) == ports
                and [route.port_at(s) for s in ids] == ports,
                lambda l=label, r=route: (
                    f"decode(encode(hops)) does not recover the ports at "
                    f"{l}: route={r!r}"
                ),
            )
            result.check(
                enc.header_bits(route.modulus) == route.bit_length,
                lambda l=label, r=route: (
                    f"header_bits({r.modulus}) disagrees with the route's "
                    f"bit_length {r.bit_length} at {l}"
                ),
            )
            if name == "crt":
                result.check(
                    _is_crt_solution(route, dict(zip(ids, ports))),
                    lambda l=label, g=route: (
                        f"integer encoder's route is not the CRT solution "
                        f"at {l}: encoder={g!r}"
                    ),
                )

            # Incremental with_hop must land where a fresh encode lands;
            # without_switch must invert it.
            want_shrunk = enc.encode(hops[:-1])
            grown = enc.with_hop(want_shrunk, hops[-1])
            result.check(
                (grown.route_id, grown.modulus)
                == (route.route_id, route.modulus),
                lambda l=label, g=grown, w=route: (
                    f"with_hop chain differs from fresh encode at {l}: "
                    f"chain={g!r} fresh={w!r}"
                ),
            )
            shrunk = enc.without_switch(grown, ids[-1])
            result.check(
                (shrunk.route_id, shrunk.modulus)
                == (want_shrunk.route_id, want_shrunk.modulus),
                lambda l=label, g=shrunk, w=want_shrunk: (
                    f"without_switch does not invert with_hop at {l}: "
                    f"got={g!r} want={w!r}"
                ),
            )

            # A with_port chain (possibly including identity steps) must
            # land exactly where a fresh encode of the mutated hops
            # lands, at every step.
            residues = dict(zip(ids, ports))
            current = route
            for step in range(rng.randrange(1, 5)):
                sid = rng.choice(ids)
                new_port = rng.randrange(enc.residue_space(sid))
                chain_label = (
                    f"{label} chain step {step}: switch {sid} -> port "
                    f"{new_port}"
                )
                previous = current
                current = enc.with_port(current, sid, new_port)
                if residues[sid] == new_port:
                    result.check(
                        current is previous,
                        lambda l=chain_label: (
                            f"identity mutation was not a same-object "
                            f"no-op at {l}"
                        ),
                    )
                residues[sid] = new_port
                want = enc.encode(Hop(s, p) for s, p in residues.items())
                result.check(
                    current == want
                    and current.residue_map() == residues
                    and (name != "crt" or _is_crt_solution(current, residues)),
                    lambda l=chain_label, g=current, w=want: (
                        f"with_port differs from a fresh encode at {l}: "
                        f"with_port={g!r} fresh={w!r}"
                    ),
                )

    # XSR: run the case statically (the walk model has no clock) and
    # diff the simulator against the pure-graph walk driven by the
    # encoder's own port_at.
    xsr = backend_by_name("xsr")
    ks = KarSimulation(
        scenario, deflection="none", protection="none",
        seed=case.seed, ttl=case.ttl, trace_paths=True, backend=xsr,
    )
    graph = ks.scenario.graph  # possibly the re-IDed deep copy
    edge = ks.network.node(graph.edge_of_host(ks.scenario.src_host))
    entry = edge.ingress_entry(ks.scenario.dst_host)
    assert entry is not None
    _diff_static_run(
        result, "xsr", case, ks, entry, _no_deflection_table(graph),
        port_at=xsr.port_at,
    )
    return result


# ---------------------------------------------------------------------------
# (f) epoch datapath: scalar reference engine vs vector
# ---------------------------------------------------------------------------

def vector_workload_spec(case: FuzzCase) -> Dict[str, Any]:
    """Map a fuzz case onto an epoch-model workload spec.

    Topology parameters carry over verbatim (the epoch builder runs the
    same seeded generator, so the core graph is identical); the
    continuous-time failure schedule quantizes onto epochs
    deterministically.
    """
    extra_flips: List[Tuple[int, str, str]] = []
    for i, (a, b, _at, repair) in enumerate(case.failures):
        fail_epoch = 1 + (i % 3)
        extra_flips.append((fail_epoch, a, b))
        if repair is not None:
            extra_flips.append((fail_epoch + 3, a, b))
    return {
        "kind": "synthetic",
        "num_switches": case.num_switches,
        "extra_links": case.extra_links,
        "min_switch_id": case.min_switch_id,
        "id_strategy": case.id_strategy,
        "seed": case.seed,
        "strategy": case.strategy,
        "flows": min(4, max(2, case.num_switches // 3)),
        "ttl": min(case.ttl, 48),
        "inject_per_epoch": 2,
        "inject_epochs": 4,
        "link_failures": 0,
        "fail_epoch": 0,
        "repair_epoch": None,
        "extra_flips": [list(f) for f in extra_flips],
    }


def check_vector(case: FuzzCase) -> OracleResult:
    """Vector epoch engine vs the reference engine.

    Decision-by-decision: full outcome records (counters, drop reasons,
    RNG fingerprints), record digests, per-packet hop traces (port and
    deflected flag at every hop) and terminal fates must all match the
    scalar reference run.
    """
    from repro.sim.vector import (
        build_workload,
        run_epoch_reference,
        run_epoch_vector,
    )

    result = OracleResult("vector")
    workload = build_workload(vector_workload_spec(case))
    ref = run_epoch_reference(workload, trace=True)
    out = run_epoch_vector(workload, trace=True)
    for key in ref.record:
        result.check(
            out.record[key] == ref.record[key],
            lambda key=key: (
                f"vector: record[{key}] differs: "
                f"reference={ref.record[key]!r} vector={out.record[key]!r}"
            ),
        )
    result.check(
        out.digest == ref.digest,
        lambda: (
            f"vector: digest differs: reference={ref.digest} "
            f"vector={out.digest}"
        ),
    )
    ref_traces = ref.traces or {}
    out_traces = out.traces or {}
    if result.check(
        sorted(out_traces) == sorted(ref_traces),
        lambda: (
            f"vector: traced uid sets differ: "
            f"reference={len(ref_traces)} vector={len(out_traces)}"
        ),
    ):
        for uid in sorted(ref_traces):
            result.check(
                out_traces[uid] == ref_traces[uid],
                lambda uid=uid: (
                    f"vector: hop trace differs for uid {uid}: "
                    f"reference={ref_traces[uid]!r} "
                    f"vector={out_traces[uid]!r}"
                ),
            )
    result.check(
        (out.fates or {}) == (ref.fates or {}),
        lambda: (
            f"vector: terminal fates differ "
            f"(reference={len(ref.fates or {})} fates, "
            f"vector={len(out.fates or {})})"
        ),
    )
    return result


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_ORACLES: Dict[str, Callable[..., OracleResult]] = {
    "datapath": check_datapaths,
    "strategy": check_strategy,
    "wire": check_wire,
    "walk": check_walk,
    "vector": check_vector,
    "backend": check_backend,
}

#: All oracle names, in stable order.
ORACLE_NAMES: Tuple[str, ...] = tuple(sorted(_ORACLES))


def run_oracle(
    name: str,
    case: FuzzCase,
    strategy: Optional[DeflectionStrategy] = None,
) -> OracleResult:
    """Run one oracle over one case.

    *strategy* (strategy oracle only) substitutes the implementation
    under test — used by the harness self-test to inject mutations.
    """
    try:
        fn = _ORACLES[name]
    except KeyError:
        raise ValueError(
            f"unknown oracle {name!r}; choose from {ORACLE_NAMES}"
        ) from None
    if name == "strategy":
        return fn(case, strategy=strategy)
    return fn(case)


def run_case(
    case: FuzzCase,
    oracles: Optional[Sequence[str]] = None,
) -> Dict[str, OracleResult]:
    """Run a case through the selected (default: all) oracles."""
    names = tuple(oracles) if oracles else ORACLE_NAMES
    return {name: run_oracle(name, case) for name in names}
