"""``wan754-coldstart``: GML text to first delivered packets.

What a controller restart pays.  Every repeat starts from the committed
fixture's *text* and reuses no object: ingest, edge attachment,
route-frequency weights, weighted switch-ID assignment, the full
ingress x egress mesh through the bulk provisioner, its digest, then
2,000 seeded flows stamped from the memoised destination blocks and
their first packets forwarded to delivery.  The control plane does
nearly all the work; the datapath forwards one packet per flow.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time
from typing import Any, Dict, List, Tuple

from repro.controller.bulk import BulkProvisioner, DestinationBlock, mesh_digest
from repro.controller.idassign import reassign_switch_ids, route_frequency_weights
from repro.rns import route_id_bit_length
from repro.rns.crt import crt_extend
from repro.sim.vector import EpochFlow, EpochTopology, EpochWorkload, run_epoch_vector
from repro.topology import NodeKind
from repro.topology.csr import CsrTopology, destination_tree_arrays
from repro.topology.generators import attach_edges
from repro.topology.zoo import graph_from_gml, parse_gml, zoo_fixture_path

import checks
from harness import (
    SIM_SEED, TTL, GraphCopy, Laps, Ops, Repeat, Tracer, group_by_dst,
    seeded_pairs,
)

#: Destinations per timed slice of the mesh (754 -> 26 slices of ~60 ms).
MESH_CHUNK = 29


class Coldstart:
    name = "wan754-coldstart"
    work_unit = "mesh routes"
    #: calibrated length of one repeat on the 2-core box; fixes the
    #: repeat count for a given ``--seconds`` so op counts repeat.
    nominal_repeat_s = 3.6

    def __init__(self, seed: int, quick: bool, tracer: Tracer, ops: Ops):
        self.seed = seed
        self.tracer = tracer
        self.ops = ops
        self.fixture = "abilene" if quick else "synthwan754"
        self.flow_count = 40 if quick else 2000
        self.check_every = 4 if quick else 64
        self._last: Dict[str, Any] = {}
        self._bits: List[int] = []

    def sizes(self) -> Dict[str, Any]:
        return {"fixture": self.fixture, "flows": self.flow_count,
                "decode_every": self.check_every, "ttl": TTL}

    # ------------------------------------------------------------------
    def setup(self) -> None:
        with open(zoo_fixture_path(self.fixture), encoding="utf-8") as fh:
            self.text = fh.read()
        # Edge names are an input (which pairs carry flows); a throwaway
        # ingest supplies them without handing any object to a repeat.
        scratch = graph_from_gml(self.text)
        edges = attach_edges(scratch)
        self.pairs = seeded_pairs(
            random.Random(f"e2e-flows:{self.seed}"), edges, self.flow_count
        )

    # ------------------------------------------------------------------
    def repeat(self) -> Repeat:
        span = self.tracer.span
        laps = Laps()
        with span("repeat"):
            with span("topology.graph_from_gml"):
                graph = graph_from_gml(self.text)
            laps.mark()
            with span("topology.attach_edges"):
                attach_edges(graph)
            laps.mark()
            with span("controller.idassign.weights"):
                weights = route_frequency_weights(graph)
            laps.mark()
            with span("controller.idassign.assign"):
                reassign_switch_ids(graph, "weighted", weights=weights)
            laps.mark()
            with span("controller.bulk.init"):
                bulk = BulkProvisioner(graph)
            laps.mark()
            with span("controller.bulk.mesh_rows"):
                # iter_full_mesh(), a slice per MESH_CHUNK destinations.
                rows = []
                for i, dst in enumerate(bulk.edge_names, start=1):
                    rows.append(bulk.mesh_row(dst))
                    if i % MESH_CHUNK == 0:
                        laps.mark()
            laps.mark()
            with span("controller.bulk.digest"):
                _program_digest, route_count = mesh_digest(rows)
            laps.mark()
            with span("controller.bulk.stamp"):
                stamped = {}
                for dst, srcs in group_by_dst(self.pairs).items():
                    for src, route in bulk.routes_for(dst, srcs).items():
                        stamped[(src, dst)] = route
            laps.mark()
            with span("sim.vector.first_packet"):
                topo = EpochTopology(graph)
                flows = tuple(
                    EpochFlow(
                        route_id=r.route.route_id,
                        residues=dict(r.route.residue_map()),
                        ingress=topo.index[r.node_path[1]],
                        in_port=graph.port_of(r.node_path[1], r.src_edge),
                        egress=topo.index[r.dst_edge],
                        ttl=TTL,
                    )
                    for r in (stamped[p] for p in self.pairs)
                )
                outcome = run_epoch_vector(EpochWorkload(
                    topo=topo, flows=flows, inject_per_epoch=1,
                    inject_epochs=1, max_epochs=TTL + 4, seed=SIM_SEED,
                    strategy="nip", flips=(), spec={},
                ))
            laps.mark()

        record = outcome.record
        h = hashlib.sha256()
        for row in rows:
            h.update(row.dst_edge.encode())
            h.update(";".join(
                f"{s}={rid}/{mod}@{port}" for s, rid, mod, port in zip(
                    row.src_edges, row.route_ids, row.moduli,
                    row.out_ports.tolist(),
                )
            ).encode())
        h.update(repr((
            record["epochs"], record["injected"], record["delivered"],
            sorted(record["misdelivered"].items()),
            sorted(record["drop_reasons"].items()), record["hops"],
            record["live_at_end"],
        )).encode())

        self._last = {"graph": graph, "rows": rows, "record": record,
                      "stamped": stamped}
        return Repeat(
            slices=laps.times, work=float(route_count),
            digest=h.hexdigest(),
            facts={
                "routes": route_count,
                "trees_built": bulk.trees_built,
                "block_hits": bulk.block_hits,
            },
        )

    # ------------------------------------------------------------------
    def check(self, rep: Repeat) -> None:
        """(a) every Nth mesh route decodes to its destination on the
        benchmark's copy of this repeat's graph; (b) the first-packet
        epoch conserves packets and delivers all of them."""
        last, self._last = self._last, {}
        copy = GraphCopy(last["graph"])
        index = 0
        # Header bits over the whole mesh: once is enough, later repeats
        # are held to the first one's digest.
        want_bits = not self._bits
        every = self.check_every
        for row in last["rows"]:
            ports = row.out_ports.tolist()
            count = len(row.src_edges)
            for i in range(-index % every, count, every):
                checks.check_route_reaches(
                    copy, row.src_edges[i], row.dst_edge, ports[i],
                    row.route_ids[i], self.ops,
                )
            index += count
            if want_bits:
                self._bits.extend(route_id_bit_length(m) for m in row.moduli)
        for route in last["stamped"].values():
            checks.check_route_follows(
                copy, route.node_path, route.out_port,
                route.route.route_id, self.ops,
            )
        clean_hops = sum(
            len(r.node_path) - 2 for r in last["stamped"].values()
        )
        checks.check_conservation(last["record"], self.ops, clean_hops)
        rep.facts["route_bits_median"] = float(statistics.median(self._bits))
        rep.facts["route_bits_max"] = float(max(self._bits))

    # ------------------------------------------------------------------
    def named(self, reps: List[Repeat], quiet_s: float) -> Dict[str, float]:
        return {
            "coldstart_s": quiet_s,
            "route_bits_median": reps[0].facts["route_bits_median"],
            "route_bits_max": reps[0].facts["route_bits_max"],
        }

    def golden_facts(self, rep: Repeat) -> Dict[str, Any]:
        return {k: rep.facts[k] for k in
                ("routes", "route_bits_median", "route_bits_max")}

    # ------------------------------------------------------------------
    def layers(self, spans: Dict[str, float], rep: Repeat,
               reps: List[Repeat]) -> Dict[str, float]:
        out = {
            f"{name}_s": spans.get(name, 0.0)
            for name in (
                "topology.graph_from_gml", "topology.attach_edges",
                "controller.idassign.weights", "controller.idassign.assign",
                "controller.bulk.init", "controller.bulk.mesh_rows",
                "controller.bulk.digest", "controller.bulk.stamp",
                "sim.vector.first_packet",
            )
        }
        facts = rep.facts
        out["controller.bulk.routes_per_s"] = (
            facts["routes"] / out["controller.bulk.mesh_rows_s"]
            if out["controller.bulk.mesh_rows_s"] else 0.0
        )
        out["controller.bulk.trees_built"] = float(facts["trees_built"])
        out["controller.bulk.block_hits"] = float(facts["block_hits"])
        out.update(self._probe_sublayers())
        return out

    def _probe_sublayers(self) -> Dict[str, float]:
        """Side passes over the layers ``mesh_rows`` hides inside one
        public call.  Run after the traced repeats, never inside one, so
        they cost the end-to-end figure nothing."""
        clock = time.perf_counter
        t0 = clock()
        parse_gml(self.text)
        parse_s = clock() - t0

        graph = graph_from_gml(self.text)
        attach_edges(graph)
        reassign_switch_ids(graph, "weighted")
        t0 = clock()
        csr = CsrTopology.from_graph(graph)
        csr_s = clock() - t0

        edges = sorted(n.name for n in graph.nodes(NodeKind.EDGE))
        t0 = clock()
        trees = [destination_tree_arrays(csr, csr.index[e]) for e in edges]
        trees_s = clock() - t0
        t0 = clock()
        blocks = [
            DestinationBlock(csr, e, t) for e, t in zip(edges, trees)
        ]
        encode_s = clock() - t0

        # One crt_extend per reached switch not adjacent to the root.
        extends = sum(
            int((t.parent[t.order] != t.root).sum()) for t in trees
        )
        # Per-call cost on the moduli one deep branch really sees.
        deep = max(blocks, key=lambda b: int(b.tree.depth.max()))
        leaf = int(deep.tree.depth.argmax())
        system: List[Tuple[int, int, int, int]] = []
        rid, mod = 0, 1
        for hop in reversed(deep.hops(leaf)):
            system.append((rid, mod, hop.switch_id, hop.port))
            rid, mod = crt_extend(rid, mod, hop.switch_id, hop.port)
        loops = max(1, 20000 // len(system))
        t0 = clock()
        for _ in range(loops):
            for args in system:
                crt_extend(*args)
        extend_us = (clock() - t0) / (loops * len(system)) * 1e6
        return {
            "topology.parse_gml_s": parse_s,
            "topology.csr_build_s": csr_s,
            "topology.csr.trees_s": trees_s,
            "controller.bulk.encode_s": encode_s,
            "rns.crt_extends": float(extends),
            "rns.crt_extend_us": extend_us,
        }
