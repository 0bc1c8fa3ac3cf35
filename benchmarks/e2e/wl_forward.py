"""``wan754-forward-clean`` and ``wan754-forward-storm``.

The epoch vector engine over 2,000 seeded flows on synthwan754, used
two ways.  *clean* has no failures: every hop stays in the numpy kernel
and the deflection code never runs, so a deflection-path change must
leave it alone.  *storm* toggles a seeded set of busy core links down
and back up at staggered epochs (a rolling schedule in the sense of
Dai/Foerster's dynamic failures), so a sizeable share of hops falls
back to the real ``select_port`` on per-switch RNG streams.

Ingest and provisioning happen once, in set-up; a repeat builds a new
``EpochTopology`` and ``EpochWorkload`` and runs ``run_epoch_vector``.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Tuple

from repro.controller.bulk import BulkProvisioner
from repro.sim.vector import EpochFlow, EpochTopology, EpochWorkload, run_epoch_vector
from repro.topology.generators import attach_edges
from repro.topology.zoo import load_zoo_graph

import checks
from harness import (
    SIM_SEED, TTL, GraphCopy, Ops, Repeat, Tracer, group_by_dst,
    profile_shares, seeded_pairs, sha256_json,
)


class Forward:
    work_unit = "hops"

    def __init__(self, seed: int, quick: bool, tracer: Tracer, ops: Ops):
        self.seed = seed
        self.tracer = tracer
        self.ops = ops
        self.fixture = "abilene" if quick else "synthwan754"
        self.flow_count = 40 if quick else 2000
        self._last: Dict[str, Any] = {}

    def sizes(self) -> Dict[str, Any]:
        return {
            "fixture": self.fixture, "flows": self.flow_count,
            "inject_per_epoch": self.inject_per_epoch,
            "inject_epochs": self.inject_epochs, "ttl": TTL,
            "links_flapped": self.storm_links,
            "down_epochs": self.down_epochs,
        }

    # ------------------------------------------------------------------
    def setup(self) -> None:
        span = self.tracer.span
        with span("topology.load_zoo_graph"):
            graph = load_zoo_graph(self.fixture)
        with span("topology.attach_edges"):
            edges = attach_edges(graph)
        pairs = seeded_pairs(
            random.Random(f"e2e-flows:{self.seed}"), edges, self.flow_count
        )
        with span("controller.bulk.init"):
            bulk = BulkProvisioner(graph)
        with span("controller.bulk.routes_for"):
            routes = {}
            for dst, srcs in group_by_dst(pairs).items():
                for src, route in bulk.routes_for(dst, srcs).items():
                    routes[(src, dst)] = route

        # (a) before anything is timed: every provisioned route walks
        # its own node path on the benchmark's copy of the graph.
        copy = GraphCopy(graph)
        for route in routes.values():
            checks.check_route_follows(
                copy, route.node_path, route.out_port,
                route.route.route_id, self.ops,
            )

        index = EpochTopology(graph).index
        self.graph = graph
        self.flows = tuple(
            EpochFlow(
                route_id=r.route.route_id,
                residues=dict(r.route.residue_map()),
                ingress=index[r.node_path[1]],
                in_port=graph.port_of(r.node_path[1], r.src_edge),
                egress=index[r.dst_edge],
                ttl=TTL,
            )
            for r in (routes[p] for p in pairs)
        )
        packets_per_flow = self.inject_per_epoch * self.inject_epochs
        self.path_hops = packets_per_flow * sum(
            len(r.node_path) - 2 for r in routes.values()
        )
        self.flips = self._schedule(routes)

    def _schedule(self, routes: Dict[Tuple[str, str], Any]
                  ) -> Tuple[Tuple[int, str, str], ...]:
        if not self.storm_links:
            return ()
        usage: Dict[Tuple[str, str], int] = {}
        for route in routes.values():
            core = route.node_path[1:-1]
            for a, b in zip(core, core[1:]):
                key = (a, b) if a < b else (b, a)
                usage[key] = usage.get(key, 0) + 1
        busiest = sorted(usage, key=lambda k: (-usage[k], k))
        busiest = busiest[:max(self.storm_links, len(busiest) // 7)]
        rng = random.Random(f"e2e-storm:{self.seed}")
        flips: List[Tuple[int, str, str]] = []
        for a, b in rng.sample(busiest, min(self.storm_links, len(busiest))):
            down_at = rng.randrange(1, self.inject_epochs)
            flips.append((down_at, a, b))
            flips.append((down_at + self.down_epochs, a, b))
        return tuple(flips)

    # ------------------------------------------------------------------
    def _run(self, inject_epochs: int) -> Tuple[float, Dict[str, Any]]:
        span = self.tracer.span
        start = time.perf_counter()
        with span("repeat"):
            with span("sim.vector.topology_build"):
                topo = EpochTopology(self.graph)
            with span("sim.vector.run"):
                outcome = run_epoch_vector(EpochWorkload(
                    topo=topo, flows=self.flows,
                    inject_per_epoch=self.inject_per_epoch,
                    inject_epochs=inject_epochs,
                    max_epochs=inject_epochs + self.down_epochs + TTL + 4,
                    seed=SIM_SEED, strategy="nip", flips=self.flips,
                    spec={},
                ))
        return time.perf_counter() - start, outcome.record

    def repeat(self) -> Repeat:
        seconds, record = self._run(self.inject_epochs)
        per_switch = list(record["switches"].values())
        # (d) selected simulated fields only: neither the RNG
        # fingerprint nor the program's own digest.
        digest = sha256_json({
            k: record[k] for k in (
                "epochs", "injected", "delivered", "misdelivered",
                "drop_reasons", "switches", "hops", "live_at_end",
            )
        })
        self._last = record
        return Repeat(
            slices=[seconds], work=float(record["hops"]), digest=digest,
            facts={
                "epochs": record["epochs"],
                "hops": record["hops"],
                "injected": record["injected"],
                "delivered": record["delivered"],
                "deflections": sum(v[1] for v in per_switch),
                "drops": sum(v[2] for v in per_switch),
            },
        )

    def check(self, rep: Repeat) -> None:
        record, self._last = self._last, {}
        checks.check_conservation(
            record, self.ops,
            clean_hops=None if self.storm_links else self.path_hops,
        )

    # ------------------------------------------------------------------
    def named(self, reps: List[Repeat], quiet_s: float) -> Dict[str, float]:
        return {"fwd_hops_per_s": reps[0].work / quiet_s}

    def golden_facts(self, rep: Repeat) -> Dict[str, Any]:
        return {k: rep.facts[k] for k in ("hops", "delivered", "deflections")}

    def layers(self, spans: Dict[str, float], rep: Repeat,
               reps: List[Repeat]) -> Dict[str, float]:
        facts = rep.facts
        run_s = spans["sim.vector.run"]
        out = {
            "sim.vector.topology_build_s": spans["sim.vector.topology_build"],
            "sim.vector.run_s": run_s,
            "sim.vector.epochs": float(facts["epochs"]),
            "sim.vector.hops": float(facts["hops"]),
            "sim.vector.hops_per_epoch": facts["hops"] / facts["epochs"],
            "sim.vector.us_per_hop": run_s / facts["hops"] * 1e6,
            "sim.vector.delivered_share":
                facts["delivered"] / facts["injected"],
            "switches.deflections": float(facts["deflections"]),
            "switches.deflected_share": facts["deflections"] / facts["hops"],
            "switches.drops": float(facts["drops"]),
        }
        # Where the Python time goes, from one shortened repeat; cProfile
        # shifts proportions, so this never feeds a time metric.
        short = max(2, self.inject_epochs // 2)
        shares = profile_shares(lambda: self._run(short))
        out.update({f"{g}.self_share": s for g, s in shares.items()})
        return out


class ForwardClean(Forward):
    name = "wan754-forward-clean"
    nominal_repeat_s = 1.5
    storm_links = 0
    down_epochs = 0

    def __init__(self, seed: int, quick: bool, tracer: Tracer, ops: Ops):
        super().__init__(seed, quick, tracer, ops)
        self.inject_per_epoch = 2 if quick else 4
        self.inject_epochs = 8 if quick else 40


class ForwardStorm(Forward):
    name = "wan754-forward-storm"
    nominal_repeat_s = 1.5

    def __init__(self, seed: int, quick: bool, tracer: Tracer, ops: Ops):
        super().__init__(seed, quick, tracer, ops)
        self.inject_per_epoch = 2
        self.inject_epochs = 8 if quick else 30
        self.storm_links = 3 if quick else 100
        self.down_epochs = 4 if quick else 15
