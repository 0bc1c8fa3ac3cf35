"""The resilience frontier: failures tolerated vs. stretch vs. header bits.

The paper's experiments measure KAR against scripted failures on its
own topologies; the frontier sweep measures *where resilience runs
out*, for KAR's deflection techniques and for the stateful failover
baselines, on three topology families:

* ``clique`` — a 6-switch full mesh (the best case for any failover:
  maximal edge connectivity);
* ``torus`` — a 3×3 wraparound grid (4-regular, the classic
  arborescence testbed);
* ``abilene`` — the Abilene/Internet2 backbone from the topology zoo
  (sparse and irregular, the realistic case).

Each **cell** runs one (topology, scheme, failure mode, failure count,
seed) combination with a *strict* invariant checker wired through the
whole packet path — a scheme that "survives" by ping-pong looping or
forwarding into a dead port aborts the cell instead of padding its
numbers.  Schemes:

* ``hp`` / ``avp`` / ``nip`` — KAR deflection (stateless core, header
  bits = the route-ID modulus);
* ``ff`` — OpenFlow-fast-failover backup ports
  (:mod:`repro.baselines.fastfailover`; per-switch state);
* ``arb`` — circular hopping over edge-disjoint arborescences
  (:mod:`repro.baselines.arborescence`; per-switch state, zero header
  bits).

Failure modes: ``static`` downs a seeded set of core links before
traffic (the classic k-failure model, chosen to keep the host pair
connected so "tolerated" is well defined); ``dynamic`` arms the
oblivious fail+recover adversary
(:class:`~repro.sim.chaos.DynamicLinkChaos`) with the concurrent-down
budget set to the cell's failure count, and
:func:`search_worst_schedule` sweeps its schedule seed for the worst
case.

Every cell is seeded and carries a digest (failed links or the chaos
event log), so a frontier report can be diffed bit-for-bit between two
invocations — the CI smoke job does exactly that.
"""

from __future__ import annotations

import copy
import hashlib
import random
from collections import Counter
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

from repro.baselines import BASELINE_SCHEMES, plan_baseline_strategies
from repro.baselines.arborescence import ArborescenceFailoverStrategy
from repro.baselines.fastfailover import FastFailoverStrategy
from repro.controller.idassign import reassign_switch_ids
from repro.farm.executor import FarmOptions, run_specs
from repro.farm.spec import RunSpec
from repro.rns.backends import BACKEND_NAMES, backend_by_name
from repro.rns.crt import CrtError
from repro.rns.encoder import Hop
from repro.runner import KarSimulation
from repro.sim.invariants import InvariantChecker
from repro.topology import (
    NodeKind,
    attach_host_pair,
    clique,
    shortest_path,
    torus,
)
from repro.topology.paths import is_reachable_without
from repro.topology.topologies import Scenario
from repro.topology.zoo import abilene

__all__ = [
    "FrontierCell",
    "FRONTIER_TOPOLOGIES",
    "FRONTIER_SCHEMES",
    "run_frontier_once",
    "run_frontier",
    "search_worst_schedule",
    "max_tolerated",
    "render_frontier",
    "frontier_rows",
]

#: Schemes the frontier compares: three KAR deflection techniques and
#: the two stateful baselines.
FRONTIER_SCHEMES: Tuple[str, ...] = ("hp", "avp", "nip") + BASELINE_SCHEMES

#: Simulated seconds of probe traffic per cell.
TRAFFIC_S = 1.5

#: Extra simulated seconds for in-flight packets to resolve before the
#: cell is scored (TTL walks + re-encode round trips).
DRAIN_S = 1.5


def _clique_scenario() -> Scenario:
    g = clique(6)
    attach_host_pair(g, "SW0", "SW5")
    return Scenario(
        name="clique6",
        graph=g,
        primary_route=tuple(shortest_path(g, "SW0", "SW5")),
        src_host="H-SRC",
        dst_host="H-DST",
        protection={"none": ()},
    )


def _torus_scenario() -> Scenario:
    g = torus(3, 3)
    attach_host_pair(g, "SW0-0", "SW1-1")
    return Scenario(
        name="torus3x3",
        graph=g,
        primary_route=tuple(shortest_path(g, "SW0-0", "SW1-1")),
        src_host="H-SRC",
        dst_host="H-DST",
        protection={"none": ()},
    )


def _abilene_scenario() -> Scenario:
    g = abilene()
    attach_host_pair(g, "Seattle", "NewYork")
    return Scenario(
        name="abilene",
        graph=g,
        primary_route=tuple(shortest_path(g, "Seattle", "NewYork")),
        src_host="H-SRC",
        dst_host="H-DST",
        protection={"none": ()},
    )


#: Topology name -> scenario builder (coast-to-coast host pair each).
FRONTIER_TOPOLOGIES: Dict[str, Callable[[], Scenario]] = {
    "clique": _clique_scenario,
    "torus": _torus_scenario,
    "abilene": _abilene_scenario,
}


@dataclass(frozen=True)
class FrontierCell:
    """One scored frontier cell."""

    topology: str
    scheme: str
    mode: str            # "static" | "dynamic"
    failures: int        # static: links downed; dynamic: down budget
    seed: int
    schedule_seed: int
    sent: int
    delivered: int
    drop_reasons: Tuple[Tuple[str, int], ...]
    violations: Tuple[Tuple[str, int], ...]
    header_bits: int
    state_entries: int
    mean_stretch: float
    max_stretch: float
    chaos_events: int
    digest: str
    failed_links: Tuple[str, ...]
    #: (backend name, primary-route header bits) per encoding backend —
    #: what the *same* route costs under each encoding (Eq. 9 for the
    #: integer CRT, polynomial degree for XSR on the re-IDed dual pool).
    header_bits_by_backend: Tuple[Tuple[str, int], ...]

    @property
    def delivery_ratio(self) -> float:
        if self.sent == 0:
            return 0.0
        return self.delivered / self.sent

    @property
    def violation_count(self) -> int:
        return sum(count for _, count in self.violations)

    @property
    def tolerated(self) -> bool:
        """Full delivery with a clean invariant record."""
        return (
            self.sent > 0
            and self.delivered == self.sent
            and self.violation_count == 0
        )

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "FrontierCell":
        """Inverse of ``asdict``, also after a JSON round trip."""
        return cls(**{
            **record,
            "drop_reasons": tuple(map(tuple, record["drop_reasons"])),
            "violations": tuple(map(tuple, record["violations"])),
            "failed_links": tuple(record["failed_links"]),
            "header_bits_by_backend": tuple(
                map(tuple, record["header_bits_by_backend"])
            ),
        })


def _pick_static_failures(
    scenario: Scenario, count: int, seed: int
) -> List[Tuple[str, str]]:
    """A seeded k-link failure set that keeps the host pair connected.

    The draw is independent of the scheme, so every scheme at a given
    (topology, seed, k) faces the identical failure set — a paired
    comparison.  Connectivity is required because "tolerated" is only
    meaningful when delivery is physically possible; a draw that cuts
    the pair is rejected and redrawn (bounded retries — the frontier
    topologies are well connected, so exhaustion means *count* exceeds
    what the topology can lose, and the last draw is returned so the
    cell honestly scores as not tolerated).
    """
    graph = scenario.graph
    links = sorted(
        tuple(sorted((link.a, link.b)))
        for link in graph.links()
        if graph.node(link.a).kind == NodeKind.CORE
        and graph.node(link.b).kind == NodeKind.CORE
    )
    rng = random.Random(f"frontier-{scenario.name}-s{seed}-k{count}")
    count = min(count, len(links))
    sample: List[Tuple[str, str]] = []
    for _ in range(64):
        sample = sorted(rng.sample(links, count))
        if is_reachable_without(
            graph, scenario.src_host, scenario.dst_host, sample
        ):
            return sample
    return sample


def _failures_digest(failed: Sequence[Tuple[str, str]]) -> str:
    h = hashlib.sha256()
    for a, b in failed:
        h.update(f"{a}|{b}\n".encode("utf-8"))
    return h.hexdigest()[:16]


def _backend_header_bits(
    graph, route_nodes: Sequence[str], scheme: str
) -> Tuple[Tuple[str, int], ...]:
    """The primary route's header cost under each encoding backend.

    ``arb`` recovers its tree from the in-port and carries no route ID,
    so every backend prices it at zero.  A backend whose ID-feasibility
    rules reject the graph's integer pool (XSR needs GF(2)-pairwise
    coprimality) prices the route on a re-IDed copy — exactly what the
    runner does when simulating under that backend.
    """
    if scheme == "arb":
        return tuple((name, 0) for name in BACKEND_NAMES)
    ids_sorted = sorted(graph.switch_ids().values())
    out = []
    for name in BACKEND_NAMES:
        backend = backend_by_name(name)
        g = graph
        try:
            backend.validate_switch_ids(ids_sorted)
        except (ValueError, CrtError):
            g = copy.deepcopy(graph)
            reassign_switch_ids(g, strategy=backend.id_strategy)
        route = backend.encode(
            [Hop(g.switch_id(n), 0) for n in route_nodes]
        )
        out.append((name, route.bit_length))
    return tuple(out)


def _scheme_costs(
    scheme: str,
    strategies: Optional[Mapping[str, object]],
    ks: KarSimulation,
) -> Tuple[int, int]:
    """(header_bits, state_entries) — the two resilience price tags.

    KAR pays in header bits (the route-ID modulus) and keeps the core
    stateless; ``ff`` pays both (it forwards on the KAR-computed port
    *and* stores backup/default entries); ``arb`` pays purely in state
    (the current tree is recovered from the in-port, so zero header
    bits).
    """
    modulus_bits = (
        ks.primary_forward.modulus.bit_length()
        if ks.primary_forward is not None
        else 0
    )
    if scheme == "arb":
        assert strategies is not None
        state = 0
        for strategy in strategies.values():
            assert isinstance(strategy, ArborescenceFailoverStrategy)
            state += sum(1 for p in strategy.tree_ports if p is not None)
            state += len(strategy.in_port_tree)
        return 0, state
    if scheme == "ff":
        assert strategies is not None
        state = 0
        for strategy in strategies.values():
            assert isinstance(strategy, FastFailoverStrategy)
            state += len(strategy.backups)
            state += 1 if strategy.default_port is not None else 0
        return modulus_bits, state
    return modulus_bits, 0


def run_frontier_once(
    topology: str = "torus",
    scheme: str = "nip",
    mode: str = "static",
    failures: int = 1,
    seed: int = 42,
    schedule_seed: int = 0,
    adversary: Optional[Dict] = None,
    rate_pps: float = 200.0,
    traffic_s: float = TRAFFIC_S,
    ttl: int = 96,
) -> FrontierCell:
    """One frontier cell, strict invariants throughout.

    ``static`` downs :func:`_pick_static_failures` links before
    traffic; ``dynamic`` arms the oblivious adversary
    (:class:`~repro.sim.chaos.DynamicLinkChaos`) with
    ``max_down=failures`` and the given *schedule_seed* (extra
    injector kwargs via *adversary*).  ``failures=0`` is the healthy
    baseline either way.
    """
    try:
        scenario = FRONTIER_TOPOLOGIES[topology]()
    except KeyError:
        raise ValueError(
            f"unknown frontier topology {topology!r}; choose from "
            f"{sorted(FRONTIER_TOPOLOGIES)}"
        ) from None
    if mode not in ("static", "dynamic"):
        raise ValueError(f"unknown failure mode {mode!r}")
    if failures < 0:
        raise ValueError(f"failure count must be >= 0, got {failures}")
    graph = scenario.graph
    strategies = (
        plan_baseline_strategies(
            scheme, graph, scenario.primary_route,
            graph.edge_of_host(scenario.dst_host),
        )
        if scheme in BASELINE_SCHEMES
        else None
    )
    checker = InvariantChecker(
        strict=True, forbid_return_to_sender=(scheme == "nip")
    )
    ks = KarSimulation(
        scenario,
        deflection=("none" if strategies is not None else scheme),
        protection="none",
        seed=seed,
        ttl=ttl,
        trace_paths=True,
        invariants=checker,
        strategy_factory=(
            strategies.__getitem__ if strategies is not None else None
        ),
    )

    failed: List[Tuple[str, str]] = []
    injector = None
    if mode == "static" and failures > 0:
        failed = _pick_static_failures(scenario, failures, seed)
        for a, b in failed:
            ks.network.link_between(a, b).set_up(False)
        digest = _failures_digest(failed)
    elif mode == "dynamic" and failures > 0:
        injector = ks.add_chaos(
            "dynamic", until=traffic_s, max_down=failures,
            schedule_seed=schedule_seed, **(adversary or {}),
        )
        digest = ""  # filled from the event log after the run
    else:
        digest = "-"

    src, sink = ks.add_udp_probe(rate_pps=rate_pps, duration_s=traffic_s)
    src.start(at=0.05)
    ks.run(until=traffic_s + DRAIN_S)
    if injector is not None:
        digest = injector.digest()

    tracer = ks.tracer
    base_hops = max(1, len(scenario.primary_route))
    stretches = [
        len(tracer._paths.get(uid, ())) / base_hops
        for uid in tracer.deliveries
    ]
    drop_reasons = Counter()
    for reason, cnt in tracer.drop_reasons.items():
        drop_reasons[reason] += cnt
    header_bits, state_entries = _scheme_costs(scheme, strategies, ks)
    return FrontierCell(
        topology=topology,
        scheme=scheme,
        mode=mode,
        failures=failures,
        seed=seed,
        schedule_seed=schedule_seed,
        sent=src.sent,
        delivered=sink.received,
        drop_reasons=tuple(sorted(drop_reasons.items())),
        violations=tuple(sorted(checker.violation_counts.items())),
        header_bits=header_bits,
        state_entries=state_entries,
        mean_stretch=(
            sum(stretches) / len(stretches) if stretches else 0.0
        ),
        max_stretch=max(stretches) if stretches else 0.0,
        chaos_events=len(injector.events) if injector is not None else 0,
        digest=digest,
        failed_links=tuple(f"{a}-{b}" for a, b in failed),
        header_bits_by_backend=_backend_header_bits(
            scenario.graph, scenario.primary_route, scheme
        ),
    )


def run_frontier(
    topologies: Sequence[str] = ("clique", "torus", "abilene"),
    schemes: Sequence[str] = FRONTIER_SCHEMES,
    max_failures: int = 3,
    seeds: Sequence[int] = (42,),
    dynamic: bool = False,
    adversary: Optional[Dict] = None,
    farm: Optional[FarmOptions] = None,
) -> List[FrontierCell]:
    """The full frontier grid, farm-orchestrated.

    Static cells cover failure counts 0..*max_failures* for every
    (topology, scheme, seed); ``dynamic=True`` adds one dynamic-
    adversary cell per static level (same budget, schedule seed 0).
    """
    unknown = sorted(set(topologies) - set(FRONTIER_TOPOLOGIES))
    if unknown:
        raise ValueError(f"unknown frontier topologies: {unknown}")
    levels = [("static", k) for k in range(max_failures + 1)]
    if dynamic:
        levels += [("dynamic", k) for k in range(1, max_failures + 1)]
    specs = [
        RunSpec.make("frontier", topology, seed, {
            "scheme": scheme, "mode": mode, "failures": failures,
            "adversary": adversary,
        })
        for topology in topologies
        for scheme in schemes
        for seed in seeds
        for mode, failures in levels
    ]
    return [
        FrontierCell.from_record(r["result"])
        for r in run_specs(specs, farm, "frontier")
    ]


def search_worst_schedule(
    topology: str,
    scheme: str,
    seed: int = 1,
    schedules: int = 8,
    budget: int = 2,
    farm: Optional[FarmOptions] = None,
    adversary: Optional[Dict] = None,
) -> List[FrontierCell]:
    """Sweep adversarial schedules, worst delivery ratio first.

    Runs *schedules* dynamic-adversary frontier cells — identical
    except for ``schedule_seed`` — through the farm, and returns them
    sorted ascending by delivery ratio: ``result[0]`` is the worst
    schedule found.  *budget* is the adversary's concurrent-down-link
    allowance (the cell's ``failures`` axis).  An oblivious adversary
    with seed search approximates the adaptive worst case while every
    cell stays an ordinary :class:`FrontierCell` (strict invariants,
    digest-reproducible), so the worst case found is a replayable
    record, not just a number.
    """
    if schedules < 1:
        raise ValueError(f"need >= 1 schedule, got {schedules}")
    if budget < 1:
        raise ValueError(f"adversary budget must be >= 1, got {budget}")
    specs = [
        RunSpec.make("frontier", topology, seed, {
            "scheme": scheme, "mode": "dynamic", "failures": budget,
            "schedule_seed": schedule_seed, "adversary": adversary,
        })
        for schedule_seed in range(schedules)
    ]
    cells = [
        FrontierCell.from_record(r["result"])
        for r in run_specs(specs, farm, "adversary-search")
    ]
    return sorted(cells, key=lambda c: (c.delivery_ratio, c.schedule_seed))


def max_tolerated(
    cells: Sequence[FrontierCell], topology: str, scheme: str,
    mode: str = "static",
) -> int:
    """Largest k with full delivery at every level up to and including k.

    The frontier definition: a scheme tolerates k failures only if it
    also tolerates every smaller count (for all seeds run), so one
    lucky draw at k=3 cannot mask a loss at k=2.  Returns -1 when even
    the healthy baseline (k=0, static only) fails.
    """
    by_level: Dict[int, List[FrontierCell]] = {}
    for cell in cells:
        if (cell.topology, cell.scheme, cell.mode) == (
            topology, scheme, mode,
        ):
            by_level.setdefault(cell.failures, []).append(cell)
    best = -1
    for level in sorted(by_level):
        if level > best + 1:
            break  # gap in the grid: don't claim beyond it
        if all(cell.tolerated for cell in by_level[level]):
            best = level
        else:
            break
    return best


def render_frontier(cells: Sequence[FrontierCell]) -> str:
    """The frontier report: one table per topology."""
    lines: List[str] = []
    topologies = sorted({c.topology for c in cells})
    for topology in topologies:
        here = [c for c in cells if c.topology == topology]
        schemes = sorted(
            {c.scheme for c in here},
            key=lambda s: FRONTIER_SCHEMES.index(s)
            if s in FRONTIER_SCHEMES else 99,
        )
        has_dynamic = any(c.mode == "dynamic" for c in here)
        backend_cols = sorted(
            {name for c in here for name, _ in c.header_bits_by_backend},
            key=lambda n: BACKEND_NAMES.index(n)
            if n in BACKEND_NAMES else 99,
        )
        lines.append(f"frontier — {topology}")
        header = (
            f"  {'scheme':>8s} {'max-static-k':>12s} {'stretch':>8s} "
            f"{'hdr-bits':>8s} {'state':>6s}"
        )
        for name in backend_cols:
            header += f" {name + '-bits':>11s}"
        if has_dynamic:
            header += f" {'dyn-delivery':>12s}"
        lines.append(header)
        for scheme in schemes:
            mine = [c for c in here if c.scheme == scheme]
            tolerated_k = max_tolerated(cells, topology, scheme)
            at_frontier = [
                c for c in mine
                if c.mode == "static" and c.failures == max(0, tolerated_k)
            ]
            stretch = max(
                (c.max_stretch for c in at_frontier), default=0.0
            )
            sample = mine[0]
            row = (
                f"  {scheme:>8s} {tolerated_k:>12d} {stretch:>8.2f} "
                f"{sample.header_bits:>8d} {sample.state_entries:>6d}"
            )
            per_backend = dict(sample.header_bits_by_backend)
            for name in backend_cols:
                bits = per_backend.get(name)
                row += (
                    f" {bits:>11d}" if bits is not None else f" {'—':>11s}"
                )
            if has_dynamic:
                dyn = [c for c in mine if c.mode == "dynamic"]
                if dyn:
                    worst = min(c.delivery_ratio for c in dyn)
                    row += f" {100 * worst:>11.1f}%"
                else:
                    row += f" {'—':>12s}"
            lines.append(row)
    total_violations = sum(c.violation_count for c in cells)
    lines.append(
        f"cells: {len(cells)}, invariant violations: {total_violations}"
    )
    return "\n".join(lines)


def frontier_rows(cells: Sequence[FrontierCell]) -> List[Dict]:
    """Flat export rows (see :func:`repro.experiments.export.write_rows`)."""
    rows = []
    for c in cells:
        rows.append({
            "topology": c.topology,
            "scheme": c.scheme,
            "mode": c.mode,
            "failures": c.failures,
            "seed": c.seed,
            "schedule_seed": c.schedule_seed,
            "sent": c.sent,
            "delivered": c.delivered,
            "delivery_ratio": c.delivery_ratio,
            "violations": c.violation_count,
            "header_bits": c.header_bits,
            **{
                f"header_bits_{name}": bits
                for name, bits in c.header_bits_by_backend
            },
            "state_entries": c.state_entries,
            "mean_stretch": c.mean_stretch,
            "max_stretch": c.max_stretch,
            "chaos_events": c.chaos_events,
            "digest": c.digest,
            "failed_links": ";".join(c.failed_links),
        })
    return rows


if __name__ == "__main__":
    print(render_frontier(run_frontier()))
