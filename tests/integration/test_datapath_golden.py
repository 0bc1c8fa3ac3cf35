"""Regression pin for the per-hop decision: golden digests of whole runs.

``datapath_golden.json`` was recorded from the *reference-mode*
datapath of the commit named in its ``_meta`` block (the straight-line
``select_port`` code, before the decision kernel refactor).  This test
recomputes every cell through whatever datapath the tree has now and
requires bit-identity: outcome record (per-switch counters, drop
reasons, event count, RNG fingerprint), hop-by-hop traces, and the
epoch reference engine's record digest — for all four deflection
techniques and both stateful baselines.

The fixture body is ``compute_golden()``; re-record it only when the
*model* changes on purpose, and say so in ``_meta``.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.baselines import BASELINE_SCHEMES, plan_baseline_strategies
from repro.controller.protection import ProtectionPlanner
from repro.farm.jobs import record_digest
from repro.runner import KarSimulation
from repro.sim.vector import build_workload, run_epoch_reference, synthetic_spec
from repro.switches.core import KarSwitch
from repro.switches.deflection import STRATEGY_NAMES
from repro.topology import (
    NodeKind,
    Scenario,
    attach_host_pair,
    random_connected,
    shortest_path,
)

FIXTURE = Path(__file__).with_name("datapath_golden.json")

SEEDS = (3, 23, 77)
TRAFFIC_S = 0.8
#: One scenario per stateful baseline, on seeds whose failure schedule
#: makes the scheme leave its primary port (backup/default port for
#: ``ff``, a second arborescence for ``arb``).
BASELINE_CELLS = ((23, "ff"), (42, "arb"))


def make_scenario(seed: int, num_switches: int, extra_links: int) -> Scenario:
    graph = random_connected(
        num_switches, extra_links=extra_links, seed=seed,
        min_switch_id=79, rate_mbps=50.0, delay_s=0.0002,
    )
    names = sorted(graph.node_names())
    src_sw, dst_sw = names[0], names[-1]
    src_host, dst_host = attach_host_pair(
        graph, src_sw, dst_sw, rate_mbps=50.0, delay_s=0.0002
    )
    route = shortest_path(graph, src_sw, dst_sw)
    plan = ProtectionPlanner(graph).full(route)
    return Scenario(
        name=f"datapath-golden-{seed}",
        graph=graph,
        primary_route=tuple(route),
        src_host=src_host,
        dst_host=dst_host,
        protection={"full": tuple(plan.segments), "none": ()},
    )


def random_failures(scenario: Scenario, seed: int, k: int = 3):
    """A random schedule of core-link failures (some repaired)."""
    rng = random.Random(seed * 9176 + 11)
    core = set(scenario.graph.node_names(NodeKind.CORE))
    candidates = [
        link for link in scenario.graph.links()
        if link.a in core and link.b in core
    ]
    rng.shuffle(candidates)
    events = []
    for link in candidates[:k]:
        at = round(rng.uniform(0.1, TRAFFIC_S * 0.6), 4)
        repair = (
            round(at + rng.uniform(0.1, TRAFFIC_S * 0.4), 4)
            if rng.random() < 0.7 else None
        )
        events.append((link.a, link.b, at, repair))
    return events


def run_des(scenario: Scenario, strategy: str, seed: int, failures,
            strategy_factory=None):
    ks = KarSimulation(
        scenario, deflection=strategy, protection="none",
        seed=seed, ttl=64, trace_paths=True,
        strategy_factory=strategy_factory,
    )
    src, sink = ks.add_udp_probe(rate_pps=200, duration_s=TRAFFIC_S)
    src.start(at=0.05)
    for a, b, at, repair in failures:
        ks.schedule_failure(a, b, at=at, repair_at=repair)
    ks.run(until=TRAFFIC_S + 1.0)
    return ks, src, sink


def outcome_record(ks: KarSimulation, src, sink) -> dict:
    """Digestable run outcome — the bit-identical contract: counters,
    drop reasons, event order and RNG stream positions."""
    switches = {}
    rng_fp = hashlib.sha256()
    for info in sorted(ks.scenario.graph.nodes(NodeKind.CORE),
                       key=lambda i: i.name):
        sw = ks.network.node(info.name)
        assert isinstance(sw, KarSwitch)
        switches[info.name] = [sw.forwarded, sw.deflections, sw.drops]
        rng_fp.update(repr(sw._rng.getstate()).encode("utf-8"))
    record = {
        "sent": src.sent,
        "received": sink.received,
        "events": ks.sim.events_processed,
        "drop_reasons": dict(sorted(ks.tracer.drop_reasons.items())),
        "switches": switches,
        "rng_fingerprint": rng_fp.hexdigest()[:16],
    }
    record["digest"] = record_digest(record)
    return record


def hop_traces(ks: KarSimulation):
    """Per-packet hop lists in uid order (uids are a process-global
    counter, so only their order is comparable between runs)."""
    paths = ks.tracer._paths
    return [
        [(h.time, h.node, h.in_port, h.out_port, h.deflected)
         for h in paths[uid]]
        for uid in sorted(paths)
    ]


def trace_digest(ks: KarSimulation) -> str:
    return hashlib.sha256(repr(hop_traces(ks)).encode("utf-8")).hexdigest()[:16]


def run_cell(seed: int, strategy: str):
    """One cell: a KAR technique, or a baseline through strategy_factory."""
    scenario = make_scenario(seed, num_switches=12, extra_links=2 + seed % 5)
    factory = None
    deflection = strategy
    if strategy in BASELINE_SCHEMES:
        graph = scenario.graph
        factory = plan_baseline_strategies(
            strategy, graph, scenario.primary_route,
            graph.edge_of_host(scenario.dst_host),
        ).__getitem__
        deflection = "none"
    return run_des(
        scenario, deflection, seed, random_failures(scenario, seed), factory
    )


def des_cell(seed: int, strategy: str) -> dict:
    ks, src, sink = run_cell(seed, strategy)
    record = outcome_record(ks, src, sink)
    return {
        "outcome": record["digest"],
        "rng_fingerprint": record["rng_fingerprint"],
        "hops": trace_digest(ks),
    }


def epoch_spec(strategy: str) -> dict:
    return synthetic_spec(
        num_switches=10, extra_links=4, seed=5, strategy=strategy,
        flows=4, ttl=24, inject_per_epoch=3, inject_epochs=6,
        link_failures=2, fail_epoch=2, repair_epoch=5,
    )


def epoch_cell(strategy: str) -> dict:
    record = run_epoch_reference(build_workload(epoch_spec(strategy))).record
    return {
        "digest": record["digest"],
        "rng_fingerprint": record["rng_fingerprint"],
    }


DES_CELLS = [
    (seed, s) for seed in SEEDS for s in STRATEGY_NAMES
] + list(BASELINE_CELLS)


def compute_golden() -> dict:
    return {
        "des": {f"{seed}/{s}": des_cell(seed, s) for seed, s in DES_CELLS},
        "epoch": {s: epoch_cell(s) for s in STRATEGY_NAMES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


class TestDatapathGolden:
    def test_fixture_covers_every_cell(self, golden):
        assert sorted(golden["des"]) == sorted(
            f"{seed}/{s}" for seed, s in DES_CELLS
        )
        assert sorted(golden["epoch"]) == sorted(STRATEGY_NAMES)

    @pytest.mark.parametrize("seed,strategy", DES_CELLS)
    def test_des_run_matches_golden(self, golden, seed, strategy):
        assert des_cell(seed, strategy) == golden["des"][f"{seed}/{strategy}"]

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_epoch_reference_matches_golden(self, golden, strategy):
        assert epoch_cell(strategy) == golden["epoch"][strategy]

    def test_cells_exercise_the_fallback(self):
        # A pin that never leaves the happy path pins nothing: the
        # failure schedules must force deflections (random draws) in
        # the KAR cells and table fallbacks in the baseline cells.
        for seed, strategy in ((23, "nip"),) + BASELINE_CELLS:
            ks, _, _ = run_cell(seed, strategy)
            assert ks.tracer.deflection_count > 0, (seed, strategy)

