"""Property-style chaos trials on random topologies (stdlib random only).

Seeded trials drive the full stack on generated networks while an
MTBF/MTTR chaos process flips core links mid-flight, asserting the
properties the deflection techniques claim:

* NIP never forwards a packet back out its input port (no ping-pong),
  even when the port set is shifting under it;
* AVP and NIP never select a port whose link is down at decision time;
* packet conservation holds for every technique: injected ==
  delivered + dropped once the network drains.

One more check holds ``srlg``'s place among the chaos modes: at an
equal mean number of links down, its correlated strikes cost AVP and
NIP more delivery than independent ``mtbf`` failures do.

The invariant checker runs in collect mode so a failing trial reports
every violation (with hop traces) instead of stopping at the first.
"""

import random

import pytest

from repro.controller.protection import ProtectionPlanner
from repro.experiments import chaos_sweep
from repro.runner import KarSimulation
from repro.topology import (
    Scenario,
    attach_host_pair,
    fifteen_node,
    random_connected,
    shortest_path,
)

#: Seeds for the trial generator — bump to widen the search.
MASTER_SEEDS = (11, 23)
TRIALS_PER_SEED = 3
TRAFFIC_S = 1.5
DRAIN_S = 2.5


def _random_scenario(seed):
    graph = random_connected(
        9, extra_links=5, seed=seed, min_switch_id=53,
        rate_mbps=50.0, delay_s=0.0002,
    )
    names = sorted(graph.node_names())
    src_sw, dst_sw = names[0], names[-1]
    src_host, dst_host = attach_host_pair(
        graph, src_sw, dst_sw, rate_mbps=50.0, delay_s=0.0002
    )
    route = shortest_path(graph, src_sw, dst_sw)
    plan = ProtectionPlanner(graph).full(route)
    return Scenario(
        name=f"chaos-random-{seed}",
        graph=graph,
        primary_route=tuple(route),
        src_host=src_host,
        dst_host=dst_host,
        protection={"full": tuple(plan.segments), "none": ()},
    )


def _chaos_trial(technique, topo_seed, run_seed):
    scenario = _random_scenario(topo_seed)
    ks = KarSimulation(
        scenario, deflection=technique, protection="full",
        seed=run_seed, ttl=96, invariants=True,
    )
    ks.add_chaos("mtbf", until=TRAFFIC_S, mtbf_s=0.6, mttr_s=0.25)
    src, sink = ks.add_udp_probe(rate_pps=250, duration_s=TRAFFIC_S)
    src.start(at=0.05)
    ks.run(until=TRAFFIC_S + DRAIN_S)
    ks.check_conservation()
    return ks, src, sink


def _trial_seeds():
    for master in MASTER_SEEDS:
        gen = random.Random(master)
        for _ in range(TRIALS_PER_SEED):
            yield gen.randrange(10_000), gen.randrange(10_000)


@pytest.mark.parametrize("technique", ["avp", "nip"])
def test_no_dead_port_forward_under_midflight_flips(technique):
    for topo_seed, run_seed in _trial_seeds():
        ks, _, _ = _chaos_trial(technique, topo_seed, run_seed)
        bad = [
            v for v in ks.invariants.violations
            if v.kind == "dead-port-forward"
        ]
        assert not bad, (
            f"{technique} topo={topo_seed} run={run_seed}:\n"
            + "\n".join(v.describe() for v in bad[:5])
        )


def test_nip_never_ping_pongs():
    for topo_seed, run_seed in _trial_seeds():
        ks, _, _ = _chaos_trial("nip", topo_seed, run_seed)
        # invariants=True arms forbid_return_to_sender for NIP runs.
        assert ks.invariants.forbid_return_to_sender
        bad = [
            v for v in ks.invariants.violations
            if v.kind == "return-to-sender"
        ]
        assert not bad, (
            f"topo={topo_seed} run={run_seed}:\n"
            + "\n".join(v.describe() for v in bad[:5])
        )


@pytest.mark.parametrize("technique", ["hp", "avp", "nip"])
def test_conservation_under_chaos(technique):
    topo_seed, run_seed = next(iter(_trial_seeds()))
    ks, src, sink = _chaos_trial(technique, topo_seed, run_seed)
    assert ks.invariants.violation_counts["conservation"] == 0
    dropped = sum(ks.tracer.drop_reasons.values())
    assert sink.received + dropped == src.sent
    assert ks.invariants.injected == src.sent


def _mean_links_down(mode, chaos_kwargs, seed):
    """Time-averaged links down over the probe window, from the log.

    The injector draws only from its own named streams, so replaying it
    without traffic reproduces the event log ``run_chaos_once`` saw.
    """
    horizon = chaos_sweep.TRAFFIC_S
    ks = KarSimulation(fifteen_node(), seed=seed)
    injector = ks.add_chaos(mode, until=horizon, **chaos_kwargs)
    ks.run(until=horizon + chaos_sweep.DRAIN_S)
    down, last, area = set(), 0.0, 0.0
    for ev in injector.events:
        at = min(ev.time, horizon)
        area += len(down) * (at - last)
        last = at
        if ev.kind == "fail":
            down.add(ev.link)
        else:
            down.discard(ev.link)
    area += len(down) * (horizon - last)
    return area / horizon, injector.digest()


def test_srlg_costs_more_than_mtbf_at_equal_links_down():
    # srlg at its defaults against the mtbf setting with as many links
    # down on average: correlation, not volume, must cost the delivery.
    modes = {"srlg": {}, "mtbf": {"mtbf_s": 6.0, "mttr_s": 0.5}}
    seeds = range(1, 11)
    down, delivery = {}, {}
    for mode, kwargs in modes.items():
        downs = []
        for seed in seeds:
            mean_down, digest = _mean_links_down(mode, kwargs, seed)
            downs.append(mean_down)
            for technique in ("avp", "nip"):
                run = chaos_sweep.run_chaos_once(
                    "fifteen_node", technique, mode, seed,
                    chaos_kwargs=kwargs,
                )
                assert run.digest == digest
                assert run.violation_count == 0
                delivery.setdefault((mode, technique), []).append(
                    run.delivery_ratio
                )
        down[mode] = sum(downs) / len(downs)
    assert down["srlg"] == pytest.approx(down["mtbf"], rel=0.15), down
    for technique in ("avp", "nip"):
        srlg, mtbf = (
            sum(delivery[mode, technique]) / len(seeds) for mode in modes
        )
        assert srlg < mtbf, (technique, srlg, mtbf)
