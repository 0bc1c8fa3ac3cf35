"""Deflection claims beyond the paper's figures, each one short DES run.

* NIP against AVP ping-pong: why "Not the Input Port".
* Multiple simultaneous failures: Table 2's "supports multiple link
  failures" for KAR.
* Flow isolation: a bystander flow survives a victim's deflection.
* Hitless failover with no controller and no switch state, against
  OpenFlow-Fast-Failover-style backup ports that need state in every
  switch.
* The protection planner: more header bits buy more coverage, and a
  planned full tree delivers deterministically.
* Congestion control: the KAR conclusions hold under Reno and CUBIC.
"""

import pytest

from repro.baselines.fastfailover import (
    FastFailoverStrategy,
    plan_backup_ports,
    plan_destination_tree,
)
from repro.controller.protection import ProtectionPlanner
from repro.runner import KarSimulation
from repro.switches.core import KarSwitch
from repro.topology.topologies import (
    FULL,
    PARTIAL,
    UNPROTECTED,
    Scenario,
    fifteen_node,
    six_node,
)
from repro.transport import CubicTcpSender, TcpSender
from tests.experiments.test_figures import QUICK


def _fifteen_node():
    return fifteen_node(rate_mbps=20.0, delay_s=0.0002)


# ---------------------------------------------------------------------------
# NIP vs AVP ping-pong on the six-node example, SW7-SW11 down
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pingpong():
    """(mean hops, delivery ratio) of a UDP probe per technique."""
    out = {}
    for deflection in ("nip", "avp", "hp"):
        ks = KarSimulation(six_node(rate_mbps=50.0, delay_s=0.0002),
                           deflection=deflection, protection=FULL, seed=1)
        ks.schedule_failure("SW7", "SW11", at=0.5)
        src, sink = ks.add_udp_probe(rate_pps=500, duration_s=3.0)
        src.start(at=1.0)
        ks.run(until=6.0)
        assert sink.received > 0
        out[deflection] = sink.mean_hops(), sink.delivery_ratio(src.sent)
    return out


def test_nip_takes_exactly_one_extra_hop_and_avp_ping_pongs(pingpong):
    nip_hops, nip_delivery = pingpong["nip"]
    # Driven deflection via SW5: 4 core hops instead of 3, every packet.
    assert nip_hops == pytest.approx(4.0, abs=0.01)
    assert nip_delivery == 1.0
    # AVP's fallback may bounce a packet back to its previous hop.
    assert pingpong["avp"][0] > nip_hops


def test_hot_potato_walks_longest(pingpong):
    assert pingpong["hp"][0] > pingpong["nip"][0]


def test_no_deflection_loses_every_packet_inside_the_failure():
    ks = KarSimulation(six_node(rate_mbps=50.0, delay_s=0.0002),
                       deflection="none", protection=UNPROTECTED, seed=1)
    ks.schedule_failure("SW7", "SW11", at=1.0, repair_at=3.0)
    src, sink = ks.add_udp_probe(rate_pps=100, duration_s=1.5)
    src.start(at=1.2)  # entirely inside the failure
    ks.run(until=5.0)
    assert sink.received == 0


# ---------------------------------------------------------------------------
# Two primary-route links down at once
# ---------------------------------------------------------------------------

def _double_failure(deflection, protection):
    ks = KarSimulation(_fifteen_node(), deflection=deflection,
                       protection=protection, seed=6, ttl=96)
    for a, b in (("SW10", "SW7"), ("SW13", "SW29")):
        ks.schedule_failure(a, b, at=0.5)
    src, sink = ks.add_udp_probe(rate_pps=300, duration_s=2.0)
    src.start(at=1.0)
    ks.run(until=8.0)
    return src, sink, ks


def test_double_failure_nip_full_loses_nothing():
    # Both failure points deflect: the first lands on the protection
    # tree, the second forces the SW19 rejoin around SW13-SW29.
    src, sink, _ = _double_failure("nip", FULL)
    assert sink.received == src.sent
    assert sink.mean_hops() < 10.0


def test_double_failure_unprotected_keeps_most_flowing():
    # The property single-alternative schemes (Slick Packets et al.)
    # structurally lack.
    src, sink, ks = _double_failure("nip", UNPROTECTED)
    assert sink.received >= 0.8 * src.sent
    assert sink.received + sum(ks.tracer.drop_reasons.values()) == src.sent


def test_double_failure_without_deflection_delivers_nothing():
    src, sink, _ = _double_failure("none", FULL)
    assert sink.received == 0


# ---------------------------------------------------------------------------
# A bystander flow beside a deflecting victim
# ---------------------------------------------------------------------------

def _victim_and_bystander(protection):
    """Failure-window / baseline throughput of both flows."""
    ks = KarSimulation(_fifteen_node(), deflection="nip",
                       protection=protection, seed=3)
    ks.schedule_failure("SW7", "SW13", at=QUICK.fail_at,
                        repair_at=QUICK.repair_at)
    victim = ks.add_iperf(sample_interval_s=QUICK.sample_interval_s,
                          max_rto=1.0)
    # H-AS2 -> H-AS3 rides only the SW29 edge links: off the primary
    # route and off the protection tree.
    bystander = ks.add_iperf(src_host="H-AS2", dst_host="H-AS3",
                             sample_interval_s=QUICK.sample_interval_s,
                             max_rto=1.0)
    for flow in (victim, bystander):
        flow.start(at=QUICK.flow_start, duration_s=QUICK.end - QUICK.flow_start)
    ks.run(until=QUICK.end)

    def window_ratio(flow):
        res = flow.result()
        base = res.mean_mbps_between(*QUICK.baseline_window)
        return res.mean_mbps_between(*QUICK.failure_window) / base \
            if base else 0.0

    return window_ratio(victim), window_ratio(bystander)


def test_bystander_keeps_its_share_under_full_protection():
    victim, bystander = _victim_and_bystander(FULL)
    assert bystander > 0.85
    assert victim > 0.3  # the victim survives via deflection


def test_bystander_keeps_most_even_unprotected():
    # Wandering is rate-limited by the victim's own congestion control.
    _, bystander = _victim_and_bystander(UNPROTECTED)
    assert bystander > 0.6


# ---------------------------------------------------------------------------
# Stateless deflection against stateful backup ports, SW7-SW13 down
# ---------------------------------------------------------------------------

def _probe_through_failure(ks):
    ks.schedule_failure("SW7", "SW13", at=1.0, repair_at=4.0)
    src, sink = ks.add_udp_probe(rate_pps=400, duration_s=2.5)
    src.start(at=1.2)  # inside the failure window
    ks.run(until=6.0)
    return sink.delivery_ratio(src.sent)


def test_kar_deflection_is_hitless():
    ks = KarSimulation(_fifteen_node(), deflection="nip", protection=PARTIAL,
                       seed=9)
    # Zero loss, with no controller involvement at all.
    assert _probe_through_failure(ks) == 1.0


def test_fast_failover_delivers_but_needs_state_in_every_switch():
    scn = _fifteen_node()
    dst_edge = scn.graph.edge_of_host(scn.dst_host)
    backups = plan_backup_ports(scn.graph, scn.primary_route, dst_edge)
    tree = plan_destination_tree(scn.graph, dst_edge)
    ks = KarSimulation(scn, deflection="none", protection=UNPROTECTED,
                       seed=9, install_primary_flow=True)
    state_entries = 0
    for name, port in tree.items():
        node = ks.network.node(name)
        assert isinstance(node, KarSwitch)
        node.strategy = FastFailoverStrategy(backups.get(name),
                                             default_port=port)
        state_entries += 1 + len(backups.get(name, {}))
    assert _probe_through_failure(ks) == 1.0
    # ...at the price of per-switch state across the whole core for ONE
    # destination: the Table 2 distinction KAR removes.
    assert state_entries >= 15


# ---------------------------------------------------------------------------
# The protection planner across header budgets
# ---------------------------------------------------------------------------

def test_header_budget_buys_coverage():
    budgets = (15, 24, 30, 43, 60)
    scn = fifteen_node()
    planner = ProtectionPlanner(scn.graph)
    plans = [planner.partial(scn.primary_route, budget_bits=b)
             for b in budgets]
    covered = [len(p.covered) for p in plans]
    assert covered == sorted(covered)
    assert all(p.bit_length <= b for p, b in zip(plans, budgets))
    assert covered[0] == 0  # 15 bits: the primary route only
    # 60 bits cover everything coverable; SW9 has no off-route path to
    # the destination, and NIP's forced rejoin handles it instead.
    assert plans[-1].uncovered == ("SW9",)


def test_planned_full_protection_delivers_through_sw10_failure():
    # The case hand-pinned partial protection leaves 2/3 wandering.
    base = _fifteen_node()
    plan = ProtectionPlanner(base.graph).full(base.primary_route)
    scn = Scenario(
        name="fifteen_node_planned",
        graph=base.graph,
        primary_route=base.primary_route,
        src_host=base.src_host,
        dst_host=base.dst_host,
        protection={"planned": tuple(plan.segments)},
        reverse_protection={},
        failure_links=base.failure_links,
    )
    ks = KarSimulation(scn, deflection="nip", protection="planned", seed=5)
    ks.schedule_failure("SW10", "SW7", at=0.5)
    src, sink = ks.add_udp_probe(rate_pps=400, duration_s=3.0)
    src.start(at=1.0)
    ks.run(until=6.0)
    assert sink.delivery_ratio(src.sent) == 1.0
    # Every deflected packet is driven: no wandering tails.
    assert sink.mean_hops() < 7.0


# ---------------------------------------------------------------------------
# Reno against CUBIC through the Fig. 4 failure
# ---------------------------------------------------------------------------

def _throughput_ratio(sender_cls, deflection):
    ks = KarSimulation(_fifteen_node(), deflection=deflection,
                       protection=PARTIAL, seed=2)
    ks.schedule_failure("SW7", "SW13", at=QUICK.fail_at,
                        repair_at=QUICK.repair_at)
    flow = ks.add_iperf(sample_interval_s=QUICK.sample_interval_s,
                        sender_cls=sender_cls, max_rto=1.0)
    flow.start(at=QUICK.flow_start, duration_s=QUICK.end - QUICK.flow_start)
    ks.run(until=QUICK.end)
    res = flow.result()
    base = res.mean_mbps_between(*QUICK.baseline_window)
    return res.mean_mbps_between(*QUICK.failure_window) / base if base else 0.0


def test_conclusions_hold_under_reno_and_cubic():
    reno_nip = _throughput_ratio(TcpSender, "nip")
    cubic_nip = _throughput_ratio(CubicTcpSender, "nip")
    assert reno_nip > 0.5
    assert cubic_nip > 0.5
    assert _throughput_ratio(CubicTcpSender, "none") < 0.05
    assert abs(reno_nip - cubic_nip) < 0.4  # the same qualitative band


# ---------------------------------------------------------------------------
# The stack end to end
# ---------------------------------------------------------------------------

def test_healthy_probe_delivers_every_packet():
    ks = KarSimulation(fifteen_node(rate_mbps=100.0, delay_s=0.0002),
                       deflection="nip", protection="partial", seed=1)
    src, sink = ks.add_udp_probe(rate_pps=2000, duration_s=1.0)
    src.start()
    ks.run(until=1.5)
    assert sink.received == 2001
