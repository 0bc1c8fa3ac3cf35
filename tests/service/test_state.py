"""The controller state machine: flow lifecycle, repair, determinism."""

import random

import pytest

from repro.controller.provision import ProvisionError, ProvisioningEngine
from repro.controller.routing import hops_for_path
from repro.rns.crt import crt
from repro.service.admission import AdmissionError
from repro.service.state import ControllerState, UnknownFlowError
from repro.service.topology import edge_names, service_topology
from repro.topology import NodeKind


def fresh(topology="six_node"):
    return ControllerState(service_topology(topology))


class TestProvision:
    def test_paper_route_on_six_node(self):
        state = fresh()
        record = state.provision("t0", "E-S", "E-D")
        # The canonical Section 2.2 example: E-S→SW4→SW7→SW11→E-D
        # encodes to route ID 44 under modulus 308.
        assert record.node_path == ("E-S", "SW4", "SW7", "SW11", "E-D")
        assert (record.route.route_id, record.route.modulus) == (44, 308)
        assert record.qos is False
        assert record.flow_id == "f00000001"

    def test_flow_ids_are_sequential(self):
        state = fresh()
        a = state.provision("t0", "E-S", "E-D")
        b = state.provision("t1", "E-D", "E-S")
        assert [a.flow_id, b.flow_id] == ["f00000001", "f00000002"]

    def test_qos_flow_reserves_bandwidth(self):
        state = fresh()
        record = state.provision("t0", "E-S", "E-D", bandwidth_mbps=10.0)
        assert record.qos is True
        held = state.ledger.flow_reservation(record.flow_id)
        assert held is not None and held[0] == 10.0
        assert state.audit() == []
        state.release(record.flow_id)
        assert state.ledger.flow_reservation(record.flow_id) is None

    def test_latency_only_flow_is_qos_without_reservation(self):
        state = fresh()
        record = state.provision("t0", "E-S", "E-D", max_latency_s=1.0)
        assert record.qos is True
        assert state.ledger.flow_reservation(record.flow_id) is None

    def test_route_matches_reference_crt(self):
        state = fresh("torus33")
        record = state.provision("t0", "E-SW0-0", "E-SW2-2")
        residues = sorted(record.route.residue_map().items())
        ref = crt([p for _, p in residues], [s for s, _ in residues])
        assert ref == (record.route.route_id, record.route.modulus)

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ProvisionError) as exc:
            fresh().provision("t0", "E-S", "E-D", bandwidth_mbps=-1.0)
        assert exc.value.reason == "bad-request"

    def test_release_unknown_flow(self):
        with pytest.raises(UnknownFlowError):
            fresh().release("f99999999")

    def test_list_flows_filters_by_tenant(self):
        state = fresh()
        state.provision("alice", "E-S", "E-D")
        state.provision("bob", "E-D", "E-S")
        assert [f.tenant for f in state.list_flows()] == ["alice", "bob"]
        assert [f.tenant for f in state.list_flows("bob")] == ["bob"]


class TestReroute:
    def test_best_effort_detour(self):
        state = fresh()
        record = state.provision("t0", "E-S", "E-D")
        rerouted = state.reroute(record.flow_id, "SW7", "SW5")
        assert rerouted.detoured is True
        assert rerouted.route.residue_map()[7] == \
            state.graph.port_of("SW7", "SW5")
        # Untouched hops keep their residues — the incremental contract.
        for sid, port in record.route.residue_map().items():
            if sid != 7:
                assert rerouted.route.residue_map()[sid] == port

    def test_reserved_flow_refused(self):
        state = fresh()
        record = state.provision("t0", "E-S", "E-D", bandwidth_mbps=5.0)
        with pytest.raises(ProvisionError) as exc:
            state.reroute(record.flow_id, "SW7", "SW5")
        assert exc.value.reason == "qos-reroute-unsupported"

    def test_unknown_flow(self):
        with pytest.raises(UnknownFlowError):
            fresh().reroute("f00000042", "SW7", "SW5")


class TestTopologyEvents:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ProvisionError) as exc:
            fresh().topology_event("meteor_strike", "SW4", "SW7")
        assert exc.value.reason == "bad-request"

    def test_link_down_repairs_off_the_failed_link(self):
        state = fresh()
        record = state.provision("t0", "E-S", "E-D")
        a, b = record.node_path[2], record.node_path[3]
        summary = state.topology_event("link_down", a, b)
        assert summary["changed"] is True
        assert summary["repaired"] == [record.flow_id]
        repaired = state.flow(record.flow_id)
        down = state.engine.down_links
        assert all(key not in down for key in repaired.links)
        assert repaired.repairs == 1
        assert state.audit() == []

    def test_link_up_restores(self):
        state = fresh()
        state.topology_event("link_down", "SW4", "SW7")
        summary = state.topology_event("link_up", "SW4", "SW7")
        assert summary["changed"] is True
        assert state.engine.down_links == frozenset()

    def test_port_flap_leaves_link_up_but_repairs(self):
        state = fresh()
        record = state.provision("t0", "E-S", "E-D")
        a, b = record.node_path[2], record.node_path[3]
        summary = state.topology_event("port_flap", a, b)
        assert summary["repaired"] == [record.flow_id]
        assert state.engine.down_links == frozenset()

    def test_port_flap_on_a_down_link_leaves_it_down(self):
        state = fresh()
        state.topology_event("link_down", "SW4", "SW7")
        epoch = state.engine.epoch
        summary = state.topology_event("port_flap", "SW4", "SW7")
        assert summary["changed"] is False
        assert state.engine.down_links == {("SW4", "SW7")}
        assert state.engine.epoch == epoch

    def test_qos_repair_moves_the_reservation(self):
        state = fresh("torus33")
        record = state.provision(
            "t0", "E-SW0-0", "E-SW2-2", bandwidth_mbps=10.0
        )
        a, b = record.node_path[1], record.node_path[2]
        state.topology_event("link_down", a, b)
        repaired = state.flow(record.flow_id)
        held = state.ledger.flow_reservation(record.flow_id)
        assert held is not None
        assert held[1] == repaired.links
        assert state.audit() == []

    def test_eviction_when_no_compliant_path_survives(self):
        state = fresh()
        record = state.provision("t0", "E-S", "E-D", bandwidth_mbps=10.0)
        # Cut every core link that reaches E-D's attachment switch.
        dst_switch = record.node_path[-2]
        evicted = {}
        for neighbor in sorted(state.graph.neighbors(dst_switch)):
            if state.graph.node(neighbor).kind == NodeKind.CORE:
                summary = state.topology_event(
                    "link_down", dst_switch, neighbor
                )
                evicted.update(summary["evicted"])
        assert evicted.get(record.flow_id) == "no-route"
        assert record.flow_id not in state.flows
        assert state.ledger.flow_reservation(record.flow_id) is None
        assert state.evicted == {"no-route": 1}
        assert state.audit() == []

    def test_best_effort_repair_encodes_the_residual_path(self):
        state = fresh("torus33")
        records = [
            state.provision("t0", "E-SW0-0", "E-SW2-2") for _ in range(3)
        ]
        a, b = records[0].node_path[1], records[0].node_path[2]
        summary = state.topology_event("link_down", a, b)
        assert summary["repaired"] == [r.flow_id for r in records]
        for record in records:
            assert (a, b) not in zip(record.node_path, record.node_path[1:])
            hops = hops_for_path(state.graph, record.node_path)
            assert (record.route.route_id, record.route.modulus) == crt(
                [h.port for h in hops], [h.switch_id for h in hops]
            )
        assert state.audit() == []


class TestRepairByEdgePair:
    def test_flows_of_one_pair_share_one_encode(self, monkeypatch):
        state = fresh("torus33")
        records = [
            state.provision("t0", "E-SW0-0", "E-SW2-2") for _ in range(5)
        ]
        encoder = state.engine.encoder
        encode, calls = encoder.encode, []
        monkeypatch.setattr(
            encoder, "encode", lambda hops: calls.append(1) or encode(hops)
        )
        a, b = records[0].node_path[1], records[0].node_path[2]
        summary = state.topology_event("link_down", a, b)
        assert summary["repaired"] == [r.flow_id for r in records]
        assert len(calls) == 1
        assert len({id(r.route) for r in records}) == 1

    def test_repair_equals_a_fresh_provision_under_churn(self):
        # Each flap's repaired best-effort flows against a fresh engine
        # (no memo) with the flap's link down.
        rng = random.Random("repair-by-pair")
        state = fresh("abilene")
        graph = state.graph
        edges = edge_names(graph)
        core_links = sorted(
            link.key for link in graph.links()
            if all(graph.node(n).kind == NodeKind.CORE for n in link.key)
        )
        checked = 0
        for _ in range(2000):
            roll = rng.random()
            if roll < 0.5 or not state.flows:
                src, dst = rng.sample(edges, 2)
                try:
                    state.provision("t0", src, dst, bandwidth_mbps=(
                        rng.choice((1.0, 5.0)) if rng.random() < 0.3
                        else 0.0
                    ))
                except AdmissionError:
                    pass
            elif roll < 0.8:
                state.release(rng.choice(list(state.flows)))
            else:
                a, b = rng.choice(core_links)
                reference = ProvisioningEngine(graph)
                reference.set_link_down(a, b)
                summary = state.topology_event("port_flap", a, b)
                for flow_id in summary["repaired"]:
                    record = state.flow(flow_id)
                    if record.qos:
                        continue
                    want = reference.provision(
                        record.src_edge, record.dst_edge
                    )
                    assert (
                        record.route.route_id, record.route.modulus,
                        record.node_path, record.out_port,
                    ) == (
                        want.route.route_id, want.route.modulus,
                        want.node_path, want.out_port,
                    )
                    checked += 1
        assert checked > 1000
        assert state.audit() == []


class TestDeterminism:
    OPS = [
        ("provision", ("t0", "E-S", "E-D", 0.0)),
        ("provision", ("t1", "E-D", "E-S", 5.0)),
        ("event", ("port_flap", "SW7", "SW11")),
        ("provision", ("t0", "E-S", "E-D", 0.0)),
        ("release", ("f00000001",)),
        ("event", ("link_down", "SW5", "SW7")),
        ("event", ("link_up", "SW5", "SW7")),
    ]

    @staticmethod
    def _transcript(state):
        log = []
        for op, args in TestDeterminism.OPS:
            if op == "provision":
                tenant, src, dst, bw = args
                record = state.provision(tenant, src, dst,
                                         bandwidth_mbps=bw)
                log.append((record.flow_id, record.route.route_id,
                            record.route.modulus, record.node_path))
            elif op == "release":
                log.append(state.release(*args).flow_id)
            else:
                log.append(tuple(sorted(state.topology_event(*args).items(),
                                        key=lambda kv: kv[0])))
        log.append(sorted(state.flows))
        return log

    def test_identical_op_sequences_are_bit_identical(self):
        assert self._transcript(fresh()) == self._transcript(fresh())

    def test_stats_are_json_shaped(self):
        state = fresh()
        state.provision("t0", "E-S", "E-D", bandwidth_mbps=1.0)
        stats = state.stats()
        assert set(stats) == {"service", "admission", "engine"}
        assert stats["service"]["flows_live"] == 1
        view = state.topology_view()
        assert view["epoch"] == state.engine.epoch
        assert all(link["up"] for link in view["links"])
