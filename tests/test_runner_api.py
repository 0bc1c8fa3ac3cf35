"""Tests for the KarSimulation facade API."""

import pytest

from repro import FULL, PARTIAL, UNPROTECTED, KarSimulation, fifteen_node, six_node
from repro.switches.deflection import NotInputPort


class TestConstruction:
    def test_strategy_object_accepted(self):
        ks = KarSimulation(six_node(), deflection=NotInputPort(), seed=0)
        assert ks.strategy.name == "nip"

    def test_unknown_strategy_name(self):
        with pytest.raises(ValueError):
            KarSimulation(six_node(), deflection="teleport", seed=0)

    def test_missing_strategy_name(self):
        # None used to escape as an AttributeError from the lookup.
        with pytest.raises(ValueError, match="unknown deflection"):
            KarSimulation(six_node(), deflection=None, seed=0)

    def test_unknown_protection_level(self):
        with pytest.raises(Exception, match="protection level"):
            KarSimulation(six_node(), protection="mega", seed=0)

    def test_primary_flow_optional(self):
        ks = KarSimulation(six_node(), seed=0, install_primary_flow=False)
        assert ks.primary_forward is None
        ingress = ks.network.node("E-S")
        assert ingress.ingress_entry("D") is None

    def test_every_core_switch_built_with_strategy(self):
        ks = KarSimulation(fifteen_node(), deflection="avp", seed=0)
        from repro.switches import KarSwitch

        switches = [n for n in ks.network.nodes.values()
                    if isinstance(n, KarSwitch)]
        assert len(switches) == 15
        assert all(sw.strategy.name == "avp" for sw in switches)

    def test_ttl_propagates_to_entries(self):
        ks = KarSimulation(six_node(), seed=0, ttl=17)
        entry = ks.network.node("E-S").ingress_entry("D")
        assert entry.ttl == 17


class TestFlows:
    def test_host_accessor_type_checks(self):
        ks = KarSimulation(six_node(), seed=0)
        assert ks.host("S").name == "S"
        with pytest.raises(TypeError):
            ks.host("SW4")

    def test_install_flow_arbitrary_pair(self):
        ks = KarSimulation(fifteen_node(), seed=0)
        fwd, rev = ks.install_flow("H-AS2", "H-AS1")
        assert fwd.route_id >= 0 and rev.route_id >= 0
        egress = ks.network.node("E-AS2")
        assert egress.ingress_entry("H-AS1") is not None

    def test_add_iperf_default_pair_uses_protection(self):
        ks = KarSimulation(fifteen_node(), protection=FULL, seed=0)
        # Protected forward route encodes 10 switches (Table 1).
        assert len(ks.primary_forward.hops) == 10

    def test_flow_ids_unique(self):
        ks = KarSimulation(fifteen_node(), seed=0)
        f1 = ks.add_iperf()
        f2 = ks.add_iperf(src_host="H-AS2", dst_host="H-AS3")
        assert f1.flow_id != f2.flow_id

    def test_udp_probe_custom_pair(self):
        ks = KarSimulation(fifteen_node(), seed=0)
        src, sink = ks.add_udp_probe(rate_pps=100, duration_s=0.2,
                                     src_host="H-AS2", dst_host="H-AS3")
        src.start()
        ks.run(until=1.0)
        assert sink.received == src.sent


class TestProtectionLevels:
    @pytest.mark.parametrize("level,count", [
        (UNPROTECTED, 4), (PARTIAL, 7), (FULL, 10),
    ])
    def test_encoded_switch_counts_match_table1(self, level, count):
        ks = KarSimulation(fifteen_node(), protection=level, seed=0)
        assert len(ks.primary_forward.hops) == count
