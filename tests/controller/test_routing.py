"""Tests for path-to-hops conversion and route encoding."""

import pytest

from repro.controller import (
    RoutingError,
    core_path_between_edges,
    encode_node_path,
    hops_for_path,
)
from repro.rns import RouteEncoder
from repro.topology import six_node


@pytest.fixture(scope="module")
def scn():
    return six_node()


class TestHopsForPath:
    def test_paper_primary_path(self, scn):
        hops = hops_for_path(
            scn.graph, ["E-S", "SW4", "SW7", "SW11", "E-D"]
        )
        assert [(h.switch_id, h.port) for h in hops] == [(4, 0), (7, 2), (11, 0)]

    def test_skips_non_core_endpoints(self, scn):
        hops = hops_for_path(scn.graph, ["SW4", "SW7", "SW11"])
        # SW11 has no next node, so only SW4 and SW7 emit hops.
        assert [(h.switch_id, h.port) for h in hops] == [(4, 0), (7, 2)]

    def test_non_adjacent_step_rejected(self, scn):
        with pytest.raises(RoutingError, match="not a link"):
            hops_for_path(scn.graph, ["SW4", "SW11"])

    def test_too_short(self, scn):
        with pytest.raises(RoutingError, match="too short"):
            hops_for_path(scn.graph, ["SW4"])

    def test_no_core_hops(self, scn):
        with pytest.raises(RoutingError, match="no core hops"):
            hops_for_path(scn.graph, ["E-D", "D"])


class TestEncodeNodePath:
    def test_paper_route_id_44(self, scn):
        route = encode_node_path(scn.graph, ["E-S", "SW4", "SW7", "SW11", "E-D"])
        assert route.route_id == 44
        assert route.modulus == 308

    def test_paper_route_id_660_with_protection(self, scn):
        from repro.controller import segments_to_hops
        from repro.topology import ProtectionSegment

        extra = segments_to_hops(scn.graph, [ProtectionSegment("SW5", "SW11")])
        route = encode_node_path(
            scn.graph, ["E-S", "SW4", "SW7", "SW11", "E-D"], extra_hops=extra
        )
        assert route.route_id == 660
        assert route.modulus == 1540

    def test_custom_encoder_used(self, scn):
        class CountingEncoder(RouteEncoder):
            calls = 0

            def encode(self, hops):
                type(self).calls += 1
                return super().encode(hops)

        enc = CountingEncoder()
        encode_node_path(scn.graph, ["SW4", "SW7", "SW11"], encoder=enc)
        assert CountingEncoder.calls == 1


class TestCorePathBetweenEdges:
    def test_shortest_edge_to_edge(self, scn):
        path = core_path_between_edges(scn.graph, "E-S", "E-D")
        assert path[0] == "E-S" and path[-1] == "E-D"
        assert path == ["E-S", "SW4", "SW7", "SW11", "E-D"]

    def test_avoids_failed_link(self, scn):
        path = core_path_between_edges(
            scn.graph, "E-S", "E-D", forbidden_links=[("SW11", "SW7")]
        )
        assert path == ["E-S", "SW4", "SW7", "SW5", "SW11", "E-D"]

    def test_hosts_never_transited(self, scn):
        # The only path avoiding all of the core would go through hosts;
        # forbidding the core links must fail rather than route via D.
        with pytest.raises(Exception):
            core_path_between_edges(
                scn.graph, "E-S", "E-D",
                forbidden_links=[("SW11", "SW7"), ("SW11", "SW5"),
                                 ("E-D", "SW11")],
            )
