"""Admission control: the reservation ledger and the CSPF solver.

The Hypothesis block is the satellite property from the issue: on
random connected topologies, any path CSPF *accepts* actually satisfies
the constraints it was asked for — every link carries the bandwidth on
top of existing reservations, the end-to-end delay fits the budget, no
failed link is used, and the path is simple edge→core*→edge.
"""

import pytest
from hypothesis import given, strategies as st

from repro.controller.provision import ProvisionError
from repro.service.admission import (
    AdmissionError,
    ReservationLedger,
    cspf_path,
    path_link_keys,
)
from repro.service.topology import service_topology
from repro.topology import NodeKind
from repro.topology.generators import attach_edges, random_connected


@pytest.fixture(scope="module")
def six_node():
    return service_topology("six_node")


def _key(a, b):
    return tuple(sorted((a, b)))


class TestPathLinkKeys:
    def test_canonical_and_ordered(self, six_node):
        path = cspf_path(six_node, "E-S", "E-D")
        keys = path_link_keys(path)
        assert len(keys) == len(path) - 1
        for key, a, b in zip(keys, path, path[1:]):
            assert key == _key(a, b)


class TestReservationLedger:
    def test_reserve_then_release_conserves(self, six_node):
        ledger = ReservationLedger(six_node)
        path = cspf_path(six_node, "E-S", "E-D")
        keys = path_link_keys(path)
        before = {k: ledger.residual(k) for k in keys}
        ledger.reserve("f1", 10.0, keys)
        for k in keys:
            assert ledger.residual(k) == pytest.approx(before[k] - 10.0)
        assert ledger.release("f1") is True
        for k in keys:
            assert ledger.residual(k) == pytest.approx(before[k])
        assert ledger.accepted == 1 and ledger.released == 1
        assert ledger.audit(live_flow_ids=[]) == []

    def test_release_of_unreserved_flow_is_false(self, six_node):
        assert ReservationLedger(six_node).release("ghost") is False

    def test_failed_reserve_is_atomic(self, six_node):
        ledger = ReservationLedger(six_node)
        path = cspf_path(six_node, "E-S", "E-D")
        keys = path_link_keys(path)
        cap = min(ledger.capacity[k] for k in keys)
        ledger.reserve("f1", cap, keys)
        # Second flow over the same links cannot fit: the ledger must
        # reject without committing anything on any link.
        with pytest.raises(AdmissionError) as exc:
            ledger.reserve("f2", 1.0, keys)
        assert exc.value.reason == "insufficient-bandwidth"
        assert ledger.flow_reservation("f2") is None
        for k in keys:
            assert ledger.residual(k) == pytest.approx(
                ledger.capacity[k] - cap
            )
        assert ledger.rejected == {"insufficient-bandwidth": 1}
        assert ledger.audit(live_flow_ids=["f1"]) == []

    def test_caller_bugs_raise_value_error(self, six_node):
        ledger = ReservationLedger(six_node)
        keys = path_link_keys(cspf_path(six_node, "E-S", "E-D"))
        with pytest.raises(ValueError):
            ledger.reserve("f1", 0.0, keys)
        with pytest.raises(ValueError):
            ledger.reserve("f1", 5.0, [("NOPE", "NADA")])
        ledger.reserve("f1", 5.0, keys)
        with pytest.raises(ValueError):
            ledger.reserve("f1", 5.0, keys)  # duplicate flow ID

    def test_audit_flags_orphans(self, six_node):
        ledger = ReservationLedger(six_node)
        keys = path_link_keys(cspf_path(six_node, "E-S", "E-D"))
        ledger.reserve("f1", 5.0, keys)
        assert ledger.audit(live_flow_ids=["f1"]) == []
        violations = ledger.audit(live_flow_ids=[])
        assert violations and "orphaned" in violations[0]

    def test_stats_shape(self, six_node):
        ledger = ReservationLedger(six_node)
        keys = path_link_keys(cspf_path(six_node, "E-S", "E-D"))
        ledger.reserve("f1", 5.0, keys)
        stats = ledger.stats()
        assert stats["accepted"] == 1
        assert stats["reserved_flows"] == 1
        assert stats["links_with_reservations"] == len(set(keys))
        assert all(v == 5.0 for v in stats["reserved_mbps"].values())


class TestCspfPath:
    def test_endpoints_and_core_interior(self, six_node):
        path = cspf_path(six_node, "E-S", "E-D")
        assert path[0] == "E-S" and path[-1] == "E-D"
        for name in path[1:-1]:
            assert six_node.node(name).kind == NodeKind.CORE

    def test_deterministic(self, six_node):
        assert cspf_path(six_node, "E-S", "E-D") == cspf_path(
            six_node, "E-S", "E-D"
        )

    # Endpoint errors are the engine's rule (require_flow_endpoints):
    # malformed requests, not admission decisions.
    def test_same_edge_rejected(self, six_node):
        with pytest.raises(ProvisionError) as exc:
            cspf_path(six_node, "E-S", "E-S")
        assert exc.value.reason == "same-edge"

    def test_non_edge_endpoint_rejected(self, six_node):
        with pytest.raises(ProvisionError) as exc:
            cspf_path(six_node, "SW4", "E-D")
        assert exc.value.reason == "not-an-edge"

    def test_unknown_endpoint_rejected(self, six_node):
        with pytest.raises(ProvisionError) as exc:
            cspf_path(six_node, "E-S", "E-NOPE", bandwidth_mbps=1.0)
        assert exc.value.reason == "unknown-node"

    def test_latency_budget_enforced(self, six_node):
        with pytest.raises(AdmissionError) as exc:
            cspf_path(six_node, "E-S", "E-D", max_latency_s=1e-12)
        assert exc.value.reason == "latency-exceeded"

    def test_bandwidth_beyond_any_link_rejected(self, six_node):
        too_much = max(l.rate_mbps for l in six_node.links()) + 1
        with pytest.raises(AdmissionError) as exc:
            cspf_path(six_node, "E-S", "E-D", bandwidth_mbps=too_much)
        assert exc.value.reason == "insufficient-bandwidth"

    def test_down_links_disconnect_to_no_route(self, six_node):
        down = frozenset(
            _key(a, b)
            for a, b in [
                (l.key[0], l.key[1])
                for l in six_node.links()
                if "E-D" in l.key
            ]
        )
        with pytest.raises(AdmissionError) as exc:
            cspf_path(six_node, "E-S", "E-D", down=down)
        assert exc.value.reason == "no-route"

    def test_reservations_steer_the_path(self, six_node):
        ledger = ReservationLedger(six_node)
        free = cspf_path(
            six_node, "E-S", "E-D", bandwidth_mbps=50.0,
            residual=ledger.residual,
        )
        # Soak the chosen path; the next identical ask must route
        # around it (or be rejected) — never share a saturated link.
        keys = path_link_keys(free)
        ledger.reserve("hog", min(ledger.capacity[k] for k in keys) - 10.0,
                       keys)
        try:
            second = cspf_path(
                six_node, "E-S", "E-D", bandwidth_mbps=50.0,
                residual=ledger.residual,
            )
        except AdmissionError as exc:
            assert exc.reason == "insufficient-bandwidth"
        else:
            for key in path_link_keys(second):
                assert ledger.residual(key) >= 50.0


@st.composite
def _admission_case(draw):
    """A random provisioning domain plus one QoS ask over it."""
    n = draw(st.integers(min_value=3, max_value=8))
    extra = draw(st.integers(min_value=0, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = random_connected(n, extra_links=extra, seed=seed)
    edges = attach_edges(graph)
    src = draw(st.sampled_from(edges))
    dst = draw(st.sampled_from([e for e in edges if e != src]))
    bandwidth = draw(st.floats(min_value=0.0, max_value=120.0))
    latency = draw(
        st.one_of(st.none(), st.floats(min_value=1e-4, max_value=1e-2))
    )
    # Pre-load the ledger with up to two background reservations so the
    # residual the solver sees is not just raw capacity.
    background = draw(st.integers(min_value=0, max_value=2))
    return graph, edges, src, dst, bandwidth, latency, background, seed


class TestCspfPropertyRandomTopologies:
    @given(_admission_case())
    def test_accepted_paths_satisfy_their_constraints(self, case):
        graph, edges, src, dst, bandwidth, latency, background, seed = case
        ledger = ReservationLedger(graph)
        for i in range(background):
            a, b = edges[i % len(edges)], edges[(i + 1) % len(edges)]
            if a == b:
                continue
            try:
                path = cspf_path(graph, a, b, bandwidth_mbps=30.0,
                                 residual=ledger.residual)
                ledger.reserve(f"bg{i}", 30.0, path_link_keys(path))
            except AdmissionError:
                pass
        try:
            path = cspf_path(
                graph, src, dst,
                bandwidth_mbps=bandwidth,
                max_latency_s=latency,
                residual=ledger.residual,
            )
        except AdmissionError as exc:
            assert exc.reason in (
                "insufficient-bandwidth", "latency-exceeded", "no-route"
            )
            return
        # Shape: simple path, edge endpoints, core interior, real links.
        assert path[0] == src and path[-1] == dst
        assert len(set(path)) == len(path)
        for name in path[1:-1]:
            assert graph.node(name).kind == NodeKind.CORE
        total_delay = 0.0
        for a, b in zip(path, path[1:]):
            link = graph.link(a, b)
            total_delay += link.delay_s
            if bandwidth > 0:
                assert ledger.residual(_key(a, b)) + 1e-9 >= bandwidth
        if latency is not None:
            assert total_delay <= latency + 1e-9
        # And the ledger must actually take it (accepted == admittable).
        if bandwidth > 0:
            ledger.reserve("accepted", bandwidth, path_link_keys(path))
            assert ledger.audit() == []
