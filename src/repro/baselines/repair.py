"""The "traditional approach": controller-driven route repair.

Section 2 of the paper describes the baseline KAR is designed to beat:
on a link failure, notify the controller, which "recalculates the route
ID excluding the faulty link" and reinstalls it at the ingress — and
"all packets sent by the source before the route ID modification will
be lost".

:class:`ControllerRepair` implements exactly that: after a failure
notification plus a configurable reaction delay, the ingress entry is
replaced by a route avoiding the failed link; on repair the original
route is restored.  Combine with ``deflection="none"`` to measure the
paper's loss window, or with deflection enabled to measure the hybrid.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.controller.routing import core_path_between_edges, encode_node_path
from repro.runner import KarSimulation
from repro.switches.edge import EdgeNode, IngressEntry
from repro.topology.paths import NoPathError

__all__ = ["ControllerRepair"]


class ControllerRepair:
    """Schedules reactive route repair for the scenario's primary flow.

    Args:
        ks: the wired simulation.
        reaction_delay_s: failure detection + notification + computation
            + installation latency (the paper's motivation: this window
            is where packets die).
    """

    def __init__(self, ks: KarSimulation, reaction_delay_s: float = 0.1):
        if reaction_delay_s < 0:
            raise ValueError("reaction delay must be non-negative")
        self.ks = ks
        self.reaction_delay_s = reaction_delay_s
        self.repairs_installed = 0
        self.restores_installed = 0

    # ------------------------------------------------------------------
    def arm(self, a: str, b: str, fail_at: float,
            repair_at: Optional[float] = None) -> None:
        """Arm repair for a scheduled failure of link a-b.

        Call *instead of* ``ks.schedule_failure`` — this schedules both
        the failure itself and the controller's delayed reaction.
        """
        self.ks.schedule_failure(a, b, at=fail_at, repair_at=repair_at)
        self.ks.sim.schedule_at(
            fail_at + self.reaction_delay_s, self._reroute_primary, (a, b)
        )
        if repair_at is not None:
            self.ks.sim.schedule_at(
                repair_at + self.reaction_delay_s, self._restore_primary
            )

    # ------------------------------------------------------------------
    def _edges(self) -> Tuple[str, str, EdgeNode]:
        scn = self.ks.scenario
        src_edge = scn.graph.edge_of_host(scn.src_host)
        dst_edge = scn.graph.edge_of_host(scn.dst_host)
        ingress = self.ks.network.node(src_edge)
        assert isinstance(ingress, EdgeNode)
        return src_edge, dst_edge, ingress

    def _reroute_primary(self, failed: Tuple[str, str]) -> None:
        scn = self.ks.scenario
        src_edge, dst_edge, ingress = self._edges()
        try:
            node_path = core_path_between_edges(
                scn.graph, src_edge, dst_edge,
                forbidden_links=[failed],
            )
        except NoPathError:
            return  # nothing the controller can do
        route = encode_node_path(scn.graph, node_path)
        ingress.install_ingress(
            scn.dst_host,
            IngressEntry(
                route_id=route.route_id,
                modulus=route.modulus,
                out_port=scn.graph.port_of(src_edge, node_path[1]),
                ttl=self.ks.controller.default_ttl,
                residues=route.residue_map(),
            ),
        )
        self.repairs_installed += 1

    def _restore_primary(self) -> None:
        scn = self.ks.scenario
        forward, _ = self.ks.install_flow(scn.src_host, scn.dst_host)
        self.restores_installed += 1
