"""The KAR network controller.

The controller plays the three roles named in the paper:

1. **Switch-ID handling** — validated at topology construction (or
   planned via :mod:`repro.controller.idassign` for generated graphs).
2. **Routing decisions** — computing route IDs for flows: the primary
   path hops plus any driven-deflection protection hops, via the RNS
   encoder.
3. **Re-encoding for stray packets** — an edge that receives a packet
   it does not serve asks the controller for a fresh route ID from
   itself to the destination (Section 2.1's second approach, the one
   the paper evaluates).  The re-encode is served after a configurable
   control-plane RTT.

Per the paper's experimental method, the controller *ignores failure
notifications* — deflection, not control-plane repair, is the failure
response being measured.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.controller.protection import segments_to_hops
from repro.controller.routing import core_path_between_edges, encode_node_path
from repro.rns.encoder import EncodedRoute, RouteEncoder
from repro.sim.network import Network
from repro.sim.packet import DEFAULT_TTL
from repro.switches.edge import EdgeNode, IngressEntry
from repro.topology.graph import PortGraph, TopologyError
from repro.topology.topologies import ProtectionSegment

__all__ = ["KarController"]


class KarController:
    """Centralized route computation + re-encode service.

    Args:
        graph: the full topology (the controller "knows the entire
            network topology, including the Switch IDs").
        control_rtt_s: latency of one edge-to-controller round trip,
            charged to every misdelivery re-encode.
        default_ttl: hop budget stamped on encapsulated packets.
    """

    def __init__(
        self,
        graph: PortGraph,
        control_rtt_s: float = 0.005,
        default_ttl: int = DEFAULT_TTL,
        encoder: Optional[RouteEncoder] = None,
    ):
        self.graph = graph
        self._control_rtt_s = control_rtt_s
        self.default_ttl = default_ttl
        self.encoder = encoder or RouteEncoder()
        self._reencode_cache: Dict[Tuple[str, str], Optional[IngressEntry]] = {}
        self.reencodes_served = 0
        self._reachable = True

    # ------------------------------------------------------------------
    # ReencodeService protocol (used by EdgeNode)
    # ------------------------------------------------------------------
    @property
    def control_rtt_s(self) -> float:
        return self._control_rtt_s

    @property
    def reachable(self) -> bool:
        """Whether the re-encode service currently answers requests.

        Chaos injectors (:class:`~repro.sim.chaos.ControllerOutageChaos`)
        toggle this; edges observe an unreachable controller as a
        request timeout and enter their retry/backoff path.
        """
        return self._reachable

    def set_reachable(self, up: bool) -> None:
        self._reachable = up

    def reencode(self, edge_name: str, dst_host: str) -> Optional[IngressEntry]:
        """Best-path route ID from *edge_name* to *dst_host*'s edge.

        Deterministic, so results are cached.  The controller ignores
        link failures here (it ignores failure notifications during the
        experiments), so a re-encoded route may well traverse the failed
        link again and deflect again — faithful to the prototype.
        """
        key = (edge_name, dst_host)
        if key not in self._reencode_cache:
            self._reencode_cache[key] = self._compute_entry(edge_name, dst_host)
        self.reencodes_served += 1
        return self._reencode_cache[key]

    def _compute_entry(
        self, edge_name: str, dst_host: str
    ) -> Optional[IngressEntry]:
        try:
            dst_edge = self.graph.edge_of_host(dst_host)
            node_path = core_path_between_edges(self.graph, edge_name, dst_edge)
            route = encode_node_path(self.graph, node_path, encoder=self.encoder)
        except TopologyError:
            # Unknown host or no path: no entry (the edge will drop).
            return None
        out_port = self.graph.port_of(edge_name, node_path[1])
        return IngressEntry(
            route_id=route.route_id,
            modulus=route.modulus,
            out_port=out_port,
            ttl=self.default_ttl,
            residues=route.residue_map(),
        )

    # ------------------------------------------------------------------
    # Flow installation
    # ------------------------------------------------------------------
    def encode_route(
        self,
        src_edge: str,
        core_path: Sequence[str],
        dst_edge: str,
        protection: Iterable[ProtectionSegment] = (),
    ) -> EncodedRoute:
        """Encode an explicit core path (plus protection) edge-to-edge."""
        node_path = [src_edge, *core_path, dst_edge]
        extra = segments_to_hops(self.graph, protection)
        return encode_node_path(
            self.graph, node_path, extra_hops=extra, encoder=self.encoder
        )

    def install_flow(
        self,
        network: Network,
        src_host: str,
        dst_host: str,
        core_path: Optional[Sequence[str]] = None,
        protection: Iterable[ProtectionSegment] = (),
        reverse_protection: Iterable[ProtectionSegment] = (),
        reverse_core_path: Optional[Sequence[str]] = None,
    ) -> Tuple[EncodedRoute, EncodedRoute]:
        """Install forward and reverse routes for a host pair.

        The forward direction uses *core_path* (or the shortest path)
        plus *protection*.  The reverse direction — needed by TCP ACKs —
        uses *reverse_core_path* (or the forward path reversed) plus
        *reverse_protection* (empty by default: the paper protects the
        measured direction only; deflection still shields the ACK
        stream).

        Returns:
            (forward_route, reverse_route) as encoded routes.
        """
        src_edge = self.graph.edge_of_host(src_host)
        dst_edge = self.graph.edge_of_host(dst_host)
        if core_path is None:
            node_path = core_path_between_edges(self.graph, src_edge, dst_edge)
            core_path = node_path[1:-1]
        if reverse_core_path is None:
            reverse_core_path = list(reversed(core_path))

        forward = self.encode_route(src_edge, core_path, dst_edge, protection)
        reverse = self.encode_route(
            dst_edge, reverse_core_path, src_edge, reverse_protection
        )

        self._install_entry(network, src_edge, dst_host, core_path[0], forward)
        self._install_entry(
            network, dst_edge, src_host, reverse_core_path[0], reverse
        )
        return forward, reverse

    def _install_entry(
        self,
        network: Network,
        edge_name: str,
        dst_host: str,
        first_switch: str,
        route: EncodedRoute,
    ) -> None:
        edge = network.node(edge_name)
        if not isinstance(edge, EdgeNode):
            raise TypeError(f"{edge_name!r} is not an EdgeNode")
        edge.install_ingress(
            dst_host,
            IngressEntry(
                route_id=route.route_id,
                modulus=route.modulus,
                out_port=self.graph.port_of(edge_name, first_switch),
                ttl=self.default_ttl,
                residues=route.residue_map(),
            ),
        )
