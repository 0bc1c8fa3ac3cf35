"""Route computation: node paths → KAR hop lists → route IDs.

The controller selects a path (shortest by default, or the scenario's
pinned route), converts it into ``(switch ID, output port)`` hops using
the topology's port numbering, and hands the hop list to the RNS
encoder.  "The routing algorithm is out of the scope" of the paper —
anything that yields a node path works here.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.rns.encoder import EncodedRoute, Hop, RouteEncoder
from repro.topology.graph import NodeKind, PortGraph, TopologyError
from repro.topology.paths import shortest_path

__all__ = [
    "core_path_between_edges",
    "hops_for_path",
    "encode_node_path",
    "RoutingError",
]


class RoutingError(TopologyError):
    """Raised when a route cannot be computed or encoded."""


def core_path_between_edges(
    graph: PortGraph,
    src_edge: str,
    dst_edge: str,
    forbidden_links: Iterable[Tuple[str, str]] = (),
) -> List[str]:
    """Shortest edge-to-edge path; intermediates restricted to core.

    Returns the full node path ``[src_edge, SW..., dst_edge]``.
    """
    non_core = [
        n.name
        for n in graph.nodes()
        if n.kind != NodeKind.CORE and n.name not in (src_edge, dst_edge)
    ]
    return shortest_path(
        graph,
        src_edge,
        dst_edge,
        forbidden_links=forbidden_links,
        forbidden_nodes=non_core,
    )


def hops_for_path(graph: PortGraph, node_path: Sequence[str]) -> List[Hop]:
    """Convert a node path into KAR hops.

    For every *core* node on the path, emit ``Hop(switch_id, port toward
    the next node)``.  Non-core nodes (the edges at either end) are
    skipped — they do not forward by modulo.

    Raises:
        RoutingError: when consecutive nodes are not linked, or a core
            node's port index is not addressable by its switch ID.
    """
    if len(node_path) < 2:
        raise RoutingError(f"path too short to route: {list(node_path)}")
    hops: List[Hop] = []
    for current, nxt in zip(node_path, node_path[1:]):
        if not graph.has_link(current, nxt):
            raise RoutingError(f"path step {current}->{nxt} is not a link")
        if graph.node(current).kind != NodeKind.CORE:
            continue
        sid = graph.switch_id(current)
        port = graph.port_of(current, nxt)
        if port >= sid:
            raise RoutingError(
                f"{current}: port {port} not addressable by switch ID {sid}"
            )
        hops.append(Hop(switch_id=sid, port=port))
    if not hops:
        raise RoutingError(f"no core hops on path {list(node_path)}")
    return hops


def encode_node_path(
    graph: PortGraph,
    node_path: Sequence[str],
    extra_hops: Sequence[Hop] = (),
    encoder: Optional[RouteEncoder] = None,
) -> EncodedRoute:
    """Encode a node path (plus protection hops) into a route ID.

    Args:
        node_path: full path including the non-core endpoints.
        extra_hops: driven-deflection hops to fold in (disjoint switch
            IDs — :class:`~repro.rns.encoder.DuplicateSwitchError`
            otherwise, which is KAR's one-residue-per-switch constraint
            surfacing).
    """
    encoder = encoder or RouteEncoder()
    return encoder.encode(hops_for_path(graph, node_path) + list(extra_hops))
