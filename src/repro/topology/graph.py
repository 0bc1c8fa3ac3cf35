"""Port-indexed network graph substrate.

KAR forwarding is *port-indexed*: a switch's forwarding decision is an
output-port number (``route_id mod switch_id``), so the graph model must
give every node an ordered list of ports and every link a (node, port)
attachment on each side.  Plain adjacency graphs (networkx et al.) do not
carry stable port numbering, so we implement our own small substrate.

The classes here are *static descriptions* of a network — nodes, links,
rates, delays.  The discrete-event runtime objects live in
:mod:`repro.sim` and are built from these descriptions by
:class:`repro.sim.network.Network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "NodeKind", "NodeInfo", "LinkInfo", "PortGraph", "TopologyError",
    "link_key",
]


class TopologyError(ValueError):
    """Raised on malformed topology construction or queries."""


def link_key(a: str, b: str) -> Tuple[str, str]:
    """Canonical unordered endpoint pair (sorted names)."""
    return (a, b) if a <= b else (b, a)


class NodeKind:
    """Node roles in a KAR network (string constants, not an enum, so
    topology files read naturally)."""

    CORE = "core"  # KAR switch: modulo forwarding, no tables
    EDGE = "edge"  # edge node: attaches/strips route IDs
    HOST = "host"  # end host: runs transports


@dataclass
class NodeInfo:
    """Static description of one node.

    Attributes:
        name: unique node name (e.g. ``"SW13"``, ``"E-AS1"``, ``"H1"``).
        kind: one of :class:`NodeKind`.
        switch_id: the KAR modulo for core switches (None otherwise).
        ports: neighbor name per port index (grows as links are added).
    """

    name: str
    kind: str = NodeKind.CORE
    switch_id: Optional[int] = None
    ports: List[str] = field(default_factory=list)

    @property
    def degree(self) -> int:
        return len(self.ports)


@dataclass(frozen=True)
class LinkInfo:
    """Static description of one full-duplex link.

    Attributes:
        a, b: endpoint node names.
        a_port, b_port: port index on each endpoint.
        rate_mbps: capacity of each direction, in Mbit/s.
        delay_s: one-way propagation delay, in seconds.
        queue_packets: drop-tail queue capacity per direction.
    """

    a: str
    b: str
    a_port: int
    b_port: int
    rate_mbps: float = 100.0
    delay_s: float = 0.001
    queue_packets: int = 50

    @property
    def key(self) -> Tuple[str, str]:
        """Canonical unordered endpoint pair (:func:`link_key`)."""
        return link_key(self.a, self.b)

    def other(self, name: str) -> str:
        if name == self.a:
            return self.b
        if name == self.b:
            return self.a
        raise TopologyError(f"node {name!r} is not an endpoint of {self.a}-{self.b}")

    def port_of(self, name: str) -> int:
        if name == self.a:
            return self.a_port
        if name == self.b:
            return self.b_port
        raise TopologyError(f"node {name!r} is not an endpoint of {self.a}-{self.b}")


class PortGraph:
    """Mutable port-indexed graph of nodes and full-duplex links.

    Port indexes on each node are assigned in link-insertion order
    (0, 1, 2, ...), mirroring how an operator patches cables into a
    switch.  At most one link may exist between a pair of nodes (the KAR
    model: one residue per neighbor relationship is enough; parallel
    links would need distinct ports anyway and can be modeled as extra
    nodes if ever required).
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, NodeInfo] = {}
        self._links: Dict[Tuple[str, str], LinkInfo] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(
        self,
        name: str,
        kind: str = NodeKind.CORE,
        switch_id: Optional[int] = None,
    ) -> NodeInfo:
        """Add a node; core switches may carry their KAR switch ID."""
        if name in self._nodes:
            raise TopologyError(f"duplicate node name {name!r}")
        if kind not in (NodeKind.CORE, NodeKind.EDGE, NodeKind.HOST):
            raise TopologyError(f"unknown node kind {kind!r}")
        if kind != NodeKind.CORE and switch_id is not None:
            raise TopologyError(f"only core switches carry switch IDs ({name!r})")
        if switch_id is not None and switch_id <= 1:
            raise TopologyError(f"switch ID must be > 1, got {switch_id} for {name!r}")
        info = NodeInfo(name=name, kind=kind, switch_id=switch_id)
        self._nodes[name] = info
        return info

    def add_link(
        self,
        a: str,
        b: str,
        rate_mbps: float = 100.0,
        delay_s: float = 0.001,
        queue_packets: int = 50,
    ) -> LinkInfo:
        """Connect *a* and *b*, assigning the next free port on each side."""
        if a == b:
            raise TopologyError(f"self-links are not allowed ({a!r})")
        for name in (a, b):
            if name not in self._nodes:
                raise TopologyError(f"unknown node {name!r}; add_node first")
        key = (a, b) if a <= b else (b, a)
        if key in self._links:
            raise TopologyError(f"link {a}-{b} already exists")
        if rate_mbps <= 0:
            raise TopologyError(f"link rate must be positive, got {rate_mbps}")
        if delay_s < 0:
            raise TopologyError(f"link delay must be non-negative, got {delay_s}")
        if queue_packets < 1:
            raise TopologyError(f"queue must hold >= 1 packet, got {queue_packets}")
        node_a, node_b = self._nodes[a], self._nodes[b]
        link = LinkInfo(
            a=a,
            b=b,
            a_port=node_a.degree,
            b_port=node_b.degree,
            rate_mbps=rate_mbps,
            delay_s=delay_s,
            queue_packets=queue_packets,
        )
        node_a.ports.append(b)
        node_b.ports.append(a)
        self._links[key] = link
        return link

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node(self, name: str) -> NodeInfo:
        try:
            return self._nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def nodes(self, kind: Optional[str] = None) -> List[NodeInfo]:
        """All nodes, optionally filtered by kind, in insertion order."""
        if kind is None:
            return list(self._nodes.values())
        return [n for n in self._nodes.values() if n.kind == kind]

    def node_names(self, kind: Optional[str] = None) -> List[str]:
        return [n.name for n in self.nodes(kind)]

    def links(self) -> List[LinkInfo]:
        return list(self._links.values())

    def link(self, a: str, b: str) -> LinkInfo:
        key = (a, b) if a <= b else (b, a)
        try:
            return self._links[key]
        except KeyError:
            raise TopologyError(f"no link {a}-{b}") from None

    def has_link(self, a: str, b: str) -> bool:
        key = (a, b) if a <= b else (b, a)
        return key in self._links

    def neighbors(self, name: str) -> List[str]:
        """Neighbor names of *name*, in port order."""
        return list(self.node(name).ports)

    def port_of(self, name: str, neighbor: str) -> int:
        """The port index on *name* that faces *neighbor*."""
        try:
            return self.node(name).ports.index(neighbor)
        except ValueError:
            raise TopologyError(f"{name!r} has no port facing {neighbor!r}") from None

    def neighbor_on_port(self, name: str, port: int) -> str:
        info = self.node(name)
        if not 0 <= port < info.degree:
            raise TopologyError(
                f"{name!r} has no port {port} (degree {info.degree})"
            )
        return info.ports[port]

    def degree(self, name: str) -> int:
        return self.node(name).degree

    def switch_id(self, name: str) -> int:
        sid = self.node(name).switch_id
        if sid is None:
            raise TopologyError(f"node {name!r} has no switch ID (kind: "
                                f"{self.node(name).kind})")
        return sid

    def switch_ids(self) -> Dict[str, int]:
        """Mapping core-switch name -> switch ID."""
        return {
            n.name: n.switch_id
            for n in self.nodes(NodeKind.CORE)
            if n.switch_id is not None
        }

    def edge_of_host(self, host: str) -> str:
        """The edge node a host hangs off (hosts attach to exactly one edge)."""
        info = self.node(host)
        if info.kind != NodeKind.HOST:
            raise TopologyError(f"{host!r} is not a host")
        edges = [n for n in info.ports if self.node(n).kind == NodeKind.EDGE]
        if len(edges) != 1:
            raise TopologyError(
                f"host {host!r} must attach to exactly one edge node, "
                f"found {edges}"
            )
        return edges[0]

    def hosts_of_edge(self, edge: str) -> List[str]:
        """Hosts directly attached to an edge node."""
        info = self.node(edge)
        if info.kind != NodeKind.EDGE:
            raise TopologyError(f"{edge!r} is not an edge node")
        return [n for n in info.ports if self.node(n).kind == NodeKind.HOST]

    # ------------------------------------------------------------------
    # validation / export
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check KAR invariants; raise TopologyError with the reason.

        * every core switch has a switch ID of at least its port count
          (residues 0..ID-1 must cover every port index),
        * the switch-ID set is pairwise coprime,
        * the graph is connected,
        * hosts attach only to edge nodes.
        """
        from repro.rns.coprime import validate_pool

        cores = [n for n in self.nodes(NodeKind.CORE)]
        for n in cores:
            if n.switch_id is None:
                raise TopologyError(f"core switch {n.name!r} has no switch ID")
            if n.switch_id < n.degree:
                raise TopologyError(
                    f"switch {n.name!r} has ID {n.switch_id} but {n.degree} "
                    f"ports; ID must exceed the largest port index"
                )
        try:
            validate_pool([n.switch_id for n in cores])
        except ValueError as exc:
            raise TopologyError(str(exc)) from exc
        if self._nodes and not self.is_connected():
            raise TopologyError("topology is not connected")
        for h in self.nodes(NodeKind.HOST):
            for nb in h.ports:
                if self.node(nb).kind != NodeKind.EDGE:
                    raise TopologyError(
                        f"host {h.name!r} attaches to non-edge node {nb!r}"
                    )

    def is_connected(self) -> bool:
        names = list(self._nodes)
        if not names:
            return True
        seen = {names[0]}
        stack = [names[0]]
        while stack:
            cur = stack.pop()
            for nb in self._nodes[cur].ports:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(names)

    def core_subgraph_neighbors(self, name: str) -> List[str]:
        """Neighbors of *name* that are core switches (port order)."""
        return [n for n in self.neighbors(name) if self.node(n).kind == NodeKind.CORE]

    def to_dot(self) -> str:
        """Graphviz DOT rendering (labels carry switch IDs)."""
        lines = ["graph kar {"]
        for n in self.nodes():
            label = n.name if n.switch_id is None else f"{n.name}\\nid={n.switch_id}"
            shape = {"core": "circle", "edge": "box", "host": "plaintext"}[n.kind]
            lines.append(f'  "{n.name}" [label="{label}", shape={shape}];')
        for link in self.links():
            lines.append(
                f'  "{link.a}" -- "{link.b}" '
                f'[label="{link.rate_mbps:g}M"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __iter__(self) -> Iterator[NodeInfo]:
        return iter(self._nodes.values())

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes
