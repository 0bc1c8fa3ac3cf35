"""Batch route provisioning: destination trees + incremental CRT encoding.

The per-flow controller path (:class:`~repro.controller.controller
.KarController`) answers one request at a time: a tree from the source
edge, then a fresh CRT solve.  Correct, and the right oracle — but the
work is almost entirely shared between flows.  Every flow to the same
destination traverses the same shortest-path *tree* toward it, and every
failure-time change re-points one residue.  This module amortizes both:

* one :class:`DestinationTree` per (topology epoch, destination edge) —
  a BFS tree over the core subgraph rooted at the destination, built
  once and reused by every flow to that destination, and holding the
  provisioned route per source edge, so every flow of one edge pair
  shares one encode per epoch;
* one :class:`~repro.rns.encoder.RouteEncoder` per engine, whose
  changed output port (:meth:`~repro.rns.encoder.RouteEncoder
  .with_port`) is one CRT step on the live route ID, not a re-solve.

One invalidation, :meth:`ProvisioningEngine.note_link_change`: link
*state* changed (a link went down or came back up).  Trees, and the
routes memoised on them, are rebuilt over the residual graph; a route
already served stays exact, since it depends only on switch IDs and
port numbering, which link churn cannot touch.
(Nodes, switch IDs or port numbering never change under an engine; a
new topology is a new engine.)

Link state itself lives here as an overlay (:meth:`ProvisioningEngine
.set_link_down` / :meth:`~ProvisioningEngine.set_link_up`): the
:class:`~repro.topology.graph.PortGraph` stays structurally untouched
(port numbering must remain stable — it is baked into every encoded
residue), and down links are simply excluded from tree construction and
entry selection.

Error contract: every user-input failure — unknown names, non-edge
endpoints, disconnected pairs, down links — raises
:class:`ProvisionError` carrying a machine-readable ``reason`` slug.
The controller service maps these directly onto 4xx responses; nothing
in this module leaks a bare ``KeyError`` for bad input.

Route selection note — why this is a separate engine and not the
default inside :class:`~repro.controller.controller.KarController`:
both read :func:`~repro.topology.paths.canonical_tree`, but the
per-flow path roots it at the *source* edge and this engine at the
*destination* edge.  The smallest-name rule applied from opposite ends
can pick different equal-length paths (4 edge pairs on
``fifteen_node``), and the repo's digest-reproducibility guarantees
pin the per-flow choice.  The engine's entry switch is chosen by
``(depth, name)``; tests hold its paths equal to the per-flow ones
wherever the two rules agree, and its encoding bit-identical to the
reference solver on its own hop lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Sequence, Tuple

from repro.controller.routing import RoutingError, hops_for_path
from repro.rns.crt import CrtError
from repro.rns.encoder import EncodedRoute, RouteEncoder
from repro.sim.packet import DEFAULT_TTL
from repro.switches.edge import IngressEntry
from repro.topology.graph import (
    NodeKind,
    PortGraph,
    TopologyError,
    link_key,
)
from repro.topology.paths import canonical_tree

__all__ = [
    "DestinationTree",
    "ProvisionError",
    "ProvisionedRoute",
    "ProvisioningEngine",
    "require_edge",
    "require_flow_endpoints",
    "require_link",
]


class ProvisionError(RoutingError):
    """A provisioning request the engine must refuse, with a reason code.

    Attributes:
        reason: machine-readable slug — the controller service returns
            it verbatim as the ``error`` field of a 4xx response.
            Values: ``unknown-node``, ``not-an-edge``, ``not-a-switch``,
            ``same-edge``, ``no-core-path``, ``not-a-link``,
            ``link-down``, ``switch-not-on-route``,
            ``port-unaddressable``, ``bad-path``.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def require_edge(graph: PortGraph, name: str) -> None:
    """Refuse an unknown node or one that is not an edge node."""
    try:
        info = graph.node(name)
    except TopologyError as exc:
        raise ProvisionError("unknown-node", str(exc)) from None
    if info.kind != NodeKind.EDGE:
        raise ProvisionError("not-an-edge", f"{name!r} is not an edge node")


def require_link(graph: PortGraph, a: str, b: str) -> Tuple[str, str]:
    """Refuse an unknown endpoint or a pair no link joins; return the
    link's canonical key."""
    for name in (a, b):
        try:
            graph.node(name)
        except TopologyError as exc:
            raise ProvisionError("unknown-node", str(exc)) from None
    if not graph.has_link(a, b):
        raise ProvisionError("not-a-link", f"no link {a}-{b}")
    return link_key(a, b)


def require_flow_endpoints(
    graph: PortGraph, src_edge: str, dst_edge: str
) -> None:
    """Refuse a flow whose endpoints cannot be provisioned at all.

    The one statement of the endpoint rule, shared by the per-flow
    engine and :class:`~repro.controller.bulk.BulkProvisioner`.

    Raises:
        ProvisionError: ``same-edge``, then per endpoint (source first)
            ``unknown-node`` / ``not-an-edge``.
    """
    if src_edge == dst_edge:
        raise ProvisionError(
            "same-edge",
            f"flow endpoints share the edge {src_edge!r}; "
            f"no core route to provision",
        )
    require_edge(graph, src_edge)
    require_edge(graph, dst_edge)


@dataclass(frozen=True)
class ProvisionedRoute:
    """One provisioned flow: the chosen path and its encoded route.

    Attributes:
        src_edge / dst_edge: the flow's ingress and egress edges.
        node_path: full node path ``[src_edge, SW..., dst_edge]``.
        route: the encoded route over the path's core hops.
        out_port: the source edge's port toward the first switch.
    """

    src_edge: str
    dst_edge: str
    node_path: Tuple[str, ...]
    route: EncodedRoute
    out_port: int

    def ingress_entry(self, ttl: int = DEFAULT_TTL) -> IngressEntry:
        """The edge-table entry installing this route."""
        return IngressEntry(
            route_id=self.route.route_id,
            modulus=self.route.modulus,
            out_port=self.out_port,
            ttl=ttl,
            residues=self.route.residue_map(),
        )


class DestinationTree:
    """Shortest-path (hop count) tree toward one destination edge.

    ``parent[x]`` is switch x's next node toward the destination;
    ``depth[x]`` its hop distance.  One :func:`~repro.topology.paths
    .canonical_tree` over the core switches: among equal-depth
    alternatives, ``parent[x]`` is the *smallest-named* node at
    ``depth[x] - 1`` adjacent to x — the rule the vectorized CSR pass
    (:func:`repro.topology.csr.destination_forest`) reproduces, and
    tests lock the two together bit-for-bit.

    ``down`` is the set of canonical link keys currently failed: those
    links are skipped, so the tree describes the *residual* topology.
    ``routes`` memoises :meth:`ProvisioningEngine.provision`'s answer
    per source edge, so it lives and dies with the tree.
    """

    __slots__ = ("dst_edge", "epoch", "parent", "depth", "down", "routes")

    def __init__(
        self,
        graph: PortGraph,
        dst_edge: str,
        epoch: int,
        down: FrozenSet[Tuple[str, str]] = frozenset(),
    ):
        if graph.node(dst_edge).kind != NodeKind.EDGE:
            raise RoutingError(f"{dst_edge!r} is not an edge node")
        self.dst_edge = dst_edge
        self.epoch = epoch
        self.down = down
        self.parent, self.depth = canonical_tree(
            graph, dst_edge, set(graph.node_names(NodeKind.CORE)), down
        )
        self.routes: Dict[str, ProvisionedRoute] = {}

    def branch(self, switch: str) -> List[str]:
        """Node path from *switch* down the tree to the destination."""
        if switch not in self.depth:
            raise RoutingError(
                f"{switch!r} cannot reach {self.dst_edge!r} through the core"
            )
        path = [switch]
        while path[-1] != self.dst_edge:
            path.append(self.parent[path[-1]])
        return path


class ProvisioningEngine:
    """Amortized batch provisioning over one topology.

    Args:
        graph: the topology (switch IDs already assigned).
        default_ttl: hop budget stamped on ingress entries.

    Every externally interesting event is counted — provisions, tree
    memo hits/misses, epoch bumps, incremental re-encodes —
    and exposed as one JSON-able mapping by :meth:`stats`, which is
    what the controller service's ``/stats`` endpoint serves.  Counters
    are cumulative across epochs, so invalidation thrash is visible
    instead of resetting the evidence.
    """

    def __init__(self, graph: PortGraph, default_ttl: int = DEFAULT_TTL):
        self.graph = graph
        self.default_ttl = default_ttl
        self.epoch = 0
        self._trees: Dict[str, DestinationTree] = {}
        self._down: set = set()
        self.trees_built = 0
        self.tree_hits = 0
        self.provisions = 0
        self.reroutes = 0
        self.encoder = RouteEncoder()

    # ------------------------------------------------------------------
    # epoch / invalidation
    # ------------------------------------------------------------------
    def note_link_change(self) -> None:
        """Invalidate link-state-dependent artifacts only.

        Trees are rebuilt (they follow links); nothing else is — the
        switch IDs are unchanged, so every encoded route is still exact.
        This is the epoch bump a long-running service issues on every
        ``link_down``/``link_up``/``port_flap`` event.
        """
        self.epoch += 1
        self._trees.clear()

    # ------------------------------------------------------------------
    # link-state overlay
    # ------------------------------------------------------------------
    @property
    def down_links(self) -> FrozenSet[Tuple[str, str]]:
        """Canonical keys of links currently marked down."""
        return frozenset(self._down)

    def set_link_down(self, a: str, b: str) -> bool:
        """Mark a link failed; returns True if the state changed.

        A change bumps the epoch via :meth:`note_link_change`, so the
        next provision sees residual trees.
        """
        key = require_link(self.graph, a, b)
        if key in self._down:
            return False
        self._down.add(key)
        self.note_link_change()
        return True

    def set_link_up(self, a: str, b: str) -> bool:
        """Clear a link's failed mark; returns True if the state changed."""
        key = require_link(self.graph, a, b)
        if key not in self._down:
            return False
        self._down.discard(key)
        self.note_link_change()
        return True

    # ------------------------------------------------------------------
    # destination trees
    # ------------------------------------------------------------------
    def destination_tree(self, dst_edge: str) -> DestinationTree:
        """The (memoized) tree for one destination in the current epoch."""
        tree = self._trees.get(dst_edge)
        if tree is not None:
            self.tree_hits += 1
            return tree
        tree = DestinationTree(
            self.graph, dst_edge, self.epoch, down=frozenset(self._down)
        )
        self._trees[dst_edge] = tree
        self.trees_built += 1
        return tree

    # ------------------------------------------------------------------
    # provisioning
    # ------------------------------------------------------------------
    def provision(self, src_edge: str, dst_edge: str) -> ProvisionedRoute:
        """Provision one flow edge-to-edge along the destination tree.

        The path enters the core at the source-edge neighbor with the
        smallest ``(tree depth, name)`` and follows tree parents to the
        destination — hop-count shortest end to end over the *residual*
        topology (down links excluded).

        A route ID is a function of its path alone, so the answer is
        memoised on the tree per source edge
        (:attr:`DestinationTree.routes`): every later call for the pair
        in this epoch returns the same object, bit-identical to a fresh
        encode by CRT uniqueness, and :meth:`note_link_change` drops it
        with the tree.  Either way a call counts one tree lookup and one
        provision.

        Raises:
            ProvisionError: unknown or non-edge endpoints
                (``unknown-node`` / ``not-an-edge``), same-edge flows
                (``same-edge``), no residual core path
                (``no-core-path``), or see :meth:`encode_path`.
        """
        require_flow_endpoints(self.graph, src_edge, dst_edge)
        tree = self.destination_tree(dst_edge)
        provisioned = tree.routes.get(src_edge)
        if provisioned is not None:
            self.provisions += 1
            return provisioned
        entries = [
            nb
            for nb in self.graph.neighbors(src_edge)
            if self.graph.node(nb).kind == NodeKind.CORE
            and nb in tree.depth
            and link_key(src_edge, nb) not in self._down
        ]
        if not entries:
            raise ProvisionError(
                "no-core-path",
                f"{src_edge!r} has no core neighbor that reaches "
                f"{dst_edge!r}",
            )
        entry = min(entries, key=lambda nb: (tree.depth[nb], nb))
        provisioned = self.encode_path([src_edge] + tree.branch(entry))
        tree.routes[src_edge] = provisioned
        return provisioned

    def encode_path(self, node_path: Sequence[str]) -> ProvisionedRoute:
        """Encode an explicit edge-to-edge node path into a route.

        Used by :meth:`provision` for tree paths and by the admission-
        control service for CSPF paths — both go through the same
        encoder, so every served route ID is the unique CRT solution of
        the path's hop list.

        Raises:
            ProvisionError: malformed or unroutable paths
                (``bad-path``), with the underlying message preserved.
        """
        path = list(node_path)
        if len(path) < 3:
            raise ProvisionError(
                "bad-path", f"path too short to provision: {path}"
            )
        require_edge(self.graph, path[0])
        require_edge(self.graph, path[-1])
        try:
            hops = hops_for_path(self.graph, path)
            route = self.encoder.encode(hops)
            out_port = self.graph.port_of(path[0], path[1])
        except ProvisionError:
            raise
        except (RoutingError, TopologyError, CrtError) as exc:
            raise ProvisionError("bad-path", str(exc)) from exc
        self.provisions += 1
        return ProvisionedRoute(
            src_edge=path[0],
            dst_edge=path[-1],
            node_path=tuple(path),
            route=route,
            out_port=out_port,
        )

    # ------------------------------------------------------------------
    # failure-time updates
    # ------------------------------------------------------------------
    def reroute_hop(
        self, route: EncodedRoute, switch_name: str, new_next: str
    ) -> EncodedRoute:
        """Re-encode *route* with *switch_name* exiting toward *new_next*.

        The incremental one-step update (see
        :meth:`~repro.rns.encoder.RouteEncoder.with_port`), never a full
        CRT solve.  Inputs are validated up front so a bad request is
        answered with a reason, not an arithmetic error:

        Raises:
            ProvisionError: unknown names (``unknown-node``), a non-
                switch pivot (``not-a-switch``), a missing or failed
                link (``not-a-link`` / ``link-down``), a pivot the
                route does not encode (``switch-not-on-route``), or a
                port outside the switch's residue range
                (``port-unaddressable``).
        """
        try:
            info = self.graph.node(switch_name)
            self.graph.node(new_next)
        except TopologyError as exc:
            raise ProvisionError("unknown-node", str(exc)) from None
        if info.kind != NodeKind.CORE or info.switch_id is None:
            raise ProvisionError(
                "not-a-switch",
                f"{switch_name!r} is not a core switch with an ID",
            )
        try:
            port = self.graph.port_of(switch_name, new_next)
        except TopologyError:
            raise ProvisionError(
                "not-a-link",
                f"re-route step {switch_name}->{new_next} is not a link",
            ) from None
        if self._down and link_key(switch_name, new_next) in self._down:
            raise ProvisionError(
                "link-down",
                f"re-route step {switch_name}->{new_next} is a failed link",
            )
        sid = info.switch_id
        if sid not in route.residue_map():
            raise ProvisionError(
                "switch-not-on-route",
                f"switch ID {sid} is not encoded in this route",
            )
        if port >= sid:
            raise ProvisionError(
                "port-unaddressable",
                f"{switch_name}: port {port} not addressable by switch ID "
                f"{sid}",
            )
        updated = self.encoder.with_port(route, sid, port)
        self.reroutes += 1
        return updated

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Cumulative engine counters as one JSON-able mapping.

        Cumulative across epochs.  ``delta.applied`` counts
        :meth:`reroute_hop` steps that moved a residue: link repairs
        re-provision instead.
        """
        stats: Dict[str, Any] = {
            "epoch": self.epoch,
            "provisions": self.provisions,
            "reroutes": self.reroutes,
            "links_down": len(self._down),
            "trees": {"built": self.trees_built, "hits": self.tree_hits},
            # Every bump is a link invalidation: both count epochs.
            "epochs": {
                "bumps": self.epoch,
                "link_invalidations": self.epoch,
            },
            "delta": {
                "applied": self.encoder.deltas_applied,
                "identity_skips": self.encoder.identity_skips,
            },
        }
        # The retired pooled encoder's counters, constant zeros: the
        # frozen benchmarks/e2e/wl_service.py still reads these four keys.
        stats["delta"]["full_solves"] = 0
        stats["encoder"] = {"fallback": 0}
        stats["subsets"] = {"built": 0, "hits": 0}
        return stats
