"""Path algorithms over :class:`repro.topology.graph.PortGraph`.

The KAR controller needs shortest paths (route selection) and
reachability under link removal (failure analysis).  Both treat the
graph as undirected, consistent with full-duplex links, and both read
one tree, :func:`canonical_tree`.
"""

from __future__ import annotations

from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.topology.graph import PortGraph, TopologyError, link_key

__all__ = [
    "NoPathError", "canonical_tree", "shortest_path", "is_reachable_without",
]

LinkKey = Tuple[str, str]


class NoPathError(TopologyError):
    """No path exists between the requested endpoints."""

    def __init__(self, src: str, dst: str, note: str = ""):
        self.src, self.dst = src, dst
        msg = f"no path from {src!r} to {dst!r}"
        if note:
            msg += f" ({note})"
        super().__init__(msg)


def canonical_tree(
    graph: PortGraph,
    root: str,
    allowed: Optional[Collection[str]] = None,
    down: Collection[LinkKey] = frozenset(),
) -> Tuple[Dict[str, str], Dict[str, int]]:
    """Hop-count BFS tree toward *root*: the repo's one tree rule.

    Each node's parent is its **smallest-named** neighbour one hop
    closer to *root*: the frontier is kept name-sorted, so that
    neighbour claims it first.  :func:`repro.topology.csr.bfs_forest`
    is the array twin; tests hold the two equal.

    Args:
        allowed: the nodes the tree may claim; ``None`` means all.  The
            root is in the tree either way.
        down: canonical link keys (:func:`~repro.topology.graph
            .link_key`) to skip.

    Returns:
        ``(parent, depth)`` over the nodes reached: x's next hop toward
        *root* (none at the root) and its hop count.
    """
    graph.node(root)  # raises on unknown node
    parent: Dict[str, str] = {}
    depth = {root: 0}
    frontier = [root]
    while frontier:
        nxt: List[str] = []
        for cur in frontier:
            d = depth[cur] + 1
            for nb in graph.node(cur).ports:
                if nb in depth or (allowed is not None and nb not in allowed):
                    continue
                if down and link_key(cur, nb) in down:
                    continue
                depth[nb] = d
                parent[nb] = cur
                nxt.append(nb)
        frontier = sorted(nxt)
    return parent, depth


def _link_keys(graph: PortGraph, links: Iterable[LinkKey]) -> FrozenSet[LinkKey]:
    """Canonical keys of *links*, endpoints in either order; a pair no
    link joins is a :class:`TopologyError`."""
    return frozenset(graph.link(a, b).key for a, b in links)


def shortest_path(
    graph: PortGraph,
    src: str,
    dst: str,
    forbidden_links: Iterable[LinkKey] = (),
    forbidden_nodes: Iterable[str] = (),
) -> List[str]:
    """Hop-count shortest path as a list of node names (src ... dst).

    The branch from *dst* up :func:`canonical_tree` rooted at *src*.
    A destination-rooted tree (the provisioning engine's) applies the
    same rule from the other end, so it can pick a different
    equal-length path.

    Args:
        forbidden_links: links to exclude, endpoints in either order —
            used to route around known failures.
        forbidden_nodes: nodes that may not appear as intermediates
            (endpoints are always allowed).

    Raises:
        TopologyError: an unknown node, or a pair no link joins.
        NoPathError: when *dst* is unreachable under the constraints.
    """
    graph.node(dst)  # raises on unknown node; canonical_tree checks src
    down = _link_keys(graph, forbidden_links)
    banned = set(forbidden_nodes) - {src, dst}
    allowed = (
        {name for name in graph.node_names() if name not in banned}
        if banned else None
    )
    parent, depth = canonical_tree(graph, src, allowed, down)
    if dst not in depth:
        note = "with constraints" if (down or banned) else ""
        raise NoPathError(src, dst, note)
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def is_reachable_without(
    graph: PortGraph, src: str, dst: str, removed_links: Iterable[LinkKey]
) -> bool:
    """True if *dst* is reachable from *src* after removing links
    (endpoints in either order)."""
    graph.node(dst)
    down = _link_keys(graph, removed_links)
    return dst in canonical_tree(graph, src, None, down)[1]
