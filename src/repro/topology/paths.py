"""Path algorithms over :class:`repro.topology.graph.PortGraph`.

The KAR controller needs shortest paths (route selection) and
reachability under link removal (failure analysis).  Both treat the
graph as undirected, consistent with full-duplex links.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.topology.graph import PortGraph, TopologyError, link_key

__all__ = ["NoPathError", "shortest_path", "is_reachable_without"]

LinkKey = Tuple[str, str]


class NoPathError(TopologyError):
    """No path exists between the requested endpoints."""

    def __init__(self, src: str, dst: str, note: str = ""):
        self.src, self.dst = src, dst
        msg = f"no path from {src!r} to {dst!r}"
        if note:
            msg += f" ({note})"
        super().__init__(msg)


def _default_weight(graph: PortGraph) -> Callable[[str, str], float]:
    def weight(a: str, b: str) -> float:
        return 1.0

    return weight


def shortest_path(
    graph: PortGraph,
    src: str,
    dst: str,
    weight: Optional[Callable[[str, str], float]] = None,
    forbidden_links: Iterable[LinkKey] = (),
    forbidden_nodes: Iterable[str] = (),
) -> List[str]:
    """Dijkstra shortest path as a list of node names (src ... dst).

    Deterministic tie-breaking (locked by tests, relied on by the
    vectorized bulk provisioner): among predecessors that all achieve a
    node's final distance, the chosen one minimizes
    ``(dist[predecessor], predecessor name)``.  For unit weights that
    degenerates to *the smallest-named neighbor one hop closer to the
    source* — the same canonical rule
    :class:`repro.controller.provision.DestinationTree` and
    :func:`repro.topology.csr.destination_tree_arrays` use, so every
    path algorithm in the repo agrees bit-for-bit on equal-cost
    choices.  The rule is enforced by an explicit comparison below, not
    by incidental heap order.

    Args:
        weight: optional ``f(a, b) -> cost`` per link; defaults to hop
            count.  Costs must be non-negative.
        forbidden_links: link keys (sorted endpoint pairs) to exclude —
            used to route around known failures.
        forbidden_nodes: nodes that may not appear as intermediates
            (endpoints are always allowed).

    Raises:
        NoPathError: when *dst* is unreachable under the constraints.
    """
    for name in (src, dst):
        graph.node(name)  # raises on unknown node
    if src == dst:
        return [src]
    weight = weight or _default_weight(graph)
    banned_links: Set[LinkKey] = set(forbidden_links)
    banned_nodes = set(forbidden_nodes) - {src, dst}

    dist: Dict[str, float] = {src: 0.0}
    prev: Dict[str, str] = {}
    heap: List[Tuple[float, str]] = [(0.0, src)]
    done: Set[str] = set()
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in done:
            continue
        done.add(cur)
        if cur == dst:
            break
        for nb in graph.neighbors(cur):
            if nb in banned_nodes or link_key(cur, nb) in banned_links:
                continue
            w = weight(cur, nb)
            if w < 0:
                raise TopologyError(f"negative link weight on {cur}-{nb}: {w}")
            nd = d + w
            old = dist.get(nb, float("inf"))
            if nd < old:
                dist[nb] = nd
                prev[nb] = cur
                heapq.heappush(heap, (nd, nb))
            elif nd == old and nb in prev:
                # Canonical tie-break: keep the predecessor minimal by
                # (distance, name).  Pops arrive in that order already,
                # so this comparison is a lock, not a behavior change.
                p = prev[nb]
                if (d, cur) < (dist[p], p):
                    prev[nb] = cur
    if dst not in prev and dst != src:
        note = "with constraints" if (banned_links or banned_nodes) else ""
        raise NoPathError(src, dst, note)
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def is_reachable_without(
    graph: PortGraph, src: str, dst: str, removed_links: Iterable[LinkKey]
) -> bool:
    """True if *dst* is reachable from *src* after removing links."""
    try:
        shortest_path(graph, src, dst, forbidden_links=removed_links)
        return True
    except NoPathError:
        return False
