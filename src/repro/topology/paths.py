"""Path algorithms over :class:`repro.topology.graph.PortGraph`.

The KAR controller needs shortest paths (route selection), k-shortest
paths (alternate-route exploration), and reachability under link
removal (failure analysis).  All algorithms treat the graph as
undirected, consistent with full-duplex links.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.topology.graph import PortGraph, TopologyError, link_key

__all__ = [
    "NoPathError",
    "shortest_path",
    "all_shortest_paths",
    "k_shortest_paths",
    "path_links",
    "is_reachable_without",
    "articulation_links",
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


def all_shortest_paths(graph: PortGraph, src: str, dst: str) -> List[List[str]]:
    """All hop-count-shortest paths between *src* and *dst* (BFS DAG walk)."""
    graph.node(src)
    graph.node(dst)
    if src == dst:
        return [[src]]
    # BFS computing hop distance from src.
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for cur in frontier:
            for nb in graph.neighbors(cur):
                if nb not in dist:
                    dist[nb] = dist[cur] + 1
                    nxt.append(nb)
        frontier = nxt
    if dst not in dist:
        raise NoPathError(src, dst)
    # Walk backwards along the shortest-path DAG.
    paths: List[List[str]] = []

    def backtrack(node: str, acc: List[str]) -> None:
        if node == src:
            paths.append([src] + acc[::-1])
            return
        for nb in graph.neighbors(node):
            if dist.get(nb, -1) == dist[node] - 1:
                acc.append(node)
                backtrack(nb, acc)
                acc.pop()

    backtrack(dst, [])
    # De-duplicate is unnecessary (each DAG walk is distinct), but sort
    # for deterministic output.
    paths.sort()
    return paths


def k_shortest_paths(
    graph: PortGraph,
    src: str,
    dst: str,
    k: int,
    weight: Optional[Callable[[str, str], float]] = None,
) -> List[List[str]]:
    """Yen's algorithm: up to *k* loop-free shortest paths, best first."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    weight = weight or _default_weight(graph)

    def path_cost(path: Sequence[str]) -> float:
        return sum(weight(a, b) for a, b in zip(path, path[1:]))

    try:
        best = shortest_path(graph, src, dst, weight=weight)
    except NoPathError:
        return []
    found: List[List[str]] = [best]
    candidates: List[Tuple[float, List[str]]] = []
    seen_candidates: Set[Tuple[str, ...]] = {tuple(best)}

    while len(found) < k:
        prev_path = found[-1]
        for i in range(len(prev_path) - 1):
            spur_node = prev_path[i]
            root = prev_path[: i + 1]
            banned_links: Set[LinkKey] = set()
            for p in found:
                if p[: i + 1] == root and len(p) > i + 1:
                    banned_links.add(link_key(p[i], p[i + 1]))
            banned_nodes = set(root[:-1])
            try:
                spur = shortest_path(
                    graph,
                    spur_node,
                    dst,
                    weight=weight,
                    forbidden_links=banned_links,
                    forbidden_nodes=banned_nodes,
                )
            except NoPathError:
                continue
            total = root[:-1] + spur
            key = tuple(total)
            if key not in seen_candidates:
                seen_candidates.add(key)
                heapq.heappush(candidates, (path_cost(total), total))
        if not candidates:
            break
        _, nxt = heapq.heappop(candidates)
        found.append(nxt)
    return found


def path_links(path: Sequence[str]) -> List[LinkKey]:
    """The (sorted-pair) link keys a node path traverses."""
    return [link_key(a, b) for a, b in zip(path, path[1:])]


def is_reachable_without(
    graph: PortGraph, src: str, dst: str, removed_links: Iterable[LinkKey]
) -> bool:
    """True if *dst* is reachable from *src* after removing links."""
    try:
        shortest_path(graph, src, dst, forbidden_links=removed_links)
        return True
    except NoPathError:
        return False


def articulation_links(graph: PortGraph) -> List[LinkKey]:
    """Links whose single failure disconnects the graph (bridges).

    KAR's liveness guarantee cannot hold across a bridge failure — there
    is simply no alternative path — so experiments avoid failing bridges
    (and tests assert the paper's failure links are not bridges).
    """
    bridges: List[LinkKey] = []
    for link in graph.links():
        key = link.key
        if not is_reachable_without(graph, link.a, link.b, [key]):
            bridges.append(key)
    return sorted(bridges)
