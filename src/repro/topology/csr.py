"""CSR adjacency arrays: the vectorized view of a :class:`PortGraph`.

The per-flow control plane walks Python dicts (``PortGraph.neighbors``,
``port_of``) — fine for one flow, hopeless for cold-start full-mesh
provisioning of a real WAN.  This module converts a topology **once**
into flat numpy arrays (compressed sparse row form) so that
all-destination shortest-path trees can be computed with whole-frontier
numpy operations instead of per-node Python:

* ``indptr``/``indices`` — classic CSR: node ``u``'s neighbors are
  ``indices[indptr[u]:indptr[u+1]]``, sorted by node index;
* ``ports_out`` — parallel to ``indices``: the port index **on u**
  facing that neighbor (what a hop through ``u`` encodes);
* ``ports_back`` — parallel to ``indices``: the port index **on the
  neighbor** facing ``u`` (what a hop through the neighbor toward ``u``
  encodes — the array a destination-rooted BFS reads when it claims a
  child);
* ``weights`` — parallel to ``indices``: per-half-edge link cost
  (hop count ``1.0`` by default), for weighted variants;
* ``core_mask``/``switch_ids`` — per-node role and KAR modulus.

Node indexing is **name-sorted rank**: index order equals
lexicographic name order.  That single choice is what makes the
vectorized tie-break canonical — "smallest node index" and "smallest
node name" are the same thing, so numpy ``argmin``/first-occurrence
reductions land on exactly the parent the reference Python BFS picks
(see :class:`repro.controller.provision.DestinationTree`).

Down links are excluded at conversion time (the CSR form is rebuilt per
topology/link epoch, mirroring the engine's tree invalidation), so a
tree computed over the arrays describes the *residual* topology.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from repro.topology.graph import NodeKind, PortGraph, TopologyError

__all__ = ["CsrTopology", "TreeArrays", "destination_tree_arrays"]


class CsrTopology:
    """Frozen CSR snapshot of a :class:`PortGraph` (minus down links).

    Build once per (topology epoch, down-link set) with
    :meth:`from_graph`; every array is read-only from then on.  The
    conversion is O(nodes + links·log) Python work — all later
    per-destination tree builds are numpy-only.
    """

    __slots__ = (
        "names", "index", "n", "indptr", "indices", "ports_out",
        "ports_back", "weights", "core_mask", "switch_ids", "down",
    )

    def __init__(
        self,
        names: Tuple[str, ...],
        index: Dict[str, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        ports_out: np.ndarray,
        ports_back: np.ndarray,
        weights: np.ndarray,
        core_mask: np.ndarray,
        switch_ids: np.ndarray,
        down: FrozenSet[Tuple[str, str]],
    ):
        self.names = names
        self.index = index
        self.n = len(names)
        self.indptr = indptr
        self.indices = indices
        self.ports_out = ports_out
        self.ports_back = ports_back
        self.weights = weights
        self.core_mask = core_mask
        self.switch_ids = switch_ids
        self.down = down

    @classmethod
    def from_graph(
        cls,
        graph: PortGraph,
        down: FrozenSet[Tuple[str, str]] = frozenset(),
    ) -> "CsrTopology":
        """Convert *graph* into CSR arrays, excluding *down* links.

        Node indices are name-sorted ranks; each node's adjacency slice
        is sorted by neighbor index, so "first occurrence" in any
        frontier gather is "smallest name" — the canonical tie-break.
        """
        names = tuple(sorted(n.name for n in graph.nodes()))
        index = {name: i for i, name in enumerate(names)}
        n = len(names)

        adj: List[List[Tuple[int, int, int, float]]] = [[] for _ in range(n)]
        for link in graph.links():
            if down and link.key in down:
                continue
            ia, ib = index[link.a], index[link.b]
            w = 1.0
            adj[ia].append((ib, link.a_port, link.b_port, w))
            adj[ib].append((ia, link.b_port, link.a_port, w))

        indptr = np.zeros(n + 1, dtype=np.int32)
        total = sum(len(a) for a in adj)
        indices = np.empty(total, dtype=np.int32)
        ports_out = np.empty(total, dtype=np.int32)
        ports_back = np.empty(total, dtype=np.int32)
        weights = np.empty(total, dtype=np.float64)
        pos = 0
        for i, entries in enumerate(adj):
            entries.sort(key=lambda e: e[0])
            for nb, p_out, p_back, w in entries:
                indices[pos] = nb
                ports_out[pos] = p_out
                ports_back[pos] = p_back
                weights[pos] = w
                pos += 1
            indptr[i + 1] = pos

        core_mask = np.zeros(n, dtype=bool)
        switch_ids = np.full(n, -1, dtype=np.int64)
        for info in graph.nodes():
            i = index[info.name]
            if info.kind == NodeKind.CORE:
                core_mask[i] = True
                if info.switch_id is not None:
                    switch_ids[i] = info.switch_id

        for arr in (indptr, indices, ports_out, ports_back, weights,
                    core_mask, switch_ids):
            arr.setflags(write=False)
        return cls(names, index, indptr, indices, ports_out, ports_back,
                   weights, core_mask, switch_ids, frozenset(down))

    def node_index(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def neighbors_of(self, node: "int | str") -> np.ndarray:
        """Neighbor indices of a node (by index or name), ascending."""
        idx = self.node_index(node) if isinstance(node, str) else node
        return self.indices[self.indptr[idx]:self.indptr[idx + 1]]

    def edge_slice(self, idx: int) -> slice:
        return slice(int(self.indptr[idx]), int(self.indptr[idx + 1]))


class TreeArrays:
    """One destination's shortest-path tree in array form.

    ``parent[x]`` is the node index of ``x``'s next hop toward the
    root, ``depth[x]`` its hop distance (``-1`` when unreachable
    through the core), and ``parent_port[x]`` the port **on x** facing
    its parent — exactly the residue a KAR hop through ``x`` encodes.
    ``order`` lists reached non-root nodes in canonical BFS order
    (by depth, then node index), which is the order the bulk encoder
    extends route IDs down the tree.
    """

    __slots__ = ("root", "depth", "parent", "parent_port", "order")

    def __init__(self, root: int, depth: np.ndarray, parent: np.ndarray,
                 parent_port: np.ndarray, order: np.ndarray):
        self.root = root
        self.depth = depth
        self.parent = parent
        self.parent_port = parent_port
        self.order = order


def destination_tree_arrays(csr: CsrTopology, root: int) -> TreeArrays:
    """Frontier-batched BFS toward *root* over the core subgraph.

    Expansion never leaves the core: only nodes with ``core_mask`` set
    are claimed (the root itself may be an edge node — the usual case —
    since a destination tree is rooted at the egress edge).

    Canonical tie-break (locked by tests against the reference Python
    BFS): a node at depth ``d+1`` takes as parent the **smallest-named**
    (= smallest-index) node at depth ``d`` adjacent to it.  The whole
    level is processed with numpy: gather every frontier half-edge,
    drop seen/non-core targets, and keep the first occurrence per
    target — first is smallest because the frontier is kept sorted and
    adjacency slices are index-sorted.
    """
    n = csr.n
    depth = np.full(n, -1, dtype=np.int32)
    parent = np.full(n, -1, dtype=np.int32)
    parent_port = np.full(n, -1, dtype=np.int32)
    depth[root] = 0

    sl = csr.edge_slice(root)
    cand = csr.indices[sl]
    keep = csr.core_mask[cand]
    frontier = cand[keep].astype(np.int64)
    parent[frontier] = root
    parent_port[frontier] = csr.ports_back[sl][keep]
    depth[frontier] = 1

    levels = [frontier]
    d = 1
    while frontier.size:
        starts = csr.indptr[frontier].astype(np.int64)
        counts = (csr.indptr[frontier + 1] - csr.indptr[frontier]).astype(
            np.int64
        )
        total = int(counts.sum())
        if total == 0:
            break
        # Gather all outgoing half-edges of the frontier in one shot:
        # e_idx[k] walks each frontier node's adjacency slice in order.
        cum = np.cumsum(counts)
        e_idx = np.repeat(starts - (cum - counts), counts) + np.arange(total)
        cand = csr.indices[e_idx]
        keep = csr.core_mask[cand] & (depth[cand] < 0)
        if not keep.any():
            break
        cand = cand[keep]
        e_kept = e_idx[keep]
        src = np.repeat(frontier, counts)[keep]
        # First occurrence per target = smallest parent index (the
        # frontier is sorted ascending and np.unique returns the index
        # of each value's first occurrence in the original array).
        uniq, first = np.unique(cand, return_index=True)
        parent[uniq] = src[first]
        parent_port[uniq] = csr.ports_back[e_kept[first]]
        d += 1
        depth[uniq] = d
        frontier = uniq.astype(np.int64)
        levels.append(frontier)

    order = (
        np.concatenate(levels) if levels and levels[0].size
        else np.empty(0, dtype=np.int64)
    )
    return TreeArrays(root, depth, parent, parent_port, order)
