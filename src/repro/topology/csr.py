"""CSR adjacency arrays: the vectorized view of a :class:`PortGraph`.

The per-flow control plane walks Python dicts (``PortGraph.neighbors``,
``port_of``) — fine for one flow, hopeless for cold-start full-mesh
provisioning of a real WAN.  This module converts a topology **once**
into flat numpy arrays (compressed sparse row form) so that
shortest-path trees come from whole-frontier numpy operations instead
of per-node Python, many roots per pass (:func:`bfs_forest`: the
route-frequency weights of :mod:`repro.controller.idassign`, and the
bulk provisioner's trees via :func:`destination_forest`):

* ``indptr``/``indices`` — classic CSR: node ``u``'s neighbors are
  ``indices[indptr[u]:indptr[u+1]]``, sorted by node index;
* ``ports_out`` — parallel to ``indices``: the port index **on u**
  facing that neighbor (what a hop through ``u`` encodes);
* ``ports_back`` — parallel to ``indices``: the port index **on the
  neighbor** facing ``u`` (what a hop through the neighbor toward ``u``
  encodes — the array a destination-rooted BFS reads when it claims a
  child);
* ``core_mask``/``switch_ids`` — per-node role and KAR modulus.

Node indexing is **name-sorted rank**: index order equals
lexicographic name order.  That single choice is what makes the
vectorized tie-break canonical — "smallest node index" and "smallest
node name" are the same thing, so a numpy minimum over a node's
claimants lands on exactly the parent the Python statement of the rule
picks (:func:`repro.topology.paths.canonical_tree`).

Down links are excluded at conversion time (the CSR form is rebuilt per
topology/link epoch, mirroring the engine's tree invalidation), so a
tree computed over the arrays describes the *residual* topology.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.topology.graph import NodeKind, PortGraph, TopologyError

__all__ = [
    "CsrTopology", "TreeArrays", "bfs_forest", "destination_forest",
    "destination_tree_arrays",
]

#: Cells (roots x nodes) per forest pass, weights and bulk trees alike: roots
#: enough to amortise a level's numpy calls, few enough to stay in cache
#: (n = 1,508: 43-347 within 15 %).
_FOREST_CELLS = 1 << 18


class CsrTopology:
    """Frozen CSR snapshot of a :class:`PortGraph` (minus down links).

    Build once per (topology epoch, down-link set) with
    :meth:`from_graph`; every array is read-only from then on.  The
    conversion is O(nodes + links·log) Python work — all later
    per-destination tree builds are numpy-only.
    """

    __slots__ = (
        "names", "index", "n", "indptr", "indices", "ports_out",
        "ports_back", "core_mask", "switch_ids", "down",
    )

    def __init__(
        self,
        names: Tuple[str, ...],
        index: Dict[str, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        ports_out: np.ndarray,
        ports_back: np.ndarray,
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

        Node indices are name-sorted ranks, so "smallest index" among a
        node's claimants is "smallest name" — the canonical tie-break;
        each node's adjacency slice is sorted by neighbor index.
        """
        names = tuple(sorted(n.name for n in graph.nodes()))
        index = {name: i for i, name in enumerate(names)}
        n = len(names)

        adj: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
        for link in graph.links():
            if down and link.key in down:
                continue
            ia, ib = index[link.a], index[link.b]
            adj[ia].append((ib, link.a_port, link.b_port))
            adj[ib].append((ia, link.b_port, link.a_port))

        indptr = np.zeros(n + 1, dtype=np.int32)
        total = sum(len(a) for a in adj)
        indices = np.empty(total, dtype=np.int32)
        ports_out = np.empty(total, dtype=np.int32)
        ports_back = np.empty(total, dtype=np.int32)
        pos = 0
        for i, entries in enumerate(adj):
            entries.sort(key=lambda e: e[0])
            for nb, p_out, p_back in entries:
                indices[pos] = nb
                ports_out[pos] = p_out
                ports_back[pos] = p_back
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

        for arr in (indptr, indices, ports_out, ports_back, core_mask,
                    switch_ids):
            arr.setflags(write=False)
        return cls(names, index, indptr, indices, ports_out, ports_back,
                   core_mask, switch_ids, frozenset(down))

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


def bfs_forest(
    csr: CsrTopology, roots: np.ndarray, allowed: np.ndarray
) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """Frontier-batched BFS from every root in *roots* at once.

    The forest is one flat array of ``len(roots) * n`` cells keyed
    ``slot * n + node`` (*slot* = position in *roots*), so a level of
    all the trees costs the numpy calls of a level of one: gather every
    frontier half-edge, drop targets already claimed or not *allowed*
    (a root is claimed either way), and let ``np.minimum.at`` hand each
    remaining key to its smallest claimant.  Claimants are parent keys,
    smallest key = smallest node index within a slot — the canonical
    smallest-named parent in whatever order the frontier comes, so
    nothing is sorted.

    Returns ``(parent, levels)``: ``parent[key]`` is the parent's key
    (``-1`` at a root, ``parent.size`` where unreached); ``levels[d-1]``
    is ``(keys, half_edges)`` of the nodes at depth ``d``, unordered,
    each half-edge the CSR entry parent → child that claimed the key.
    """
    n = csr.n
    indices = csr.indices
    starts_of = csr.indptr[:-1].astype(np.int64)
    degree = np.diff(csr.indptr)
    nodes = np.asarray(roots, dtype=np.int64)
    keys = np.arange(nodes.size, dtype=np.int64) * n + nodes
    unclaimed = nodes.size * n
    parent = np.full(unclaimed, unclaimed, dtype=np.int64)
    parent[keys] = -1
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    while keys.size:
        counts = degree[nodes]
        cum = np.cumsum(counts)
        # e_idx walks each frontier node's adjacency slice in order.
        e_idx = np.repeat(starts_of[nodes] - (cum - counts), counts)
        e_idx += np.arange(e_idx.size)
        cand = indices[e_idx]
        ckey = np.repeat(keys - nodes, counts) + cand
        open_ = np.flatnonzero(allowed[cand] & (parent[ckey] == unclaimed))
        ckey = ckey[open_]
        claimant = np.repeat(keys, counts)[open_]
        np.minimum.at(parent, ckey, claimant)
        won = parent[ckey] == claimant
        keys = ckey[won]
        half_edges = e_idx[open_[won]]
        nodes = indices[half_edges].astype(np.int64)
        if keys.size:
            levels.append((keys, half_edges))
    return parent, levels


def destination_forest(
    csr: CsrTopology, roots: Sequence[int]
) -> List[TreeArrays]:
    """Shortest-path tree toward each of *roots*: one :func:`bfs_forest`
    pass, split per slot into views of its arrays.

    Expansion never leaves the core: only nodes with ``core_mask`` set
    are claimed (a root is usually an edge node, since a destination
    tree is rooted at the egress edge).  Canonical tie-break (locked by
    tests against :func:`repro.topology.paths.canonical_tree`): a node
    at depth ``d+1`` takes as parent the **smallest-named**
    (= smallest-index) node at depth ``d`` adjacent to it.
    """
    n, roots = csr.n, [int(r) for r in roots]
    parent, levels = bfs_forest(csr, np.array(roots), csr.core_mask)
    depth = np.full(parent.size, -1, dtype=np.int32)
    parent_port = np.full(parent.size, -1, dtype=np.int32)
    depth[parent < 0] = 0
    for d, (keys, half_edges) in enumerate(levels, start=1):
        depth[keys] = d
        parent_port[keys] = csr.ports_back[half_edges]
    reached = depth > 0
    parent = np.where(reached, parent % n, -1).astype(np.int32)
    # Reached keys ascend by (slot, node); a stable sort on (slot, depth)
    # gives each tree its canonical (depth, index) BFS order.
    keys = np.flatnonzero(reached)
    slots = keys // n
    keys = keys[np.argsort(slots * (len(levels) + 1) + depth[keys],
                           kind="stable")]
    ends = [0] + np.cumsum(np.bincount(slots, minlength=len(roots))).tolist()
    depth, parent, parent_port = (
        a.reshape(len(roots), n) for a in (depth, parent, parent_port)
    )
    return [
        TreeArrays(root, depth[s], parent[s], parent_port[s],
                   keys[ends[s]:ends[s + 1]] - s * n)
        for s, root in enumerate(roots)
    ]


def destination_tree_arrays(csr: CsrTopology, root: int) -> TreeArrays:
    """Shortest-path tree toward *root*: :func:`destination_forest` of
    one root."""
    return destination_forest(csr, [root])[0]
