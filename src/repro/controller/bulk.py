"""Vectorized all-pairs provisioning: CSR trees + down-tree CRT encode.

The per-flow engine (:class:`~repro.controller.provision
.ProvisioningEngine`) is the right oracle and the wrong cold-start
path: provisioning a full ingress×egress mesh over a real WAN means
one Python BFS per destination, one branch walk per flow, and one CRT
solve per route.  This module batches all three:

* **one CSR conversion per epoch** — the :class:`~repro.topology.csr
  .CsrTopology` arrays, built once and shared by every destination;
* **one frontier-batched BFS per** ``_FOREST_CELLS // n``
  **destinations** — :func:`~repro.topology.csr.destination_forest`,
  canonical smallest-name tie-break locked against the reference
  :class:`~repro.controller.provision.DestinationTree`.  A miss also
  builds the trees of the next destinations without one; they wait,
  unencoded, until requested, so every refusal belongs to its request;
* **one CRT step** (:func:`~repro.rns.crt.crt_fold`) **per switch a
  request reaches** — a route down a destination tree shares every
  residue of its parent's route plus one hop, so route IDs are computed by
  extending the parent's solved system (O(1) modular ops), never by
  re-solving Eq. 4 per flow: down the whole tree in BFS order for a
  full mesh row, up to the first solved ancestor for named sources.

Everything is bit-identical to the per-flow path by construction (the
extended CRT solution is unique) and by test: the Hypothesis suite in
``tests/controller/test_bulk.py`` compares hop-for-hop and
route-ID-for-route-ID against :meth:`ProvisioningEngine.provision` on
random topologies, and holds :func:`mesh_digest` — a fingerprint of
a mesh within one interpreter, not a pin across Python versions —
equal to :func:`mesh_digest_reference`, the same byte stream computed
from the per-flow oracle.  The engine does not dispatch here: a
caller that wants a mesh builds a :class:`BulkProvisioner` itself, as
the ``wan754-coldstart`` workload of ``benchmarks/e2e`` does (it is
also where this path is timed).
"""

from __future__ import annotations

import hashlib
import marshal
from itertools import groupby
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.controller.provision import (
    ProvisionError,
    ProvisionedRoute,
    require_edge,
    require_flow_endpoints,
    require_link,
)
from repro.rns.crt import crt_fold
from repro.rns.encoder import EncodedRoute, Hop
from repro.topology.csr import (
    _FOREST_CELLS, CsrTopology, TreeArrays, destination_forest,
)
from repro.topology.graph import NodeKind, PortGraph

__all__ = [
    "BulkProvisioner",
    "DestinationBlock",
    "MeshRow",
    "full_mesh_pairs",
    "mesh_digest",
    "mesh_digest_reference",
]

#: Sentinel larger than any (depth * n + index) entry key.
_NO_ENTRY = np.int64(2**62)


def full_mesh_pairs(graph: PortGraph) -> List[Tuple[str, str]]:
    """Every ordered (src_edge, dst_edge) pair, destination-major.

    The canonical mesh enumeration order: destinations ascending by
    name, sources ascending by name within each destination.  Both the
    bulk and the reference mesh digests walk pairs in this order.
    """
    edges = sorted(n.name for n in graph.nodes(NodeKind.EDGE))
    return [(s, d) for d in edges for s in edges if s != d]


class DestinationBlock:
    """One destination's tree plus the route IDs requested under it.

    ``encoded_route(x)`` gives the encoded route for the branch
    entering the core at node index ``x``.  Building a block only
    checks that every switch of the tree can carry its hop; route IDs
    are solved on request, one :func:`~repro.rns.crt.crt_fold` step per
    switch a request reaches (each node's system = its parent's system
    + one hop, the root's the empty system ``(0, 1)``):
    ``_encode_all`` runs down the whole tree in BFS order for a
    full mesh row, :meth:`route_id` up one branch to its first solved
    ancestor for anything less.  Either way a node's solution is the
    unique CRT one, so the mix and order of requests cannot move it.
    """

    __slots__ = (
        "csr", "dst_edge", "dst_idx", "tree", "_ids", "_mods",
        "_hops", "_branches", "_routes", "_entries",
    )

    def __init__(self, csr: CsrTopology, dst_edge: str, tree: TreeArrays):
        self.csr = csr
        self.dst_edge = dst_edge
        self.dst_idx = tree.root
        self.tree = tree
        self._hops: Dict[int, Tuple[Hop, ...]] = {}
        self._branches: Dict[int, Tuple[str, ...]] = {}
        self._routes: Dict[int, EncodedRoute] = {}
        # BulkProvisioner's per-edge (entry, out-port) arrays, memoised.
        self._entries: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Lists while partly solved, tuples once _encode_all has run.
        ids: List[Optional[int]] = [None] * csr.n
        mods: List[Optional[int]] = [None] * csr.n
        ids[self.dst_idx], mods[self.dst_idx] = 0, 1
        self._ids, self._mods = ids, mods
        order = tree.order
        sids, ports = csr.switch_ids[order], tree.parent_port[order]
        bad = np.flatnonzero((sids <= 1) | (ports >= sids))
        if bad.size:  # the first unencodable switch in BFS order
            i = int(bad[0])
            name, s, p = csr.names[int(order[i])], int(sids[i]), int(ports[i])
            raise ProvisionError("bad-path", (
                f"core switch {name!r} has no switch ID" if s <= 1
                else f"{name}: port {p} not addressable by switch ID {s}"))

    def _encode_all(self) -> None:
        """Solve every reached switch, in BFS order (parents first)."""
        if type(self._ids) is tuple:
            return
        ids, mods = self._ids, self._mods
        order = self.tree.order
        crt_fold(ids, mods, order.tolist(), self.csr.switch_ids[order].tolist(),
                 self.tree.parent_port[order].tolist(),
                 self.tree.parent[order].tolist())
        # Tuples of ints and None: the collector stops tracking them at
        # the first collection they survive; a list is walked every time.
        self._ids, self._mods = tuple(ids), tuple(mods)

    def route_id(self, idx: int) -> int:
        """Route ID for entry *idx*, solving the switches between it and
        its first solved ancestor."""
        ids, mods = self._ids, self._mods
        if ids[idx] is None or idx == self.dst_idx:
            if self.tree.depth[idx] <= 0:
                raise ProvisionError(
                    "no-core-path",
                    f"{self.csr.names[idx]!r} cannot reach "
                    f"{self.dst_edge!r} through the core",
                )
            parent = self.tree.parent
            chain = [idx]
            while ids[int(parent[chain[-1]])] is None:
                chain.append(int(parent[chain[-1]]))
            down = np.array(chain[::-1])
            crt_fold(ids, mods, down.tolist(),
                     self.csr.switch_ids[down].tolist(),
                     self.tree.parent_port[down].tolist(),
                     parent[down].tolist())
        return ids[idx]

    def hops(self, idx: int) -> Tuple[Hop, ...]:
        """Hop tuple for the branch entering the core at *idx* — in
        path order (entry first), matching ``hops_for_path``."""
        cached = self._hops.get(idx)
        if cached is not None:
            return cached
        self.route_id(idx)  # raises for unreachable nodes
        chain: List[int] = []
        x = idx
        while x != self.dst_idx and x not in self._hops:
            chain.append(x)
            x = int(self.tree.parent[x])
        tail = self._hops.get(x, ())
        sids, pports = self.csr.switch_ids, self.tree.parent_port
        for y in reversed(chain):
            tail = (Hop(int(sids[y]), int(pports[y])),) + tail
            self._hops[y] = tail
        return self._hops[idx]

    def branch_names(self, idx: int) -> Tuple[str, ...]:
        """Node names from *idx* down the tree to the destination."""
        cached = self._branches.get(idx)
        if cached is not None:
            return cached
        self.route_id(idx)
        chain: List[int] = []
        x = idx
        while x != self.dst_idx and x not in self._branches:
            chain.append(x)
            x = int(self.tree.parent[x])
        tail = self._branches.get(x, (self.dst_edge,))
        names = self.csr.names
        for y in reversed(chain):
            tail = (names[y],) + tail
            self._branches[y] = tail
        return self._branches[idx]

    def encoded_route(self, idx: int) -> EncodedRoute:
        """The :class:`EncodedRoute` for entry *idx* (memoized; shared
        by every flow entering the core there)."""
        route = self._routes.get(idx)
        if route is None:
            hops = self.hops(idx)
            route = EncodedRoute(
                route_id=self.route_id(idx),
                modulus=self._mods[idx],  # type: ignore[arg-type]
                hops=hops,
                _residues={h.switch_id: h.port for h in hops},
            )
            self._routes[idx] = route
        return route


class MeshRow(NamedTuple):
    """One destination's slice of the full mesh, in array form.

    ``src_edges[i]`` enters the core at node index ``entries[i]``
    through source port ``out_ports[i]``; its route is
    ``(route_ids[i], moduli[i])``.  Sources are name-sorted — the
    canonical mesh order.
    """

    dst_edge: str
    src_edges: List[str]
    entries: np.ndarray
    out_ports: np.ndarray
    route_ids: Tuple[int, ...]
    moduli: Tuple[int, ...]
    block: DestinationBlock


class BulkProvisioner:
    """Vectorized batch provisioning over one (epoch, down-set) snapshot.

    Args:
        graph: the topology (switch IDs assigned, edges attached).
        down: links to exclude, endpoints in either order — the
            engine's link-state overlay at snapshot time.  A pair naming
            no link is refused as ``set_link_down`` refuses it.

    The provisioner is immutable with respect to the topology: build a
    new one after any topology or link-state change, exactly like
    destination trees.  ``trees_built`` counts blocks built (one per
    distinct destination requested), ``block_hits`` memoised answers.
    """

    def __init__(
        self,
        graph: PortGraph,
        down: FrozenSet[Tuple[str, str]] = frozenset(),
    ):
        self.graph = graph
        down = frozenset(require_link(graph, a, b) for a, b in down)
        self.csr = CsrTopology.from_graph(graph, down=down)
        self.trees_built = 0
        self.block_hits = 0
        self._blocks: Dict[str, DestinationBlock] = {}
        self._trees: Dict[str, TreeArrays] = {}  # read ahead, unrequested

        csr = self.csr
        self.edge_names: List[str] = sorted(
            n.name for n in graph.nodes(NodeKind.EDGE)
        )
        self.edge_idx = np.array(
            [csr.index[e] for e in self.edge_names], dtype=np.int64
        )
        self._edge_rank = {e: i for i, e in enumerate(self.edge_names)}
        self._ranks = np.arange(len(self.edge_names), dtype=np.int64)
        # Flat per-edge core-neighbor arrays for vectorized entry
        # selection: nb_flat/port_flat hold each edge's core neighbors
        # (ascending) and the edge-side port toward them; edge i's
        # segment is nb_flat[eptr[i]:eptr[i+1]].
        nb_chunks: List[np.ndarray] = []
        port_chunks: List[np.ndarray] = []
        counts = np.zeros(len(self.edge_idx), dtype=np.int64)
        for i, e in enumerate(self.edge_idx.tolist()):
            sl = csr.edge_slice(e)
            nbs = csr.indices[sl]
            keep = csr.core_mask[nbs]
            nb_chunks.append(nbs[keep].astype(np.int64))
            port_chunks.append(csr.ports_out[sl][keep].astype(np.int64))
            counts[i] = int(keep.sum())
        self._nb_flat = (
            np.concatenate(nb_chunks) if nb_chunks
            else np.empty(0, dtype=np.int64)
        )
        self._port_flat = (
            np.concatenate(port_chunks) if port_chunks
            else np.empty(0, dtype=np.int64)
        )
        self._eptr = np.concatenate(([0], np.cumsum(counts)))
        self._ecounts = counts

    # ------------------------------------------------------------------
    # destination blocks
    # ------------------------------------------------------------------
    def block(self, dst_edge: str) -> DestinationBlock:
        """The (memoized) encoded tree block for one destination."""
        blk = self._blocks.get(dst_edge)
        if blk is not None:
            self.block_hits += 1
            return blk
        require_edge(self.graph, dst_edge)
        csr, trees = self.csr, self._trees
        if dst_edge not in trees:
            # One forest pass: dst_edge and the next destinations, in
            # edge_names order from it, with neither a block nor a tree.
            rank = self._edge_rank[dst_edge]
            ring = self.edge_names[rank:] + self.edge_names[:rank]
            batch = [e for e in ring if e not in self._blocks
                     and e not in trees][:max(1, _FOREST_CELLS // csr.n)]
            trees.update(zip(batch, destination_forest(
                csr, [csr.index[e] for e in batch])))
        blk = DestinationBlock(csr, dst_edge, trees.pop(dst_edge))
        self._blocks[dst_edge] = blk
        self.trees_built += 1
        return blk

    # ------------------------------------------------------------------
    # entry selection
    # ------------------------------------------------------------------
    def _entries_for_all_edges(
        self, blk: DestinationBlock
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per edge-rank: chosen entry node index and source out-port.

        The canonical per-flow rule, vectorized: entry = min core
        neighbor by ``(tree depth, name)``; ``-1`` when the edge has no
        core neighbor that reaches the destination.  Narrow dtypes:
        :meth:`mesh_row` memoises both arrays on the block.
        """
        n = self.csr.n
        dtype = np.int16 if n < 2**15 else np.int32
        depth = blk.tree.depth
        cand_depth = depth[self._nb_flat].astype(np.int64)
        key = np.where(
            cand_depth < 0, _NO_ENTRY, cand_depth * n + self._nb_flat
        )
        n_edges = len(self.edge_idx)
        entries = np.full(n_edges, -1, dtype=dtype)
        out_ports = np.full(n_edges, -1, dtype=dtype)
        nonempty = self._ecounts > 0
        if not nonempty.any():
            return entries, out_ports
        seg_min = np.minimum.reduceat(key, self._eptr[:-1][nonempty])
        reachable = seg_min < _NO_ENTRY
        if not reachable.any():
            return entries, out_ports
        # First flat position per segment achieving the minimum: expand
        # each segment's minimum back over its members and keep the
        # first match (positions ascend within a segment).
        full_min = np.full(n_edges, _NO_ENTRY, dtype=np.int64)
        full_min[nonempty] = seg_min
        match = key == np.repeat(full_min, self._ecounts)
        seg_of = np.repeat(np.arange(n_edges), self._ecounts)
        match_pos = np.flatnonzero(match)
        seg_hit, first = np.unique(seg_of[match_pos], return_index=True)
        pos = match_pos[first]
        entries[seg_hit] = self._nb_flat[pos]
        out_ports[seg_hit] = self._port_flat[pos]
        return entries, out_ports

    # ------------------------------------------------------------------
    # mesh iteration
    # ------------------------------------------------------------------
    def mesh_row(
        self, dst_edge: str, src_edges: Optional[Sequence[str]] = None
    ) -> MeshRow:
        """One destination's mesh slice (all sources by default).

        Raises:
            ProvisionError: ``no-core-path`` when any requested source
                cannot reach the destination — full-mesh provisioning
                is strict, exactly like the per-flow loop it replaces.
                Caller-named sources are checked first, with the
                per-flow engine's slugs and messages: ``same-edge``,
                ``unknown-node``, ``not-an-edge``.
        """
        if src_edges is None:
            blk = self.block(dst_edge)
            skip = self._edge_rank[dst_edge]
            srcs = self.edge_names[:skip] + self.edge_names[skip + 1:]
            ranks = self._ranks[self._ranks != skip]
        else:
            srcs = sorted(src_edges)
            for src in srcs:
                require_flow_endpoints(self.graph, src, dst_edge)
            blk = self.block(dst_edge)
            ranks = np.array(
                [self._edge_rank[s] for s in srcs], dtype=np.int64
            )
        if blk._entries is None:
            blk._entries = self._entries_for_all_edges(blk)
        entries_all, ports_all = blk._entries
        entries = entries_all[ranks]
        out_ports = ports_all[ranks]
        bad = np.flatnonzero(entries < 0)
        if bad.size:
            src = srcs[int(bad[0])]
            raise ProvisionError(
                "no-core-path",
                f"{src!r} has no core neighbor that reaches "
                f"{dst_edge!r}",
            )
        picks = entries.tolist()
        if src_edges is None:
            blk._encode_all()
        else:
            for e in set(picks):
                blk.route_id(e)
        ids, mods = blk._ids, blk._mods
        return MeshRow(dst_edge, srcs, entries, out_ports,
                       tuple([ids[e] for e in picks]),
                       tuple([mods[e] for e in picks]), blk)

    def iter_full_mesh(self) -> Iterator[MeshRow]:
        """Every destination's mesh slice, destination-major order."""
        for dst in self.edge_names:
            yield self.mesh_row(dst)

    def routes_for(
        self, dst_edge: str, src_edges: Sequence[str]
    ) -> Dict[str, ProvisionedRoute]:
        """Materialized :class:`ProvisionedRoute` per source edge.

        Object-for-object equal to what
        :meth:`ProvisioningEngine.provision` returns for the same pair
        (same node path, same hops, same route ID and modulus, same
        out-port); flows sharing an entry switch share one
        :class:`EncodedRoute` instance.
        """
        row = self.mesh_row(dst_edge, src_edges)
        blk = row.block
        out: Dict[str, ProvisionedRoute] = {}
        for src, entry, port in zip(
            row.src_edges, row.entries.tolist(), row.out_ports.tolist()
        ):
            out[src] = ProvisionedRoute(
                src_edge=src,
                dst_edge=dst_edge,
                node_path=(src,) + blk.branch_names(entry),
                route=blk.encoded_route(entry),
                out_port=int(port),
            )
        return out


def _digest(
    rows: Iterable[Tuple[str, Sequence[str], Sequence[int], Sequence[int]]],
) -> Tuple[str, int]:
    # Marshal version 2 writes every int and str by value, with no
    # back-references and no interning flags, so the bytes depend on
    # the route values only, not on which objects hold them.
    h = hashlib.sha256()
    count = 0
    for dst, srcs, ids, mods in rows:
        h.update(marshal.dumps(
            (dst, tuple(srcs), tuple(ids), tuple(mods)), 2
        ))
        count += len(srcs)
    return h.hexdigest(), count


def mesh_digest(
    rows: Iterable[MeshRow],
) -> Tuple[str, int]:
    """sha256 fingerprint over mesh rows, in row order.

    Hashes one marshalled ``(dst, sources, route IDs, moduli)`` tuple
    per row — the byte stream :func:`mesh_digest_reference` produces
    from the per-flow engine, so equal digests mean every route ID (and
    its modulus) matches bit for bit.  It is an in-interpreter
    fingerprint, not a cross-version pin: marshal's format belongs to
    the Python version.  Returns ``(hexdigest, pair_count)``.
    """
    return _digest(
        (r.dst_edge, r.src_edges, r.route_ids, r.moduli) for r in rows
    )


def mesh_digest_reference(
    engine, pairs: Iterable[Tuple[str, str]]
) -> Tuple[str, int]:
    """The same fingerprint, computed from the per-flow oracle.

    *engine* is a :class:`~repro.controller.provision
    .ProvisioningEngine`; pairs must be in canonical mesh order
    (destination-major — see :func:`full_mesh_pairs`): each
    destination's run of pairs is one row.
    """
    rows = []
    for dst, group in groupby(pairs, key=lambda pair: pair[1]):
        srcs = [src for src, _ in group]
        routes = [engine.provision(src, dst).route for src in srcs]
        rows.append((dst, srcs, [r.route_id for r in routes],
                     [r.modulus for r in routes]))
    return _digest(rows)
