"""Deterministic random-topology generators.

Used by property-based tests and the resilience-frontier sweep to
exercise KAR on networks beyond the paper's two figures.  All generators
are seeded and pure — the same seed always yields the same topology.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.rns.coprime import greedy_coprime_pool, prime_pool
from repro.topology.graph import NodeKind, PortGraph, TopologyError

__all__ = ["random_connected", "clique", "torus",
           "attach_host_pair", "attach_edges"]


def _switch_ids(count: int, strategy: str, min_value: int) -> List[int]:
    if strategy == "prime":
        return prime_pool(count, min_value=min_value)
    if strategy == "greedy":
        return greedy_coprime_pool(count, min_value=min_value)
    raise ValueError(f"unknown ID strategy {strategy!r}; use 'prime' or 'greedy'")


def random_connected(
    num_switches: int,
    extra_links: int = 0,
    seed: int = 0,
    id_strategy: str = "prime",
    min_switch_id: int = 5,
    rate_mbps: float = 100.0,
    delay_s: float = 0.001,
) -> PortGraph:
    """A random connected core topology.

    Builds a uniform random spanning tree (guaranteeing connectivity),
    then adds *extra_links* random chords.  Switch IDs come from the
    chosen coprime strategy; IDs are assigned large-to-small by node
    degree after wiring, so the degree < ID invariant holds whenever the
    pool values allow it.

    Raises:
        ValueError: if a node's degree ends up >= its assigned ID (choose
            a larger *min_switch_id* or fewer *extra_links*).
    """
    if num_switches < 2:
        raise ValueError(f"need at least 2 switches, got {num_switches}")
    rng = random.Random(seed)
    names = [f"SW{i}" for i in range(num_switches)]

    # Random spanning tree: connect each new node to a random earlier one.
    tree_links: List[Tuple[str, str]] = []
    for i in range(1, num_switches):
        j = rng.randrange(i)
        tree_links.append((names[j], names[i]))

    # Random chords.
    existing = {tuple(sorted(l)) for l in tree_links}
    chords: List[Tuple[str, str]] = []
    attempts = 0
    while len(chords) < extra_links and attempts < 50 * (extra_links + 1):
        attempts += 1
        a, b = rng.sample(names, 2)
        key = tuple(sorted((a, b)))
        if key not in existing:
            existing.add(key)
            chords.append((a, b))

    # Degree-aware ID assignment: highest-degree node gets largest ID.
    degree = {n: 0 for n in names}
    for a, b in tree_links + chords:
        degree[a] += 1
        degree[b] += 1
    ids = sorted(_switch_ids(num_switches, id_strategy, min_switch_id))
    by_degree = sorted(names, key=lambda n: degree[n])
    assignment = dict(zip(by_degree, ids))

    g = PortGraph()
    for n in names:
        g.add_node(n, kind=NodeKind.CORE, switch_id=assignment[n])
    for a, b in tree_links + chords:
        g.add_link(a, b, rate_mbps=rate_mbps, delay_s=delay_s)
    for n in names:
        if g.degree(n) >= assignment[n]:
            raise ValueError(
                f"node {n} has degree {g.degree(n)} >= switch ID "
                f"{assignment[n]}; raise min_switch_id"
            )
    return g


def clique(
    num_switches: int,
    id_strategy: str = "prime",
    min_switch_id: int = 5,
    rate_mbps: float = 100.0,
    delay_s: float = 0.001,
) -> PortGraph:
    """A complete graph on *num_switches* switches.

    The maximally-connected case of the resilience frontier: edge
    connectivity n-1, so n-1 edge-disjoint spanning arborescences exist
    per destination and failover schemes are separated only by how many
    of those trees they can actually exploit.

    Every switch has degree n-1 (n after a host/edge stack is attached
    via :func:`attach_host_pair`), so IDs are drawn from
    ``max(min_switch_id, num_switches + 1)`` upward to keep the
    degree < ID invariant with room for one attachment.
    """
    if num_switches < 3:
        raise ValueError(
            f"a clique needs at least 3 switches, got {num_switches}"
        )
    ids = _switch_ids(num_switches, id_strategy,
                      max(min_switch_id, num_switches + 1))
    g = PortGraph()
    names = [f"SW{i}" for i in range(num_switches)]
    for n, sid in zip(names, sorted(ids)):
        g.add_node(n, kind=NodeKind.CORE, switch_id=sid)
    for i in range(num_switches):
        for j in range(i + 1, num_switches):
            g.add_link(names[i], names[j], rate_mbps=rate_mbps,
                       delay_s=delay_s)
    return g


def torus(
    rows: int,
    cols: int,
    id_strategy: str = "prime",
    min_switch_id: int = 7,
    rate_mbps: float = 100.0,
    delay_s: float = 0.001,
) -> PortGraph:
    """A rows x cols 2-D torus (wrap-around grid), degree 4 everywhere.

    The classic datacenter/HPC regular topology: edge connectivity 4,
    so exactly 4 edge-disjoint arborescences exist per destination —
    the resilience frontier's structured middle ground between the
    clique and the sparse zoo graphs.

    Both dimensions must be >= 3: a ring of 2 would collapse its
    forward and wrap links onto the same switch pair, and
    :class:`~repro.topology.graph.PortGraph` allows one link per pair.
    """
    if rows < 3 or cols < 3:
        raise ValueError(
            f"torus dimensions must be >= 3, got {rows}x{cols}"
        )
    count = rows * cols
    ids = _switch_ids(count, id_strategy, max(min_switch_id, 7))
    g = PortGraph()
    names = [[f"SW{r}-{c}" for c in range(cols)] for r in range(rows)]
    flat = [names[r][c] for r in range(rows) for c in range(cols)]
    for n, sid in zip(flat, ids):
        g.add_node(n, kind=NodeKind.CORE, switch_id=sid)
    for r in range(rows):
        for c in range(cols):
            g.add_link(names[r][c], names[r][(c + 1) % cols],
                       rate_mbps=rate_mbps, delay_s=delay_s)
            g.add_link(names[r][c], names[(r + 1) % rows][c],
                       rate_mbps=rate_mbps, delay_s=delay_s)
    return g


def attach_edges(
    graph: PortGraph,
    switches: Optional[Sequence[str]] = None,
    rate_mbps: float = 100.0,
    delay_s: float = 0.001,
) -> List[str]:
    """Attach one edge node to each given core switch; returns their names.

    Turns a generated core graph into a multi-tenant provisioning
    domain: every switch gets an ingress/egress attachment point
    ``E-<switch>``, which is what the controller service hands out
    flows between.  Switches are taken in name-sorted order (all core
    switches by default) so edge naming — and therefore every digest
    downstream — is deterministic.

    Raises:
        TopologyError: if an attachment would violate the degree < ID
            invariant (the switch has no spare residue for a new port).
    """
    if switches is None:
        switches = sorted(n.name for n in graph.nodes(NodeKind.CORE))
    edges: List[str] = []
    for sw in switches:
        info = graph.node(sw)
        if info.kind != NodeKind.CORE:
            raise TopologyError(f"{sw!r} is not a core switch")
        if info.switch_id is not None and info.degree + 1 > info.switch_id:
            raise TopologyError(
                f"attaching an edge to {sw!r} would give it degree "
                f"{info.degree + 1} > switch ID {info.switch_id}"
            )
        edge = f"E-{sw}"
        graph.add_node(edge, kind=NodeKind.EDGE)
        graph.add_link(sw, edge, rate_mbps=rate_mbps, delay_s=delay_s)
        edges.append(edge)
    return edges


def attach_host_pair(
    graph: PortGraph,
    src_switch: str,
    dst_switch: str,
    rate_mbps: float = 100.0,
    delay_s: float = 0.001,
) -> Tuple[str, str]:
    """Attach (host, edge) stacks at two switches; returns the host names.

    Convenience for turning a generated core graph into a measurable
    scenario: ``H-SRC — E-SRC — src_switch`` and the DST equivalents.
    """
    for label, sw in (("SRC", src_switch), ("DST", dst_switch)):
        edge, host = f"E-{label}", f"H-{label}"
        graph.add_node(edge, kind=NodeKind.EDGE)
        graph.add_node(host, kind=NodeKind.HOST)
        graph.add_link(sw, edge, rate_mbps=rate_mbps, delay_s=delay_s)
        graph.add_link(edge, host, rate_mbps=rate_mbps, delay_s=delay_s)
    return "H-SRC", "H-DST"
