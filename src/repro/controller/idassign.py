"""Switch-ID assignment strategies.

The controller (or local setup) must give every core switch a unique ID
such that the ID set is pairwise coprime and each ID exceeds its
switch's port count.  Four strategies are provided; the header-overhead
study (:mod:`repro.experiments.header_overhead`, in ``repro report``)
compares them:

* ``prime`` — consecutive primes.
* ``greedy`` — smallest pairwise-coprime integers (admits 4, 9, 25...),
  minimising route-ID bit growth (Eq. 9), processed in ascending degree
  order.
* ``weighted`` — header-bit-optimal assignment à la Hari/Niesen/Wilfong:
  same greedy coprime pool, but the **highest-traffic** switches take
  the smallest feasible IDs.  A route's header costs
  ``ceil(log2(prod ids - 1))`` bits, so the expected header bill is
  ``~ sum_s w_s · log2(id_s)`` where ``w_s`` counts provisioned routes
  through switch *s* — and by the rearrangement inequality that sum is
  minimised by pairing the largest weights with the smallest IDs the
  port constraint allows.  Weights come from
  :func:`route_frequency_weights` (or the caller); with no weights the
  switch degree stands in, which is the right proxy on shortest-path
  provisioning (hubs carry routes).
* ``xsr`` — *dual-coprime* assignment for the XSR (GF(2)[X]) backend:
  IDs are simultaneously pairwise coprime in Z (so
  :meth:`~repro.topology.graph.PortGraph.validate` keeps its invariant
  and the integer backends still work on the same graph) and pairwise
  coprime as binary polynomials, each with a remainder space covering
  the switch's ports.  Ordered by weight like ``weighted``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional

from repro.rns.coprime import greedy_coprime_pool, min_id_for_ports, prime_pool
from repro.rns.gf2 import dual_coprime_pool, min_gf2_id_for_ports
from repro.topology.graph import NodeKind

__all__ = [
    "assign_switch_ids",
    "reassign_switch_ids",
    "route_frequency_weights",
    "ASSIGN_STRATEGIES",
    "AssignmentError",
]

#: All accepted ``strategy`` spellings, sorted — the CLI mirrors this
#: tuple literally and a test asserts they stay in sync.
ASSIGN_STRATEGIES = ("greedy", "prime", "weighted", "xsr")


class AssignmentError(ValueError):
    """Raised when no valid assignment exists for the inputs."""


def _pool(strategy: str, size: int) -> List[int]:
    if strategy == "prime":
        return prime_pool(size, min_value=2)
    if strategy in ("greedy", "weighted"):
        return greedy_coprime_pool(size, min_value=2)
    if strategy == "xsr":
        return dual_coprime_pool(size, min_value=2)
    raise AssignmentError(
        f"unknown strategy {strategy!r}; use one of {list(ASSIGN_STRATEGIES)}"
    )


def _min_id(strategy: str, port_count: int) -> int:
    need = min_id_for_ports(port_count)
    if strategy == "xsr":
        # The polynomial remainder space must also cover every port.
        need = max(need, min_gf2_id_for_ports(port_count))
    return need


def assign_switch_ids(
    degrees: Dict[str, int],
    strategy: str = "greedy",
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, int]:
    """Assign pairwise-coprime IDs to switches given their port counts.

    With ``greedy``/``prime`` (and no *weights*), switches are processed
    in ascending degree order and each takes the smallest unused pool
    value that can address its ports — the historical baseline.  With
    ``weighted``/``xsr`` (or whenever *weights* is given), switches are
    processed in **descending weight** order instead, so the switches
    that appear in the most routes get the smallest IDs the feasibility
    constraint allows (see the module docstring for why that is the
    bit-optimal pairing).

    Args:
        degrees: switch name -> number of ports.
        strategy: one of :data:`ASSIGN_STRATEGIES`.
        weights: optional switch name -> traffic weight (e.g. from
            :func:`route_frequency_weights`).  Missing names weigh 0.
            Defaults to *degrees* for the weight-ordered strategies.

    Returns:
        switch name -> assigned ID; every ID > the switch's max port
        index and the set pairwise coprime (for ``xsr``: in both rings).

    Raises:
        AssignmentError: on empty input, negative degrees, or an unknown
            strategy.
    """
    if not degrees:
        raise AssignmentError("no switches to assign IDs to")
    for name, deg in degrees.items():
        if deg < 0:
            raise AssignmentError(f"negative degree for {name!r}: {deg}")
    if strategy not in ASSIGN_STRATEGIES:
        raise AssignmentError(
            f"unknown strategy {strategy!r}; use one of {list(ASSIGN_STRATEGIES)}"
        )

    if weights is None and strategy in ("weighted", "xsr"):
        weights = {name: float(deg) for name, deg in degrees.items()}
    if weights is not None:
        # Heaviest first; ties broken like the baseline for determinism.
        order = sorted(
            degrees,
            key=lambda n: (-float(weights.get(n, 0.0)), degrees[n], n),
        )
    else:
        order = sorted(degrees, key=lambda n: (degrees[n], n))

    count = len(degrees)
    # Generate generously: some pool values may be skipped because they
    # are too small for high-degree switches.
    pool_size = count
    values = _pool(strategy, pool_size)
    for _attempt in range(64):
        assignment: Dict[str, int] = {}
        available = sorted(values)
        for name in order:
            at = bisect_left(available, _min_id(strategy, degrees[name]))
            if at == len(available):
                break  # pool too small for this switch: grow it
            assignment[name] = available.pop(at)
        else:
            return assignment
        pool_size += max(4, count // 2)
        values = _pool(strategy, pool_size)
    raise AssignmentError(
        "could not find a feasible coprime ID assignment "
        f"(max degree {max(degrees.values())})"
    )


def route_frequency_weights(graph) -> Dict[str, float]:
    """Per-switch provisioned-route frequency over shortest-path trees.

    Every non-host node roots one BFS tree over the non-host subgraph
    (hosts terminate routes: they neither root nor forward); a node's
    weight is the number of (source, root) routes whose path contains
    it, ends included — its subtree sizes summed over all trees, each
    tree counting only what it reaches.

    Parents are smallest-named (rule S, as in :func:`~repro.topology
    .csr.destination_tree_arrays`).  A queue-order BFS over name-sorted
    neighbours (rule Q) builds other trees — the 6-cycle R-A-Z-V-C-B-R
    differs at four of six roots — yet the same weights: S's path u→r
    is the lexicographically smallest shortest path read from u, Q's
    path in the tree rooted at u is that same path read from r, and
    every node is both root and source, so both count one multiset.

    Computed as a forest (:func:`~repro.topology.csr.bfs_forest`),
    ``_FOREST_CELLS // n`` roots per numpy pass, subtree counts folded
    by one ``np.add.at`` per level from the deepest up.  Returns a
    weight per non-host node, name-sorted (edge entries included).
    """
    # Local: the CLI and the service import this module and need no numpy.
    import numpy as np
    from repro.topology.csr import _FOREST_CELLS, CsrTopology, bfs_forest

    csr = CsrTopology.from_graph(graph)
    n = csr.n
    allowed = np.array(
        [graph.node(name).kind != NodeKind.HOST for name in csr.names]
    )
    roots = np.flatnonzero(allowed)
    total = np.zeros(n, dtype=np.int64)
    batch = max(1, _FOREST_CELLS // max(n, 1))
    for lo in range(0, roots.size, batch):
        parent, levels = bfs_forest(csr, roots[lo:lo + batch], allowed)
        counts = (parent < parent.size).astype(np.int64)
        for keys, _ in reversed(levels):
            np.add.at(counts, parent[keys], counts[keys])
        total += counts.reshape(-1, n).sum(axis=0)
    return {csr.names[i]: float(total[i]) for i in roots.tolist()}


def reassign_switch_ids(
    graph,
    strategy: str = "weighted",
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, int]:
    """Re-plan the core switch IDs of an already-built topology in place.

    Used when a graph built with one strategy must serve another backend
    or a better assignment: e.g. re-IDing a paper scenario with
    ``strategy="xsr"`` before running it through the XSR datapath, or
    re-IDing a zoo graph with ``strategy="weighted"`` and
    :func:`route_frequency_weights` once the traffic matrix is known
    (IDs are a control-plane planning output, so this is exactly the
    controller's re-provisioning step, not a hack).

    Degrees are taken from the built graph's port counts.  The new
    assignment is validated through ``graph.validate()`` before
    returning; on failure the original IDs are restored.

    Returns the new name -> ID mapping (cores only).
    """
    cores = [n for n in graph.nodes() if n.kind == "core"]
    if not cores:
        raise AssignmentError("graph has no core switches to re-ID")
    degrees = {n.name: n.degree for n in cores}
    if weights is None and strategy in ("weighted", "xsr"):
        freq = route_frequency_weights(graph)
        weights = {name: freq.get(name, 0.0) for name in degrees}
    assignment = assign_switch_ids(degrees, strategy=strategy, weights=weights)
    previous = {n.name: n.switch_id for n in cores}
    for n in cores:
        n.switch_id = assignment[n.name]
    try:
        graph.validate()
    except Exception:
        for n in cores:
            n.switch_id = previous[n.name]
        raise
    return assignment
