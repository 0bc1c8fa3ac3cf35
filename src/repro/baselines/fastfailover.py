"""OpenFlow-Fast-Failover-style baseline (Table 2 row [14]).

OF-FF precomputes, *per switch*, a backup action for each output port;
on port failure the switch locally flips to the backup without any
randomness — but it needs per-switch state (the fast-failover group
table), which is exactly the property KAR's stateless core removes.

:class:`FastFailoverStrategy` gives the KAR switch such a backup
table; :func:`plan_backup_ports` computes backups for a primary route
(the alternative shortest path around each primary link).  Ablation
benchmarks compare KAR deflection against this stateful baseline.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.switches.deflection import DeflectionStrategy
from repro.topology.graph import NodeKind, PortGraph
from repro.topology.paths import NoPathError, canonical_tree, shortest_path

__all__ = [
    "FastFailoverStrategy",
    "plan_backup_ports",
    "plan_destination_tree",
]


class FastFailoverStrategy(DeflectionStrategy):
    """Deterministic backup-port fallback (stateful, per-switch).

    Two layers of state, both precomputed and stored in the switch (the
    "Statefull" property of Table 2's OF-FF row):

    * ``backups`` — per primary port, the fast-failover group's backup
      port (used when the KAR-computed port is down);
    * ``default_port`` — the destination-tree next hop (used when the
      computed port is invalid, i.e. on off-route switches a rerouted
      packet traverses — equivalent to a conventional routing table
      entry).

    Args:
        backups: primary port -> backup port for this switch.
        default_port: fallback next hop toward the destination.
    """

    name = "ff"

    def __init__(
        self,
        backups: Optional[Dict[int, int]] = None,
        default_port: Optional[int] = None,
    ):
        self.backups = dict(backups or {})
        self.default_port = default_port

    def decide(self, healthy, in_port, computed, deflected, rng):
        if computed in healthy:
            return computed, False
        backup = self.backups.get(computed)
        if backup is not None and backup in healthy:
            return backup, True
        if self.default_port is not None and self.default_port in healthy:
            return self.default_port, True
        return None, False


def plan_backup_ports(
    graph: PortGraph,
    route: Sequence[str],
    dst_edge: str,
) -> Dict[str, Dict[int, int]]:
    """Backup table per route switch: around each primary link.

    For each switch S with primary next hop N, the backup port points
    toward S's first hop on a shortest path to the destination that
    avoids the S-N link.  Switches with no alternative (bridges) get no
    backup — OF-FF cannot help there either.

    Returns:
        switch name -> {primary_port: backup_port}.
    """
    plans: Dict[str, Dict[int, int]] = {}
    path = list(route) + [dst_edge]
    for current, nxt in zip(path, path[1:]):
        if current == dst_edge:
            continue
        primary_port = graph.port_of(current, nxt)
        try:
            alt = shortest_path(
                graph,
                current,
                dst_edge,
                forbidden_links=[(current, nxt)],
                forbidden_nodes=graph.node_names(NodeKind.HOST),
            )
        except NoPathError:
            continue
        if len(alt) < 2:
            continue
        backup_port = graph.port_of(current, alt[1])
        plans.setdefault(current, {})[primary_port] = backup_port
    return plans


def plan_destination_tree(graph: PortGraph, dst_edge: str) -> Dict[str, int]:
    """Destination-rooted next-hop table: switch name -> port.

    The conventional per-switch routing state a rerouted packet needs at
    off-route switches (where the KAR residue is meaningless): each core
    switch's parent port in the :func:`~repro.topology.paths
    .canonical_tree` over the core toward *dst_edge*.  This is exactly
    the state KAR's route IDs eliminate — quantified by the ablation
    benchmark as |switches| table entries per destination.
    """
    core = graph.node_names(NodeKind.CORE)
    parent, _ = canonical_tree(graph, dst_edge, set(core))
    return {
        name: graph.port_of(name, parent[name])
        for name in core if name in parent
    }
