"""Port-indexed topology substrate and the paper's network scenarios."""

from repro.topology.generators import (
    attach_host_pair,
    clique,
    random_connected,
    ring_lattice,
    torus,
)
from repro.topology.zoo import ABILENE_LINKS, abilene, fat_tree
from repro.topology.graph import LinkInfo, NodeInfo, NodeKind, PortGraph, TopologyError
from repro.topology.paths import (
    NoPathError,
    canonical_tree,
    is_reachable_without,
    shortest_path,
)
from repro.topology.topologies import (
    FULL,
    PARTIAL,
    UNPROTECTED,
    ProtectionSegment,
    Scenario,
    fifteen_node,
    redundant_path,
    rnp28,
    six_node,
)

__all__ = [
    "PortGraph",
    "NodeInfo",
    "LinkInfo",
    "NodeKind",
    "TopologyError",
    "canonical_tree",
    "shortest_path",
    "is_reachable_without",
    "NoPathError",
    "Scenario",
    "ProtectionSegment",
    "six_node",
    "fifteen_node",
    "rnp28",
    "redundant_path",
    "UNPROTECTED",
    "PARTIAL",
    "FULL",
    "random_connected",
    "ring_lattice",
    "clique",
    "torus",
    "attach_host_pair",
    "fat_tree",
    "abilene",
    "ABILENE_LINKS",
]
