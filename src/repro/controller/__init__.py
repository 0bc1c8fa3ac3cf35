"""Controller plane: ID assignment, routing, protection, orchestration."""

from repro.controller.controller import KarController
from repro.controller.idassign import AssignmentError, assign_switch_ids
from repro.controller.protection import (
    ProtectionPlan,
    ProtectionPlanner,
    segments_to_hops,
)
from repro.controller.provision import (
    DestinationTree,
    ProvisionedRoute,
    ProvisioningEngine,
)
from repro.controller.routing import (
    RoutingError,
    core_path_between_edges,
    encode_node_path,
    hops_for_path,
)

__all__ = [
    "KarController",
    "ProvisioningEngine",
    "ProvisionedRoute",
    "DestinationTree",
    "assign_switch_ids",
    "AssignmentError",
    "ProtectionPlanner",
    "ProtectionPlan",
    "segments_to_hops",
    "RoutingError",
    "core_path_between_edges",
    "hops_for_path",
    "encode_node_path",
]
