"""Baselines: Table 2 feature matrix and executable comparison systems.

Two executable failover baselines share the switch stack with KAR and
are registered here for the verify oracles and the resilience-frontier
sweep (:data:`BASELINE_SCHEMES`):

* ``ff`` — OpenFlow-Fast-Failover-style backup ports
  (:mod:`repro.baselines.fastfailover`);
* ``arb`` — circular hopping over k edge-disjoint spanning
  arborescences (:mod:`repro.baselines.arborescence`).

Both are *stateful*: :func:`plan_baseline_strategies` turns a
(topology, destination) pair into per-switch strategy instances, which
plug into :class:`~repro.runner.KarSimulation` via its
``strategy_factory`` hook.
"""

from typing import Dict

from repro.baselines.arborescence import (
    ArborescenceFailoverStrategy,
    ArborescencePlan,
    arborescence_decomposition,
    plan_arborescences,
)
from repro.baselines.fastfailover import (
    FastFailoverStrategy,
    plan_backup_ports,
    plan_destination_tree,
)
from repro.baselines.feature_matrix import TABLE2_ROWS, FeatureRow, render_table2
from repro.baselines.repair import ControllerRepair
from repro.switches.deflection import DeflectionStrategy
from repro.topology.graph import NodeKind, PortGraph

__all__ = [
    "FeatureRow",
    "TABLE2_ROWS",
    "render_table2",
    "ControllerRepair",
    "FastFailoverStrategy",
    "plan_backup_ports",
    "plan_destination_tree",
    "ArborescencePlan",
    "ArborescenceFailoverStrategy",
    "arborescence_decomposition",
    "plan_arborescences",
    "BASELINE_SCHEMES",
    "plan_baseline_strategies",
]

#: Stateful failover baselines with per-switch strategy planning.
BASELINE_SCHEMES = ("ff", "arb")


def plan_baseline_strategies(
    scheme: str,
    graph: PortGraph,
    route,
    dst_edge: str,
) -> Dict[str, DeflectionStrategy]:
    """Per-core-switch strategy instances for a baseline *scheme*.

    ``ff`` combines the primary-route backup ports with the
    destination-tree default; ``arb`` installs each switch's share of
    the arborescence decomposition.  The returned mapping covers every
    core switch and feeds both :class:`~repro.runner.KarSimulation`'s
    ``strategy_factory`` and the graph-walk oracle, so the simulated
    and modeled dataplanes share one set of tables.
    """
    if scheme == "ff":
        backups = plan_backup_ports(graph, route, dst_edge)
        tree = plan_destination_tree(graph, dst_edge)
        return {
            info.name: FastFailoverStrategy(
                backups.get(info.name), tree.get(info.name)
            )
            for info in graph.nodes(NodeKind.CORE)
        }
    if scheme == "arb":
        return {
            name: ArborescenceFailoverStrategy(plan)
            for name, plan in plan_arborescences(graph, dst_edge).items()
        }
    raise ValueError(
        f"unknown baseline scheme {scheme!r}; choose from {BASELINE_SCHEMES}"
    )
