"""Shared experiment plumbing.

Every table/figure reproduction runs the same shaped experiment the
paper does: bring up a scenario, start an iperf flow, fail one link in
the middle of the run, repair it, and compare throughput in the failure
window against the pre-failure baseline.

The paper's absolute scale (200 Mbit/s links, 30–90 s runs) is scaled
down so a pure-Python discrete-event run takes a couple of seconds; the
reported quantity is the **ratio of failure-window throughput to the
no-failure baseline**, which is what the paper's own headline numbers
are (150/200 Mbit/s = 75 %, etc.).

Timeline (seconds of simulated time)::

    0.2          4.0            8.0           12.0
    flow starts  link fails     link repairs  measurement ends
       |---baseline: (2.0, 4.0]---|
                    |---failure window: (4.5, 8.0]---|
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.rns.backends import resolve_backend_name
from repro.runner import KarSimulation
from repro.topology.topologies import Scenario, fifteen_node, redundant_path, rnp28
from repro.transport.flow import IperfResult

__all__ = [
    "Timeline",
    "DEFAULT_TIMELINE",
    "RunOutcome",
    "run_failure_experiment",
    "seeds_from_env",
    "resolve_seeds",
    "scenario_factory",
    "SCENARIO_RATE_MBPS",
    "SCENARIO_DELAY_S",
]

#: Link rate used by all scaled-down experiments (Mbit/s).
SCENARIO_RATE_MBPS = 20.0

#: Per-scenario link delay keeping the delay-bandwidth regime of the
#: paper's Mininet emulation (sub-millisecond veth latencies).
SCENARIO_DELAY_S: Dict[str, float] = {
    "fifteen_node": 0.0002,
    "rnp28": 0.0005,
    "redundant_path": 0.0002,
    "six_node": 0.0002,
}


@dataclass(frozen=True)
class Timeline:
    """When things happen on the simulated clock."""

    flow_start: float = 0.2
    fail_at: float = 4.0
    repair_at: float = 8.0
    end: float = 12.0
    baseline_window: Tuple[float, float] = (2.0, 4.0)
    failure_window: Tuple[float, float] = (4.5, 8.0)
    sample_interval_s: float = 0.5


DEFAULT_TIMELINE = Timeline()


def scenario_factory(name: str) -> Callable[[], Scenario]:
    """Scenario builder with the standard experiment parameters."""
    builders = {
        "fifteen_node": fifteen_node,
        "rnp28": rnp28,
        "redundant_path": redundant_path,
    }
    try:
        builder = builders[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {sorted(builders)}"
        ) from None
    delay = SCENARIO_DELAY_S[name]

    def build() -> Scenario:
        return builder(rate_mbps=SCENARIO_RATE_MBPS, delay_s=delay)

    return build


def seeds_from_env(default: int = 3) -> List[int]:
    """Seed list for repeated runs; override count via REPRO_SEEDS.

    The paper averages 30 iperf runs per point.  Each of our runs is
    deterministic, but seeds still differ a lot under failure: at the
    default n = 3 the Fig. 5 block in EXPERIMENTS.md has 95% intervals
    as wide as ±44 points.  The default keeps the figures cheap; set
    ``REPRO_SEEDS=30`` to match the paper's n.
    """
    count = int(os.environ.get("REPRO_SEEDS", default))
    if count < 1:
        raise ValueError(f"REPRO_SEEDS must be >= 1, got {count}")
    return list(range(1, count + 1))


def resolve_seeds(
    seeds: Optional[Sequence[int]] = None, default: int = 3
) -> List[int]:
    """The experiments' shared seed-list default.

    An explicit ``seeds`` argument wins (copied to a list); otherwise
    fall back to :func:`seeds_from_env`.  Every multi-seed figure
    module resolves its argument through here.
    """
    return list(seeds) if seeds is not None else seeds_from_env(default)


@dataclass(frozen=True)
class RunOutcome:
    """One experiment run, summarized."""

    baseline_mbps: float
    failure_mbps: float
    iperf: IperfResult

    @property
    def ratio(self) -> float:
        """Failure-window throughput as a fraction of baseline."""
        if self.baseline_mbps <= 0:
            return 0.0
        return self.failure_mbps / self.baseline_mbps


def run_failure_experiment(
    scenario: Scenario,
    deflection: str,
    protection: str,
    failure: Optional[Tuple[str, str]],
    seed: int,
    timeline: Timeline = DEFAULT_TIMELINE,
    control_rtt_s: float = 0.005,
    backend: Optional[str] = "env",
) -> RunOutcome:
    """Run one scaled iperf-under-failure experiment.

    *backend* selects the route-encoding backend
    (:data:`repro.rns.BACKEND_NAMES`); None is the default integer
    datapath.  The default sentinel ``"env"`` resolves the
    ``REPRO_BACKEND`` environment variable
    (:func:`repro.rns.backends.resolve_backend_name`), so a whole figure
    pipeline (fig4/5/7/8) can be swept under e.g. XSR without touching
    its module — the farm resolves the variable at *spec-build* time
    (:func:`repro.farm.jobs.failure_spec`) so a backend sweep can never
    alias a default run in the content-addressed cache.
    """
    backend = resolve_backend_name(backend)
    ks = KarSimulation(
        scenario,
        deflection=deflection,
        protection=protection,
        seed=seed,
        control_rtt_s=control_rtt_s,
        backend=backend,
    )
    if failure is not None:
        ks.schedule_failure(
            failure[0], failure[1],
            at=timeline.fail_at, repair_at=timeline.repair_at,
        )
    # max_rto is scaled with the experiment: the paper's 30 s failure
    # windows tolerate Linux's 60 s RTO ceiling; our seconds-scale
    # windows need a proportionally smaller ceiling or a no-deflection
    # flow would still be backed off long after the link is repaired.
    flow = ks.add_iperf(
        sample_interval_s=timeline.sample_interval_s, max_rto=1.0
    )
    flow.start(
        at=timeline.flow_start,
        duration_s=timeline.end - timeline.flow_start,
    )
    ks.run(until=timeline.end)
    result = flow.result()
    return RunOutcome(
        baseline_mbps=result.mean_mbps_between(*timeline.baseline_window),
        failure_mbps=result.mean_mbps_between(*timeline.failure_window),
        iperf=result,
    )
