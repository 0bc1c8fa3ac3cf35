"""Chaos sweep — delivery ratio vs. failure rate per technique.

The paper's figures replay two scripted failures; this experiment maps
the resilience *envelope*: for each deflection technique, a UDP probe
crosses the 15-node topology while a generative fault injector
(:mod:`repro.sim.chaos`) flips core links, and we report the delivered
fraction as the failure process intensifies.  The runtime invariant
checker (:mod:`repro.sim.invariants`) rides along on every run — a
technique that "survives" by forwarding into dead ports or ping-pong
looping fails the run outright, so the numbers are trustworthy by
construction.

Everything is seeded: a (scenario, technique, mode, seed) tuple fully
determines the run, and each cell carries its chaos-event digest so two
invocations can be diffed at a glance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.common import scenario_factory
from repro.farm.executor import FarmOptions, run_specs
from repro.farm.spec import RunSpec
from repro.runner import KarSimulation
from repro.topology.topologies import PARTIAL

__all__ = [
    "ChaosRun",
    "run_chaos_once",
    "run_chaos_sweep",
    "render_chaos_run",
    "render_chaos_sweep",
    "SWEEP_TECHNIQUES",
    "SWEEP_MTBFS",
]

#: Techniques the sweep compares (paper order, deflection-capable ones).
SWEEP_TECHNIQUES: Tuple[str, ...] = ("hp", "avp", "nip")

#: Per-link MTBF levels (seconds), harshest last.  With ~16 core links
#: and MTTR 0.4 s, the harshest level keeps several links dark at once.
SWEEP_MTBFS: Tuple[float, ...] = (8.0, 4.0, 2.0, 1.0)

#: Per-link MTTR (seconds) at every sweep level.
SWEEP_MTTR_S = 0.4

#: Simulated seconds of probe traffic per run.
TRAFFIC_S = 4.0

#: Extra simulated seconds for the network to drain before the
#: conservation check (bounds: TTL walks + re-encode retry worst case).
DRAIN_S = 3.0


@dataclass(frozen=True)
class ChaosRun:
    """One seeded chaos run, fully summarized."""

    scenario: str
    technique: str
    mode: str
    seed: int
    sent: int
    delivered: int
    drop_reasons: Tuple[Tuple[str, int], ...]
    violations: Tuple[Tuple[str, int], ...]
    chaos_events: int
    digest: str
    peak_links_down: int
    reencode_requests: int
    reencode_timeouts: int
    reencode_giveups: int
    mtbf_s: Optional[float] = None

    @property
    def delivery_ratio(self) -> float:
        if self.sent == 0:
            return 0.0
        return self.delivered / self.sent

    @property
    def dropped(self) -> int:
        return sum(count for _, count in self.drop_reasons)

    @property
    def violation_count(self) -> int:
        return sum(count for _, count in self.violations)

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ChaosRun":
        """Inverse of ``asdict``, also after a JSON round trip."""
        return cls(**{
            **record,
            "drop_reasons": tuple(map(tuple, record["drop_reasons"])),
            "violations": tuple(map(tuple, record["violations"])),
        })


def run_chaos_once(
    scenario_name: str = "fifteen_node",
    technique: str = "nip",
    mode: str = "mtbf",
    seed: int = 42,
    chaos_kwargs: Optional[Dict] = None,
    ctrl_outage: bool = False,
    rate_pps: float = 300.0,
    traffic_s: float = TRAFFIC_S,
    ttl: int = 128,
) -> ChaosRun:
    """One seeded chaos run with the invariant checker enabled."""
    ks = KarSimulation(
        scenario_factory(scenario_name)(),
        deflection=technique,
        protection=PARTIAL,
        seed=seed,
        ttl=ttl,
        invariants=True,
    )
    until = traffic_s
    injector = ks.add_chaos(mode, until=until, **(chaos_kwargs or {}))
    injectors = [injector]
    if ctrl_outage:
        injectors.append(ks.add_controller_outage(until=until))
    peak_links_down = 0

    def sample_links_down() -> None:
        # Armed before the probe, so each sample keeps its place in the
        # (time, seq) order of the run's events.
        nonlocal peak_links_down
        peak_links_down = max(
            peak_links_down, len(ks.network.down_link_keys())
        )
        ks.sim.post(0.25, sample_links_down)

    ks.sim.post(0.25, sample_links_down)
    src, sink = ks.add_udp_probe(rate_pps=rate_pps, duration_s=traffic_s)
    src.start(at=0.1)
    ks.run(until=until + DRAIN_S)
    ks.check_conservation()

    inv = ks.invariants
    edges = [
        node for node in ks.network.nodes.values()
        if hasattr(node, "reencode_requests")
    ]
    drop_reasons = Counter()
    for reason, count in ks.tracer.drop_reasons.items():
        drop_reasons[reason] += count
    return ChaosRun(
        scenario=scenario_name,
        technique=technique,
        mode=mode,
        seed=seed,
        sent=src.sent,
        delivered=sink.received,
        drop_reasons=tuple(sorted(drop_reasons.items())),
        violations=tuple(sorted(inv.violation_counts.items())),
        chaos_events=sum(len(i.events) for i in injectors),
        digest="+".join(i.digest() for i in injectors),
        peak_links_down=peak_links_down,
        reencode_requests=sum(e.reencode_requests for e in edges),
        reencode_timeouts=sum(e.reencode_timeouts for e in edges),
        reencode_giveups=sum(e.reencode_giveups for e in edges),
        mtbf_s=(chaos_kwargs or {}).get("mtbf_s"),
    )


def run_chaos_sweep(
    scenario_name: str = "fifteen_node",
    seed: int = 42,
    farm: Optional[FarmOptions] = None,
) -> List[ChaosRun]:
    """Delivery ratio per technique as per-link MTBF shrinks.

    Each cell uses the same root seed: the chaos streams are named per
    link, so every technique faces the *identical* failure trajectory
    at a given MTBF level — a paired comparison, like the paper's
    matched-seed figures.

    Cells run on the farm (:mod:`repro.farm`): ``farm=None`` keeps the
    sequential cacheless default; pass :class:`FarmOptions` for worker
    parallelism, result caching and resumable sweeps.
    """
    specs = [
        RunSpec.make("chaos", scenario_name, seed, {
            "technique": technique,
            "mode": "mtbf",
            "chaos_kwargs": {"mtbf_s": mtbf_s, "mttr_s": SWEEP_MTTR_S},
        })
        for mtbf_s in SWEEP_MTBFS
        for technique in SWEEP_TECHNIQUES
    ]
    return [
        ChaosRun.from_record(r["result"])
        for r in run_specs(specs, farm, "chaos-sweep")
    ]


def render_chaos_run(run: ChaosRun) -> str:
    lines = [
        f"chaos run — scenario={run.scenario} technique={run.technique} "
        f"mode={run.mode} seed={run.seed}",
        f"  chaos: {run.chaos_events} events, digest {run.digest}, "
        f"peak links down {run.peak_links_down}",
        f"  probe: sent={run.sent} delivered={run.delivered} "
        f"({100 * run.delivery_ratio:.1f}%)",
    ]
    drops = ", ".join(f"{r}={c}" for r, c in run.drop_reasons) or "none"
    lines.append(f"  drops: {drops}")
    if run.reencode_requests:
        lines.append(
            f"  control plane: {run.reencode_requests} re-encode requests, "
            f"{run.reencode_timeouts} timeouts, {run.reencode_giveups} "
            f"gave up"
        )
    tally = ", ".join(f"{k}={c}" for k, c in run.violations) or "none"
    lines.append(f"  invariant violations: {tally}")
    return "\n".join(lines)


def render_chaos_sweep(runs: Sequence[ChaosRun]) -> str:
    techniques = sorted({r.technique for r in runs},
                        key=lambda t: SWEEP_TECHNIQUES.index(t)
                        if t in SWEEP_TECHNIQUES else 99)
    mtbfs = sorted({r.mtbf_s for r in runs if r.mtbf_s is not None},
                   reverse=True)
    by_cell = {(r.technique, r.mtbf_s): r for r in runs}
    header = f"{'MTBF/link':>10s}" + "".join(
        f"{t:>12s}" for t in techniques
    )
    lines = [
        "Chaos sweep — delivery ratio vs. per-link failure rate "
        f"(seed {runs[0].seed}, {runs[0].scenario})",
        header,
    ]
    for mtbf in mtbfs:
        cells = []
        for t in techniques:
            run = by_cell.get((t, mtbf))
            if run is None:
                cells.append(f"{'—':>12s}")
                continue
            flag = "" if run.violation_count == 0 else "!"
            cells.append(f"{100 * run.delivery_ratio:>10.1f}%{flag or ' '}")
        lines.append(f"{mtbf:>9.1f}s" + "".join(cells))
    total_violations = sum(r.violation_count for r in runs)
    lines.append(
        f"invariant violations across all runs: {total_violations}"
        + ("" if total_violations == 0 else "  ('!' marks the cells)")
    )
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_chaos_sweep(run_chaos_sweep()))
