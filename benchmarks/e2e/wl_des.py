"""``paper15-tcp-des``: the paper's own experiment on the event engine.

One iperf-style TCP flow across the 15-node network of the paper's
Fig. 2 with NIP deflection and partial protection, while SW7-SW13 — a
link of the primary route — is failed and repaired twice.  It runs the
same ``switches`` layer as the forward workloads, but per packet inside
the discrete-event engine, plus the engine, link, edge and TCP layers
that nothing else measures.  TCP goodput under deflection is the
paper's headline.

``--seed`` moves when the two outages start; their lengths are fixed so
that time under failure — and with it the event count — stays the same
from seed to seed.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Tuple

from repro import PARTIAL, KarSimulation, fifteen_node

from harness import (
    SIM_SEED, Laps, Ops, Repeat, Tracer, profile_shares, sha256_json,
)

FAILED_LINK = ("SW7", "SW13")
FLOW_START_S = 0.2
SAMPLE_INTERVAL_S = 0.5
#: Simulated seconds per timed slice of a run.
STEP_S = 0.25


class PaperDes:
    name = "paper15-tcp-des"
    work_unit = "simulated us"
    nominal_repeat_s = 2.5

    def __init__(self, seed: int, quick: bool, tracer: Tracer, ops: Ops):
        self.seed = seed
        self.tracer = tracer
        self.ops = ops
        self.rate_mbps = 60.0
        self.delay_s = 0.0002
        self.sim_seconds = 2.0 if quick else 15.0
        self.outages: List[Tuple[float, float]] = []

    def sizes(self) -> Dict[str, Any]:
        return {
            "scenario": "fifteen_node", "rate_mbps": self.rate_mbps,
            "delay_s": self.delay_s, "sim_seconds": self.sim_seconds,
            "outages": [list(o) for o in self.outages],
        }

    def setup(self) -> None:
        # Two outages of 5/24 of the run each (3.125 s of 15 s); the seed
        # slides the first inside the first half, the second inside the
        # second half.
        rng = random.Random(f"e2e-des:{self.seed}")
        run = self.sim_seconds
        for base in (run / 12, run * 13 / 24):
            down_at = round(base + rng.uniform(0.0, run / 8), 3)
            self.outages.append((down_at, round(down_at + run * 5 / 24, 3)))

    # ------------------------------------------------------------------
    def _run(self, sim_seconds: float) -> Tuple[List[float], Any, Any]:
        span = self.tracer.span
        with span("repeat"):
            with span("runner.build"):
                ks = KarSimulation(
                    fifteen_node(rate_mbps=self.rate_mbps,
                                 delay_s=self.delay_s),
                    deflection="nip", protection=PARTIAL, seed=SIM_SEED,
                )
                for down_at, up_at in self.outages:
                    ks.schedule_failure(*FAILED_LINK, at=down_at,
                                        repair_at=up_at)
                flow = ks.add_iperf(
                    sample_interval_s=SAMPLE_INTERVAL_S, max_rto=1.0
                )
                flow.start(at=FLOW_START_S,
                           duration_s=sim_seconds - FLOW_START_S)
            laps = Laps()
            with span("sim.engine.run"):
                # Stepping the clock changes no event; it only gives the
                # run comparable slices of ~40 ms.
                steps = int(round(sim_seconds / STEP_S))
                for k in range(1, steps + 1):
                    ks.run(until=sim_seconds * k / steps)
                    laps.mark()
        return laps.times, ks, flow

    def repeat(self) -> Repeat:
        slices, ks, flow = self._run(self.sim_seconds)
        result = flow.result()
        reorder = result.reordering
        fields = {
            "bytes_received": result.bytes_received,
            "intervals": [[round(t, 9), mbps] for t, mbps in result.intervals],
            "retransmits": result.retransmits,
            "fast_retransmits": result.fast_retransmits,
            "timeouts": result.timeouts,
            "reordering": [reorder.total, reorder.reordered,
                           reorder.max_displacement, reorder.dupack_events],
        }
        return Repeat(
            slices=slices, work=self.sim_seconds * 1e6,
            digest=sha256_json(fields),
            facts={
                "events": ks.sim.events_processed,
                "reencodes_served": ks.controller.reencodes_served,
                "goodput_mbps": result.mean_mbps,
                "bytes_received": result.bytes_received,
                "samples": len(result.intervals),
                "retransmits": result.retransmits,
                "fast_retransmits": result.fast_retransmits,
                "timeouts": result.timeouts,
                "reordered_share": reorder.reordered_ratio,
            },
        )

    def check(self, rep: Repeat) -> None:
        """One DES run is one operation: it must have carried data on
        every sampling interval it was asked for, at no more than link
        rate.  Which bytes arrived is pinned by the digest."""
        facts = rep.facts
        expected = int(round(
            (self.sim_seconds - FLOW_START_S) / SAMPLE_INTERVAL_S
        ))
        self.ops.expect(
            facts["bytes_received"] > 0
            and abs(facts["samples"] - expected) <= 1
            and 0 < facts["goodput_mbps"] <= self.rate_mbps,
            f"DES run implausible: {facts['bytes_received']} bytes, "
            f"{facts['samples']} samples, {facts['goodput_mbps']} Mbit/s",
        )

    # ------------------------------------------------------------------
    def named(self, reps: List[Repeat], quiet_s: float) -> Dict[str, float]:
        return {
            "des_sim_speed": self.sim_seconds / quiet_s,
            "tcp_goodput_mbps": reps[0].facts["goodput_mbps"],
        }

    def golden_facts(self, rep: Repeat) -> Dict[str, Any]:
        return {"tcp_goodput_mbps": rep.facts["goodput_mbps"],
                "bytes_received": rep.facts["bytes_received"]}

    def layers(self, spans: Dict[str, float], rep: Repeat,
               reps: List[Repeat]) -> Dict[str, float]:
        facts = rep.facts
        run_s = spans["sim.engine.run"]
        out = {
            "runner.build_s": spans["runner.build"],
            "sim.engine.run_s": run_s,
            "sim.engine.events": float(facts["events"]),
            "sim.engine.events_per_s": facts["events"] / run_s,
            "sim.engine.us_per_event": run_s / facts["events"] * 1e6,
            "controller.reencodes_served": float(facts["reencodes_served"]),
            "transport.tcp.retransmits": float(facts["retransmits"]),
            "transport.tcp.fast_retransmits":
                float(facts["fast_retransmits"]),
            "transport.tcp.timeouts": float(facts["timeouts"]),
            "transport.reordering.reordered_share": facts["reordered_share"],
        }
        # One shortened run (through the first outage) under cProfile.
        short = min(self.sim_seconds, self.outages[0][1] + 1.0)
        shares = profile_shares(lambda: self._run(short))
        out.update({f"{g}.self_share": s for g, s in shares.items()})
        return out
