"""``repro bench sim`` — the epoch datapath, verified before timed.

For each (topology size, deflection strategy) cell the benchmark builds
one seeded epoch-model workload (:mod:`repro.sim.vector`) — a random
connected core, a flow mesh and mid-run link failures on flow 0's
route, so every strategy exercises its deflection fallback as well as
the steady state — and runs it through both engines: the scalar
reference (:func:`~repro.sim.vector.run_epoch_reference`) and the
vectorized engine (:func:`~repro.sim.vector.run_epoch_vector`).
**Every cell is digest-verified against the reference engine before a
single timing repeat runs**: a speedup over a run that computed
something different is meaningless.

DES throughput is not measured here; that is the ``paper15-tcp-des``
workload of ``benchmarks/e2e``.

Results land in ``BENCH_sim.json``; tier-1 runs the quick/small matrix
and asserts only ``digests_match_reference`` and per-cell digest
identity (never wall-clock — shared runners make absolute thresholds
flaky).
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.artifact import finish_artifact
from repro.switches.deflection import STRATEGY_NAMES

__all__ = ["SIZES", "EPOCH_WORKLOADS", "run_sim_bench", "render_sim_bench"]

#: Epoch-model workload scale per topology size.  Sized so the large
#: cell pushes well past the ROADMAP's 10M forwarded packets/min on a
#: single core while the scalar oracle pass stays affordable.
EPOCH_WORKLOADS: Dict[str, Dict[str, int]] = {
    "small": dict(flows=8, inject_per_epoch=6, inject_epochs=12, ttl=32),
    "medium": dict(flows=24, inject_per_epoch=12, inject_epochs=20, ttl=40),
    "large": dict(flows=48, inject_per_epoch=24, inject_epochs=28, ttl=48),
}

#: The 10M+ forwarded-packets/min target for the vectorized engine on
#: the large topology (tracked in the artifact, asserted by eye — CI
#: never gates on wall-clock).
EPOCH_TARGET_PER_MIN = 10_000_000

#: Topology size presets.  ``min_switch_id`` scales with size so larger
#: nets also mean larger route IDs (more big-int work per reference
#: hop, like a real deployment's wider coprime pool).
SIZES: Dict[str, Dict[str, Any]] = {
    "small": dict(num_switches=8, extra_links=3, min_switch_id=29),
    "medium": dict(num_switches=32, extra_links=8, min_switch_id=211),
    "large": dict(num_switches=64, extra_links=16, min_switch_id=557),
}


def _epoch_spec(size: str, strategy: str, seed: int) -> Dict[str, Any]:
    """Epoch-model workload spec for one benchmark cell."""
    from repro.sim.vector import synthetic_spec

    cfg = SIZES[size]
    scale = EPOCH_WORKLOADS[size]
    return synthetic_spec(
        num_switches=cfg["num_switches"],
        extra_links=cfg["extra_links"],
        min_switch_id=cfg["min_switch_id"],
        seed=seed,
        strategy=strategy,
        flows=scale["flows"],
        ttl=scale["ttl"],
        inject_per_epoch=scale["inject_per_epoch"],
        inject_epochs=scale["inject_epochs"],
        link_failures=2,
        fail_epoch=max(1, scale["inject_epochs"] // 3),
        repair_epoch=max(2, 2 * scale["inject_epochs"] // 3),
    )


def _per_min(count: int, wall_s: float) -> Optional[int]:
    return round(count / wall_s * 60) if wall_s > 0 else None


def _run_epoch_cells(
    sizes: Sequence[str],
    strategies: Sequence[str],
    seed: int,
    repeats: int,
) -> List[Dict[str, Any]]:
    """The epoch-datapath matrix: verify the vector engine's digest
    against the scalar reference **before** any timing repeat runs."""
    from repro.sim.vector import (
        build_workload,
        run_epoch_reference,
        run_epoch_vector,
    )

    cells: List[Dict[str, Any]] = []
    for size in sizes:
        for strategy in strategies:
            spec = _epoch_spec(size, strategy, seed)
            workload = build_workload(spec)

            # --- verify pass: digests first, timing only if they hold.
            ref_start = time.perf_counter()
            ref = run_epoch_reference(workload)
            ref_wall = time.perf_counter() - ref_start
            vec = run_epoch_vector(workload)
            if vec.digest != ref.digest:
                raise RuntimeError(
                    f"epoch vector engine diverged from reference: "
                    f"{size}/{strategy} ({vec.digest} vs {ref.digest})"
                )

            # --- timing pass (min wall over the repeats).
            vec_times: List[float] = []
            for _ in range(repeats):
                start = time.perf_counter()
                timed = run_epoch_vector(workload)
                vec_times.append(time.perf_counter() - start)
                if timed.digest != ref.digest:
                    raise RuntimeError(
                        f"non-deterministic vector run: {size}/{strategy}"
                    )
            vec_s = min(vec_times)
            forwarded = ref.record["hops"]
            cells.append({
                "size": size,
                "strategy": strategy,
                "packets": ref.record["injected"],
                "forwarded": forwarded,
                "epochs": ref.record["epochs"],
                "delivered": ref.record["delivered"],
                "reference_epoch": {
                    "wall_s": round(ref_wall, 4),
                    "forwarded_per_min": _per_min(forwarded, ref_wall),
                },
                "vector": {
                    "wall_s": round(vec_s, 4),
                    "forwarded_per_sec": (
                        round(forwarded / vec_s) if vec_s > 0 else None
                    ),
                    "forwarded_per_min": _per_min(forwarded, vec_s),
                },
                "speedup_vs_reference": (
                    round(ref_wall / vec_s, 3) if vec_s > 0 else None
                ),
                "digest": ref.digest,
                "digests_match": True,  # enforced above, before timing
            })
    return cells


def run_sim_bench(
    sizes: Optional[Sequence[str]] = None,
    strategies: Optional[Sequence[str]] = None,
    seed: int = 1,
    quick: bool = False,
    repeats: Optional[int] = None,
    out: Optional[str] = "BENCH_sim.json",
) -> Dict[str, Any]:
    """Run the epoch datapath benchmark matrix; optionally write *out*.

    ``quick`` trims the matrix for smoke runs (small+medium; the digest
    checks still cover every cell).

    Each timed cell runs the vector engine ``repeats`` times and reports
    the **minimum** wall time — the standard estimator for wall-clock
    microbenchmarks, since noise on a quiet deterministic workload is
    strictly additive.  Every repeat must produce the same digest (the
    simulation is seeded), which doubles as a determinism check, and
    the vector digest is verified against the reference engine *before*
    the first timing repeat.
    """
    if sizes is None:
        sizes = ("small", "medium") if quick else ("small", "medium", "large")
    if strategies is None:
        strategies = STRATEGY_NAMES
    for size in sizes:
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; choose from {sorted(SIZES)}")
    if repeats is None:
        repeats = 2 if quick else 3
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")

    epoch_runs = _run_epoch_cells(sizes, strategies, seed, repeats)
    best_vector_per_min = max(
        (c["vector"]["forwarded_per_min"] or 0 for c in epoch_runs),
        default=0,
    )
    result: Dict[str, Any] = {
        "bench": "repro.sim",
        "quick": quick,
        "repeats": repeats,
        "seed": seed,
        "sizes": {s: SIZES[s] for s in sizes},
        "epoch": {
            "workloads": {s: EPOCH_WORKLOADS[s] for s in sizes},
            "runs": epoch_runs,
            "target_forwarded_per_min": EPOCH_TARGET_PER_MIN,
            "best_vector_forwarded_per_min": best_vector_per_min,
            "target_met": best_vector_per_min >= EPOCH_TARGET_PER_MIN,
        },
        "digests_match_reference": all(
            r["digests_match"] for r in epoch_runs
        ),
    }
    return finish_artifact(result, out)


def render_sim_bench(result: Dict[str, Any]) -> str:
    epoch = result["epoch"]
    lines = [
        f"sim bench — epoch datapath, vectorized vs scalar "
        f"reference (seed {result['seed']}, {result['cpu_count']} CPU(s))",
        f"  {'size':<8} {'strategy':<9} {'forwarded':>10} "
        f"{'fwd/min vec':>12} {'vs ref':>8}  digests",
    ]
    for r in epoch["runs"]:
        lines.append(
            f"  {r['size']:<8} {r['strategy']:<9} "
            f"{r['forwarded']:>10} "
            f"{r['vector']['forwarded_per_min']:>12} "
            f"{r['speedup_vs_reference']:>7}x  "
            f"{'match' if r['digests_match'] else 'MISMATCH'}"
        )
    lines.append(
        f"  epoch target: {epoch['best_vector_forwarded_per_min']} "
        f"fwd/min best vs {epoch['target_forwarded_per_min']} target "
        f"-> {'met' if epoch['target_met'] else 'NOT met'}"
    )
    lines.append(
        "  digests match reference: "
        f"{result['digests_match_reference']}"
    )
    return "\n".join(lines)
