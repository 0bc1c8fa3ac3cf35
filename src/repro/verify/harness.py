"""The ``repro verify`` driver: trials through the farm, shrink, report.

One *trial* is one fuzz case run through the selected oracles.  Trials
are independent and pure in their seed, so they ship through the farm
executor (:mod:`repro.farm`) like any other job kind and parallelize
across workers.  Divergent trials are then shrunk **in the parent
process** (shrinking is sequential by nature — each step depends on
the last verdict) and written out as replayable JSON artifacts.

Caching note: verify results are deliberately *not* cached by default.
A record is served only to the ``repro`` sources that wrote it (the
cache's code fingerprint), but the fingerprint omits numpy and the
interpreter, and the oracles check exactly what those can move (array
kernels, ``random``, big-int arithmetic): a cached "no divergence" from
another numpy or Python would be a false clean bill.  Pass an explicit
cache dir only when that is understood.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.farm.executor import FarmOptions, run_specs
from repro.farm.spec import RunSpec
from repro.verify.artifact import artifact_record, write_artifact
from repro.verify.cases import FuzzCase, generate_case
from repro.verify.oracles import ORACLE_NAMES, run_case, run_oracle
from repro.verify.shrink import shrink_case

__all__ = [
    "TrialDivergence",
    "VerifyOutcome",
    "run_trial_record",
    "run_verify",
    "render_verify",
]


def trial_seed(seed: int, index: int) -> int:
    """The per-trial seed: decoupled from trial count, stable across
    --trials values (trial 7 of 25 == trial 7 of 100)."""
    return seed * 1_000_003 + index


def run_trial_record(
    seed: int, oracles: Optional[Sequence[str]] = None
) -> Dict[str, Any]:
    """One farm job: generate the case, run the oracles, record all.

    This is the ``verify`` job kind's body (see
    :mod:`repro.farm.jobs`); the record is JSON-able so it caches and
    ships across process boundaries like every other farm result.
    ``oracles`` (None means all) is part of the content key: a trial
    over two oracles is a different result than one over four.
    """
    case = generate_case(seed)
    results = run_case(case, oracles)
    return {
        "trial_seed": seed,
        "case": case.to_record(),
        "oracles": {
            name: result.to_record() for name, result in results.items()
        },
    }


@dataclass(frozen=True)
class TrialDivergence:
    """One diverging (oracle, case) pair, after optional shrinking."""

    oracle: str
    case: FuzzCase
    shrunk_case: FuzzCase
    details: tuple
    artifact_path: Optional[str] = None


@dataclass
class VerifyOutcome:
    """Aggregate result of a verify run."""

    trials: int
    seed: int
    checks: Dict[str, int] = field(default_factory=dict)
    divergences: List[TrialDivergence] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())


def _shrink_and_archive(
    oracle: str,
    case: FuzzCase,
    details: Sequence[Mapping[str, Any]],
    shrink: bool,
    artifact_dir: Optional[str],
) -> TrialDivergence:
    shrunk = case
    if shrink:
        shrunk = shrink_case(
            case,
            lambda c: bool(run_oracle(oracle, c).divergences),
        )
    final_details = tuple(d["detail"] for d in details)
    if shrunk != case:
        # Details refer to the shrunk repro the artifact carries.
        rerun = run_oracle(oracle, shrunk)
        final_details = tuple(d.detail for d in rerun.divergences)
    path = None
    if artifact_dir is not None:
        path = os.path.join(
            artifact_dir, f"divergence-{oracle}-seed{case.seed}.json"
        )
        write_artifact(
            path,
            artifact_record(
                oracle, shrunk, list(final_details), original_case=case
            ),
        )
    return TrialDivergence(
        oracle=oracle,
        case=case,
        shrunk_case=shrunk,
        details=final_details,
        artifact_path=path,
    )


def run_verify(
    trials: int,
    seed: int = 0,
    oracles: Optional[Sequence[str]] = None,
    shrink: bool = False,
    artifact_dir: Optional[str] = "verify-artifacts",
    farm: Optional[FarmOptions] = None,
) -> VerifyOutcome:
    """Run *trials* fuzz cases through the oracle matrix.

    Artifacts are only written for divergences, so a clean run leaves
    no ``artifact_dir`` behind.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    names = tuple(oracles) if oracles else ORACLE_NAMES
    for name in names:
        if name not in ORACLE_NAMES:
            raise ValueError(
                f"unknown oracle {name!r}; choose from {ORACLE_NAMES}"
            )
    started = time.perf_counter()
    specs = [
        RunSpec.make("verify", "fuzz", trial_seed(seed, i),
                     {"oracles": sorted(names)})
        for i in range(trials)
    ]
    outcome = VerifyOutcome(trials=trials, seed=seed,
                            checks={name: 0 for name in names})
    for r in run_specs(specs, farm, "verify"):
        record = r["result"]
        case = FuzzCase.from_record(record["case"])
        for name, oracle_rec in record["oracles"].items():
            outcome.checks[name] = (
                outcome.checks.get(name, 0) + oracle_rec["checks"]
            )
            if oracle_rec["divergences"]:
                outcome.divergences.append(
                    _shrink_and_archive(
                        name, case, oracle_rec["divergences"],
                        shrink, artifact_dir,
                    )
                )
    outcome.elapsed_s = time.perf_counter() - started
    return outcome


def render_verify(outcome: VerifyOutcome) -> str:
    """Human-readable summary (the CLI's output)."""
    lines = [
        f"verify: {outcome.trials} trials (seed {outcome.seed}), "
        f"{outcome.total_checks} checks in {outcome.elapsed_s:.1f}s"
    ]
    for name in sorted(outcome.checks):
        diverged = sum(
            1 for d in outcome.divergences if d.oracle == name
        )
        status = "ok" if diverged == 0 else f"{diverged} DIVERGENT"
        lines.append(
            f"  {name:<10} {outcome.checks[name]:>8} checks   {status}"
        )
    if outcome.ok:
        lines.append("no divergences: all oracle pairs agree")
        return "\n".join(lines)
    lines.append("")
    for d in outcome.divergences:
        lines.append(
            f"DIVERGENCE [{d.oracle}] trial seed {d.case.seed}"
        )
        shrunk = d.shrunk_case
        lines.append(
            f"  shrunk to: {shrunk.num_switches} switches, "
            f"{shrunk.extra_links} chords, {len(shrunk.failures)} "
            f"failures, ttl {shrunk.ttl}, "
            f"{shrunk.rate_pps:g}pps x {shrunk.traffic_s:g}s"
        )
        for detail in d.details[:3]:
            lines.append(f"    {detail}")
        if len(d.details) > 3:
            lines.append(f"    ... and {len(d.details) - 3} more")
        if d.artifact_path:
            lines.append(f"  artifact: {d.artifact_path}")
    return "\n".join(lines)
