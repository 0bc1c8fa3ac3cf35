"""Job kinds: how a :class:`~repro.farm.spec.RunSpec` actually runs.

A *job kind* maps a spec to a JSON-able **result record**.  Kinds are
registered at import time of this module, which matters more than it
looks: worker processes are started with the ``spawn`` method (see
:mod:`repro.farm.executor`), so they re-import this module fresh and
must find every kind they are asked to run.  Test- or session-local
registrations therefore only work on the inline (``jobs=1``) path.

Every result record carries a ``digest`` — a short sha256 over the
record's canonical JSON — computed identically for a fresh execution,
a cache hit, and the pre-farm sequential code path.  Equal digests ⇒
bit-identical results; that is the equivalence the tests pin down.

Built-in kinds:

* ``failure`` — one iperf-under-failure run
  (:func:`repro.experiments.common.run_failure_experiment`);
* ``chaos`` — one seeded chaos run
  (:func:`repro.experiments.chaos_sweep.run_chaos_once`);
* ``verify`` — one differential-verification trial
  (:func:`repro.verify.harness.run_trial_record`);
* ``frontier`` — one resilience-frontier cell
  (:func:`repro.experiments.frontier.run_frontier_once`);
* ``service`` — one controller-service churn shard
  (:func:`repro.service.loadgen.run_churn`): seeded flow
  arrive/depart/reroute/port-flap traffic against a live service, with
  admission-invariant audits and offline route-ID re-derivation;
* ``echo`` — the farm's self-test job (sleep / crash-once knobs for
  exercising timeouts and worker-crash retry without real workloads).

Experiment imports happen lazily inside the job functions: the chaos
module itself drives sweeps through the farm, so a top-level import
would be circular.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.farm.spec import RunSpec, canonical_json
from repro.rns.backends import resolve_backend_name

__all__ = [
    "JOB_KINDS",
    "job_kind",
    "record_digest",
    "execute_spec",
    "execute_record",
    "failure_spec",
    "failure_outcome_record",
    "FailureResult",
    "chaos_spec",
    "chaos_run_from_record",
    "verify_spec",
    "frontier_spec",
    "frontier_cell_from_record",
    "service_spec",
    "echo_spec",
]

JobFn = Callable[[RunSpec], Dict[str, Any]]

#: kind name -> job function (populated by :func:`job_kind` below).
JOB_KINDS: Dict[str, JobFn] = {}


def job_kind(name: str) -> Callable[[JobFn], JobFn]:
    """Register ``fn`` as the executor for job kind ``name``."""

    def register(fn: JobFn) -> JobFn:
        JOB_KINDS[name] = fn
        return fn

    return register


def record_digest(record: Mapping[str, Any]) -> str:
    """Short content digest of a result record (``digest`` excluded)."""
    payload = {k: v for k, v in record.items() if k != "digest"}
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()[:16]


def execute_spec(spec: RunSpec) -> Dict[str, Any]:
    """Run one spec in this process and return its digested record."""
    try:
        fn = JOB_KINDS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown job kind {spec.kind!r}; registered: "
            f"{sorted(JOB_KINDS)}"
        ) from None
    record = fn(spec)
    record["digest"] = record_digest(record)
    return record


def execute_record(spec_record: Mapping[str, Any]) -> Dict[str, Any]:
    """Worker-process entry point: spec record in, result record out."""
    return execute_spec(RunSpec.from_record(spec_record))


# ---------------------------------------------------------------------------
# "failure" — the iperf-under-failure experiment unit
# ---------------------------------------------------------------------------

def _timeline_record(timeline: Any) -> Dict[str, Any]:
    from dataclasses import asdict

    return asdict(timeline)


def _timeline_from(record: Mapping[str, Any]) -> Any:
    from repro.experiments.common import Timeline

    fields = dict(record)
    fields["baseline_window"] = tuple(fields["baseline_window"])
    fields["failure_window"] = tuple(fields["failure_window"])
    return Timeline(**fields)


def failure_spec(
    scenario: str,
    deflection: str,
    protection: str,
    failure: Optional[Tuple[str, str]],
    seed: int,
    timeline: Any,
    control_rtt_s: float = 0.005,
    backend: Optional[str] = "env",
) -> RunSpec:
    """Spec for one :func:`run_failure_experiment` call.

    ``backend`` is the encoding backend; the default sentinel ``"env"``
    resolves ``REPRO_BACKEND`` *here*, at spec-build time
    (:func:`repro.rns.backends.resolve_backend_name`, which also rejects
    unknown names), so the resolved name lands in the content key — a
    figure swept under XSR can never collide with a cached
    default-datapath run.  ``None``
    (the default datapath) is omitted from the params entirely, keeping
    every pre-PR-10 content key — and therefore the whole existing
    farm cache — valid.
    """
    backend = resolve_backend_name(backend)
    params = {
        "deflection": deflection,
        "protection": protection,
        "failure": list(failure) if failure is not None else None,
        "timeline": _timeline_record(timeline),
        "control_rtt_s": control_rtt_s,
    }
    if backend is not None:
        params["backend"] = backend
    return RunSpec.make("failure", scenario, seed, params)


def failure_outcome_record(outcome: Any) -> Dict[str, Any]:
    """Flatten a :class:`RunOutcome` into the cacheable record shape."""
    iperf = outcome.iperf
    return {
        "baseline_mbps": outcome.baseline_mbps,
        "failure_mbps": outcome.failure_mbps,
        "intervals": [[t, mbps] for t, mbps in iperf.intervals],
        "retransmits": iperf.retransmits,
        "fast_retransmits": iperf.fast_retransmits,
        "timeouts": iperf.timeouts,
    }


@dataclass(frozen=True)
class FailureResult:
    """What the figure modules need from one failure run."""

    baseline_mbps: float
    failure_mbps: float
    intervals: Tuple[Tuple[float, float], ...]
    retransmits: int
    fast_retransmits: int
    timeouts: int
    digest: str

    @property
    def ratio(self) -> float:
        """Failure-window throughput as a fraction of baseline."""
        if self.baseline_mbps <= 0:
            return 0.0
        return self.failure_mbps / self.baseline_mbps

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "FailureResult":
        return cls(
            baseline_mbps=record["baseline_mbps"],
            failure_mbps=record["failure_mbps"],
            intervals=tuple(
                (t, mbps) for t, mbps in record["intervals"]
            ),
            retransmits=record["retransmits"],
            fast_retransmits=record["fast_retransmits"],
            timeouts=record["timeouts"],
            digest=record["digest"],
        )


@job_kind("failure")
def _run_failure(spec: RunSpec) -> Dict[str, Any]:
    from repro.experiments.common import (
        run_failure_experiment,
        scenario_factory,
    )

    p = spec.params
    failure = tuple(p["failure"]) if p.get("failure") else None
    outcome = run_failure_experiment(
        scenario_factory(spec.scenario)(),
        p["deflection"],
        p["protection"],
        failure,
        spec.seed,
        timeline=_timeline_from(p["timeline"]),
        control_rtt_s=p.get("control_rtt_s", 0.005),
        backend=p.get("backend"),  # never "env": resolved at spec time
    )
    return failure_outcome_record(outcome)


# ---------------------------------------------------------------------------
# "chaos" — one seeded chaos run with invariant checking
# ---------------------------------------------------------------------------

def chaos_spec(
    scenario: str,
    technique: str,
    mode: str,
    seed: int,
    chaos_kwargs: Optional[Mapping[str, Any]] = None,
    ctrl_outage: bool = False,
    rate_pps: float = 300.0,
    traffic_s: float = 4.0,
    ttl: int = 128,
) -> RunSpec:
    """Spec for one :func:`run_chaos_once` call."""
    return RunSpec.make(
        "chaos",
        scenario,
        seed,
        {
            "technique": technique,
            "mode": mode,
            "chaos_kwargs": dict(chaos_kwargs or {}),
            "ctrl_outage": ctrl_outage,
            "rate_pps": rate_pps,
            "traffic_s": traffic_s,
            "ttl": ttl,
        },
    )


def chaos_run_from_record(record: Mapping[str, Any]) -> Any:
    """Rebuild a :class:`ChaosRun` from a (possibly JSON-loaded) record."""
    from repro.experiments.chaos_sweep import ChaosRun

    fields = dict(record["chaos"])
    fields["drop_reasons"] = tuple(
        (reason, count) for reason, count in fields["drop_reasons"]
    )
    fields["violations"] = tuple(
        (name, count) for name, count in fields["violations"]
    )
    return ChaosRun(**fields)


@job_kind("chaos")
def _run_chaos(spec: RunSpec) -> Dict[str, Any]:
    from dataclasses import asdict

    from repro.experiments.chaos_sweep import run_chaos_once

    p = spec.params
    run = run_chaos_once(
        scenario_name=spec.scenario,
        technique=p["technique"],
        mode=p["mode"],
        seed=spec.seed,
        chaos_kwargs=p.get("chaos_kwargs") or None,
        ctrl_outage=p.get("ctrl_outage", False),
        rate_pps=p.get("rate_pps", 300.0),
        traffic_s=p.get("traffic_s", 4.0),
        ttl=p.get("ttl", 128),
    )
    # Nested under "chaos": ChaosRun has its own `digest` field (the
    # injector event digest) which must not collide with the farm's
    # record digest.
    return {"chaos": asdict(run)}


# ---------------------------------------------------------------------------
# "verify" — one differential-verification trial
# ---------------------------------------------------------------------------

def verify_spec(
    trial_seed: int,
    oracles: Optional[Sequence[str]] = None,
) -> RunSpec:
    """Spec for one :func:`run_trial_record` call.

    ``oracles`` (None means all) is part of the content key: a trial
    over two oracles is a different result than one over four.
    """
    return RunSpec.make(
        "verify",
        "fuzz",
        trial_seed,
        {"oracles": sorted(oracles) if oracles else None},
    )


@job_kind("verify")
def _run_verify(spec: RunSpec) -> Dict[str, Any]:
    from repro.verify.harness import run_trial_record

    return run_trial_record(spec.seed, spec.params.get("oracles"))


# ---------------------------------------------------------------------------
# "frontier" — one resilience-frontier cell
# ---------------------------------------------------------------------------

def frontier_spec(
    topology: str,
    scheme: str,
    mode: str,
    failures: int,
    seed: int,
    schedule_seed: int = 0,
    adversary: Optional[Mapping[str, Any]] = None,
    rate_pps: float = 200.0,
    traffic_s: float = 1.5,
    ttl: int = 96,
) -> RunSpec:
    """Spec for one :func:`run_frontier_once` call."""
    return RunSpec.make(
        "frontier",
        topology,
        seed,
        {
            "scheme": scheme,
            "mode": mode,
            "failures": failures,
            "schedule_seed": schedule_seed,
            "adversary": dict(adversary or {}),
            "rate_pps": rate_pps,
            "traffic_s": traffic_s,
            "ttl": ttl,
        },
    )


def frontier_cell_from_record(record: Mapping[str, Any]) -> Any:
    """Rebuild a :class:`FrontierCell` from a (JSON-loaded) record."""
    from repro.experiments.frontier import FrontierCell

    fields = dict(record["frontier"])
    fields["drop_reasons"] = tuple(
        (reason, count) for reason, count in fields["drop_reasons"]
    )
    fields["violations"] = tuple(
        (name, count) for name, count in fields["violations"]
    )
    fields["failed_links"] = tuple(fields["failed_links"])
    # Absent on cached records predating the encoding-backend columns —
    # the dataclass default () keeps those records loadable.
    if "header_bits_by_backend" in fields:
        fields["header_bits_by_backend"] = tuple(
            (name, bits) for name, bits in fields["header_bits_by_backend"]
        )
    return FrontierCell(**fields)


@job_kind("frontier")
def _run_frontier(spec: RunSpec) -> Dict[str, Any]:
    from dataclasses import asdict

    from repro.experiments.frontier import run_frontier_once

    p = spec.params
    cell = run_frontier_once(
        topology=spec.scenario,
        scheme=p["scheme"],
        mode=p["mode"],
        failures=p["failures"],
        seed=spec.seed,
        schedule_seed=p.get("schedule_seed", 0),
        adversary=p.get("adversary") or None,
        rate_pps=p.get("rate_pps", 200.0),
        traffic_s=p.get("traffic_s", 1.5),
        ttl=p.get("ttl", 96),
    )
    # Nested under "frontier": FrontierCell carries its own `digest`
    # (the failure-set / chaos-event fingerprint) which must not
    # collide with the farm's record digest.
    return {"frontier": asdict(cell)}


# ---------------------------------------------------------------------------
# "service" — one controller-service churn shard
# ---------------------------------------------------------------------------

def service_spec(
    topology: str,
    seed: int,
    users: int = 2000,
    operations: int = 4000,
    qos_fraction: float = 0.3,
    transport: str = "direct",
) -> RunSpec:
    """Spec for one :func:`repro.service.loadgen.run_churn` shard.

    ``transport`` is part of the content key on purpose: an ``http``
    shard proves socket framing on top of the state machine, so it is
    a different (if digest-equal) experiment than a ``direct`` one.
    """
    return RunSpec.make(
        "service",
        topology,
        seed,
        {
            "users": users,
            "operations": operations,
            "qos_fraction": qos_fraction,
            "transport": transport,
        },
    )


@job_kind("service")
def _run_service(spec: RunSpec) -> Dict[str, Any]:
    from repro.service.loadgen import churn_record, run_churn

    p = spec.params
    report = run_churn(
        topology=spec.scenario,
        seed=spec.seed,
        users=p.get("users", 2000),
        operations=p.get("operations", 4000),
        qos_fraction=p.get("qos_fraction", 0.3),
        transport=p.get("transport", "direct"),
    )
    # Nested under "service": ChurnReport carries its own `digest`
    # (the transport-independent op-log fingerprint) which must not
    # collide with the farm's record digest.
    return churn_record(report)


# ---------------------------------------------------------------------------
# "echo" — self-test job (no simulation)
# ---------------------------------------------------------------------------

def echo_spec(
    value: Any,
    seed: int = 0,
    sleep_s: float = 0.0,
    crash_marker: Optional[str] = None,
) -> RunSpec:
    """Spec for the self-test job.

    ``sleep_s`` busy-waits wall-clock time (for timeout tests);
    ``crash_marker`` names a path — if the file does *not* exist the
    job creates it and kills its own process, so the first attempt
    crashes and the retry succeeds (for worker-crash tests).
    """
    return RunSpec.make(
        "echo",
        "none",
        seed,
        {"value": value, "sleep_s": sleep_s, "crash_marker": crash_marker},
    )


@job_kind("echo")
def _run_echo(spec: RunSpec) -> Dict[str, Any]:
    p = spec.params
    marker = p.get("crash_marker")
    if marker and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as f:
            f.write(spec.content_key())
        os._exit(3)  # simulate a hard worker crash (no cleanup, no trace)
    if p.get("sleep_s"):
        time.sleep(p["sleep_s"])
    return {"value": p.get("value"), "seed": spec.seed}
