"""Job kinds: how a :class:`~repro.farm.spec.RunSpec` actually runs.

A *job kind* is one call to its experiment function:
:func:`execute_spec` runs ``fn(spec.scenario, seed=spec.seed,
**spec.params)``.  A spec's params are exactly the keyword arguments
its builder set, so each default is stated once, in the experiment
function's signature, and a name the function does not take fails the
job.  The function's result (a dataclass, or a JSON-able dict) becomes
the **result record** ``{"result": ..., "digest": ...}``; a typed
result comes back through its type's ``from_record`` on
``record["result"]``.

Kinds are registered at import time of this module, which matters more
than it looks: worker processes are started with the ``spawn`` method
(see :mod:`repro.farm.executor`), so they re-import this module fresh
and must find every kind they are asked to run.  Test- or
session-local registrations therefore only work on the inline
(``jobs=1``) path.

Every result record carries a ``digest`` — a short sha256 over the
record's canonical JSON — computed identically for a fresh execution
and a cache hit.  Equal digests ⇒ bit-identical results.

Built-in kinds:

* ``failure`` — one iperf-under-failure run
  (:func:`repro.experiments.common.run_failure_experiment`), built by
  :func:`failure_spec`, typed by :class:`FailureResult`;
* ``chaos`` — one seeded chaos run
  (:func:`repro.experiments.chaos_sweep.run_chaos_once`);
* ``verify`` — one differential-verification trial
  (:func:`repro.verify.harness.run_trial_record`; scenario ``fuzz``);
* ``frontier`` — one resilience-frontier cell
  (:func:`repro.experiments.frontier.run_frontier_once`);
* ``service`` — one controller-service churn shard
  (:func:`repro.service.loadgen.run_churn`);
* ``echo`` — the farm's self-test job (sleep / crash-once knobs for
  exercising timeouts and worker-crash retry without real workloads).

Experiment imports happen lazily inside the job functions: the
experiment modules drive their sweeps through the farm, so a top-level
import would be circular.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.farm.spec import RunSpec, canonical_json
from repro.rns.backends import resolve_backend_name

__all__ = [
    "JOB_KINDS",
    "job_kind",
    "record_digest",
    "execute_spec",
    "execute_record",
    "failure_spec",
    "FailureResult",
]

JobFn = Callable[..., Any]

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
    result = fn(spec.scenario, seed=spec.seed, **spec.params)
    if not isinstance(result, dict):
        result = asdict(result)
    record = {"result": result}
    record["digest"] = record_digest(record)
    return record


def execute_record(spec_record: Mapping[str, Any]) -> Dict[str, Any]:
    """Worker-process entry point: spec record in, result record out."""
    return execute_spec(RunSpec.from_record(spec_record))


# ---------------------------------------------------------------------------
# "failure" — the iperf-under-failure experiment unit
# ---------------------------------------------------------------------------

def failure_spec(
    scenario: str,
    seed: int,
    timeline: Any,
    backend: Optional[str] = "env",
    **kwargs: Any,
) -> RunSpec:
    """Spec for one :func:`run_failure_experiment` call.

    *kwargs* are that function's own (``deflection``, ``protection``,
    ``failure``, ...).  The :class:`Timeline` is written as its fields,
    and ``backend``'s sentinel ``"env"`` resolves ``REPRO_BACKEND``
    *here*, at spec-build time
    (:func:`repro.rns.backends.resolve_backend_name`, which also rejects
    unknown names), so the resolved name — None included — lands in the
    content key: a figure swept under XSR never collides with a cached
    default-datapath run, and a worker never reads the environment.
    """
    params = dict(
        kwargs, timeline=asdict(timeline),
        backend=resolve_backend_name(backend),
    )
    return RunSpec.make("failure", scenario, seed, params)


@dataclass(frozen=True)
class FailureResult:
    """What the figure modules need from one failure run."""

    baseline_mbps: float
    failure_mbps: float
    intervals: Tuple[Tuple[float, float], ...]
    retransmits: int
    fast_retransmits: int
    timeouts: int

    @property
    def ratio(self) -> float:
        """Failure-window throughput as a fraction of baseline."""
        if self.baseline_mbps <= 0:
            return 0.0
        return self.failure_mbps / self.baseline_mbps

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "FailureResult":
        """Inverse of ``asdict``, also after a JSON round trip."""
        return cls(**{
            **record, "intervals": tuple(map(tuple, record["intervals"])),
        })


@job_kind("failure")
def _run_failure(
    scenario: str, timeline: Mapping[str, Any], **kwargs: Any
) -> FailureResult:
    from repro.experiments.common import (
        Timeline,
        run_failure_experiment,
        scenario_factory,
    )

    outcome = run_failure_experiment(
        scenario_factory(scenario)(),
        timeline=Timeline(**{
            **timeline,
            "baseline_window": tuple(timeline["baseline_window"]),
            "failure_window": tuple(timeline["failure_window"]),
        }),
        **kwargs,
    )
    iperf = outcome.iperf
    return FailureResult(
        baseline_mbps=outcome.baseline_mbps,
        failure_mbps=outcome.failure_mbps,
        intervals=tuple(iperf.intervals),
        retransmits=iperf.retransmits,
        fast_retransmits=iperf.fast_retransmits,
        timeouts=iperf.timeouts,
    )


# ---------------------------------------------------------------------------
# The other kinds: one call each
# ---------------------------------------------------------------------------

@job_kind("chaos")
def _run_chaos(scenario: str, **kwargs: Any) -> Any:
    from repro.experiments.chaos_sweep import run_chaos_once

    return run_chaos_once(scenario, **kwargs)


@job_kind("verify")
def _run_verify(scenario: str, **kwargs: Any) -> Dict[str, Any]:
    from repro.verify.harness import run_trial_record

    return run_trial_record(**kwargs)  # *scenario* is always "fuzz"


@job_kind("frontier")
def _run_frontier(scenario: str, **kwargs: Any) -> Any:
    from repro.experiments.frontier import run_frontier_once

    return run_frontier_once(scenario, **kwargs)


@job_kind("service")
def _run_service(scenario: str, **kwargs: Any) -> Any:
    from repro.service.loadgen import run_churn

    return run_churn(scenario, **kwargs)


@job_kind("echo")
def _run_echo(
    scenario: str,
    seed: int,
    value: Any = None,
    sleep_s: float = 0.0,
    crash_marker: Optional[str] = None,
) -> Dict[str, Any]:
    """``sleep_s`` waits wall-clock time (for timeout tests);
    ``crash_marker`` names a path — if the file does *not* exist the
    job creates it and kills its own process, so the first attempt
    crashes and the retry succeeds (for worker-crash tests)."""
    if crash_marker and not os.path.exists(crash_marker):
        open(crash_marker, "w", encoding="utf-8").close()
        os._exit(3)  # simulate a hard worker crash (no cleanup, no trace)
    time.sleep(sleep_s)
    return {"value": value, "seed": seed}
