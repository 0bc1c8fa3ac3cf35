"""The farm's job model: a run as pure data.

PR 1 made every experiment run a pure function of (scenario, config,
seed); a :class:`RunSpec` is exactly that tuple, written down.  Hashing
its canonical JSON form gives a stable **content key** — the address of
the run's result in the on-disk cache, which is all a rerun of a killed
sweep needs to find its finished jobs.  Two RunSpecs with the same key
are the same experiment, no matter which process, platform or session
builds them.  A key names the experiment, not the program that ran it:
the cache holds each record to the code that wrote it
(:func:`repro.farm.cache.code_fingerprint`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

__all__ = ["RunSpec", "canonical_json"]


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN.

    Floats serialize via ``repr`` (shortest round-trip form), so equal
    floats always produce equal text and the hash is exact, not
    approximate.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


@dataclass(frozen=True)
class RunSpec:
    """One executable experiment run, as pure data.

    Attributes:
        kind: registered job kind (see :mod:`repro.farm.jobs`).
        scenario: scenario factory name (``fifteen_node``, ...).
        seed: the run's RNG seed.
        params_json: canonical-JSON string of the keyword arguments
            its builder set for the kind's experiment function (see
            :func:`repro.farm.jobs.execute_spec`); a default left out
            is the function's own.  Stored as a string so the spec
            stays hashable and the canonical form is fixed at
            construction time.
    """

    kind: str
    scenario: str
    seed: int
    params_json: str = "{}"

    @classmethod
    def make(
        cls,
        kind: str,
        scenario: str,
        seed: int,
        params: Optional[Mapping[str, Any]] = None,
    ) -> "RunSpec":
        """Build a spec, canonicalizing ``params`` (any JSON-able map)."""
        return cls(
            kind=kind,
            scenario=scenario,
            seed=int(seed),
            params_json=canonical_json(dict(params or {})),
        )

    @property
    def params(self) -> Dict[str, Any]:
        """The parameter map (a fresh dict; mutating it is harmless)."""
        return json.loads(self.params_json)

    def content_key(self) -> str:
        """Stable sha256 hex key addressing this run's cached result."""
        payload = canonical_json(self.to_record())
        digest = hashlib.sha256(payload.encode("utf-8"))
        return digest.hexdigest()

    def label(self) -> str:
        """Short human-readable identity for logs and errors."""
        return (
            f"{self.kind}:{self.scenario}:seed={self.seed}"
            f":{self.content_key()[:12]}"
        )

    def to_record(self) -> Dict[str, Any]:
        """JSON-able form (for cache records and worker hand-off)."""
        return {
            "kind": self.kind,
            "scenario": self.scenario,
            "seed": self.seed,
            "params": json.loads(self.params_json),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "RunSpec":
        """Inverse of :meth:`to_record` (key-preserving)."""
        return cls.make(
            kind=record["kind"],
            scenario=record["scenario"],
            seed=record["seed"],
            params=record["params"],
        )
