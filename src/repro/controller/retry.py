"""Retry policy and delta-patched serving for edge→controller requests.

The seed code assumed the controller always answers; under chaos
(:class:`~repro.sim.chaos.ControllerOutageChaos`) it does not.  An edge
RPC now follows the standard degradation discipline: wait *timeout_s*
for the response, retry with exponentially growing, jittered backoff,
and give up after *max_attempts* with an explicit drop reason.

Jitter draws come from the caller's named RNG stream, so retry timing
is bit-reproducible under a fixed seed (a property the unit tests pin
down) and does not perturb any other component's stream.

:class:`DeltaReencodeService` closes the loop on the *cost* of those
retried requests: it fronts any re-encode service with a served-entry
cache that is patched **incrementally** when a switch's output port
changes — one CRT addend per affected route
(:meth:`~repro.rns.encoder.RouteEncoder.with_port`) instead of a fresh
solve per (edge, destination) pair.  Under link churn, the retry storm
hits the patched cache, not the solver.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.rns.encoder import EncodedRoute, Hop, RouteEncoder
from repro.switches.edge import IngressEntry, ReencodeService

__all__ = [
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "DeltaReencodeService",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + bounded exponential backoff with jitter.

    Attributes:
        timeout_s: how long one request waits before it is declared
            lost (an unreachable controller never answers).
        max_attempts: total tries, the first included; the packet is
            dropped with reason ``reencode-unreachable`` when the last
            attempt times out.
        base_backoff_s: wait after the first timeout.
        multiplier: growth factor per further attempt.
        max_backoff_s: cap on the (pre-jitter) wait.
        jitter_frac: each wait is stretched by ``[0, jitter_frac)`` of
            itself, drawn from the caller's stream — desynchronizing
            retries from different edges after a shared outage.
    """

    timeout_s: float = 0.02
    max_attempts: int = 4
    base_backoff_s: float = 0.01
    multiplier: float = 2.0
    max_backoff_s: float = 0.25
    jitter_frac: float = 0.5

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout_s}")
        if self.max_attempts < 1:
            raise ValueError(
                f"need at least one attempt, got {self.max_attempts}"
            )
        if self.base_backoff_s <= 0:
            raise ValueError(
                f"base backoff must be positive, got {self.base_backoff_s}"
            )
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_backoff_s < self.base_backoff_s:
            raise ValueError(
                f"max backoff {self.max_backoff_s} below base "
                f"{self.base_backoff_s}"
            )
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError(
                f"jitter fraction must be in [0, 1], got {self.jitter_frac}"
            )

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Wait before retry number *attempt* (1 = first retry)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.base_backoff_s * self.multiplier ** (attempt - 1),
            self.max_backoff_s,
        )
        return base * (1.0 + self.jitter_frac * rng.random())

    def schedule(self, rng: random.Random) -> List[float]:
        """The full wait sequence one request would experience.

        ``max_attempts`` timeout waits interleaved with the backoff
        waits between attempts — useful for tests and capacity
        planning (worst-case added latency before the drop).
        """
        waits = [self.timeout_s]
        for attempt in range(1, self.max_attempts):
            waits.append(self.backoff_s(attempt, rng))
            waits.append(self.timeout_s)
        return waits

    def worst_case_s(self) -> float:
        """Upper bound on time-to-drop (max jitter on every wait)."""
        total = self.timeout_s * self.max_attempts
        for attempt in range(1, self.max_attempts):
            base = min(
                self.base_backoff_s * self.multiplier ** (attempt - 1),
                self.max_backoff_s,
            )
            total += base * (1.0 + self.jitter_frac)
        return total


DEFAULT_RETRY_POLICY = RetryPolicy()


class DeltaReencodeService:
    """A :class:`~repro.switches.edge.ReencodeService` with delta patching.

    Wraps an inner service (typically
    :class:`~repro.controller.controller.KarController`) and keeps every
    entry it has served.  When the control plane learns that one
    switch's output port changed (:meth:`note_port_change`), every
    served entry encoding that switch is patched in place with a
    single-addend CRT update — ``R' = <R + (p' − p) · M_i L_i>_M`` via
    the pooled encoder's :meth:`~repro.rns.encoder.RouteEncoder
    .with_port` — instead of recomputing one route per (edge,
    destination) pair.  Edges keep calling
    :meth:`reencode` as before and observe the patched entries.

    Entries served without a residue hint cannot be patched (there is no
    hop set to delta against); they are dropped from the cache on the
    next port change and re-fetched from the inner service.

    Counters:
        delta_updates: entries patched incrementally.
        served_local: requests answered from the patched cache.
        served_inner: requests forwarded to the inner service.
    """

    def __init__(self, inner: ReencodeService, encoder: RouteEncoder):
        self.inner = inner
        self.encoder = encoder
        self._served: Dict[Tuple[str, str], Optional[IngressEntry]] = {}
        self.delta_updates = 0
        self.served_local = 0
        self.served_inner = 0

    # -- ReencodeService protocol --------------------------------------
    @property
    def control_rtt_s(self) -> float:
        return self.inner.control_rtt_s

    @property
    def reachable(self) -> bool:
        return self.inner.reachable

    def reencode(self, edge_name: str, dst_host: str) -> Optional[IngressEntry]:
        key = (edge_name, dst_host)
        if key in self._served:
            self.served_local += 1
            return self._served[key]
        entry = self.inner.reencode(edge_name, dst_host)
        self._served[key] = entry
        self.served_inner += 1
        return entry

    # -- delta patching ------------------------------------------------
    def note_port_change(self, switch_id: int, new_port: int) -> int:
        """Patch every served entry that encodes *switch_id*.

        Returns the number of entries updated.  Identity changes (the
        entry already uses *new_port*) are left untouched.
        """
        patched = 0
        for key, entry in list(self._served.items()):
            if entry is None or not entry.residues:
                if entry is not None:
                    # No residue hint: cannot delta; refetch next time.
                    del self._served[key]
                continue
            old_port = entry.residues.get(switch_id)
            if old_port is None or old_port == new_port:
                continue
            route = EncodedRoute(
                route_id=entry.route_id,
                modulus=entry.modulus,
                hops=tuple(
                    Hop(s, p) for s, p in sorted(entry.residues.items())
                ),
            )
            updated = self.encoder.with_port(route, switch_id, new_port)
            self._served[key] = dataclasses.replace(
                entry,
                route_id=updated.route_id,
                residues=updated.residue_map(),
            )
            self.delta_updates += 1
            patched += 1
        return patched

    def invalidate(self) -> None:
        """Forget every served entry (e.g. on a topology epoch change)."""
        self._served.clear()
