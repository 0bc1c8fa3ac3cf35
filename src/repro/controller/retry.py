"""Retry policy for edge→controller requests.

The seed code assumed the controller always answers; under chaos
(:class:`~repro.sim.chaos.ControllerOutageChaos`) it does not.  An edge
RPC now follows the standard degradation discipline: wait *timeout_s*
for the response, retry with exponentially growing, jittered backoff,
and give up after *max_attempts* with an explicit drop reason.

Jitter draws come from the caller's named RNG stream, so retry timing
is bit-reproducible under a fixed seed (a property the unit tests pin
down) and does not perturb any other component's stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]


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
