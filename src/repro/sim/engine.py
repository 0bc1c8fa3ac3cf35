"""Discrete-event simulation engine.

A minimal, fast event loop: a binary heap of ``(time, sequence,
callback, args)`` entries.  The sequence number breaks ties
deterministically (FIFO among same-time events), which — together with
seeded RNG streams (:mod:`repro.sim.rng`) — makes every simulation
bit-reproducible.

There is one way onto the clock: :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` push the callback and its arguments
straight into a heap entry, and nothing is ever cancelled.  A timer
that may be superseded (TCP's retransmission timeout) carries its own
generation number and returns at once when it fires stale.
:class:`repro.sim.link.Channel` pushes its serializer completions and
arrivals onto the same heap itself, drawing from the same counter, so
its entries carry exactly the key ``schedule`` would give them.

``now`` is a plain attribute written by the run loop.

This engine replaces Mininet's real-time kernel datapath in the paper's
evaluation: instead of emulating Linux interfaces, we schedule packet
transmissions and arrivals as events on a virtual clock.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Tuple

__all__ = ["Simulator", "SimError"]


class SimError(RuntimeError):
    """Raised on engine misuse (negative delays, running twice, ...)."""


class Simulator:
    """The event loop and virtual clock.

    Typical use::

        sim = Simulator()
        sim.schedule(0.5, link.deliver, packet)
        sim.run_until(10.0)

    Time is in seconds (floats) and ``now`` is the current virtual
    time.  Events scheduled for the same instant fire in scheduling
    order.  Delays and times are checked as ``not x >= bound``, which
    refuses NaN too.
    """

    def __init__(self) -> None:
        self._heap: List[
            Tuple[float, int, Callable[..., None], Tuple[Any, ...]]
        ] = []
        self._seq = itertools.count()
        self.now = 0.0
        self._running = False
        self.events_processed = 0

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``fn(*args)`` to run *delay* seconds from now."""
        if not delay >= 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(
            self._heap, (self.now + delay, next(self._seq), fn, args)
        )

    def schedule_at(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Schedule ``fn(*args)`` at absolute virtual *time*."""
        if not time >= self.now:
            raise SimError(f"cannot schedule at {time} (now is {self.now})")
        heapq.heappush(self._heap, (time, next(self._seq), fn, args))

    def run_until(self, end_time: float) -> None:
        """Process events with time <= *end_time*; clock ends at *end_time*.

        The clock advances to *end_time* even if the heap drains early,
        so periodic samplers observe a consistent final timestamp.
        """
        if self._running:
            raise SimError("simulator is already running (re-entrant run)")
        if not end_time >= self.now:
            raise SimError(f"end_time {end_time} is before now {self.now}")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        # Counted in a local and folded back in the finally block: an
        # attribute write per event was visible in profiles.
        # (events_processed is therefore stale *inside* a run.)
        processed = 0
        try:
            while heap:
                entry = heappop(heap)
                time, _, fn, args = entry
                if time > end_time:
                    # Same (time, seq) key: it surfaces first next run.
                    heapq.heappush(heap, entry)
                    break
                processed += 1
                self.now = time
                fn(*args)
            self.now = end_time
        finally:
            self._running = False
            self.events_processed += processed
