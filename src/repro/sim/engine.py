"""Discrete-event simulation engine.

A minimal, fast event loop: a binary heap of ``(time, sequence,
callback, args)`` entries.  The sequence number breaks ties
deterministically (FIFO among same-time events), which — together with
seeded RNG streams (:mod:`repro.sim.rng`) — makes every simulation
bit-reproducible.

Two scheduling paths share the heap and the sequence counter:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`EventHandle` supporting O(1) cancellation — for timers that
  may be cancelled (retransmission timeouts, in-flight deliveries).
* :meth:`Simulator.post` / :meth:`Simulator.post_at` are the
  no-allocation fast path for events that are **never cancelled**
  (monitor ticks, source timers): the callback and its arguments go
  straight into the heap entry, no handle object.

Both paths consume one sequence number per call, so mixing them does
not perturb event order — a ``post`` fires exactly when the equivalent
``schedule`` would have.  :class:`repro.sim.link.Channel` pushes its
serializer completions and arrivals onto the same heap itself, drawing
from the same counter, so its entries carry exactly the key ``post``
would give them.

``now`` is a plain attribute written by the run loop.  ``pending()`` is
the heap size minus the cancelled entries still in it: cancelling bumps
that count and the loop takes it back when it discards the entry, so
scheduling is a bare push.

This engine replaces Mininet's real-time kernel datapath in the paper's
evaluation: instead of emulating Linux interfaces, we schedule packet
transmissions and arrivals as events on a virtual clock.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["Simulator", "SimError", "EventHandle"]


class SimError(RuntimeError):
    """Raised on engine misuse (negative delays, running twice, ...)."""


class EventHandle:
    """Handle to a scheduled event; supports O(1) cancellation.

    Cancellation marks the entry dead; the heap lazily discards dead
    entries when they surface.
    """

    __slots__ = ("time", "_fn", "_args", "_sim")

    def __init__(
        self,
        time: float,
        fn: Callable[..., None],
        args: Tuple[Any, ...],
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self._fn: Optional[Callable[..., None]] = fn
        self._args = args
        self._sim = sim

    def cancel(self) -> None:
        if self._fn is None:
            return
        self._fn = None
        self._args = ()
        if self._sim is not None:
            self._sim._cancelled += 1

    @property
    def cancelled(self) -> bool:
        return self._fn is None

    def _fire(self) -> None:
        # Clear the handle *before* invoking: a fired event is no longer
        # in the heap, so a late cancel() must be a no-op rather than
        # count a cancelled entry that pending() would then subtract.
        # (Consequence: `cancelled` is True for fired handles too — it
        # means "cancel is a no-op".)
        fn = self._fn
        if fn is not None:
            args = self._args
            self._fn = None
            self._args = ()
            fn(*args)


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
        # Entries are (time, seq, payload, args): payload is an
        # EventHandle when args is None (cancellable path) or a bare
        # callable when args is a tuple (post fast path).
        self._heap: List[Tuple[float, int, Any, Optional[Tuple[Any, ...]]]] = []
        self._seq = itertools.count()
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._cancelled = 0  # cancelled entries still in the heap
        self.events_processed = 0

    def schedule(
        self, delay: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` to run *delay* seconds from now."""
        if not delay >= 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        handle = EventHandle(self.now + delay, fn, args, self)
        heapq.heappush(self._heap, (handle.time, next(self._seq), handle, None))
        return handle

    def schedule_at(
        self, time: float, fn: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual *time*."""
        if not time >= self.now:
            raise SimError(f"cannot schedule at {time} (now is {self.now})")
        handle = EventHandle(time, fn, args, self)
        heapq.heappush(self._heap, (time, next(self._seq), handle, None))
        return handle

    def post(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` with no cancellation handle.

        The no-allocation fast path for events that are never cancelled
        (monitor ticks, source timers).  Fires in exactly the slot the
        equivalent :meth:`schedule` call would have used.
        """
        if not delay >= 0:
            raise SimError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def post_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Absolute-time variant of :meth:`post`."""
        if not time >= self.now:
            raise SimError(f"cannot schedule at {time} (now is {self.now})")
        heapq.heappush(self._heap, (time, next(self._seq), fn, args))

    def stop(self) -> None:
        """Stop the run loop after the current event completes."""
        self._stopped = True

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
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        # Counted in a local and folded back in the finally block: an
        # attribute write per event was visible in profiles.
        # (events_processed is therefore stale *inside* a run.)
        processed = 0
        try:
            while heap and not self._stopped:
                entry = heappop(heap)
                time, _, payload, args = entry
                if time > end_time:
                    # Same (time, seq) key: it surfaces first next run.
                    heapq.heappush(heap, entry)
                    break
                if args is None:
                    # Cancellable path: payload is an EventHandle.
                    if payload._fn is None:
                        self._cancelled -= 1
                        continue
                    processed += 1
                    self.now = time
                    payload._fire()
                else:
                    processed += 1
                    self.now = time
                    payload(*args)
            if not self._stopped:
                self.now = end_time
        finally:
            self._running = False
            self.events_processed += processed

    def run(self) -> None:
        """Process every pending event (until the heap drains or stop())."""
        if self._running:
            raise SimError("simulator is already running (re-entrant run)")
        self._running = True
        self._stopped = False
        heap = self._heap
        heappop = heapq.heappop
        processed = 0
        try:
            while heap and not self._stopped:
                time, _, payload, args = heappop(heap)
                if args is None:
                    if payload._fn is None:
                        self._cancelled -= 1
                        continue
                    processed += 1
                    self.now = time
                    payload._fire()
                else:
                    processed += 1
                    self.now = time
                    payload(*args)
        finally:
            self._running = False
            self.events_processed += processed

    def pending(self) -> int:
        """Number of live (non-cancelled) events in the queue.

        O(1): the heap size less the cancelled entries still in it.
        Exact inside a run too.
        """
        return len(self._heap) - self._cancelled
