"""Progress reporting for farm runs: done/total, cache hits, ETA.

Two output modes, both on stderr so exports and renders on stdout stay
machine-clean:

* **live** (TTY): a single ``\\r``-rewritten status line;
* **line** (non-TTY but explicitly enabled, e.g. ``--progress`` in
  CI): one plain line per job, greppable from a build log.

The ``enabled`` knob is tri-state: ``None`` auto-detects a TTY,
``True`` forces output even into a pipe, ``False`` silences everything
including the final summary (the library default, so importing code
and tests stay quiet).

ETA extrapolates from *executed* jobs only — cache hits are ~free and
would otherwise make the estimate wildly optimistic.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO

__all__ = ["ProgressReporter", "format_eta"]


def format_eta(seconds: float) -> str:
    """``73.4 -> '1:13'``; hours appear only when needed."""
    total = max(int(seconds + 0.5), 0)
    h, rest = divmod(total, 3600)
    m, s = divmod(rest, 60)
    if h:
        return f"{h}:{m:02d}:{s:02d}"
    return f"{m}:{s:02d}"


class ProgressReporter:
    """Tracks and renders one farm run's progress."""

    def __init__(
        self,
        total: int,
        label: str = "farm",
        enabled: Optional[bool] = None,
        stream: Optional[TextIO] = None,
    ):
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self.live = is_tty if enabled is None else enabled
        #: Only an explicit ``False`` silences the final summary.
        self.summary_on = enabled is not False
        self._tty = is_tty
        self.done = 0
        self.cached = 0
        self._started = time.monotonic()
        self._last_render = 0.0
        self._width = 0

    def start(self) -> None:
        self._started = time.monotonic()

    @property
    def executed(self) -> int:
        return self.done - self.cached

    def eta_s(self) -> Optional[float]:
        """Projected seconds to completion, or None if unknowable."""
        if self.executed <= 0 or self.done >= self.total:
            return None
        per_job = (time.monotonic() - self._started) / self.executed
        return per_job * (self.total - self.done)

    def tick(self, cached: bool = False) -> None:
        """Record one finished job (``cached`` = served from cache)."""
        self.done += 1
        if cached:
            self.cached += 1
        if not self.live:
            return
        now = time.monotonic()
        # At most five redraws a second; the last job always draws.
        if self.done < self.total and now - self._last_render < 0.2:
            return
        self._last_render = now
        line = self._render()
        if self._tty:
            self._width = max(self._width, len(line))
            self.stream.write("\r" + line.ljust(self._width))
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def _render(self) -> str:
        parts = [f"{self.label}: {self.done}/{self.total} jobs"]
        if self.cached:
            parts.append(f"{self.cached} cached")
        eta = self.eta_s()
        if eta is not None:
            parts.append(f"eta {format_eta(eta)}")
        return "  ".join(parts)

    def finish(self, summary: Optional[str] = None) -> None:
        """Clear the live line and (unless silenced) print a summary."""
        if self.live and self._tty and self._width:
            self.stream.write("\r" + " " * self._width + "\r")
            self.stream.flush()
        if summary and self.summary_on:
            self.stream.write(summary + "\n")
            self.stream.flush()
