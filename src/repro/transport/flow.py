"""iperf-style measured TCP flows.

:class:`IperfFlow` bundles a :class:`~repro.transport.tcp.TcpSender`
and :class:`~repro.transport.tcp.TcpReceiver`, samples the receiver's
in-order goodput on a fixed interval, and produces an
:class:`IperfResult` — the moral equivalent of an ``iperf -i 1`` report,
which is exactly what the paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.transport.host import Host
from repro.transport.reordering import ReorderingReport, analyze_arrivals
from repro.transport.tcp import TcpReceiver, TcpSender

__all__ = ["IperfFlow", "IperfResult"]


@dataclass
class IperfResult:
    """Outcome of one measured flow.

    Attributes:
        flow_id: the flow's identifier.
        intervals: (interval_end_time, Mbit/s) goodput samples.
        bytes_received: total in-order bytes at the receiver.
        duration_s: measurement duration.
        retransmits / fast_retransmits / timeouts: sender counters.
        reordering: receiver-side reordering metrics.
    """

    flow_id: str
    intervals: List[Tuple[float, float]]
    bytes_received: int
    duration_s: float
    retransmits: int
    fast_retransmits: int
    timeouts: int
    reordering: ReorderingReport

    @property
    def mean_mbps(self) -> float:
        """Average goodput over the whole measurement window."""
        if self.duration_s <= 0:
            return 0.0
        return self.bytes_received * 8 / self.duration_s / 1e6

    def mean_mbps_between(self, start: float, end: float) -> float:
        """Average goodput over interval samples in (start, end]."""
        samples = [m for t, m in self.intervals if start < t <= end]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)

    def describe(self) -> str:
        return (
            f"{self.flow_id}: {self.mean_mbps:.2f} Mbit/s over "
            f"{self.duration_s:g}s, {self.retransmits} retransmits "
            f"({self.fast_retransmits} fast, {self.timeouts} RTO), "
            f"reordering: {self.reordering.describe()}"
        )


class IperfFlow:
    """One measured bulk TCP flow between two hosts.

    Args:
        sim: event engine.
        src / dst: host nodes (must already be wired into the network,
            with forward and reverse routes installed at their edges).
        flow_id: unique flow name.
        sample_interval_s: goodput sampling period (iperf's ``-i``).
        tcp_kwargs: forwarded to :class:`TcpSender` (mss, max_rto, ...).
    """

    def __init__(
        self,
        sim: Simulator,
        src: Host,
        dst: Host,
        flow_id: str = "iperf",
        sample_interval_s: float = 0.5,
        sender_cls: type = TcpSender,
        **tcp_kwargs,
    ):
        if sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")
        self.sim = sim
        self.flow_id = flow_id
        self.sample_interval_s = sample_interval_s
        self.sender = sender_cls(
            sim, src, dst.name, flow_id, **tcp_kwargs
        )
        self.receiver = TcpReceiver(sim, dst, src.name, flow_id)
        self._samples: List[Tuple[float, float]] = []
        self._last_bytes = 0
        self._started_at: Optional[float] = None
        self._ends_at: Optional[float] = None

    def start(self, at: float = 0.0, duration_s: float = 10.0) -> None:
        """Schedule the flow to run during [at, at + duration_s]."""
        if self._started_at is not None:
            raise RuntimeError(f"flow {self.flow_id!r} already scheduled")
        self._started_at = at
        self._ends_at = at + duration_s
        self.sender.start(at=at if at > self.sim.now else None)
        self.sim.schedule_at(at + self.sample_interval_s, self._sample)

    def _sample(self) -> None:
        now = self.sim.now
        current = self.receiver.bytes_received
        mbps = (current - self._last_bytes) * 8 / self.sample_interval_s / 1e6
        self._last_bytes = current
        self._samples.append((now, mbps))
        if self._ends_at is not None and now + self.sample_interval_s <= self._ends_at + 1e-9:
            self.sim.schedule(self.sample_interval_s, self._sample)

    def result(self) -> IperfResult:
        """Build the report (call after the simulation has run)."""
        if self._started_at is None or self._ends_at is None:
            raise RuntimeError("flow was never started")
        return IperfResult(
            flow_id=self.flow_id,
            intervals=list(self._samples),
            bytes_received=self.receiver.bytes_received,
            duration_s=self._ends_at - self._started_at,
            retransmits=self.sender.retransmits,
            fast_retransmits=self.sender.fast_retransmits,
            timeouts=self.sender.timeouts,
            reordering=analyze_arrivals(self.receiver.arrivals),
        )
