"""Constant-rate datagram probe (UDP-like).

A lightweight, congestion-oblivious traffic source used for
delivery-ratio, hop-count and path-coverage measurements: unlike TCP,
it keeps transmitting through failures, so every packet's fate
(delivered / dropped / wandering) is directly observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.transport.host import Host

__all__ = ["UdpDatagram", "UdpSource", "UdpSink"]

UDP_HEADER_BYTES = 50


@dataclass(slots=True)
class UdpDatagram:
    flow_id: str
    seq: int
    sent_at: float


class UdpSource:
    """Sends fixed-size datagrams at a constant rate for a duration."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst_host: str,
        flow_id: str,
        rate_pps: float,
        payload_bytes: int = 1400,
        duration_s: Optional[float] = None,
    ):
        if rate_pps <= 0:
            raise ValueError(f"rate must be positive, got {rate_pps}")
        self.sim = sim
        self.host = host
        self.dst_host = dst_host
        self.flow_id = flow_id
        self.interval = 1.0 / rate_pps
        self.payload_bytes = payload_bytes
        self.duration_s = duration_s
        self.sent = 0
        self._stop_at: Optional[float] = None
        self._running = False
        # Sources never receive, but register so stray packets are counted
        # at the host rather than warned about.
        host.register(flow_id, self)

    def on_packet(self, packet: Packet) -> None:  # pragma: no cover - sink side
        pass

    def start(self, at: Optional[float] = None) -> None:
        if self._running:
            raise RuntimeError(f"probe {self.flow_id!r} already started")
        self._running = True
        start_time = self.sim.now if at is None else at
        if self.duration_s is not None:
            self._stop_at = start_time + self.duration_s
        if at is None or at <= self.sim.now:
            self._tick()
        else:
            self.sim.schedule_at(at, self._tick)

    def _tick(self) -> None:
        if self._stop_at is not None and self.sim.now >= self._stop_at:
            return
        datagram = UdpDatagram(
            flow_id=self.flow_id, seq=self.sent, sent_at=self.sim.now
        )
        self.host.inject(
            Packet(
                src_host=self.host.name,
                dst_host=self.dst_host,
                size_bytes=self.payload_bytes + UDP_HEADER_BYTES,
                payload=datagram,
                created_at=self.sim.now,
            )
        )
        self.sent += 1
        self.sim.schedule(self.interval, self._tick)


class UdpSink:
    """Counts and time-stamps datagram arrivals."""

    def __init__(self, sim: Simulator, host: Host, flow_id: str):
        self.sim = sim
        self.received = 0
        self.arrivals: List[Tuple[float, int, float, int]] = []
        # (arrival_time, seq, one_way_delay, hops)
        host.register(flow_id, self)

    def on_packet(self, packet: Packet) -> None:
        datagram = packet.payload
        if not isinstance(datagram, UdpDatagram):
            return
        self.received += 1
        self.arrivals.append(
            (self.sim.now, datagram.seq,
             self.sim.now - datagram.sent_at, packet.hops)
        )

    def delivery_ratio(self, sent: int) -> float:
        if sent == 0:
            return 0.0
        return self.received / sent

    def mean_delay(self) -> Optional[float]:
        if not self.arrivals:
            return None
        return sum(a[2] for a in self.arrivals) / len(self.arrivals)

    def mean_hops(self) -> Optional[float]:
        if not self.arrivals:
            return None
        return sum(a[3] for a in self.arrivals) / len(self.arrivals)

    def sequences(self) -> List[int]:
        return [a[1] for a in self.arrivals]
