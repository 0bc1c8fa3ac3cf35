"""Full-duplex links with serialization, propagation, queueing, failure.

A :class:`Link` joins two node ports and owns two independent
:class:`Channel` objects (one per direction).  Each channel models:

* **serialization** — packets occupy the transmitter for
  ``size * 8 / rate`` seconds,
* **drop-tail queueing** — up to ``queue_packets`` packets wait for the
  transmitter; overflow is dropped (and reported),
* **propagation** — delivered to the peer ``delay_s`` after the last
  bit is serialized,
* **failure** — a downed link drops queued and in-flight packets and
  refuses new ones; both directions share the up/down state (a cut
  fiber kills both), matching how the paper's switches observe "output
  port is under failure".

A channel pushes its serializer-completion and arrival entries straight
onto the simulator's heap, each keyed ``(now + dt, next(seq))`` from the
simulator's own counter — the key :meth:`Simulator.schedule` would
assign, without the call.  Neither is ever cancelled: a link-down
empties the queue and the pipe (accounting every casualty) and identity
checks make the stale entries no-ops.  An arrival calls the peer's ``receive``,
bound with its port when the link is built.  :class:`Link` validates
rate, delay and queue size up front, which is what makes skipping
``schedule``'s delay guard safe.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import TYPE_CHECKING, Callable, Deque, Optional

from repro.sim.engine import Simulator
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.node import Node

__all__ = ["Link", "Channel", "ChannelStats"]


@dataclass(slots=True)
class ChannelStats:
    """Per-direction counters (slotted: bumped on every transmission)."""

    tx_packets: int = 0
    tx_bytes: int = 0
    delivered_packets: int = 0
    queue_drops: int = 0
    failure_drops: int = 0


class Channel:
    """One direction of a link: serializer + drop-tail queue + pipe."""

    __slots__ = (
        "_sim", "_heap", "_seq", "_tx_s_per_byte", "_delay_s", "_capacity",
        "_receive", "_port", "_drop_hook", "_queue", "_up", "_transmitting",
        "_in_flight", "stats",
    )

    def __init__(
        self,
        sim: Simulator,
        rate_mbps: float,
        delay_s: float,
        queue_packets: int,
        node: "Node",
        port: int,
        drop_hook: Optional[Callable[[Packet, str], None]] = None,
    ):
        self._sim = sim
        self._heap = sim._heap
        self._seq = sim._seq
        self._tx_s_per_byte = 8 / (rate_mbps * 1e6)
        self._delay_s = delay_s
        self._capacity = queue_packets
        self._receive = node.receive  # arrivals land on (node, port)
        self._port = port
        self._drop_hook = drop_hook
        self._queue: Deque[Packet] = deque()
        self._up = True
        # The packet being serialized; None when the transmitter idles.
        self._transmitting: Optional[Packet] = None
        # Packets on the wire, oldest first (propagation delay is
        # constant per channel, so the pipe is strictly FIFO).
        self._in_flight: Deque[Packet] = deque()
        self.stats = ChannelStats()

    # -- state ---------------------------------------------------------
    @property
    def up(self) -> bool:
        return self._up

    def set_up(self, up: bool) -> None:
        if up == self._up:
            return
        self._up = up
        if not up:
            # A cut loses everything queued and on the wire.  Every
            # casualty goes through the drop hook: chaos runs verify
            # packet conservation, so nothing may vanish silently.
            for pkt in self._queue:
                self._drop(pkt, "link-down")
                self.stats.failure_drops += 1
            self._queue.clear()
            if self._transmitting is not None:
                self._drop(self._transmitting, "link-down")
                self.stats.failure_drops += 1
                self._transmitting = None
            for pkt in self._in_flight:
                self._drop(pkt, "link-down")
                self.stats.failure_drops += 1
            self._in_flight.clear()

    # -- datapath ------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Enqueue *packet* for transmission.

        Returns False (and drops) when the channel is down or the queue
        is full — the caller has already committed the packet to this
        port, as a real switch ASIC would have.
        """
        if not self._up:
            self._drop(packet, "link-down")
            self.stats.failure_drops += 1
            return False
        if self._transmitting is not None:
            if len(self._queue) >= self._capacity:
                self._drop(packet, "queue-overflow")
                self.stats.queue_drops += 1
                return False
            self._queue.append(packet)
            return True
        self._transmitting = packet
        size = packet.size_bytes
        stats = self.stats
        stats.tx_packets += 1
        stats.tx_bytes += size
        heappush(self._heap, (
            self._sim.now + size * self._tx_s_per_byte, next(self._seq),
            self._tx_done, (packet,),
        ))
        return True

    def _tx_done(self, packet: Packet) -> None:
        if packet is not self._transmitting:
            # State flipped mid-serialization: the packet was dropped
            # (and accounted) by set_up, even if the link has already
            # been repaired by now — an interrupted serialization never
            # resumes.
            return
        now = self._sim.now
        heappush(self._heap, (
            now + self._delay_s, next(self._seq), self._arrive, (packet,),
        ))
        self._in_flight.append(packet)
        if self._queue:
            packet = self._transmitting = self._queue.popleft()
            size = packet.size_bytes
            stats = self.stats
            stats.tx_packets += 1
            stats.tx_bytes += size
            heappush(self._heap, (
                now + size * self._tx_s_per_byte, next(self._seq),
                self._tx_done, (packet,),
            ))
        else:
            self._transmitting = None

    def _arrive(self, packet: Packet) -> None:
        pipe = self._in_flight
        if not pipe or pipe[0] is not packet:
            # Stale: this packet was dropped (and accounted) by set_up
            # while it was on the wire.
            return
        pipe.popleft()
        self.stats.delivered_packets += 1
        self._receive(packet, self._port)

    def _drop(self, packet: Packet, reason: str) -> None:
        if self._drop_hook is not None:
            self._drop_hook(packet, reason)


class Link:
    """A full-duplex link between (node_a, port_a) and (node_b, port_b)."""

    def __init__(
        self,
        sim: Simulator,
        node_a: "Node",
        port_a: int,
        node_b: "Node",
        port_b: int,
        rate_mbps: float = 100.0,
        delay_s: float = 0.001,
        queue_packets: int = 50,
        drop_hook: Optional[Callable[[Packet, str], None]] = None,
    ):
        ends = f"link {node_a.name}:{port_a} <-> {node_b.name}:{port_b}"
        if not (math.isfinite(rate_mbps) and rate_mbps > 0):
            raise ValueError(f"{ends}: rate_mbps={rate_mbps} is not finite and > 0")
        if not (math.isfinite(delay_s) and delay_s >= 0):
            raise ValueError(f"{ends}: delay_s={delay_s} is not finite and >= 0")
        if queue_packets < 0:
            raise ValueError(f"{ends}: queue_packets={queue_packets} is < 0")
        self.node_a, self.port_a = node_a, port_a
        self.node_b, self.port_b = node_b, port_b
        self.rate_mbps = rate_mbps
        self._up = True
        self._ab = Channel(
            sim, rate_mbps, delay_s, queue_packets, node_b, port_b, drop_hook
        )
        self._ba = Channel(
            sim, rate_mbps, delay_s, queue_packets, node_a, port_a, drop_hook
        )
        node_a.attach(port_a, self)
        node_b.attach(port_b, self)

    @property
    def up(self) -> bool:
        return self._up

    def set_up(self, up: bool) -> None:
        """Bring the link up/down; notifies both endpoint nodes."""
        if up == self._up:
            return
        self._up = up
        self._ab.set_up(up)
        self._ba.set_up(up)
        # Invalidate cached port state *before* the hooks run: a hook
        # (or anything it schedules) may query healthy_ports(), and
        # instance-level on_link_state overrides must not bypass
        # invalidation.
        self.node_a.ports_changed()
        self.node_b.ports_changed()
        self.node_a.on_link_state(self.port_a, up)
        self.node_b.on_link_state(self.port_b, up)

    def channel_from(self, node: "Node") -> Channel:
        if node is self.node_a:
            return self._ab
        if node is self.node_b:
            return self._ba
        raise ValueError(f"{node!r} is not an endpoint of this link")

    def peer_of(self, node: "Node") -> "Node":
        if node is self.node_a:
            return self.node_b
        if node is self.node_b:
            return self.node_a
        raise ValueError(f"{node!r} is not an endpoint of this link")

    @property
    def stats_ab(self) -> ChannelStats:
        return self._ab.stats

    @property
    def stats_ba(self) -> ChannelStats:
        return self._ba.stats
