"""TCP Reno/NewReno transport over the simulated network.

This is the measurement instrument of the reproduction: the paper's
results are *TCP throughput under deflection-induced reordering*, and
the mechanism that converts reordering into throughput loss is TCP's
congestion control — duplicate ACKs from out-of-order arrivals trigger
spurious fast retransmits and window reductions.  We implement:

* slow start / congestion avoidance (byte-counted),
* fast retransmit on 3 duplicate ACKs + NewReno fast recovery with
  partial-ACK retransmission,
* RTO estimation (SRTT/RTTVAR, RFC 6298 style) with Karn's rule and
  exponential backoff,
* a cumulative-ACK receiver with an out-of-order reassembly buffer that
  logs every arrival for reordering analysis.

Sizes are in bytes; sequence numbers start at 0 and count payload bytes.
The connection is modeled as pre-established (no SYN/FIN handshakes —
iperf measurements in the paper run long enough that setup is noise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.engine import EventHandle, Simulator
from repro.sim.packet import Packet
from repro.transport.host import Host

__all__ = ["TcpSegment", "TcpSender", "TcpReceiver", "TCP_HEADER_BYTES"]

#: Bytes of combined framing per segment: L2 + IP + TCP + the KAR shim.
#: (Table 1 routes need at most 43 bits, comfortably inside 8 bytes.)
TCP_HEADER_BYTES = 66

#: Receiver window the sender assumes (bytes) — static.
RWND = 262144

#: RTO before the first RTT sample (seconds).
INITIAL_RTO = 0.5

#: Slow-start threshold at connection start (bytes).
INITIAL_SSTHRESH = 65536.0

#: Duplicate ACKs that trigger fast retransmit, and the ceiling that
#: reorder adaptation may raise that count to.
DUPACK_THRESHOLD = 3
MAX_DUPACK_THRESHOLD = 12


@dataclass
class TcpSegment:
    """A TCP segment payload (data or pure ACK).

    ``ts`` / ``ts_echo`` model the RFC 7323 timestamp option: data
    segments carry their send time, ACKs echo the timestamp of the
    segment that triggered them.  The sender's Eifel detection compares
    the echo against its retransmit time to recognise spurious fast
    retransmits caused by reordering.
    """

    flow_id: str
    seq: int = 0
    length: int = 0
    ack: int = 0
    is_ack: bool = False
    ts: float = 0.0
    ts_echo: float = 0.0


class TcpSender:
    """Bulk-data TCP Reno/NewReno sender (the iperf client).

    Args:
        sim: event engine.
        host: local host node (packets are injected here).
        dst_host: destination host name.
        flow_id: flow identifier shared with the receiver.
        mss: maximum segment size (payload bytes).
        min_rto / max_rto: RTO clamps, seconds.
        reorder_adaptation: undo a fast recovery that the echoed
            timestamp shows was spurious, and raise the duplicate-ACK
            threshold (up to :data:`MAX_DUPACK_THRESHOLD`).
        max_data: stop after this many payload bytes (None = unlimited).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        dst_host: str,
        flow_id: str,
        mss: int = 1400,
        min_rto: float = 0.2,
        max_rto: float = 60.0,
        reorder_adaptation: bool = True,
        max_data: Optional[int] = None,
    ):
        if mss <= 0:
            raise ValueError(f"mss must be positive, got {mss}")
        self.sim = sim
        self.host = host
        self.dst_host = dst_host
        self.flow_id = flow_id
        self.mss = mss
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.dupack_threshold = DUPACK_THRESHOLD
        self.reorder_adaptation = reorder_adaptation
        self.max_data = max_data

        # Connection state.
        self.send_base = 0          # lowest unacknowledged byte
        self.next_seq = 0           # next new byte to transmit
        self.cwnd = float(2 * mss)
        self.ssthresh = INITIAL_SSTHRESH
        self.dupacks = 0
        self.in_recovery = False
        self.recover_point = 0
        self._recovery_entered_at = 0.0
        self._cwnd_before_recovery = 0.0
        self._ssthresh_before_recovery = 0.0
        self._rtx_sent_at = 0.0  # when the fast retransmit left (Eifel)
        self._rewound_until = 0  # bytes below this resend as retransmits
        self.spurious_recoveries = 0

        # RTT estimation.
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self.rto = INITIAL_RTO
        self._probe: Optional[Tuple[int, float]] = None  # (end_seq, sent_at)
        self._rto_timer: Optional[EventHandle] = None

        # Counters.
        self.segments_sent = 0
        self.retransmits = 0
        self.fast_retransmits = 0
        self.timeouts = 0
        self.started = False
        host.register(flow_id, self)

    # ------------------------------------------------------------------
    # public controls
    # ------------------------------------------------------------------
    def start(self, at: Optional[float] = None) -> None:
        """Begin transmitting (now, or at an absolute time)."""
        if self.started:
            raise RuntimeError(f"flow {self.flow_id!r} already started")
        self.started = True
        if at is None or at <= self.sim.now:
            self._try_send()
        else:
            self.sim.schedule_at(at, self._try_send)

    @property
    def flight_size(self) -> int:
        return self.next_seq - self.send_base

    @property
    def bytes_acked(self) -> int:
        return self.send_base

    # ------------------------------------------------------------------
    # receive path (ACKs from the receiver)
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet) -> None:
        seg = packet.payload
        if not isinstance(seg, TcpSegment) or not seg.is_ack:
            return
        ack = seg.ack
        if ack > self.send_base:
            self._new_ack(ack, seg.ts_echo)
        elif ack == self.send_base and self.flight_size > 0:
            self._dup_ack()
        self._try_send()

    def _new_ack(self, ack: int, ts_echo: float) -> None:
        newly = ack - self.send_base
        self.send_base = ack
        self._sample_rtt(ack)
        if self.in_recovery and self._eifel_spurious(ts_echo):
            self._undo_spurious_recovery()
        if self.in_recovery:
            if ack >= self.recover_point:
                # Full ACK: leave recovery, deflate to ssthresh.
                self.in_recovery = False
                self.cwnd = max(self.ssthresh, float(self.mss))
                self.dupacks = 0
            else:
                # NewReno partial ACK: the next hole is lost too.
                self._retransmit(self.send_base)
                self.cwnd = max(self.cwnd - newly + self.mss, float(self.mss))
        else:
            self.dupacks = 0
            self._grow_cwnd(newly)
        self._restart_rto()

    def _grow_cwnd(self, newly: int) -> None:
        """Congestion-avoidance growth on a new ACK (Reno: AIMD).

        Subclasses override this (and :meth:`_loss_backoff`) to plug in
        a different congestion-control law — see
        :class:`~repro.transport.cubic.CubicTcpSender`.
        """
        if self.cwnd < self.ssthresh:
            self.cwnd += min(newly, self.mss)   # slow start
        else:
            self.cwnd += self.mss * self.mss / self.cwnd  # AIMD

    def _loss_backoff(self) -> float:
        """New ssthresh on a congestion event (Reno: half the flight)."""
        return max(self.flight_size / 2.0, 2.0 * self.mss)

    def _eifel_spurious(self, ts_echo: float) -> bool:
        """Eifel detection (RFC 3522): was the fast retransmit needless?

        The first ACK advancing past the retransmitted hole echoes the
        timestamp of the segment that filled it.  If that timestamp
        predates the retransmission, the *original* copy arrived — the
        segment was reordered, not lost.
        """
        return (
            self.reorder_adaptation
            and ts_echo > 0.0
            and ts_echo < self._rtx_sent_at
        )

    def _undo_spurious_recovery(self) -> None:
        """Undo a spurious fast recovery and raise reordering tolerance.

        Mirrors Linux: restore cwnd/ssthresh (Eifel response) and raise
        the duplicate-ACK threshold past the observed reordering depth
        (the ``tp->reordering`` metric) so similar reordering no longer
        triggers recovery at all.
        """
        self.spurious_recoveries += 1
        self.in_recovery = False
        self.cwnd = max(self.cwnd, self._cwnd_before_recovery)
        self.ssthresh = max(self.ssthresh, self._ssthresh_before_recovery)
        self.dupack_threshold = min(
            max(self.dupack_threshold + 1, self.dupacks + 1),
            MAX_DUPACK_THRESHOLD,
        )
        self.dupacks = 0

    def _dup_ack(self) -> None:
        self.dupacks += 1
        if self.in_recovery:
            self.cwnd += self.mss  # window inflation
            return
        if self.dupacks == self.dupack_threshold:
            # Fast retransmit + enter fast recovery.
            self._cwnd_before_recovery = self.cwnd
            self._ssthresh_before_recovery = self.ssthresh
            self._recovery_entered_at = self.sim.now
            self._rtx_sent_at = self.sim.now
            self.ssthresh = self._loss_backoff()
            self._retransmit(self.send_base)
            self.fast_retransmits += 1
            self.cwnd = self.ssthresh + self.dupack_threshold * self.mss
            self.in_recovery = True
            self.recover_point = self.next_seq
            self._restart_rto()

    # ------------------------------------------------------------------
    # transmit path
    # ------------------------------------------------------------------
    def _window(self) -> float:
        return min(self.cwnd, float(RWND))

    def _try_send(self) -> None:
        if not self.started:
            return
        while self.flight_size + self.mss <= self._window():
            if self.max_data is not None and self.next_seq >= self.max_data:
                break
            length = self.mss
            if self.max_data is not None:
                length = min(length, self.max_data - self.next_seq)
            self._send_segment(
                self.next_seq, length,
                retransmission=self.next_seq < self._rewound_until,
            )
            self.next_seq += length
        if self._rto_timer is None and self.flight_size > 0:
            self._restart_rto()

    def _send_segment(self, seq: int, length: int, retransmission: bool) -> None:
        seg = TcpSegment(
            flow_id=self.flow_id, seq=seq, length=length, ts=self.sim.now
        )
        packet = Packet(
            src_host=self.host.name,
            dst_host=self.dst_host,
            size_bytes=length + TCP_HEADER_BYTES,
            payload=seg,
            created_at=self.sim.now,
        )
        self.segments_sent += 1
        if retransmission:
            self.retransmits += 1
            if self._probe is not None and self._probe[0] > seq:
                self._probe = None  # Karn: never time retransmitted data
        elif self._probe is None:
            self._probe = (seq + length, self.sim.now)
        self.host.inject(packet)

    def _retransmit(self, seq: int) -> None:
        length = self.mss
        if self.max_data is not None:
            length = min(length, self.max_data - seq)
        if length <= 0:
            return
        self._send_segment(seq, length, retransmission=True)

    # ------------------------------------------------------------------
    # timers / RTT
    # ------------------------------------------------------------------
    def _sample_rtt(self, ack: int) -> None:
        if self._probe is None:
            return
        end_seq, sent_at = self._probe
        if ack < end_seq:
            return
        sample = self.sim.now - sent_at
        self._probe = None
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = min(
            max(self.srtt + 4.0 * self.rttvar, self.min_rto), self.max_rto
        )

    def _restart_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None
        if self.flight_size > 0:
            self._rto_timer = self.sim.schedule(self.rto, self._on_rto)

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.flight_size == 0:
            return
        self.timeouts += 1
        self.ssthresh = self._loss_backoff()
        self.cwnd = float(self.mss)
        self.in_recovery = False
        self.dupacks = 0
        self._probe = None
        # Go-back-N: everything outstanding is presumed lost; rewind the
        # send pointer so slow start retransmits the whole window (the
        # receiver discards what it already buffered).  Without this the
        # sender can deadlock: flight stays >= cwnd forever and only the
        # backed-off timer ever retransmits one segment at a time.
        self._rewound_until = max(self._rewound_until, self.next_seq)
        self.next_seq = self.send_base
        self._try_send()
        self.rto = min(self.rto * 2.0, self.max_rto)  # exponential backoff
        # _try_send may have armed a timer with the pre-backoff RTO;
        # _restart_rto cancels it before arming the backed-off one
        # (double-armed timers would multiply into an RTO storm).
        self._restart_rto()


class TcpReceiver:
    """Cumulative-ACK receiver with out-of-order buffering (iperf server).

    Every data arrival is acknowledged immediately (no delayed ACKs):
    immediate ACKs are what RFC 5681 prescribes for out-of-order
    segments, and they are what makes reordering visible to the sender.
    """

    def __init__(
        self, sim: Simulator, host: Host, src_host: str, flow_id: str
    ):
        self.sim = sim
        self.host = host
        self.src_host = src_host
        self.flow_id = flow_id
        self.rcv_next = 0
        self._ooo: Dict[int, int] = {}  # seq -> length
        self.arrivals: List[Tuple[float, int]] = []  # (time, seq)
        self.data_segments = 0
        self.duplicate_segments = 0
        self.acks_sent = 0
        host.register(flow_id, self)

    @property
    def bytes_received(self) -> int:
        """In-order bytes delivered to the application."""
        return self.rcv_next

    def on_packet(self, packet: Packet) -> None:
        seg = packet.payload
        if not isinstance(seg, TcpSegment) or seg.is_ack or seg.length == 0:
            return
        self.data_segments += 1
        self.arrivals.append((self.sim.now, seg.seq))
        if seg.seq == self.rcv_next:
            self.rcv_next += seg.length
            self._drain_buffer()
        elif seg.seq > self.rcv_next:
            self._ooo.setdefault(seg.seq, seg.length)
        else:
            self.duplicate_segments += 1
        self._send_ack(ts_echo=seg.ts)

    def _drain_buffer(self) -> None:
        while self.rcv_next in self._ooo:
            self.rcv_next += self._ooo.pop(self.rcv_next)

    def _send_ack(self, ts_echo: float) -> None:
        # RFC 7323 flavour: echo the timestamp of the segment that
        # triggered this ACK (what the sender's Eifel check needs).
        ack = TcpSegment(
            flow_id=self.flow_id, ack=self.rcv_next, is_ack=True,
            ts_echo=ts_echo,
        )
        packet = Packet(
            src_host=self.host.name,
            dst_host=self.src_host,
            size_bytes=TCP_HEADER_BYTES,
            payload=ack,
            created_at=self.sim.now,
        )
        self.acks_sent += 1
        self.host.inject(packet)
