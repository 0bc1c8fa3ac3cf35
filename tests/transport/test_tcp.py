"""Unit tests for the TCP Reno/NewReno implementation.

The rig wires two hosts through a middle box that can drop, delay or
reorder selected segments — no KAR involved, pure transport behaviour.
"""

import pytest

from repro.sim import Link, Packet, Simulator
from repro.sim.node import Node
from repro.transport import TcpReceiver, TcpSegment, TcpSender
from repro.transport.host import Host
from repro.transport.tcp import RWND


class MiddleBox(Node):
    """Two-port pipe with programmable interference on data segments."""

    def __init__(self, name, sim):
        super().__init__(name, sim, 2)
        self.drop_seqs = set()        # data seqs to drop once
        self.delay_seqs = {}          # data seq -> extra delay (once)

    def receive(self, packet, in_port):
        out = 1 - in_port
        seg = packet.payload
        if isinstance(seg, TcpSegment) and not seg.is_ack:
            if seg.seq in self.drop_seqs:
                self.drop_seqs.discard(seg.seq)
                return
            if seg.seq in self.delay_seqs:
                delay = self.delay_seqs.pop(seg.seq)
                self.sim.schedule(delay, self.send, out, packet)
                return
        self.send(out, packet)


@pytest.fixture
def rig():
    sim = Simulator()
    src = Host("hs", sim)
    dst = Host("hd", sim)
    box = MiddleBox("mb", sim)
    Link(sim, src, 0, box, 0, rate_mbps=10.0, delay_s=0.001, queue_packets=100)
    Link(sim, box, 1, dst, 0, rate_mbps=10.0, delay_s=0.001, queue_packets=100)
    sender = TcpSender(sim, src, "hd", "f1", mss=1000, min_rto=0.2)
    receiver = TcpReceiver(sim, dst, "hs", "f1")
    return sim, sender, receiver, box


class TestBulkTransfer:
    def test_finite_transfer_completes(self, rig):
        sim, snd, rcv, box = rig
        snd.max_data = 50_000
        snd.start()
        sim.run_until(5.0)
        assert rcv.bytes_received == 50_000
        assert snd.bytes_acked == 50_000
        assert snd.retransmits == 0

    def test_throughput_near_line_rate(self, rig):
        sim, snd, rcv, box = rig
        snd.start()
        sim.run_until(10.0)
        goodput = rcv.bytes_received * 8 / 10.0 / 1e6
        assert goodput > 8.0  # >80 % of the 10 Mbit/s line

    def test_sequence_space_in_order_without_loss(self, rig):
        sim, snd, rcv, box = rig
        snd.max_data = 20_000
        snd.start()
        sim.run_until(2.0)
        seqs = [s for _, s in rcv.arrivals]
        assert seqs == sorted(seqs)

    def test_slow_start_doubles(self, rig):
        sim, snd, rcv, box = rig
        start_cwnd = snd.cwnd
        snd.start()
        sim.run_until(0.05)  # a few RTTs (RTT ~ 5 ms)
        assert snd.cwnd > 2 * start_cwnd

    def test_delayed_start(self, rig):
        sim, snd, rcv, box = rig
        snd.start(at=1.0)
        sim.run_until(0.9)
        assert rcv.bytes_received == 0
        sim.run_until(2.0)
        assert rcv.bytes_received > 0


class TestLossRecovery:
    def test_fast_retransmit_recovers_single_loss(self, rig):
        sim, snd, rcv, box = rig
        box.drop_seqs.add(10_000)  # drop one mid-stream segment
        snd.max_data = 60_000
        snd.start()
        sim.run_until(5.0)
        assert rcv.bytes_received == 60_000
        assert snd.fast_retransmits == 1
        assert snd.timeouts == 0

    def test_window_halved_after_loss(self, rig):
        sim, snd, rcv, box = rig
        box.drop_seqs.add(30_000)
        snd.start()
        pre = []
        sim.schedule_at(0.2, lambda: pre.append(snd.cwnd))
        sim.run_until(5.0)
        assert snd.fast_retransmits >= 1
        assert snd.ssthresh < RWND

    def test_rto_recovers_tail_loss(self, rig):
        sim, snd, rcv, box = rig
        # Lose the very last segment: no dupacks can arrive -> RTO path.
        snd.max_data = 10_000
        box.drop_seqs.add(9_000)
        snd.start()
        sim.run_until(5.0)
        assert rcv.bytes_received == 10_000
        assert snd.timeouts >= 1

    def test_multiple_losses_eventually_recover(self, rig):
        sim, snd, rcv, box = rig
        box.drop_seqs.update({5_000, 6_000, 7_000, 20_000})
        snd.max_data = 40_000
        snd.start()
        sim.run_until(10.0)
        assert rcv.bytes_received == 40_000


class TestReorderingTolerance:
    def test_mild_reordering_without_adaptation_retransmits(self, rig):
        sim, snd, rcv, box = rig
        snd.reorder_adaptation = False
        box.delay_seqs[10_000] = 0.02  # ~ dozens of packets late
        snd.max_data = 80_000
        snd.start()
        sim.run_until(5.0)
        assert rcv.bytes_received == 80_000
        assert snd.fast_retransmits >= 1

    def test_eifel_spurious_recovery_raises_threshold(self):
        # White-box Eifel: three dup-ACKs trigger a fast retransmit at
        # t=0.01; the ACK that fills the hole echoes a timestamp from
        # *before* the retransmission (the original copy arrived), so
        # the recovery is spurious: undo the window cut, raise the
        # dup-ACK threshold past the streak.
        sim = Simulator()
        host = Host("hx", sim)  # port uncabled: outgoing packets vanish
        snd = TcpSender(sim, host, "hd", "fx", mss=1000)
        snd.start()
        cwnd_before = snd.cwnd

        def ack(n, ts_echo=0.0):
            return Packet(
                src_host="hd", dst_host="hx", size_bytes=66,
                payload=TcpSegment(flow_id="fx", ack=n, is_ack=True,
                                   ts_echo=ts_echo),
            )

        def dupacks():
            for _ in range(3):
                snd.on_packet(ack(0, ts_echo=0.005))
            assert snd.in_recovery
            assert snd.fast_retransmits == 1

        def hole_fills():
            # ts_echo 0.005 < retransmit time 0.01 -> original arrived.
            snd.on_packet(ack(snd.recover_point, ts_echo=0.005))

        sim.schedule_at(0.01, dupacks)
        sim.schedule_at(0.012, hole_fills)
        sim.run_until(0.013)
        assert not snd.in_recovery
        assert snd.spurious_recoveries == 1
        assert snd.dupack_threshold > 3
        assert snd.cwnd >= cwnd_before  # window cut undone

    def test_genuine_recovery_does_not_raise_threshold(self):
        # Same dance, but the hole-filling ACK echoes the *retransmit's*
        # timestamp (>= retransmit time): a genuine loss recovery.
        sim = Simulator()
        host = Host("hy", sim)
        snd = TcpSender(sim, host, "hd", "fy", mss=1000)
        snd.start()

        def ack(n, ts_echo=0.0):
            return Packet(
                src_host="hd", dst_host="hy", size_bytes=66,
                payload=TcpSegment(flow_id="fy", ack=n, is_ack=True,
                                   ts_echo=ts_echo),
            )

        def dupacks():
            for _ in range(3):
                snd.on_packet(ack(0, ts_echo=0.005))
            assert snd.in_recovery

        def hole_fills():
            snd.on_packet(ack(snd.recover_point, ts_echo=0.011))

        sim.schedule_at(0.01, dupacks)
        sim.schedule_at(0.05, hole_fills)
        sim.run_until(0.051)  # bounded: the RTO timer re-arms forever
        assert not snd.in_recovery
        assert snd.spurious_recoveries == 0
        assert snd.dupack_threshold == 3
        assert snd.cwnd == snd.ssthresh  # deflated, not restored

    def test_receiver_buffers_out_of_order(self, rig):
        sim, snd, rcv, box = rig
        box.delay_seqs[5_000] = 0.01
        snd.max_data = 20_000
        snd.start()
        sim.run_until(5.0)
        assert rcv.bytes_received == 20_000
        seqs = [s for _, s in rcv.arrivals]
        assert seqs != sorted(seqs)  # arrivals really were out of order


class TestRttEstimation:
    def test_srtt_close_to_path_rtt(self, rig):
        sim, snd, rcv, box = rig
        snd.max_data = 100_000
        snd.start()
        sim.run_until(3.0)
        # Path RTT: 4 ms propagation + serialization + queueing.
        assert snd.srtt is not None
        assert 0.003 < snd.srtt < 0.08

    def test_rto_at_least_minimum(self, rig):
        sim, snd, rcv, box = rig
        snd.start()
        sim.run_until(1.0)
        assert snd.rto >= snd.min_rto


class TestValidation:
    def test_bad_mss(self, rig):
        sim, snd, rcv, box = rig
        with pytest.raises(ValueError):
            TcpSender(sim, Host("hx", sim), "hd", "f2", mss=0)

    def test_double_start(self, rig):
        sim, snd, rcv, box = rig
        snd.start()
        with pytest.raises(RuntimeError):
            snd.start()

    def test_duplicate_flow_registration(self, rig):
        sim, snd, rcv, box = rig
        with pytest.raises(ValueError, match="already registered"):
            TcpSender(sim, snd.host, "hd", "f1")
