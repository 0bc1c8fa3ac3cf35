"""Property-based TCP stress tests.

Hypothesis drives random interference patterns (drops, delays) through
the middle box and asserts the stream invariants that must *always*
hold for a reliable transport:

* the receiver's in-order byte count eventually reaches the transfer
  size (reliability),
* the receiver never delivers bytes the sender did not send
  (integrity / no over-delivery),
* the connection never deadlocks with data outstanding and no timer
  armed (liveness of the state machine).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Link, Simulator
from repro.transport import CubicTcpSender, TcpReceiver, TcpSender
from repro.transport.host import Host
from tests.transport.test_tcp import MiddleBox

MSS = 1000
TRANSFER = 60_000
SEGMENTS = TRANSFER // MSS


def _run(drop_idx, delay_idx, delay_s, sender_cls):
    sim = Simulator()
    src = Host("hs", sim)
    dst = Host("hd", sim)
    box = MiddleBox("mb", sim)
    Link(sim, src, 0, box, 0, rate_mbps=10.0, delay_s=0.001,
         queue_packets=100)
    Link(sim, box, 1, dst, 0, rate_mbps=10.0, delay_s=0.001,
         queue_packets=100)
    sender = sender_cls(sim, src, "hd", "f1", mss=MSS, min_rto=0.1,
                        max_rto=1.0, max_data=TRANSFER)
    receiver = TcpReceiver(sim, dst, "hs", "f1")
    box.drop_seqs.update(i * MSS for i in drop_idx)
    for i in delay_idx:
        box.delay_seqs[i * MSS] = delay_s
    sender.start()
    sim.run_until(30.0)
    return sender, receiver


@settings(max_examples=12, deadline=None)
@given(
    drop_idx=st.sets(st.integers(0, SEGMENTS - 1), max_size=6),
    delay_idx=st.sets(st.integers(0, SEGMENTS - 1), max_size=6),
    delay_s=st.floats(0.001, 0.05),
)
def test_reno_stream_invariants(drop_idx, delay_idx, delay_s):
    sender, receiver = _run(drop_idx, delay_idx, delay_s, TcpSender)
    # Reliability: the full transfer completes despite interference.
    assert receiver.bytes_received == TRANSFER
    assert sender.send_base == TRANSFER
    # Integrity: nothing beyond the transfer is ever delivered.
    assert receiver.rcv_next <= TRANSFER


@settings(max_examples=8, deadline=None)
@given(
    drop_idx=st.sets(st.integers(0, SEGMENTS - 1), max_size=5),
    delay_s=st.floats(0.001, 0.03),
)
def test_cubic_stream_invariants(drop_idx, delay_s):
    sender, receiver = _run(drop_idx, set(), delay_s, CubicTcpSender)
    assert receiver.bytes_received == TRANSFER
    assert sender.send_base == TRANSFER


@settings(max_examples=10, deadline=None)
@given(
    drop_idx=st.sets(st.integers(0, SEGMENTS - 1), max_size=8),
    delay_idx=st.sets(st.integers(0, SEGMENTS - 1), max_size=8),
    delay_s=st.floats(0.001, 0.05),
)
def test_no_data_corruption_under_interference(drop_idx, delay_idx, delay_s):
    # Arrival log sequences must all be MSS-aligned sends the sender
    # actually made (no phantom bytes), and in-order delivery is a
    # prefix: rcv_next only ever covers contiguous data.
    sender, receiver = _run(drop_idx, delay_idx, delay_s, TcpSender)
    sent_seqs = set(range(0, TRANSFER, MSS))
    for _, seq in receiver.arrivals:
        assert seq in sent_seqs
    assert receiver.bytes_received % MSS == 0
