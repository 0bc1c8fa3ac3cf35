"""Packet and header models.

A packet carries:

* host-layer addressing (source/destination host names — standing in
  for IP addresses, which KAR route IDs are "completely decoupled
  from"),
* the KAR header (route ID + deflected flag + TTL), attached by the
  ingress edge and stripped at the egress edge,
* a transport payload (a TCP segment or UDP datagram object),
* bookkeeping (unique ID, creation time, hop count) used by tracing and
  metrics.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

__all__ = ["KarHeader", "Packet", "DEFAULT_TTL"]

#: Default KAR hop limit.  The paper does not state one; random-walk
#: deflections (Hot-Potato) need a TTL to terminate, and 64 matches the
#: common IP default.
DEFAULT_TTL = 64

_uid_counter = itertools.count(1)


@dataclass(slots=True)
class KarHeader:
    """The KAR shim header.

    Attributes:
        route_id: the CRT-encoded route (``R``).
        modulus: product of the encoded switch IDs — not carried on the
            wire (switches never need it) but kept for header-size
            accounting (Eq. 9) and debugging.
        deflected: set by the first deflection; Hot-Potato switches treat
            flagged packets as pure random-walkers.
        ttl: remaining hop budget; decremented per core switch.
        residues: optional ``switch_id -> residue`` hint precomputed at
            encode time.  Not on the wire either — in hardware the
            modulo is free, so the emulation is allowed to remember
            ``R mod s_i`` instead of redoing big-int arithmetic per
            hop.  Purely an acceleration: ``residues[s] == route_id % s``
            for every encoded switch, so behaviour is bit-identical.
    """

    route_id: int
    modulus: int = 0
    deflected: bool = False
    ttl: int = DEFAULT_TTL
    residues: Optional[Mapping[int, int]] = None

    @property
    def header_bits(self) -> int:
        """Wire size of the route-ID field for this route (Eq. 9)."""
        if self.modulus < 2:
            return max(1, self.route_id.bit_length())
        from repro.rns.bitlength import route_id_bit_length

        return route_id_bit_length(self.modulus)


@dataclass(slots=True)
class Packet:
    """One simulated packet.

    ``size_bytes`` is the full on-wire size (headers + payload) and
    drives serialization delay; the KAR header's extra bits are already
    expected to be included by the sender's accounting.
    """

    src_host: str
    dst_host: str
    size_bytes: int
    payload: Any = None
    kar: Optional[KarHeader] = None
    created_at: float = 0.0
    uid: int = field(default_factory=_uid_counter.__next__)
    hops: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {self.size_bytes}")

    def __repr__(self) -> str:  # compact, for traces
        kar = ""
        if self.kar is not None:
            kar = f" R={self.kar.route_id}{'*' if self.kar.deflected else ''}"
        return (
            f"<pkt#{self.uid} {self.src_host}->{self.dst_host} "
            f"{self.size_bytes}B{kar}>"
        )
