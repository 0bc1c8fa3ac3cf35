"""The KAR core switch.

A core switch is deliberately tiny (the paper's whole point): it has no
forwarding table and no per-flow state.  Per packet it

1. checks/decrements the KAR TTL,
2. computes ``route_id mod switch_id`` (Eq. 3),
3. lets the configured deflection strategy turn that into an actual
   output port (or a drop),
4. flags the packet as deflected when the strategy departed from the
   computed port, and transmits.

Failure awareness is local only: the switch sees port carrier state
(``port_up``), never the topology.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.invariants import InvariantChecker
from repro.sim.node import Node
from repro.sim.packet import Packet
from repro.sim.trace import PacketTracer
from repro.switches.deflection import DeflectionStrategy

__all__ = ["KarSwitch"]


class KarSwitch(Node):
    """A stateless KAR core switch.

    Args:
        name: node name (e.g. ``"SW13"``).
        sim: event engine.
        num_ports: number of ports (topology degree).
        switch_id: the KAR modulo; must exceed ``num_ports - 1``.
        strategy: deflection technique (HP/AVP/NIP/none).
        rng: this switch's private random stream (deflection choices).
        tracer: optional packet tracer.
        decode: optional encoding-backend decode ``(route_id, switch_id)
            -> port`` (e.g. the XSR carry-less remainder).  ``None``
            keeps the default integer ``route_id % switch_id``; either is
            called only on a hop the packet's residue hint does not cover.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        num_ports: int,
        switch_id: int,
        strategy: DeflectionStrategy,
        rng: random.Random,
        tracer: Optional[PacketTracer] = None,
        invariants: Optional[InvariantChecker] = None,
        decode: Optional[Callable[[int, int], int]] = None,
    ):
        super().__init__(name, sim, num_ports)
        if switch_id <= num_ports - 1:
            raise ValueError(
                f"{name}: switch ID {switch_id} cannot address "
                f"{num_ports} ports"
            )
        self.switch_id = switch_id
        self.strategy = strategy
        self._decode = decode
        self._rng = rng
        self.tracer = tracer
        self.invariants = invariants
        # Local counters (cheap; kept even without a tracer).
        self.forwarded = 0
        self.deflections = 0
        self.drops = 0

    def receive(self, packet: Packet, in_port: int) -> None:
        kar = packet.kar
        if kar is None:
            self._drop(packet, "no-kar-header")
            return
        if kar.ttl <= 0:
            self._drop(packet, "ttl-expired")
            return
        kar.ttl -= 1
        packet.hops += 1

        # Residue: the encode-time hint for an on-path switch, else the
        # ring's decode of the route ID — `R mod s` either way.
        sid = self.switch_id
        computed = None
        residues = kar.residues
        if residues is not None:
            computed = residues.get(sid)
        if computed is None:
            if self._decode is None:
                computed = kar.route_id % sid
            else:
                computed = self._decode(kar.route_id, sid)
        healthy = self._healthy_cache
        if healthy is None:
            healthy = self.healthy_ports()
        out_port, deflected = self.strategy.decide(
            healthy, in_port, computed, kar.deflected, self._rng
        )
        if out_port is None:
            self._drop(packet, f"no-usable-port({self.strategy.name})")
            return
        if deflected:
            kar.deflected = True
            self.deflections += 1
        self.forwarded += 1
        if self.invariants is not None:
            # Decision and transmission are one atomic event, so the
            # checker sees exactly the port state the strategy saw.
            self.invariants.on_switch_forward(
                self.sim.now, self, packet, in_port, out_port
            )
        if self.tracer is not None:
            self.tracer.on_forward(
                self.sim.now, self.name, packet, in_port,
                out_port, deflected,
            )
        # decide() returns only healthy ports, which are all cabled.
        self._channels[out_port].send(packet)

    def _drop(self, packet: Packet, reason: str) -> None:
        self.drops += 1
        if self.tracer is not None:
            self.tracer.on_drop(self.sim.now, self.name, packet, reason)
        if self.invariants is not None:
            self.invariants.on_drop(self.sim.now, self.name, packet, reason)
