"""The paper's three deflection techniques, plus the no-deflection baseline.

A deflection strategy answers one question per packet: *given the
modulo-computed output port, which port does the switch actually use?*
(Section 2.1 of the paper).

* :class:`NoDeflection` — drop when the computed port is unusable (what
  a plain KeyFlow switch would do; the paper's "no deflection" curve).
* :class:`HotPotato` (HP) — once a packet has been deflected anywhere,
  it random-walks: every subsequent switch picks a uniformly random
  healthy port.  The paper's lower-bound reference.
* :class:`AnyValidPort` (AVP) — always trust the modulo result when it
  is a valid, healthy port (even the input port); otherwise pick a
  uniformly random healthy port, input port included.
* :class:`NotInputPort` (NIP, Algorithm 1) — like AVP but the input
  port is never used, neither as computed nor as random choice; this
  kills two-node ping-pong loops.

Strategies are stateless; randomness comes from the switch's named RNG
stream so runs are reproducible and techniques are comparable on
matched seeds.

Each technique is stated twice: ``happy_mask`` (where it forwards on
the computed port) and ``fallback_ports`` (what it draws from
elsewhere), array arithmetic without numpy that reads the same on plain
values.  :meth:`DeflectionStrategy.decide`, the per-packet rule, is
written once over those two, and both are held to the paper's
transcription in :mod:`repro.verify.pseudocode` — decision by decision
by the ``strategy`` oracle, over whole runs by the ``datapath`` one.
"""

from __future__ import annotations

import random
from typing import Any, Optional, Tuple

__all__ = [
    "DeflectionStrategy",
    "NoDeflection",
    "HotPotato",
    "AnyValidPort",
    "NotInputPort",
    "strategy_by_name",
    "STRATEGY_NAMES",
]


class DeflectionStrategy:
    """Base class: one technique, stated over the same plain values.

    A technique is :meth:`happy_mask`, true where the packet forwards
    on the computed port, and :meth:`fallback_ports`, the candidate set
    it draws from everywhere else.  :meth:`decide` evaluates both on one
    packet's plain values; it is the per-hop rule every scalar engine
    calls — the DES switch, the epoch reference loop and the graph walk
    — while the flat epoch kernel runs the two over arrays.  A strategy
    that is not one of those two halves (the baselines' fixed failover
    tables, the pseudocode stand-in) overrides :meth:`decide` instead.
    """

    #: short name used in configs, reports and benchmark tables.
    name = "abstract"

    def decide(
        self,
        healthy: Tuple[int, ...],
        in_port: int,
        computed: int,
        deflected: bool,
        rng: random.Random,
    ) -> Tuple[Optional[int], bool]:
        """Pick the output port for one packet.

        Args:
            healthy: the switch's up ports, ascending.
            in_port: the port the packet arrived on.
            computed: ``R mod s`` — may exceed the port count.
            deflected: the packet's sticky deflected bit.
            rng: the switch's private stream; drawn from at most once.

        Returns:
            ``(port, deflected)``: the output port, or None to drop,
            and whether this hop departed from the computed port.
        """
        if self.happy_mask(computed in healthy, in_port, computed, deflected):
            return computed, False
        count, skip = self.fallback_ports(len(healthy), in_port in healthy)
        if not count:
            return None, False
        if skip:
            healthy = [p for p in healthy if p != in_port]
        return rng.choice(healthy), True

    def happy_mask(
        self, usable: Any, in_port: Any, computed: Any, deflected: Any
    ) -> Any:
        """Where the packet forwards on ``computed``, undeflected.

        ``usable`` is ``computed in healthy`` per packet; the arguments
        are equal-length arrays or one packet's plain values.  Written
        with ``&``/``>``/``!=`` only, so this module needs no numpy.
        """
        raise NotImplementedError

    def fallback_ports(
        self, up_ports: Any, in_port_up: Any
    ) -> Tuple[Any, Any]:
        """The candidate list a packet draws from off the happy path.

        From a switch's up-port count and the packet's "my in-port is
        up" bit: ``(count, skip)`` — how many candidates (0 = drop, no
        draw), and whether they are the up ports ascending *minus the
        in-port*.  ``-``/``*``/``&`` only, on arrays or plain ints alike.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} ({self.name})>"


class NoDeflection(DeflectionStrategy):
    """Forward on the computed port or drop — no failure reaction."""

    name = "none"

    def happy_mask(self, usable, in_port, computed, deflected):
        return usable

    def fallback_ports(self, up_ports, in_port_up):
        return up_ports * 0, in_port_up & False


class HotPotato(DeflectionStrategy):
    """HP: after the first deflection the packet random-walks forever."""

    name = "hp"

    def happy_mask(self, usable, in_port, computed, deflected):
        # Once deflected, "it follows a complete random path in network".
        # ``usable and not deflected``, as one comparison: ``~`` on a
        # plain bool is integer negation.
        return usable > deflected

    def fallback_ports(self, up_ports, in_port_up):
        return up_ports, in_port_up & False


class AnyValidPort(DeflectionStrategy):
    """AVP: modulo result when usable, else a random healthy port."""

    name = "avp"

    def happy_mask(self, usable, in_port, computed, deflected):
        return usable

    def fallback_ports(self, up_ports, in_port_up):
        return up_ports, in_port_up & False


class NotInputPort(DeflectionStrategy):
    """NIP (Algorithm 1): AVP, but never send a packet back where it came.

    The computed port is rejected when it equals the input port, and the
    input port is excluded from the random fallback set.
    """

    name = "nip"

    def happy_mask(self, usable, in_port, computed, deflected):
        return usable & (computed != in_port)

    def fallback_ports(self, up_ports, in_port_up):
        return up_ports - in_port_up, in_port_up


_REGISTRY = {
    cls.name: cls
    for cls in (NoDeflection, HotPotato, AnyValidPort, NotInputPort)
}

#: Names accepted by :func:`strategy_by_name`, in paper order.
STRATEGY_NAMES: Tuple[str, ...] = tuple(_REGISTRY)


def strategy_by_name(name: str) -> DeflectionStrategy:
    """Instantiate a strategy from its exact short name, one of
    :data:`STRATEGY_NAMES`; anything else is a :class:`ValueError`."""
    if isinstance(name, str) and name in _REGISTRY:
        return _REGISTRY[name]()
    raise ValueError(
        f"unknown deflection strategy {name!r}; "
        f"choose from {list(STRATEGY_NAMES)}"
    )
