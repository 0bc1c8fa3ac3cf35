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

Each technique is stated three times: ``decide`` (the rule, one
packet), ``happy_mask`` (where it forwards on the computed port) and
``fallback_ports`` (what it draws from elsewhere) — the last two array
arithmetic without numpy, held to ``decide`` case by case in
``tests/switches/test_fastpath.py::TestStrategySplitEquivalence``.
"""

from __future__ import annotations

import random
from typing import Any, Optional, Sequence, Tuple

__all__ = [
    "DeflectionStrategy",
    "NoDeflection",
    "HotPotato",
    "AnyValidPort",
    "NotInputPort",
    "strategy_by_name",
    "STRATEGY_NAMES",
]


def _random_port(
    candidates: Sequence[int], rng: random.Random
) -> Tuple[Optional[int], bool]:
    """Deflect to a uniformly random candidate: one ``rng.choice`` draw,
    or a drop (and no draw) when there is none."""
    if not candidates:
        return None, False
    return rng.choice(candidates), True


class DeflectionStrategy:
    """Base class: one technique, stated over the same plain values.

    :meth:`decide` is the per-hop rule every scalar engine calls — the
    DES switch, the epoch reference loop and the graph walk.  The flat
    epoch kernel never calls it; it runs the rule's two array halves:
    :meth:`happy_mask`, true exactly where :meth:`decide` returns
    ``(computed, False)``, and :meth:`fallback_ports`, the candidate
    set :meth:`decide` hands to ``rng.choice`` everywhere else.  Only
    the built-in techniques that the epoch engines run need those two.
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
        raise NotImplementedError

    def happy_mask(
        self, usable: Any, in_port: Any, computed: Any, deflected: Any
    ) -> Any:
        """Array form of "``decide`` returns ``(computed, False)``".

        ``usable`` is ``computed in healthy`` per packet; all four
        arguments are equal-length arrays.  Written with ``&``/``~``/
        ``!=`` only, so this module needs no numpy import.
        """
        raise NotImplementedError

    def fallback_ports(
        self, up_ports: Any, in_port_up: Any
    ) -> Tuple[Any, Any]:
        """Array form of the list ``decide`` draws from off the happy path.

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

    def decide(self, healthy, in_port, computed, deflected, rng):
        if computed in healthy:
            return computed, False
        return None, False

    def happy_mask(self, usable, in_port, computed, deflected):
        return usable

    def fallback_ports(self, up_ports, in_port_up):
        return up_ports * 0, in_port_up & False


class HotPotato(DeflectionStrategy):
    """HP: after the first deflection the packet random-walks forever."""

    name = "hp"

    def decide(self, healthy, in_port, computed, deflected, rng):
        # Once deflected, "it follows a complete random path in network".
        if not deflected and computed in healthy:
            return computed, False
        return _random_port(healthy, rng)

    def happy_mask(self, usable, in_port, computed, deflected):
        return usable & ~deflected

    def fallback_ports(self, up_ports, in_port_up):
        return up_ports, in_port_up & False


class AnyValidPort(DeflectionStrategy):
    """AVP: modulo result when usable, else a random healthy port."""

    name = "avp"

    def decide(self, healthy, in_port, computed, deflected, rng):
        if computed in healthy:
            return computed, False
        return _random_port(healthy, rng)

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

    def decide(self, healthy, in_port, computed, deflected, rng):
        if computed != in_port and computed in healthy:
            return computed, False
        return _random_port([p for p in healthy if p != in_port], rng)

    def happy_mask(self, usable, in_port, computed, deflected):
        return usable & (computed != in_port)

    def fallback_ports(self, up_ports, in_port_up):
        return up_ports - in_port_up, in_port_up


_REGISTRY = {
    cls.name: cls
    for cls in (NoDeflection, HotPotato, AnyValidPort, NotInputPort)
}

#: Names accepted by :func:`strategy_by_name`, in paper order.
STRATEGY_NAMES: Tuple[str, ...] = ("none", "hp", "avp", "nip")


def strategy_by_name(name: str) -> DeflectionStrategy:
    """Instantiate a strategy from its short name ('none'/'hp'/'avp'/'nip')."""
    try:
        return _REGISTRY[name.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown deflection strategy {name!r}; "
            f"choose from {sorted(_REGISTRY)}"
        ) from None
