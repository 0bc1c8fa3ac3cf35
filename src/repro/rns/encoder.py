"""Route-ID encoding and decoding (the KAR "Key-for-Any-Route").

The controller-side encoder turns a list of ``(switch ID, output port)``
hops — the primary path plus any *driven deflection forwarding path*
hops — into a single integer route ID via the CRT (Section 2.2 of the
paper).  The switch-side decode is a single modulo operation
(:meth:`EncodedRoute.port_at`).

Because CRT addends are independent and the summation is commutative
(the paper's key observation in Section 2.2), hop order is irrelevant
and hops may be added, removed or re-pointed *incrementally* without
re-encoding the whole route (:meth:`RouteEncoder.with_hop`,
:meth:`RouteEncoder.without_switch`, :meth:`RouteEncoder.with_port`).
Incremental updates are what make partial protection and failure-time
re-routes cheap: one extra protection switch, or one changed exit port,
is one CRT step (:func:`~repro.rns.crt.crt_extend`) on the live route ID.

:class:`RouteEncoder` is *the* encoder for the integer ring and the
template for every other ring: ``encode`` / ``decode`` / ``with_hop`` /
``without_switch`` / ``with_port`` are written once over five ring
primitives (``solve``, ``extend``, ``port_at``, ``exact_div``,
``header_bits``), and a different ring — GF(2)[X] in
:class:`repro.rns.backends.XsrEncoder` — overrides only those plus its
ID-feasibility rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.rns.bitlength import route_id_bit_length
from repro.rns.coprime import min_id_for_ports, validate_pool
from repro.rns.crt import CrtError, crt, crt_extend

__all__ = ["Hop", "EncodedRoute", "RouteEncoder", "DuplicateSwitchError"]


class DuplicateSwitchError(CrtError):
    """A switch ID appears twice in one route.

    KAR's intrinsic constraint (Section 3.2 of the paper): a route ID
    stores exactly one residue per switch ID, so a switch can have only
    one output port per route — a path may not visit a switch twice with
    different exits, and a protection hop cannot override a primary hop.
    """

    def __init__(self, switch_id: int):
        self.switch_id = switch_id
        super().__init__(
            f"switch ID {switch_id} appears more than once; a KAR route ID "
            f"can encode only one output port per switch"
        )


@dataclass(frozen=True)
class Hop:
    """One forwarding decision: at switch *switch_id*, exit via *port*."""

    switch_id: int
    port: int

    def __post_init__(self) -> None:
        if self.switch_id <= 1:
            raise CrtError(f"switch ID must be > 1, got {self.switch_id}")
        if not 0 <= self.port < self.switch_id:
            raise CrtError(
                f"port {self.port} not addressable by switch ID "
                f"{self.switch_id} (valid ports: 0..{self.switch_id - 1})"
            )


@dataclass(frozen=True)
class EncodedRoute:
    """An encoded route: the integer key plus the hops it encodes.

    Attributes:
        route_id: the integer placed in the packet header (``R``).
        modulus: the product of all encoded switch IDs (``M``); the route
            ID is unique in ``[0, modulus)``.
        hops: the encoded ``(switch, port)`` pairs, in encoding order
            (order is cosmetic — the route ID is order-independent).
    """

    route_id: int
    modulus: int
    hops: Tuple[Hop, ...]
    # Memo for residue_map(); excluded from ==/hash/repr so routes still
    # compare by (route_id, modulus, hops) alone.
    _residues: Optional[Dict[int, int]] = field(
        default=None, compare=False, repr=False
    )

    def port_at(self, switch_id: int) -> int:
        """The forwarding decision a switch makes: ``route_id mod switch_id``.

        This works for *any* switch ID, including switches not encoded in
        the route — for those the result is effectively pseudo-random,
        which is exactly what a deflected packet experiences in the wild.
        """
        return self.route_id % switch_id

    @property
    def switch_ids(self) -> Tuple[int, ...]:
        return tuple(h.switch_id for h in self.hops)

    @property
    def bit_length(self) -> int:
        """Header bits required for this route (Eq. 9): ``ceil(log2(M-1))``."""
        return route_id_bit_length(self.modulus)

    def encodes(self, switch_id: int) -> bool:
        """True if *switch_id* has an intentional residue in this route."""
        return switch_id in self.residue_map()

    def residue_map(self) -> Dict[int, int]:
        """Mapping ``switch_id -> encoded output port``.

        Precomputed at first use and memoized: for every encoded switch,
        ``residue_map()[s] == route_id % s`` by CRT construction, so the
        controller can hand this dict to the edge as a per-packet residue
        hint and switches skip the big-int modulo entirely.  Treat the
        returned dict as read-only — it is shared by every packet on the
        route.
        """
        residues = self._residues
        if residues is None:
            residues = {h.switch_id: h.port for h in self.hops}
            object.__setattr__(self, "_residues", residues)
        return residues

    def __contains__(self, switch_id: int) -> bool:
        return self.encodes(switch_id)


class RouteEncoder:
    """Controller-side encoder for KAR route IDs over the integers.

    Two counters make :meth:`with_port` observable: ``deltas_applied``
    (re-pointed residues) and ``identity_skips`` (no-op changes that
    returned the route itself); the controller service's ``/stats``
    serves both.

    Attributes:
        name: registry key (also the CLI / artifact spelling).
        id_strategy: the ``controller.idassign`` strategy producing IDs
            this ring can always consume.
    """

    name = "crt"
    id_strategy = "greedy"
    route_type = EncodedRoute

    def __init__(self) -> None:
        self.deltas_applied = 0
        self.identity_skips = 0

    # -- the five ring primitives ---------------------------------------

    solve = staticmethod(crt)
    extend = staticmethod(crt_extend)

    def port_at(self, route_id: int, switch_id: int) -> int:
        """The ring remainder — the per-packet switch decode (Eq. 3)."""
        return route_id % switch_id

    def exact_div(self, modulus: int, switch_id: int) -> int:
        """``M / s`` for a switch ID that divides the modulus."""
        quotient, rem = divmod(modulus, switch_id)
        if rem:
            raise CrtError(
                f"modulus is not divisible by switch ID {switch_id}"
            )
        return quotient

    def header_bits(self, modulus: int) -> int:
        """Wire cost in bits of a route with product-of-IDs *modulus*."""
        return route_id_bit_length(modulus)

    # -- ID feasibility --------------------------------------------------

    def min_switch_id(self, port_count: int) -> int:
        """Smallest ID this ring accepts for a *port_count*-port switch."""
        return min_id_for_ports(port_count)

    def validate_switch_ids(self, ids: Sequence[int]) -> None:
        """Raise ``ValueError`` if *ids* cannot co-exist in one route."""
        validate_pool(ids)

    def residue_space(self, switch_id: int) -> int:
        """Number of residues decodable at *switch_id* (ports must be
        below this).  ``R mod s`` spans ``[0, s)``; GF(2) remainders span
        only ``[0, 2^deg(s))`` — the fuzzers and property suite draw
        ports from here so every ring sees its full valid range."""
        return switch_id

    def switch_decode(self) -> Optional[Callable[[int, int], int]]:
        """The decode callable to install in a :class:`KarSwitch`.

        ``None`` means "the switch's built-in integer ``R mod s``" — the
        integer ring returns None so the default datapath (and its
        digest contracts) stay byte-identical; other rings return their
        :meth:`port_at`.
        """
        return None

    # -- the template, written once over the primitives ------------------

    def encode(self, hops: Iterable[Hop]) -> EncodedRoute:
        """Encode hops into a route ID (Eq. 4).

        Raises:
            DuplicateSwitchError: if a switch ID repeats.
            NotCoprimeError: if the switch IDs are not pairwise coprime.
            CrtError: if a port is out of range for its switch ID.
        """
        hop_list = tuple(hops)
        residues: Dict[int, int] = {}
        for h in hop_list:
            if h.switch_id in residues:
                raise DuplicateSwitchError(h.switch_id)
            residues[h.switch_id] = h.port
        route_id, modulus = self.solve(
            list(residues.values()), list(residues)
        )
        return self.route_type(
            route_id=route_id, modulus=modulus, hops=hop_list,
            _residues=residues,
        )

    def encode_path(
        self, switch_ids: Sequence[int], ports: Sequence[int]
    ) -> EncodedRoute:
        """Convenience wrapper: parallel switch-ID / port sequences.

        >>> RouteEncoder().encode_path([4, 7, 11], [0, 2, 0]).route_id
        44
        >>> RouteEncoder().encode_path([4, 7, 11, 5], [0, 2, 0, 0]).route_id
        660
        """
        if len(switch_ids) != len(ports):
            raise CrtError(
                f"switch/port length mismatch: {len(switch_ids)} vs {len(ports)}"
            )
        return self.encode(Hop(s, p) for s, p in zip(switch_ids, ports))

    def decode(self, route_id: int, switch_ids: Sequence[int]) -> List[int]:
        """Recover the output ports a route ID dictates at each switch.

        This is what the data plane computes, exposed for analysis and
        testing (Eq. 3: ``p_i = R mod s_i``).
        """
        if route_id < 0:
            raise CrtError(f"route ID must be non-negative, got {route_id}")
        port_at = self.port_at
        return [port_at(route_id, s) for s in switch_ids]

    def with_hop(self, route: EncodedRoute, hop: Hop) -> EncodedRoute:
        """Fold one extra hop into an existing route ID, incrementally.

        Solves the two-congruence system ``x ≡ R (mod M)``,
        ``x ≡ port (mod switch_id)`` directly instead of re-running the
        full CRT — O(1) modular inversions.  This is the primitive behind
        incremental (partial) protection: the controller can extend a
        live route with one more driven-deflection hop.

        Raises:
            DuplicateSwitchError: if the switch is already encoded.
            NotCoprimeError: if the new ID shares a factor with M.
        """
        residues = route.residue_map()
        if hop.switch_id in residues:
            raise DuplicateSwitchError(hop.switch_id)
        new_id, new_modulus = self.extend(
            route.route_id, route.modulus, hop.switch_id, hop.port
        )
        return self.route_type(
            route_id=new_id, modulus=new_modulus, hops=route.hops + (hop,),
            _residues={**residues, hop.switch_id: hop.port},
        )

    def without_switch(self, route: EncodedRoute, switch_id: int) -> EncodedRoute:
        """Remove a switch's residue from a route ID.

        The reduced route ID is simply ``R mod (M / s)`` — the CRT
        projection onto the remaining moduli.  Used when protection hops
        must be dropped to fit a header-bit budget (loose protection,
        Section 2.3).
        """
        if not route.encodes(switch_id):
            raise CrtError(f"switch ID {switch_id} is not encoded in this route")
        new_modulus = self.exact_div(route.modulus, switch_id)
        new_hops = tuple(h for h in route.hops if h.switch_id != switch_id)
        if not new_hops:
            raise CrtError("cannot remove the last hop of a route")
        return self.route_type(
            route_id=self.port_at(route.route_id, new_modulus),
            modulus=new_modulus,
            hops=new_hops,
            _residues={h.switch_id: h.port for h in new_hops},
        )

    def with_port(
        self, route: EncodedRoute, switch_id: int, new_port: int
    ) -> EncodedRoute:
        """Route with *switch_id*'s output port changed to *new_port*.

        The link-failure re-route primitive: project the route onto the
        other switches (``R mod (M / s)``, as :meth:`without_switch`
        does) and fold the new congruence back in with one ``extend`` —
        one CRT step, whatever the route's length.  By CRT uniqueness
        the result is bit-identical to a fresh :meth:`encode` of the
        mutated hop list; an identity change returns *route* itself.
        Like :meth:`with_hop` and :meth:`without_switch`, it trusts that
        ``route.modulus`` is the product of the route's switch IDs.

        Raises:
            CrtError: when *route* does not encode *switch_id* or the
                new port is out of range for it.
        """
        residues = route.residue_map()
        old_port = residues.get(switch_id)
        if old_port == new_port:
            self.identity_skips += 1
            return route
        if old_port is None:
            raise CrtError(
                f"switch ID {switch_id} is not encoded in this route"
            )
        rest = self.exact_div(route.modulus, switch_id)
        route_id, modulus = self.extend(
            self.port_at(route.route_id, rest), rest, switch_id, new_port
        )
        self.deltas_applied += 1
        return self.route_type(
            route_id=route_id,
            modulus=modulus,
            hops=tuple(
                Hop(switch_id, new_port) if h.switch_id == switch_id else h
                for h in route.hops
            ),
            _residues={**residues, switch_id: new_port},
        )
