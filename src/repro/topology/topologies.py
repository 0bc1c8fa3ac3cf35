"""The paper's network scenarios, reconstructed.

The paper prints its topologies (Figs. 1, 2, 6, 8) as images; the text
pins a large set of constraints — switch IDs, routes, protection
segments, deflection-candidate sets, Table 1 bit lengths — and the
reconstructions here satisfy *all* of them (see DESIGN.md §5 for the
constraint-by-constraint derivation).  Tests in
``tests/topology/test_paper_constraints.py`` assert each constraint.

Every builder returns a :class:`Scenario`: the port graph plus the
declarative experiment inputs (primary route, protection segments per
level, the failure links the paper studies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.topology.graph import NodeKind, PortGraph, TopologyError

__all__ = [
    "ProtectionSegment",
    "Scenario",
    "six_node",
    "fifteen_node",
    "rnp28",
    "redundant_path",
    "UNPROTECTED",
    "PARTIAL",
    "FULL",
]

# Protection-level names used across scenarios, experiments and benches.
UNPROTECTED = "unprotected"
PARTIAL = "partial"
FULL = "full"


@dataclass(frozen=True)
class ProtectionSegment:
    """One driven-deflection hop: at switch *at*, drive packets to *to*.

    A protection level is a set of these segments; the controller encodes
    each as an extra CRT residue (switch ``at``'s output port toward
    ``to``), forming a logical tree rooted at the destination (Fig. 1b).
    """

    at: str
    to: str


@dataclass(frozen=True)
class Scenario:
    """A complete experiment scenario.

    Attributes:
        name: scenario identifier (used in reports).
        graph: the port graph (switch IDs, link rates/delays).
        primary_route: core-switch names along the selected route,
            ingress-first.  The paper's controller "by any reason"
            selects this route; it is an input, not derived.
        src_host / dst_host: the measured flow's endpoints.
        protection: protection-level name -> protection segments.
        reverse_protection: protection-level name -> segments protecting
            the *reverse* (ACK) route ID.  The paper only discusses the
            measured direction; a TCP flow also needs its ACK stream to
            find the source after deflection, so scenarios may pin a
            small reverse tree as well (empty = ACKs rely on deflection
            alone).
        failure_links: the single-link failure cases the paper studies,
            as (node, node) pairs on the primary route.
        notes: provenance notes (what the paper pinned vs. reconstructed).
    """

    name: str
    graph: PortGraph
    primary_route: Tuple[str, ...]
    src_host: str
    dst_host: str
    protection: Dict[str, Tuple[ProtectionSegment, ...]] = field(default_factory=dict)
    reverse_protection: Dict[str, Tuple[ProtectionSegment, ...]] = field(
        default_factory=dict
    )
    #: Core path for the reverse (ACK) route ID; None = the primary
    #: route reversed.  Each direction is its own route ID in KAR, so a
    #: controller is free to pick a different return path.
    reverse_route: Optional[Tuple[str, ...]] = None
    failure_links: Tuple[Tuple[str, str], ...] = ()
    notes: str = ""

    def protection_levels(self) -> List[str]:
        return list(self.protection)

    def segments(self, level: str) -> Tuple[ProtectionSegment, ...]:
        try:
            return self.protection[level]
        except KeyError:
            raise TopologyError(
                f"scenario {self.name!r} has no protection level {level!r}; "
                f"available: {list(self.protection)}"
            ) from None

    def reverse_segments(self, level: str) -> Tuple[ProtectionSegment, ...]:
        """Reverse-route protection for *level* (empty if undefined)."""
        return self.reverse_protection.get(level, ())

    def route_switch_ids(self) -> List[int]:
        return [self.graph.switch_id(sw) for sw in self.primary_route]


def _attach_host(graph: PortGraph, host: str, edge: str, core: str,
                 rate_mbps: float, delay_s: float, queue: int) -> None:
    """Create host -> edge -> core attachment with uniform parameters."""
    graph.add_node(edge, kind=NodeKind.EDGE)
    graph.add_node(host, kind=NodeKind.HOST)
    graph.add_link(core, edge, rate_mbps=rate_mbps, delay_s=delay_s,
                   queue_packets=queue)
    graph.add_link(edge, host, rate_mbps=rate_mbps, delay_s=delay_s,
                   queue_packets=queue)


# ---------------------------------------------------------------------------
# Fig. 1 — the 6-node worked example
# ---------------------------------------------------------------------------

def six_node(rate_mbps: float = 100.0, delay_s: float = 0.001,
             queue_packets: int = 50) -> Scenario:
    """The paper's Fig. 1 worked example, with exact port numbering.

    Switch IDs {4, 5, 7, 11}; the link-insertion order below reproduces
    the port indexes the paper's arithmetic uses, so the route IDs
    computed over this graph are exactly R = 44 (unprotected) and
    R = 660 (with the SW5 driven-deflection hop).

    Port map (paper): SW4: 0→SW7 · SW7: 0→SW4, 1→SW5, 2→SW11 ·
    SW11: 0→egress, 1→SW5, 2→SW7 · SW5: 0→SW11, 1→SW7.
    """
    g = PortGraph()
    for name, sid in (("SW4", 4), ("SW5", 5), ("SW7", 7), ("SW11", 11)):
        g.add_node(name, kind=NodeKind.CORE, switch_id=sid)
    g.add_node("E-D", kind=NodeKind.EDGE)
    g.add_node("D", kind=NodeKind.HOST)

    def link(a: str, b: str) -> None:
        g.add_link(a, b, rate_mbps=rate_mbps, delay_s=delay_s,
                   queue_packets=queue_packets)

    # Insertion order fixes port numbers — do not reorder.
    link("SW11", "E-D")   # SW11 port 0 -> egress
    link("SW4", "SW7")    # SW4 port 0 -> SW7; SW7 port 0 -> SW4
    link("SW5", "SW11")   # SW5 port 0 -> SW11; SW11 port 1 -> SW5
    link("SW7", "SW5")    # SW7 port 1 -> SW5; SW5 port 1 -> SW7
    link("SW7", "SW11")   # SW7 port 2 -> SW11; SW11 port 2 -> SW7
    link("E-D", "D")
    g.add_node("E-S", kind=NodeKind.EDGE)
    g.add_node("S", kind=NodeKind.HOST)
    link("SW4", "E-S")    # SW4 port 1 -> ingress edge
    link("E-S", "S")

    g.validate()
    return Scenario(
        name="six_node",
        graph=g,
        primary_route=("SW4", "SW7", "SW11"),
        src_host="S",
        dst_host="D",
        protection={
            UNPROTECTED: (),
            FULL: (ProtectionSegment("SW5", "SW11"),),
        },
        failure_links=(("SW7", "SW11"),),
        notes=(
            "Exact reconstruction of Fig. 1: IDs, ports, route IDs 44/660 "
            "all pinned by the paper's arithmetic."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 2 — the 15-node experimental network
# ---------------------------------------------------------------------------

#: Pairwise-coprime switch IDs for the 15-node network.  The paper names
#: SW7, SW10, SW13, SW17, SW23, SW29, SW37; the remainder are our choice
#: (distinct primes plus 9 = 3² and 10 = 2·5 — legal because KAR only
#: needs pairwise coprimality, not primality).
_FIFTEEN_IDS = (7, 9, 10, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

#: Core adjacency of the 15-node reconstruction.  Chosen to satisfy the
#: textual constraints of Section 3.1 (see DESIGN.md §5.1), most notably:
#: SW10's non-primary core neighbors are exactly {SW11, SW17, SW37}.
_FIFTEEN_LINKS = (
    ("SW10", "SW7"), ("SW10", "SW11"), ("SW10", "SW17"), ("SW10", "SW37"),
    ("SW7", "SW13"), ("SW7", "SW9"), ("SW7", "SW11"),
    ("SW13", "SW29"), ("SW13", "SW23"), ("SW13", "SW31"),
    ("SW13", "SW19"), ("SW13", "SW9"),
    ("SW29", "SW23"), ("SW29", "SW31"), ("SW29", "SW41"), ("SW29", "SW19"),
    ("SW11", "SW23"),
    ("SW23", "SW47"),
    ("SW31", "SW43"),
    ("SW17", "SW41"), ("SW17", "SW53"),
    ("SW37", "SW41"), ("SW37", "SW53"),
    ("SW41", "SW43"),
    ("SW43", "SW47"), ("SW43", "SW53"),
    ("SW47", "SW53"),
)


#: The SW9/SW19 rejoin spurs are longer-haul than the mesh around the
#: primary route.  This delay asymmetry is what bounds — but does not
#: remove — packet disordering when NIP splits deflected traffic across
#: the spur and the protected branch (the paper's ~25 % TCP impact).
#: The SW9 spur (hit by the SW7–SW13 failure, the paper's Fig. 4 case)
#: is the longest haul: its reordering depth exceeds what a Linux-like
#: sender tolerates, reproducing the persistent ~25 % throughput cost.
_FIFTEEN_DELAY_SPURS = frozenset({
    ("SW13", "SW19"), ("SW29", "SW19"),
})
_FIFTEEN_LONG_SPURS = frozenset({
    ("SW7", "SW9"), ("SW13", "SW9"),
})
_LONG_SPUR_DELAY_FACTOR = 40.0
#: The SW41 protection branch is both longer-haul *and* thinner than the
#: primary path; its capacity is what keeps full protection at ~70 % of
#: nominal (not ~100 %) when 2/3 of the deflected traffic funnels
#: through SW41→SW29 after a SW10–SW7 failure.
_FIFTEEN_THIN_SPURS = frozenset({
    ("SW17", "SW41"), ("SW37", "SW41"), ("SW41", "SW29"),
})
_SPUR_DELAY_FACTOR = 8.0
_SPUR_RATE_FACTOR = 0.5


def fifteen_node(rate_mbps: float = 100.0, delay_s: float = 0.001,
                 queue_packets: int = 50) -> Scenario:
    """The 15-node experimental network of Section 3.1 (Fig. 2).

    Reconstruction invariants (asserted by tests):

    * primary route SW10–SW7–SW13–SW29 → 15-bit route ID (Table 1),
    * partial protection {SW11→SW23, SW23→SW29, SW31→SW29} → 7 switches,
      28 bits (Table 1),
    * full protection additionally {SW17→SW41, SW37→SW41, SW41→SW29} →
      10 switches, 43 bits (Table 1),
    * on SW10–SW7 failure, NIP deflects uniformly over {SW11, SW17,
      SW37}; exactly one (SW11) is covered by partial protection — the
      paper's "2/3 of packets will be sent to switches SW17 or SW37",
    * SW9 and SW19 are degree-2 switches whose only non-input neighbour
      rejoins the primary route, so NIP drives deflected packets home
      from them without encoding them — this realizes the paper's
      "partial protection had similar resilient routing than full" for
      the SW7–SW13 and SW13–SW29 failures.
    """
    g = PortGraph()
    for sid in _FIFTEEN_IDS:
        g.add_node(f"SW{sid}", kind=NodeKind.CORE, switch_id=sid)
    for a, b in _FIFTEEN_LINKS:
        delay, rate = delay_s, rate_mbps
        if (a, b) in _FIFTEEN_DELAY_SPURS or (b, a) in _FIFTEEN_DELAY_SPURS:
            delay = delay_s * _SPUR_DELAY_FACTOR
        elif (a, b) in _FIFTEEN_LONG_SPURS or (b, a) in _FIFTEEN_LONG_SPURS:
            delay = delay_s * _LONG_SPUR_DELAY_FACTOR
        elif (a, b) in _FIFTEEN_THIN_SPURS or (b, a) in _FIFTEEN_THIN_SPURS:
            delay = delay_s * _SPUR_DELAY_FACTOR
            rate = rate_mbps * _SPUR_RATE_FACTOR
        g.add_link(a, b, rate_mbps=rate, delay_s=delay,
                   queue_packets=queue_packets)
    _attach_host(g, "H-AS1", "E-AS1", "SW10", rate_mbps, delay_s, queue_packets)
    _attach_host(g, "H-AS2", "E-AS2", "SW29", rate_mbps, delay_s, queue_packets)
    _attach_host(g, "H-AS3", "E-AS3", "SW29", rate_mbps, delay_s, queue_packets)

    g.validate()
    partial = (
        ProtectionSegment("SW11", "SW23"),
        ProtectionSegment("SW23", "SW29"),
        ProtectionSegment("SW31", "SW29"),
    )
    full = partial + (
        ProtectionSegment("SW17", "SW41"),
        ProtectionSegment("SW37", "SW41"),
        ProtectionSegment("SW41", "SW29"),
    )
    # Reverse (ACK-route) protection: a small tree rooted at SW10.  The
    # paper's text only discusses the measured direction; a bidirectional
    # TCP flow needs its ACK stream shielded the same way, and the
    # experiment results (partial ≈ full on mid/egress failures) only
    # reproduce when deflected ACKs are driven home too.
    reverse_partial = (
        ProtectionSegment("SW23", "SW11"),
        ProtectionSegment("SW11", "SW10"),
        ProtectionSegment("SW31", "SW13"),
    )
    reverse_full = reverse_partial + (
        ProtectionSegment("SW41", "SW17"),
        ProtectionSegment("SW17", "SW10"),
        ProtectionSegment("SW37", "SW10"),
    )
    return Scenario(
        name="fifteen_node",
        graph=g,
        primary_route=("SW10", "SW7", "SW13", "SW29"),
        src_host="H-AS1",
        dst_host="H-AS3",
        protection={UNPROTECTED: (), PARTIAL: partial, FULL: full},
        reverse_protection={PARTIAL: reverse_partial, FULL: reverse_full},
        failure_links=(("SW10", "SW7"), ("SW7", "SW13"), ("SW13", "SW29")),
        notes=(
            "Adjacency reconstructed from Section 3.1 constraints; "
            "Table 1 bit lengths (15/28/43) and the 1-of-3 partial "
            "coverage at SW10 hold by construction."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 6 — RNP backbone, 28 PoPs / 40 links
# ---------------------------------------------------------------------------

#: 28 pairwise-coprime IDs: the 27 odd primes 7..113 the paper's figure
#: style suggests, plus 9 (= 3²).  Includes every ID the paper names.
_RNP_IDS = (7, 9, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
            67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)

#: The 20 links pinned by Section 3.2 text (routes, protection segments,
#: deflection-candidate sets, the Fig. 8 redundant triangle).
_RNP_PINNED_LINKS = (
    ("SW7", "SW13"), ("SW7", "SW11"), ("SW11", "SW17"),
    ("SW13", "SW41"), ("SW13", "SW29"), ("SW13", "SW17"),
    ("SW13", "SW47"), ("SW13", "SW37"), ("SW13", "SW71"),
    ("SW41", "SW73"), ("SW41", "SW17"), ("SW41", "SW61"),
    ("SW73", "SW71"), ("SW73", "SW107"), ("SW73", "SW109"),
    ("SW17", "SW71"), ("SW71", "SW67"), ("SW61", "SW67"),
    ("SW107", "SW113"), ("SW109", "SW113"),
)

#: The 20 reconstruction links completing the 40-link backbone (regional
#: chains; they only provide "wilderness" for deflected random walks).
_RNP_FILL_LINKS = (
    ("SW9", "SW19"), ("SW19", "SW23"), ("SW23", "SW29"), ("SW29", "SW31"),
    ("SW31", "SW37"), ("SW37", "SW43"), ("SW43", "SW47"), ("SW47", "SW53"),
    ("SW53", "SW59"), ("SW59", "SW61"), ("SW9", "SW17"),
    ("SW67", "SW79"), ("SW79", "SW83"), ("SW83", "SW89"), ("SW89", "SW97"),
    ("SW97", "SW101"), ("SW101", "SW103"), ("SW103", "SW71"),
    ("SW31", "SW71"), ("SW53", "SW67"),
)

#: Relative link-rate classes for the heterogeneous profile ("links rates
#: are proportional to RNP real link rates").  The Boa Vista access span
#: is the thin one; the southeast core is full rate.
_RNP_THIN_LINKS = frozenset({("SW7", "SW13"), ("SW7", "SW11")})

#: Long-haul spans (the Brasília—Vitória—Rio—BH protection detour) carry
#: several times the propagation delay of the direct SW17 corridor; this
#: asymmetry is what disorders packets split across the two protection
#: branches after a SW41–SW73 failure (the paper's ~30 % loss there).
_RNP_LONG_LINKS = frozenset({
    ("SW41", "SW61"), ("SW61", "SW67"), ("SW67", "SW71"),
})
_RNP_LONG_DELAY_FACTOR = 20.0


def rnp28(rate_mbps: float = 100.0, delay_s: float = 0.002,
          queue_packets: int = 50,
          heterogeneous_rates: bool = True) -> Scenario:
    """The Brazilian RNP backbone scenario of Section 3.2 (Fig. 6).

    28 PoPs, 40 links.  Reconstruction invariants (asserted by tests):

    * route SW7 → SW13 → SW41 → SW73 (Boa Vista → São Paulo),
    * partial protection segments SW17→SW71, SW61→SW67, SW67→SW71,
      SW71→SW73 (exactly the paper's list),
    * SW7's only deflection alternative is SW11, whose only onward hop is
      SW17 (covered) — the "<5 % loss" case,
    * SW13's deflection candidates on SW13–SW41 failure are exactly
      {SW29, SW17, SW47, SW37, SW71} (1/5 each),
    * SW41's deflection candidates on SW41–SW73 failure are exactly
      {SW17, SW61} (1/2 each).

    Args:
        heterogeneous_rates: when True, the Boa Vista access links run at
            half rate (the paper scales links to real RNP rates; only the
            relative classes matter for the reported ratios).
    """
    g = PortGraph()
    for sid in _RNP_IDS:
        g.add_node(f"SW{sid}", kind=NodeKind.CORE, switch_id=sid)
    for a, b in _RNP_PINNED_LINKS + _RNP_FILL_LINKS:
        rate, delay = rate_mbps, delay_s
        if heterogeneous_rates and ((a, b) in _RNP_THIN_LINKS
                                    or (b, a) in _RNP_THIN_LINKS):
            rate = rate_mbps / 2.0
        if (a, b) in _RNP_LONG_LINKS or (b, a) in _RNP_LONG_LINKS:
            delay = delay_s * _RNP_LONG_DELAY_FACTOR
        g.add_link(a, b, rate_mbps=rate, delay_s=delay,
                   queue_packets=queue_packets)
    access_rate = rate_mbps / 2.0 if heterogeneous_rates else rate_mbps
    _attach_host(g, "H-BV", "E-BV", "SW7", access_rate, delay_s, queue_packets)
    _attach_host(g, "H-SP", "E-SP", "SW73", rate_mbps, delay_s, queue_packets)

    g.validate()
    partial = (
        ProtectionSegment("SW17", "SW71"),
        ProtectionSegment("SW61", "SW67"),
        ProtectionSegment("SW67", "SW71"),
        ProtectionSegment("SW71", "SW73"),
    )
    return Scenario(
        name="rnp28",
        graph=g,
        primary_route=("SW7", "SW13", "SW41", "SW73"),
        src_host="H-BV",
        dst_host="H-SP",
        protection={UNPROTECTED: (), PARTIAL: partial},
        # One reverse segment drives deflected ACKs home: anything that
        # reaches SW17 is steered to SW11, whose only other neighbour is
        # SW7 (the flow's source switch).
        reverse_protection={
            PARTIAL: (ProtectionSegment("SW17", "SW11"),),
        },
        failure_links=(("SW7", "SW13"), ("SW13", "SW41"), ("SW41", "SW73")),
        notes=(
            "28 PoPs / 40 links; 20 links pinned by Section 3.2, 20 "
            "reconstructed as regional chains. City labels indicative."
        ),
    )


# ---------------------------------------------------------------------------
# Fig. 8 — the redundant-path worst case
# ---------------------------------------------------------------------------

def redundant_path(rate_mbps: float = 100.0, delay_s: float = 0.001,
                   queue_packets: int = 50) -> Scenario:
    """The redundant-path worst-case scenario of Section 3.2 (Fig. 8).

    KAR's intrinsic constraint: one residue per switch, so SW73 cannot
    use *both* SW107 and SW109 even though both reach SW113.  On a
    SW73–SW107 failure the packet flips a fair coin between SW109
    (delivered) and SW71 (protection loop SW71→SW17→SW41→SW73, then coin
    again) — a geometric retry that the paper measures at 54.8 % of
    nominal TCP throughput.
    """
    g = PortGraph()
    for sid in (17, 41, 71, 73, 107, 109, 113):
        g.add_node(f"SW{sid}", kind=NodeKind.CORE, switch_id=sid)

    def link(a: str, b: str) -> None:
        g.add_link(a, b, rate_mbps=rate_mbps, delay_s=delay_s,
                   queue_packets=queue_packets)

    link("SW41", "SW73")
    link("SW73", "SW107")
    link("SW107", "SW113")
    link("SW73", "SW109")
    link("SW109", "SW113")
    link("SW73", "SW71")
    link("SW71", "SW17")
    link("SW17", "SW41")
    _attach_host(g, "H-SRC", "E-SRC", "SW41", rate_mbps, delay_s, queue_packets)
    _attach_host(g, "H-DST", "E-DST", "SW113", rate_mbps, delay_s, queue_packets)

    g.validate()
    protection = (
        ProtectionSegment("SW71", "SW17"),
        ProtectionSegment("SW17", "SW41"),
    )
    return Scenario(
        name="redundant_path",
        graph=g,
        primary_route=("SW41", "SW73", "SW107", "SW113"),
        src_host="H-SRC",
        dst_host="H-DST",
        protection={UNPROTECTED: (), PARTIAL: protection},
        # ACKs return over the redundant SW109 branch — a different route
        # ID (the KAR one-residue constraint binds per route, not per
        # network), untouched by the SW73-SW107 failure under study.
        reverse_route=("SW113", "SW109", "SW73", "SW41"),
        failure_links=(("SW73", "SW107"),),
        notes=(
            "Fully pinned by Section 3.2's Fig. 8 narrative: the "
            "SW109/SW71 coin flip and the SW71→SW17→SW41→SW73 "
            "protection loop."
        ),
    )
