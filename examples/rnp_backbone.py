#!/usr/bin/env python
"""Section 3.2's national-backbone scenario, probed per failure.

Walks the RNP reconstruction (28 PoPs / 40 links), prints the route and
protection encoding for Boa Vista -> São Paulo, then runs a live UDP
probe through each of the paper's failures.

Run:  python examples/rnp_backbone.py
"""

from repro import PARTIAL, KarSimulation, rnp28

#: Indicative PoP labels for the primary route (the paper's figure labels
#: PoPs with Brazilian cities; only Boa Vista = SW7 and São Paulo = SW73
#: are pinned by the text — the rest are cosmetic).
RNP_CITY_LABELS = {
    "SW7": "Boa Vista (RR)", "SW13": "Manaus (AM)",
    "SW41": "Brasília (DF)", "SW73": "São Paulo (SP)",
}


def main() -> None:
    scenario = rnp28(rate_mbps=20.0, delay_s=0.0005)
    graph = scenario.graph

    print("=== RNP backbone (reconstruction): "
          f"{len(graph.nodes('core'))} PoPs ===\n")
    route = scenario.primary_route
    print("primary route: " + " -> ".join(
        f"{sw} [{RNP_CITY_LABELS.get(sw, '?')}]" for sw in route))
    print("partial protection segments: " + ", ".join(
        f"{s.at}->{s.to}" for s in scenario.segments(PARTIAL)))

    ks = KarSimulation(scenario, deflection="nip", protection=PARTIAL, seed=3)
    fwd = ks.primary_forward
    print(f"\nroute ID R = {fwd.route_id} "
          f"({fwd.bit_length} header bits, M = {fwd.modulus})")
    for hop in fwd.hops:
        print(f"  residue: R mod {hop.switch_id:3d} = {hop.port}")

    print("\n--- UDP probe during each failure ---")
    for failure in scenario.failure_links:
        ks = KarSimulation(scenario := rnp28(rate_mbps=20.0, delay_s=0.0005),
                           deflection="nip", protection=PARTIAL, seed=3)
        ks.schedule_failure(*failure, at=0.5)
        source, sink = ks.add_udp_probe(rate_pps=400, duration_s=3.0)
        source.start(at=1.0)
        ks.run(until=6.0)
        print(f"  {failure[0]}-{failure[1]}: delivered "
              f"{sink.received}/{source.sent} "
              f"({100 * sink.delivery_ratio(source.sent):.1f}%), "
              f"mean hops {sink.mean_hops():.2f} "
              f"(no-failure route: 4)")


if __name__ == "__main__":
    main()
