#!/usr/bin/env python
"""Section 3.2's national-backbone scenario plus static coverage analysis.

Walks the RNP reconstruction (28 PoPs / 40 links), prints the route and
protection encoding for Boa Vista -> São Paulo, statically classifies
every failure's deflection candidates (driven / forced / wandering), and
then verifies the classification with a live UDP probe per failure.

Run:  python examples/rnp_backbone.py
"""

from repro import PARTIAL, KarSimulation, rnp28
from repro.analysis.coverage import analyze_failure

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

    print("\n--- static coverage analysis per failure (NIP) ---")
    dst_edge = graph.edge_of_host(scenario.dst_host)
    for failure in scenario.failure_links:
        report = analyze_failure(
            graph, route, dst_edge, scenario.segments(PARTIAL), failure
        )
        print(f"\n{failure[0]}-{failure[1]} fails: deflection at "
              f"{report.deflection_switch}")
        for outcome in report.outcomes:
            path = " -> ".join(outcome.path)
            print(f"  p={outcome.probability:.2f} via {outcome.candidate}: "
                  f"{outcome.fate:9s} ({path})")
        print(f"  deterministic delivery: "
              f"{100 * report.delivered_fraction:.0f}%  "
              f"wandering: {100 * report.wandering_fraction:.0f}%")

    print("\n--- live verification (UDP probe during each failure) ---")
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
