"""Every metric the benchmark prints: name, unit, time base, direction.

One table, three readers: ``run.py`` (what to print and in which
order), ``BENCHMARK.json`` (``test_smoke.py`` asserts the two agree)
and ``--selfcheck`` (which bound each figure has to agree within).

Time base: ``host`` is ``time.perf_counter`` on this machine,
``simulated`` is the program's own clock or a deterministic count —
a simulated figure may not move at all between two runs of one seed.

The benchmark driver wants *every* workload to report *every* bounded
end-to-end metric, never as zero.  Four figures exist on all five
workloads and carry the driver's bounds (:data:`UNIVERSAL`); the
figures that belong to a single workload (:data:`NAMED`) keep the
bounds of ISSUE 11 inside ``--selfcheck`` and are listed to the driver
as unbounded per-layer metrics, where "this workload does not exercise
it" reads 0.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("wan754-coldstart",
     "controller restart: GML text to first delivered packets over the "
     "full 567,762-pair mesh; control plane does all the work"),
    ("wan754-forward-clean",
     "epoch vector engine with no failures: numpy kernel only, the "
     "workload a deflection-path change must not move"),
    ("wan754-forward-storm",
     "same flows under a rolling fail/repair schedule: >=15% of hops "
     "leave the vectorised path for select_port"),
    ("paper15-tcp-des",
     "the paper's experiment: one TCP flow on the 15-node net, SW7-SW13 "
     "failed and repaired twice; only workload on engine/link/tcp"),
    ("abilene-svc-churn",
     "closed loop, one HTTP client against the controller service: "
     "per-flow encodes, repairs and invalidation beside reads"),
)


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    base: str  # "host" | "simulated"
    bound: Optional[float]  # None: unbounded; 0.0: exact
    workloads: Tuple[str, ...]  # () = every workload
    note: str


_ALL: Tuple[str, ...] = ()
_COLD = ("wan754-coldstart",)
_FWD = ("wan754-forward-clean", "wan754-forward-storm")
_DES = ("paper15-tcp-des",)
_SVC = ("abilene-svc-churn",)

#: Bounded by the driver on every workload.
UNIVERSAL: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", "host", 0.25, _ALL,
           "process start to first timed repeat (imports, fixtures, "
           "verification pass)"),
    Metric("repeat_s", "s", "lower", "host", 0.25, _ALL,
           "measured body of one repeat with interference taken out "
           "(harness.quiet_seconds): the workload's own end-to-end time"),
    Metric("work_per_s", "1/s", "higher", "host", 0.25, _ALL,
           "work units (mesh routes, hops, simulated microseconds, "
           "requests) per second of repeat_s"),
    Metric("peak_rss_mb", "MiB", "lower", "host", 0.10, _ALL,
           "ru_maxrss of the run's process"),
)

#: ISSUE 11's workload-specific end-to-end metrics.
NAMED: Tuple[Metric, ...] = (
    Metric("coldstart_s", "s", "lower", "host", 0.10, _COLD,
           "GML text to first packets delivered"),
    Metric("route_bits_median", "bits", "lower", "simulated", 0.0, _COLD,
           "median header bits over the full mesh"),
    Metric("route_bits_max", "bits", "lower", "simulated", 0.0, _COLD,
           "largest header over the full mesh"),
    Metric("fwd_hops_per_s", "1/s", "higher", "host", 0.10, _FWD,
           "simulated hops per host second"),
    Metric("des_sim_speed", "s/s", "higher", "host", 0.10, _DES,
           "simulated seconds per host second"),
    Metric("tcp_goodput_mbps", "Mbit/s", "higher", "simulated", 0.0, _DES,
           "iperf goodput over the run"),
    Metric("svc_req_per_s", "1/s", "higher", "host", 0.10, _SVC,
           "requests per host second, one closed-loop client"),
    Metric("svc_provision_p50_us", "us", "lower", "host", 0.10, _SVC,
           "POST /flows median latency"),
    Metric("svc_provision_p99_us", "us", "lower", "host", 0.25, _SVC,
           "POST /flows p99 of the repeat where it was lowest"),
    Metric("svc_flap_p50_ms", "ms", "lower", "host", 0.10, _SVC,
           "port_flap until every affected flow is repaired"),
    Metric("failed_ops_share", "share", "lower", "simulated", 0.0, _ALL,
           "failed / attempted operations; must be 0"),
)


def _layer(names: str, unit: str, better: str, base: str,
           workloads: Tuple[str, ...]) -> List[Metric]:
    return [
        Metric(n, unit, better, base, None, workloads, "")
        for n in names.split()
    ]


#: Per-layer metrics, layer = module name under ``repro``.
LAYERS: Tuple[Metric, ...] = tuple(
    # -> coldstart_s
    _layer("topology.parse_gml_s topology.graph_from_gml_s "
           "topology.attach_edges_s topology.csr_build_s "
           "topology.csr.trees_s controller.idassign.weights_s "
           "controller.idassign.assign_s controller.bulk.init_s "
           "controller.bulk.encode_s controller.bulk.mesh_rows_s "
           "controller.bulk.digest_s controller.bulk.stamp_s "
           "sim.vector.first_packet_s", "s", "lower", "host", _COLD)
    + _layer("controller.bulk.routes_per_s", "1/s", "higher", "host", _COLD)
    + _layer("controller.bulk.trees_built controller.bulk.block_hits "
             "rns.crt_extends", "count", "lower", "simulated", _COLD)
    + _layer("rns.crt_extend_us", "us", "lower", "host", _COLD)
    # -> fwd_hops_per_s
    + _layer("sim.vector.topology_build_s sim.vector.run_s", "s", "lower",
             "host", _FWD)
    + _layer("sim.vector.epochs sim.vector.hops sim.vector.hops_per_epoch "
             "switches.deflections switches.drops", "count", "lower",
             "simulated", _FWD)
    + _layer("sim.vector.us_per_hop", "us", "lower", "host", _FWD)
    + _layer("sim.vector.delivered_share", "share", "higher", "simulated",
             _FWD)
    + _layer("switches.deflected_share", "share", "lower", "simulated", _FWD)
    # -> des_sim_speed
    + _layer("runner.build_s sim.engine.run_s", "s", "lower", "host", _DES)
    + _layer("sim.engine.events controller.reencodes_served "
             "transport.tcp.retransmits transport.tcp.fast_retransmits "
             "transport.tcp.timeouts", "count", "lower", "simulated", _DES)
    + _layer("sim.engine.events_per_s", "1/s", "higher", "host", _DES)
    + _layer("sim.engine.us_per_event", "us", "lower", "host", _DES)
    + _layer("transport.reordering.reordered_share", "share", "lower",
             "simulated", _DES)
    # cProfile self-time shares (forward and DES workloads)
    + _layer("sim.vector.self_share sim.engine.self_share "
             "sim.link.self_share sim.node.self_share sim.trace.self_share "
             "sim.rng.self_share switches.core.self_share "
             "switches.deflection.self_share switches.edge.self_share "
             "transport.tcp.self_share transport.host.self_share "
             "numpy.self_share builtins.self_share stdlib.self_share "
             "other.self_share", "share", "lower", "host", _FWD + _DES)
    # -> svc_*
    + _layer("service.server.start_s", "s", "lower", "host", _SVC)
    + _layer("service.get_p50_us service.release_p50_us "
             "service.reroute_p50_us service.qos_provision_p50_us "
             "service.dispatch.provision_p50_us "
             "service.server.http_overhead_us service.state.provision_us "
             "controller.provision.provision_us service.admission.cspf_us",
             "us", "lower", "host", _SVC)
    + _layer("service.flap_p95_ms service.dispatch.flap_p50_ms", "ms",
             "lower", "host", _SVC)
    + _layer("service.admission.accepted service.admission.rejected "
             "controller.provision.trees_built "
             "controller.provision.link_invalidations "
             "rns.pool.deltas_applied rns.pool.full_solves "
             "service.state.evicted service.state.repaired_per_flap",
             "count", "lower", "simulated", _SVC)
    + _layer("service.admission.reject_share", "share", "lower", "simulated",
             _SVC)
    + _layer("controller.provision.tree_hit_ratio rns.pool.subset_hit_ratio",
             "share", "higher", "simulated", _SVC)
    # every workload
    + _layer("trace.overhead_share", "share", "lower", "host", _ALL)
    + _layer("trace.span_coverage", "share", "higher", "host", _ALL)
)

#: What ``--trace 1`` prints on its last line, in order.
PER_LAYER: Tuple[Metric, ...] = NAMED + LAYERS

BY_NAME: Dict[str, Metric] = {
    m.name: m for m in UNIVERSAL + PER_LAYER
}


def benchmark_json(run_seconds: int) -> Dict[str, object]:
    """The contents of ``BENCHMARK.json`` this table stands for."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in UNIVERSAL
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
