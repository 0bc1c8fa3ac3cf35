"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's artifacts plus a free-form
runner:

* ``table1`` / ``table2`` — print the tables.
* ``fig4`` / ``fig5`` / ``fig7`` / ``fig8`` — run and print a figure.
* ``report [PATH]`` — regenerate EXPERIMENTS.md.
* ``topo SCENARIO [--dot]`` — describe (or DOT-dump) a topology.
* ``run`` — one custom iperf-under-failure run with full knobs.
* ``chaos`` — seeded generative fault injection with runtime invariant
  checking; ``--sweep`` maps delivery ratio vs. failure rate.
* ``frontier`` — the resilience frontier: max tolerated failures vs.
  stretch vs. header bits, KAR deflection vs. the stateful failover
  baselines, static failure sets and the dynamic link adversary.
* ``verify`` — differential cross-oracle fuzzing: datapaths,
  strategies vs paper pseudocode, wire codec, and the graph walk
  model; ``--shrink`` minimizes divergent cases, ``--replay`` reruns
  a saved divergence artifact.
* ``serve`` — run the controller service: the HTTP/JSON multi-tenant
  provisioning API with QoS admission control and topology events.
* ``loadgen`` — farm-driven churn against a live service
  (arrive/depart/reroute/port-flap), auditing admission invariants and
  re-deriving every served route ID offline.

The global ``--profile N`` flag (before the subcommand: ``repro
--profile 25 fig4``) wraps any command in :mod:`cProfile` and dumps the
top N functions by cumulative time to stderr.

The experiment commands (``fig4``/``fig5``/``fig7``/``fig8``/
``report``/``chaos``) all run on the job farm (:mod:`repro.farm`) and
share its flags: ``--jobs N`` for worker processes, ``--cache-dir``
(on by default at ``.repro-cache``; results are content-addressed, so
a rerun is free and a killed sweep resumes by rerunning the same
command), ``--no-cache``/``--refresh`` escape hatches, and
``--progress`` / ``--no-progress`` to force the live reporter on or off.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.switches.deflection import STRATEGY_NAMES

__all__ = ["main", "build_parser"]

_SCENARIOS = ("six_node", "fifteen_node", "rnp28", "redundant_path")

#: Kept in sync with repro.sim.chaos.CHAOS_MODES (asserted by tests);
#: listed literally so the parser builds without importing the sim.
_CHAOS_MODES = ("adversarial", "dynamic", "mtbf", "srlg")

#: Kept in sync with repro.experiments.frontier (asserted by tests);
#: listed literally so the parser builds without importing the sim.
_FRONTIER_TOPOLOGIES = ("abilene", "clique", "torus")
_FRONTIER_SCHEMES = ("hp", "avp", "nip", "ff", "arb")

#: Default on-disk result cache for the experiment commands.
_DEFAULT_CACHE_DIR = ".repro-cache"

#: Kept in sync with repro.verify.oracles.ORACLE_NAMES (asserted by
#: tests); listed literally so the parser builds without importing the
#: verifier (which pulls in the whole sim stack).
_ORACLE_NAMES = ("backend", "datapath", "strategy", "vector", "walk",
                 "wire")

#: Kept in sync with repro.service.topology.SERVICE_TOPOLOGIES
#: (asserted by tests); listed literally so the parser builds without
#: importing the service stack.
_SERVICE_TOPOLOGIES = ("abilene", "clique6", "fifteen_node", "six_node",
                       "torus33")


def _add_farm_args(
    parser: argparse.ArgumentParser,
    cache_default: Optional[str] = _DEFAULT_CACHE_DIR,
) -> None:
    """The shared farm flags (--jobs/--cache-dir/--refresh/...).

    ``cache_default=None`` disables the result cache unless the user
    opts in — the verify command uses this.  A record is served only
    to the ``repro`` sources that wrote it, but that fingerprint omits
    numpy and the interpreter, and a "no divergence" left over from
    another one would defeat the whole point.
    """
    group = parser.add_argument_group("farm")
    group.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default: %(default)s; >1 "
                            "uses a spawn-context process pool)")
    group.add_argument("--cache-dir", default=cache_default,
                       metavar="DIR",
                       help="content-addressed result cache "
                            "(default: %(default)s)")
    group.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the result cache")
    group.add_argument("--refresh", action="store_true",
                       help="re-run every job and overwrite cached results")
    group.add_argument("--progress", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="live progress on stderr (default: auto when "
                            "stderr is a terminal)")


def _farm_options(args: argparse.Namespace):
    from repro.farm.executor import FarmOptions

    return FarmOptions(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        refresh=args.refresh,
        progress=args.progress,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="KAR (Key-for-Any-Route) reproduction toolkit",
    )
    parser.add_argument(
        "--profile", type=int, default=None, metavar="N",
        help="run the command under cProfile and print the top N "
             "functions by cumulative time to stderr; goes before the "
             "subcommand: repro --profile 25 fig4",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="route-ID bit lengths (Table 1)")
    sub.add_parser("table2", help="related-work feature matrix (Table 2)")
    fig4 = sub.add_parser("fig4", help="throughput time series by technique")
    fig4.add_argument("--seed", type=int, default=1)
    fig4.add_argument("--export", metavar="PATH.csv|PATH.json",
                      help="also write the raw series")
    _add_farm_args(fig4)
    fig5 = sub.add_parser("fig5", help="protection/technique/location grid")
    fig5.add_argument("--export", metavar="PATH.csv|PATH.json")
    _add_farm_args(fig5)
    fig7 = sub.add_parser("fig7", help="RNP backbone failures")
    fig7.add_argument("--export", metavar="PATH.csv|PATH.json")
    _add_farm_args(fig7)
    fig8 = sub.add_parser("fig8", help="redundant-path worst case")
    _add_farm_args(fig8)

    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("path", nargs="?", default="EXPERIMENTS.md")
    _add_farm_args(report)

    topo = sub.add_parser("topo", help="describe a scenario topology")
    topo.add_argument("scenario", choices=_SCENARIOS)
    topo.add_argument("--dot", action="store_true",
                      help="emit Graphviz DOT instead of a summary")

    run = sub.add_parser("run", help="one custom iperf-under-failure run")
    run.add_argument("--scenario", choices=_SCENARIOS[1:],
                     default="fifteen_node")
    run.add_argument("--deflection", choices=STRATEGY_NAMES, default="nip")
    run.add_argument("--protection", default="partial")
    run.add_argument("--failure", metavar="A-B", default=None,
                     help="link to fail, e.g. SW7-SW13 (default: the "
                          "scenario's first failure case)")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--duration", type=float, default=12.0,
                     help="total simulated seconds")
    run.set_defaults(usage_error=run.error)

    chaos = sub.add_parser(
        "chaos",
        help="generative fault injection with invariant checking",
    )
    chaos.add_argument("--scenario", choices=_SCENARIOS[1:],
                       default="fifteen_node")
    chaos.add_argument("--deflection", choices=STRATEGY_NAMES, default="nip")
    chaos.add_argument("--mode", choices=sorted(_CHAOS_MODES),
                       default="mtbf",
                       help="failure process (default: %(default)s)")
    chaos.add_argument("--seed", type=int, default=42)
    chaos.add_argument("--duration", type=float, default=4.0,
                       help="simulated seconds of probe traffic")
    chaos.add_argument("--mtbf", type=float, default=2.0,
                       help="per-link mean time between failures (mtbf mode)")
    chaos.add_argument("--mttr", type=float, default=0.5,
                       help="mean time to repair (mtbf/srlg modes)")
    chaos.add_argument("--ctrl-outage", action="store_true",
                       help="also inject controller outages (exercises the "
                            "re-encode retry/backoff path)")
    chaos.add_argument("--sweep", action="store_true",
                       help="run the full delivery-ratio vs. failure-rate "
                            "sweep (HP/AVP/NIP) instead of a single run")
    chaos.add_argument("--export", metavar="PATH.csv|PATH.json",
                       help="also write the sweep/run rows")
    _add_farm_args(chaos)

    frontier = sub.add_parser(
        "frontier",
        help="resilience frontier: tolerated failures vs. stretch vs. "
             "header bits, KAR vs. stateful failover baselines",
    )
    frontier.add_argument("--topologies", nargs="+",
                          choices=_FRONTIER_TOPOLOGIES,
                          default=list(_FRONTIER_TOPOLOGIES),
                          help="topology families (default: all)")
    frontier.add_argument("--schemes", nargs="+",
                          choices=_FRONTIER_SCHEMES,
                          default=list(_FRONTIER_SCHEMES),
                          help="forwarding schemes (default: all)")
    frontier.add_argument("--max-failures", type=int, default=3,
                          metavar="K",
                          help="largest failure count per cell "
                               "(default: %(default)s)")
    frontier.add_argument("--seeds", nargs="+", type=int, default=[42],
                          help="root seeds (default: %(default)s)")
    frontier.add_argument("--dynamic", action="store_true",
                          help="also run the dynamic link-failure "
                               "adversary at every budget level")
    frontier.add_argument("--export", metavar="PATH.csv|PATH.json",
                          help="also write the per-cell rows")
    _add_farm_args(frontier)

    verify = sub.add_parser(
        "verify",
        help="differential cross-oracle fuzzing (datapaths, strategies, "
             "wire codec, walk model)",
    )
    verify.add_argument("--trials", type=int, default=50, metavar="N",
                        help="fuzz cases to run (default: %(default)s)")
    verify.add_argument("--seed", type=int, default=0,
                        help="root seed; trial i uses a seed derived "
                             "from (seed, i) (default: %(default)s)")
    verify.add_argument("--oracles", nargs="+", choices=_ORACLE_NAMES,
                        default=None, metavar="ORACLE",
                        help="oracle subset to run "
                             f"(choices: {', '.join(_ORACLE_NAMES)}; "
                             "default: all)")
    verify.add_argument("--shrink", action="store_true",
                        help="shrink each divergent case to a minimal "
                             "repro before writing its artifact")
    verify.add_argument("--artifact-dir", default="verify-artifacts",
                        metavar="DIR",
                        help="where divergence repros are written "
                             "(default: %(default)s; only created on "
                             "divergence)")
    verify.add_argument("--replay", metavar="PATH", default=None,
                        help="re-run one saved divergence artifact "
                             "instead of fuzzing")
    _add_farm_args(verify, cache_default=None)

    serve = sub.add_parser(
        "serve",
        help="run the controller service (HTTP/JSON provisioning API)",
    )
    serve.add_argument("--topology", choices=_SERVICE_TOPOLOGIES,
                       default="torus33",
                       help="domain to serve (default: %(default)s)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8423,
                       help="listen port; 0 picks an ephemeral one "
                            "(default: %(default)s)")

    loadgen = sub.add_parser(
        "loadgen",
        help="farm-driven churn against a live controller service: "
             "arrive/depart/reroute/port-flap with admission audits and "
             "offline route-ID re-derivation",
    )
    loadgen.add_argument("--topology", choices=_SERVICE_TOPOLOGIES,
                         default="torus33",
                         help="domain to churn (default: %(default)s)")
    loadgen.add_argument("--seeds", nargs="+", type=int, default=[0, 1],
                         help="one churn shard per seed "
                              "(default: %(default)s)")
    loadgen.add_argument("--users", type=int, default=2000, metavar="N",
                         help="concurrent-flow population bound "
                              "(default: %(default)s)")
    loadgen.add_argument("--ops", type=int, default=4000, metavar="N",
                         help="API operations per shard "
                              "(default: %(default)s)")
    loadgen.add_argument("--qos", type=float, default=0.3, metavar="FRAC",
                         help="fraction of arrivals carrying QoS "
                              "constraints (default: %(default)s)")
    loadgen.add_argument("--transport", choices=("direct", "http"),
                         default="http",
                         help="drive dispatch() in-process or a live "
                              "HTTP server (default: %(default)s)")
    loadgen.add_argument("--export", metavar="PATH.csv|PATH.json",
                         help="also write per-shard rows")
    _add_farm_args(loadgen)
    return parser


def _cmd_table1() -> int:
    from repro.experiments.table1 import render_table1

    print(render_table1())
    return 0


def _cmd_table2() -> int:
    from repro.experiments.table2 import render_table2

    print(render_table2())
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.experiments.export import figure4_rows, write_rows
    from repro.experiments.figure4 import render_figure4, run_figure4

    series = run_figure4(seed=args.seed, farm=_farm_options(args))
    print(render_figure4(series))
    if args.export:
        write_rows(figure4_rows(series), args.export)
        print(f"wrote {args.export}")
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from repro.experiments.export import figure5_rows, write_rows
    from repro.experiments.figure5 import render_figure5, run_figure5

    cells = run_figure5(farm=_farm_options(args))
    print(render_figure5(cells))
    if args.export:
        write_rows(figure5_rows(cells), args.export)
        print(f"wrote {args.export}")
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.experiments.export import figure7_rows, write_rows
    from repro.experiments.figure7 import render_figure7, run_figure7

    points = run_figure7(farm=_farm_options(args))
    print(render_figure7(points))
    if args.export:
        write_rows(figure7_rows(points), args.export)
        print(f"wrote {args.export}")
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.experiments.figure8 import render_figure8, run_figure8

    print(render_figure8(run_figure8(farm=_farm_options(args))))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    report = build_report(farm=_farm_options(args))
    with open(args.path, "w", encoding="utf-8") as f:
        f.write(report)
    print(f"wrote {args.path}")
    return 0


def _cmd_topo(name: str, dot: bool) -> int:
    from repro.experiments.common import scenario_factory
    from repro.topology.topologies import six_node

    scenario = six_node() if name == "six_node" else scenario_factory(name)()
    if dot:
        print(scenario.graph.to_dot())
        return 0
    g = scenario.graph
    cores = g.nodes("core")
    print(f"scenario {scenario.name}: {len(cores)} core switches, "
          f"{len(g.links())} links")
    print(f"primary route: {' -> '.join(scenario.primary_route)}")
    for level in scenario.protection_levels():
        segs = scenario.segments(level)
        rendered = ", ".join(f"{s.at}->{s.to}" for s in segs) or "(none)"
        print(f"protection[{level}]: {rendered}")
    print(f"failure cases: " + ", ".join(
        f"{a}-{b}" for a, b in scenario.failure_links))
    if scenario.notes:
        print(f"notes: {scenario.notes}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.common import (
        Timeline,
        run_failure_experiment,
        scenario_factory,
    )

    scenario = scenario_factory(args.scenario)()
    if args.protection not in scenario.protection:
        args.usage_error(
            f"--protection {args.protection!r} is not defined by "
            f"{args.scenario}; choose from {', '.join(scenario.protection)}"
        )
    if args.failure:
        named = {
            f"{ln.a}-{ln.b}": (ln.a, ln.b) for ln in scenario.graph.links()
        }
        flipped = {f"{b}-{a}": (b, a) for a, b in named.values()}
        failure: Optional[tuple] = (
            named.get(args.failure) or flipped.get(args.failure)
        )
        if failure is None:
            args.usage_error(
                f"--failure {args.failure!r} is not a link of "
                f"{args.scenario}; choose from {', '.join(named)}"
            )
    else:
        failure = scenario.failure_links[0] if scenario.failure_links else None
    end = args.duration
    timeline = Timeline(
        flow_start=0.2,
        fail_at=end / 3,
        repair_at=2 * end / 3,
        end=end,
        baseline_window=(end / 6, end / 3),
        failure_window=(end / 3 + 0.5, 2 * end / 3),
        sample_interval_s=max(end / 24, 0.25),
    )
    windows = (timeline.baseline_window, timeline.failure_window)
    if any(lo >= hi for lo, hi in windows):
        args.usage_error(
            f"--duration {end:g} leaves an empty measurement window "
            f"(failure window is d/3 + 0.5 .. 2d/3); choose more than 1.5"
        )
    outcome = run_failure_experiment(
        scenario, args.deflection, args.protection, failure,
        args.seed, timeline,
    )
    fail_label = f"{failure[0]}-{failure[1]}" if failure else "none"
    print(f"scenario={args.scenario} deflection={args.deflection} "
          f"protection={args.protection} failure={fail_label} "
          f"seed={args.seed}")
    print(outcome.iperf.describe())
    print(f"baseline {outcome.baseline_mbps:.2f} Mbit/s, during failure "
          f"{outcome.failure_mbps:.2f} Mbit/s "
          f"({100 * outcome.ratio:.1f}% of baseline)")
    return 0


def _chaos_kwargs(args: argparse.Namespace) -> dict:
    if args.mode == "mtbf":
        return {"mtbf_s": args.mtbf, "mttr_s": args.mttr}
    if args.mode == "srlg":
        return {"mttr_s": args.mttr}
    return {}


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos_sweep import (
        ChaosRun,
        render_chaos_run,
        render_chaos_sweep,
        run_chaos_sweep,
    )
    from repro.farm import RunSpec, run_specs

    if args.sweep:
        runs = run_chaos_sweep(
            scenario_name=args.scenario,
            seed=args.seed,
            farm=_farm_options(args),
        )
        print(render_chaos_sweep(runs))
    else:
        spec = RunSpec.make("chaos", args.scenario, args.seed, {
            "technique": args.deflection,
            "mode": args.mode,
            "chaos_kwargs": _chaos_kwargs(args),
            "ctrl_outage": args.ctrl_outage,
            "traffic_s": args.duration,
        })
        [record] = run_specs([spec], _farm_options(args), "chaos")
        runs = [ChaosRun.from_record(record["result"])]
        print(render_chaos_run(runs[0]))
    if args.export:
        from repro.experiments.export import chaos_rows, write_rows

        write_rows(chaos_rows(runs), args.export)
        print(f"wrote {args.export}")
    return 0


def _cmd_frontier(args: argparse.Namespace) -> int:
    from repro.experiments.frontier import (
        frontier_rows,
        render_frontier,
        run_frontier,
    )

    cells = run_frontier(
        topologies=args.topologies,
        schemes=args.schemes,
        max_failures=args.max_failures,
        seeds=args.seeds,
        dynamic=args.dynamic,
        farm=_farm_options(args),
    )
    print(render_frontier(cells))
    if args.export:
        from repro.experiments.export import write_rows

        write_rows(frontier_rows(cells), args.export)
        print(f"wrote {args.export}")
    violations = sum(c.violation_count for c in cells)
    return 0 if violations == 0 else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify.artifact import load_artifact, replay_artifact
    from repro.verify.harness import render_verify, run_verify

    if args.replay:
        record = load_artifact(args.replay)
        result = replay_artifact(record)
        print(f"replayed [{record['oracle']}] on case seed "
              f"{record['case']['seed']}: {result.checks} checks, "
              f"{len(result.divergences)} divergences")
        for d in result.divergences[:5]:
            print(f"  {d.detail}")
        if result.ok:
            print("divergence no longer reproduces (fixed?)")
            return 0
        return 1
    outcome = run_verify(
        trials=args.trials,
        seed=args.seed,
        oracles=args.oracles,
        shrink=args.shrink,
        artifact_dir=args.artifact_dir,
        farm=_farm_options(args),
    )
    print(render_verify(outcome))
    return 0 if outcome.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import ControllerService
    from repro.service.state import ControllerState
    from repro.service.topology import edge_names, service_topology

    graph = service_topology(args.topology)
    state = ControllerState(graph)
    service = ControllerService(state)
    service.start(host=args.host, port=args.port)
    edges = edge_names(graph)
    print(f"serving {args.topology} on "
          f"http://{args.host}:{service.port} "
          f"({len(edges)} edges: {', '.join(edges[:6])}"
          f"{', ...' if len(edges) > 6 else ''})")
    print("endpoints: GET /healthz /stats /topology /audit /flows; "
          "POST /flows /flows/{id}/reroute /topology/events; "
          "DELETE /flows/{id}")
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.farm import RunSpec, run_specs
    from repro.service.loadgen import ChurnReport, churn_rows, render_churn

    specs = [
        RunSpec.make("service", args.topology, seed, {
            "users": args.users,
            "operations": args.ops,
            "qos_fraction": args.qos,
            "transport": args.transport,
        })
        for seed in args.seeds
    ]
    reports = [
        ChurnReport.from_record(r["result"])
        for r in run_specs(specs, _farm_options(args), "loadgen")
    ]
    print(render_churn(reports))
    if args.export:
        from repro.experiments.export import write_rows

        write_rows(churn_rows(reports), args.export)
        print(f"wrote {args.export}")
    return 0 if all(r.ok for r in reports) else 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "table2":
        return _cmd_table2()
    if args.command == "fig4":
        return _cmd_fig4(args)
    if args.command == "fig5":
        return _cmd_fig5(args)
    if args.command == "fig7":
        return _cmd_fig7(args)
    if args.command == "fig8":
        return _cmd_fig8(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "topo":
        return _cmd_topo(args.scenario, args.dot)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "frontier":
        return _cmd_frontier(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.profile is not None:
        from repro.bench.profiler import profile_call

        return profile_call(lambda: _dispatch(args), top=args.profile)
    return _dispatch(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
