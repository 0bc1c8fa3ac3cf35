"""High-level facade: scenario → running KAR simulation.

:class:`KarSimulation` assembles the whole stack for one experiment —
event engine, KAR switches with a chosen deflection technique, edge
nodes, hosts, controller with route/protection encoding — from a
declarative :class:`~repro.topology.topologies.Scenario`.  It is the
API the examples and every benchmark use::

    from repro import KarSimulation, fifteen_node, PARTIAL

    ks = KarSimulation(fifteen_node(), deflection="nip",
                       protection=PARTIAL, seed=1)
    ks.schedule_failure("SW7", "SW13", at=3.0, repair_at=6.0)
    flow = ks.add_iperf()
    flow.start(at=0.5, duration_s=8.0)
    ks.run(until=9.0)
    print(flow.result().describe())
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import copy

from repro.controller.controller import KarController
from repro.controller.idassign import reassign_switch_ids
from repro.rns.backends import backend_by_name
from repro.rns.encoder import EncodedRoute, RouteEncoder
from repro.sim.chaos import CHAOS_MODES, ChaosInjector, ControllerOutageChaos
from repro.sim.engine import Simulator
from repro.sim.failures import FailureSchedule
from repro.sim.invariants import InvariantChecker
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.rng import RngRegistry
from repro.sim.trace import PacketTracer
from repro.switches.core import KarSwitch
from repro.switches.deflection import DeflectionStrategy, strategy_by_name
from repro.switches.edge import EdgeNode
from repro.topology.graph import NodeInfo, NodeKind
from repro.topology.topologies import UNPROTECTED, Scenario
from repro.transport.flow import IperfFlow
from repro.transport.host import Host
from repro.transport.udp import UdpSink, UdpSource

__all__ = ["KarSimulation"]


class KarSimulation:
    """A fully wired KAR network ready to run one scenario.

    Args:
        scenario: topology + routes + protection definitions.
        deflection: 'none' | 'hp' | 'avp' | 'nip' (or a strategy object).
        protection: protection-level name defined by the scenario
            (e.g. 'unprotected', 'partial', 'full').
        seed: root seed for all random streams (deflection choices).
        control_rtt_s: edge→controller→edge latency for re-encodes.
        ttl: initial KAR hop budget.
        trace_paths: keep full per-packet hop lists (slower; for tests).
        install_primary_flow: install forward/reverse routes for the
            scenario's (src_host, dst_host) pair at construction.
        invariants: True wires a collecting
            :class:`~repro.sim.invariants.InvariantChecker` through the
            whole packet path (NIP runs also enable the return-to-
            sender check); pass a checker instance for custom/strict
            configuration.
        strategy_factory: optional ``switch_name -> DeflectionStrategy``
            hook for *per-switch* strategies — the stateful baselines
            (:mod:`repro.baselines`) install precomputed per-switch
            tables this way.  When set it overrides *deflection* for
            core switches (pass ``deflection="none"`` for clarity);
            strategies returned here are not shared, so they may carry
            switch-local state.
        backend: encoding backend name (:data:`repro.rns.BACKEND_NAMES`)
            or encoder instance; None means ``"crt"``.  The encoder
            drives the controller (flows, protection hops, misdelivery
            re-encodes) and its ``switch_decode()`` drives every core
            switch (None for the integer ring: the switch's built-in
            ``R mod s``).  When the scenario's switch IDs violate the
            backend's coprimality ring (e.g. a paper scenario's integer
            pool under ``"xsr"``), the scenario is deep-copied and its
            cores re-IDed with the backend's ``idassign`` strategy —
            ID planning is the controller's job, so a backend change is
            a re-provisioning step, never a silent failure.
    """

    def __init__(
        self,
        scenario: Scenario,
        deflection: str | DeflectionStrategy = "nip",
        protection: str = UNPROTECTED,
        seed: int = 0,
        control_rtt_s: float = 0.005,
        ttl: int = 64,
        trace_paths: bool = False,
        install_primary_flow: bool = True,
        invariants: bool | InvariantChecker = False,
        strategy_factory: Optional[
            Callable[[str], DeflectionStrategy]
        ] = None,
        backend: str | RouteEncoder | None = None,
    ):
        if not isinstance(backend, RouteEncoder):
            backend = backend_by_name(backend or "crt")
        self.backend = backend
        try:
            backend.validate_switch_ids(
                sorted(scenario.graph.switch_ids().values())
            )
        except ValueError:
            scenario = copy.deepcopy(scenario)
            reassign_switch_ids(scenario.graph, strategy=backend.id_strategy)
        self.scenario = scenario
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.tracer = PacketTracer(trace_paths=trace_paths)
        if isinstance(deflection, DeflectionStrategy):
            self.strategy = deflection
        else:
            self.strategy = strategy_by_name(deflection)
        self.strategy_factory = strategy_factory
        self.protection_level = protection
        self._flow_count = 0
        self.chaos: list[ChaosInjector] = []

        if isinstance(invariants, InvariantChecker):
            self.invariants: Optional[InvariantChecker] = invariants
        elif invariants:
            self.invariants = InvariantChecker(
                forbid_return_to_sender=(self.strategy.name == "nip")
            )
        else:
            self.invariants = None

        graph = scenario.graph
        factories = {
            NodeKind.CORE: self._make_switch,
            NodeKind.EDGE: self._make_edge,
            NodeKind.HOST: self._make_host,
        }
        self.network = Network(
            graph, self.sim, factories, tracer=self.tracer,
            invariants=self.invariants,
        )
        self.controller = KarController(
            graph, control_rtt_s=control_rtt_s, default_ttl=ttl,
            encoder=self.backend,
        )
        self._wire_edges()

        self.primary_forward: Optional[EncodedRoute] = None
        self.primary_reverse: Optional[EncodedRoute] = None
        if install_primary_flow:
            self.primary_forward, self.primary_reverse = self.install_flow(
                scenario.src_host, scenario.dst_host
            )

    # ------------------------------------------------------------------
    # node factories
    # ------------------------------------------------------------------
    def _make_switch(self, info: NodeInfo, sim: Simulator) -> Node:
        assert info.switch_id is not None
        strategy = (
            self.strategy_factory(info.name)
            if self.strategy_factory is not None
            else self.strategy
        )
        return KarSwitch(
            name=info.name,
            sim=sim,
            num_ports=info.degree,
            switch_id=info.switch_id,
            strategy=strategy,
            rng=self.rng.stream(f"deflect:{info.name}"),
            tracer=self.tracer,
            invariants=self.invariants,
            decode=self.backend.switch_decode(),
        )

    def _make_edge(self, info: NodeInfo, sim: Simulator) -> Node:
        return EdgeNode(
            info.name, sim, info.degree, tracer=self.tracer,
            rng=self.rng.stream(f"edge:{info.name}"),
            invariants=self.invariants,
        )

    def _make_host(self, info: NodeInfo, sim: Simulator) -> Node:
        return Host(info.name, sim, info.degree)

    def _wire_edges(self) -> None:
        graph = self.scenario.graph
        for info in graph.nodes(NodeKind.EDGE):
            edge = self.network.node(info.name)
            assert isinstance(edge, EdgeNode)
            edge.set_controller(self.controller)
            for host in graph.hosts_of_edge(info.name):
                edge.serve_host(host, graph.port_of(info.name, host))

    # ------------------------------------------------------------------
    # provisioning
    # ------------------------------------------------------------------
    def install_flow(
        self, src_host: str, dst_host: str
    ) -> Tuple[EncodedRoute, EncodedRoute]:
        """Install forward+reverse routes for a host pair.

        The primary (scenario) pair uses the scenario's pinned route and
        the selected protection level; other pairs get shortest paths,
        unprotected.
        """
        scenario_pair = (
            src_host == self.scenario.src_host
            and dst_host == self.scenario.dst_host
        )
        core_path = self.scenario.primary_route if scenario_pair else None
        protection = (
            self.scenario.segments(self.protection_level)
            if scenario_pair
            else ()
        )
        reverse_protection = (
            self.scenario.reverse_segments(self.protection_level)
            if scenario_pair
            else ()
        )
        return self.controller.install_flow(
            self.network,
            src_host,
            dst_host,
            core_path=core_path,
            protection=protection,
            reverse_protection=reverse_protection,
            reverse_core_path=(
                self.scenario.reverse_route if scenario_pair else None
            ),
        )

    def schedule_failure(
        self, a: str, b: str, at: float, repair_at: Optional[float] = None
    ) -> None:
        """Fail link a-b at *at*; optionally repair at *repair_at*."""
        schedule = FailureSchedule()
        if repair_at is None:
            schedule.fail(at, a, b)
        else:
            schedule.fail_between(a, b, at, repair_at)
        schedule.install(self.network)

    def add_chaos(self, mode: str, until: float, **kwargs) -> ChaosInjector:
        """Arm a generative fault injector (a
        :data:`~repro.sim.chaos.CHAOS_MODES` key: 'mtbf', 'srlg',
        'adversarial' or 'dynamic') drawing from this run's seeded
        streams; no new fault starts after *until*.
        """
        try:
            cls = CHAOS_MODES[mode]
        except KeyError:
            raise ValueError(
                f"unknown chaos mode {mode!r}; "
                f"choose from {sorted(CHAOS_MODES)}"
            ) from None
        injector = cls(self.network, self.rng, until, **kwargs).install()
        self.chaos.append(injector)
        return injector

    def add_controller_outage(
        self, until: float, **kwargs
    ) -> ControllerOutageChaos:
        """Arm stochastic controller outages (re-encode unreachability)."""
        injector = ControllerOutageChaos(
            self.network, self.rng, until, controller=self.controller,
            **kwargs,
        ).install()
        self.chaos.append(injector)
        return injector

    def check_conservation(self) -> None:
        """Run the invariant checker's drain-time conservation check:
        nothing may still be in flight."""
        if self.invariants is None:
            raise RuntimeError("simulation was built without invariants")
        self.invariants.check_conservation(self.sim.now)

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def host(self, name: str) -> Host:
        node = self.network.node(name)
        if not isinstance(node, Host):
            raise TypeError(f"{name!r} is not a host")
        return node

    def add_iperf(
        self,
        src_host: Optional[str] = None,
        dst_host: Optional[str] = None,
        flow_id: Optional[str] = None,
        sample_interval_s: float = 0.5,
        **tcp_kwargs,
    ) -> IperfFlow:
        """Create a measured TCP flow (defaults: the scenario's pair)."""
        src = src_host or self.scenario.src_host
        dst = dst_host or self.scenario.dst_host
        self._flow_count += 1
        fid = flow_id or f"iperf-{self._flow_count}"
        if (src, dst) != (self.scenario.src_host, self.scenario.dst_host):
            self.install_flow(src, dst)
        return IperfFlow(
            self.sim,
            self.host(src),
            self.host(dst),
            flow_id=fid,
            sample_interval_s=sample_interval_s,
            **tcp_kwargs,
        )

    def add_udp_probe(
        self,
        rate_pps: float,
        duration_s: Optional[float] = None,
        src_host: Optional[str] = None,
        dst_host: Optional[str] = None,
        flow_id: Optional[str] = None,
        payload_bytes: int = 1400,
    ) -> Tuple[UdpSource, UdpSink]:
        """Create a constant-rate probe (defaults: the scenario's pair)."""
        src = src_host or self.scenario.src_host
        dst = dst_host or self.scenario.dst_host
        self._flow_count += 1
        fid = flow_id or f"udp-{self._flow_count}"
        if (src, dst) != (self.scenario.src_host, self.scenario.dst_host):
            self.install_flow(src, dst)
        source = UdpSource(
            self.sim, self.host(src), dst, fid,
            rate_pps=rate_pps, payload_bytes=payload_bytes,
            duration_s=duration_s,
        )
        sink = UdpSink(self.sim, self.host(dst), fid)
        return source, sink

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Advance the simulation to absolute time *until* (seconds)."""
        self.sim.run_until(until)
