"""Generative chaos fault injection.

:mod:`repro.sim.failures` replays the paper's two scripted fail/repair
pairs; this module *generates* failures, so the resilience envelope can
be mapped instead of spot-checked.  Related work motivates each
process: Dai & Foerster show dynamic failures defeat schemes that
survive static ones; Chiesa et al. motivate adversarial multi-failure
stress.

Injector families (all layered on the existing
:class:`~repro.sim.network.Network` / virtual clock, nothing in the
dataplane knows chaos exists), keyed by mode in :data:`CHAOS_MODES`:

* :class:`MtbfMttrChaos` (``"mtbf"``) — independent per-link two-state
  process: up for Exp(MTBF), down for Exp(MTTR), repeat.
* :class:`SrlgChaos` (``"srlg"``) — correlated failures: links are
  partitioned into shared-risk link groups (a conduit cut takes out
  every member).  Explicit ``groups=`` model other shared risks, e.g.
  one group per core switch's links for a switch going dark.
* :class:`AdversarialChaos` (``"adversarial"``) — targets the live
  traffic: periodically fails the eligible link that carried the most
  packets since the last strike (worst case for deflection, which
  concentrates load).
* :class:`DynamicLinkChaos` (``"dynamic"``) — oblivious fail+recover
  strikes on the forwarding timescale, with a sweepable schedule seed
  for worst-case search.
* :class:`ControllerOutageChaos` — takes the controller's re-encode
  service unreachable for stochastic windows, exercising the hardened
  degradation path in :mod:`repro.switches.edge`.

Every random draw comes from a named :class:`~repro.sim.rng.RngRegistry`
stream, so a chaos run is a pure function of (scenario, config, seed):
two runs with the same seed produce bit-identical event logs —
:func:`events_digest` gives a printable fingerprint to compare.

Injectors never cut host access links (chaos on the core is the
interesting regime; a severed host proves nothing) and respect a
``max_down`` budget so the core cannot be driven fully dark.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.network import Network
from repro.sim.rng import RngRegistry

__all__ = [
    "ChaosEvent",
    "ChaosInjector",
    "MtbfMttrChaos",
    "SrlgChaos",
    "AdversarialChaos",
    "DynamicLinkChaos",
    "ControllerOutageChaos",
    "events_digest",
    "CHAOS_MODES",
]

LinkKey = Tuple[str, str]


@dataclass(frozen=True)
class ChaosEvent:
    """One state flip the injector actually applied."""

    time: float
    kind: str        # "fail" | "repair" | "ctrl-down" | "ctrl-up"
    link: LinkKey    # ("<controller>", "<controller>") for control plane
    cause: str       # injector-specific annotation (group id, strike, ...)

    def describe(self) -> str:
        a, b = self.link
        return f"t={self.time:.4f}s {self.kind} {a}-{b} [{self.cause}]"


def events_digest(events: Sequence[ChaosEvent]) -> str:
    """Stable fingerprint of an event log (for reproducibility checks)."""
    h = hashlib.sha256()
    for ev in events:
        h.update(
            f"{ev.time:.9f}|{ev.kind}|{ev.link[0]}|{ev.link[1]}|{ev.cause}"
            .encode("utf-8")
        )
    return h.hexdigest()[:16]


class _FlipCoordinator:
    """Applies same-instant link flips in one canonical order.

    ``_set_link`` used to flip the link immediately, so two injector
    events landing on the *same timestamp* applied in scheduler
    insertion order — an accident of who armed first.  The coordinator
    stages every requested flip instead and flushes the batch once per
    timestamp (a zero-delay post, which the engine fires before time
    can advance) in a canonical order: repairs first, then fails, each
    group sorted by link key and cause.  Repairs-before-fails is the
    conservative tie-break — when a fail and a repair of the same link
    collide on one instant, the link ends *down*, never transiently
    rescued by insertion luck.

    One coordinator per simulator, shared by all injectors; each staged
    flip remembers its owner so the event lands in the right log.
    """

    __slots__ = ("sim", "_pending")

    def __init__(self, sim):
        self.sim = sim
        self._pending: List[Tuple[bool, LinkKey, str, "ChaosInjector"]] = []

    def _effective(self, network: Network, key: LinkKey) -> bool:
        """Link state as of the staged batch (actual + pending flips)."""
        state = network.link_between(*key).up
        for up, staged_key, _, _ in self._pending:
            if staged_key == key:
                state = up
        return state

    def request(
        self, injector: "ChaosInjector", key: LinkKey, up: bool, cause: str
    ) -> bool:
        """Stage one flip; False when it would be a no-op at flush."""
        if self._effective(injector.network, key) == up:
            return False
        if not self._pending:
            self.sim.post(0.0, self._flush)
        self._pending.append((up, key, cause, injector))
        return True

    def _flush(self) -> None:
        batch = sorted(
            self._pending, key=lambda f: (not f[0], f[1], f[2])
        )
        self._pending = []
        for up, key, cause, injector in batch:
            injector._apply_flip(key, up, cause)


class ChaosInjector:
    """Base: eligible-link bookkeeping, the down budget, the event log.

    Args:
        network: the live network to torment.
        rng: named stream registry (the injector derives its streams
            from its :attr:`stream_prefix`).
        until: no new fault *starts* after this time (repairs of faults
            already in progress may land later, so a run can always
            quiesce).
        max_down: budget of concurrently-down eligible links; a fault
            that would exceed it is skipped, not queued.
        links: explicit eligible link keys; default every core–core
            link (host and edge access links are never chaos targets).
    """

    #: subclasses set this; it prefixes every RNG stream name.
    stream_prefix = "chaos"

    def __init__(
        self,
        network: Network,
        rng: RngRegistry,
        until: float,
        max_down: Optional[int] = None,
        links: Optional[Sequence[LinkKey]] = None,
    ):
        if until <= 0:
            raise ValueError(f"chaos horizon must be positive, got {until}")
        self.network = network
        self.sim = network.sim
        self.rng = rng
        self.until = until
        self.eligible: List[LinkKey] = (
            [self._canon(k) for k in links]
            if links is not None
            else network.core_link_keys()
        )
        if not self.eligible:
            raise ValueError("no eligible links for chaos injection")
        for key in self.eligible:
            network.link_between(*key)  # validate early, clear KeyError
        if max_down is None:
            max_down = max(1, len(self.eligible) // 3)
        if max_down < 1:
            raise ValueError(f"max_down must be >= 1, got {max_down}")
        self.max_down = max_down
        self.events: List[ChaosEvent] = []
        self._installed = False
        # One flip coordinator per simulator (see _FlipCoordinator):
        # injectors sharing a sim share the same staging batch, so
        # cross-injector same-instant collisions canonicalize too.
        flips = getattr(self.sim, "_chaos_flips", None)
        if flips is None:
            flips = _FlipCoordinator(self.sim)
            self.sim._chaos_flips = flips
        self._flips = flips

    # -- subclass API ---------------------------------------------------
    def install(self) -> "ChaosInjector":
        """Arm the injector on the network's simulator (once)."""
        if self._installed:
            raise RuntimeError(f"{type(self).__name__} already installed")
        self._installed = True
        self._arm()
        return self

    def _arm(self) -> None:
        raise NotImplementedError

    def _stream(self, name: str) -> random.Random:
        return self.rng.stream(f"{self.stream_prefix}:{name}")

    # -- link plumbing --------------------------------------------------
    @staticmethod
    def _canon(key: LinkKey) -> LinkKey:
        a, b = key
        return (a, b) if a <= b else (b, a)

    def _down_count(self) -> int:
        return sum(
            1 for key in self.eligible
            if not self.network.link_between(*key).up
        )

    def _budget_allows(self, extra: int = 1) -> bool:
        return self._down_count() + extra <= self.max_down

    def _set_link(self, key: LinkKey, up: bool, cause: str) -> bool:
        """Stage one link flip; no-op (False) if already in that state.

        The flip is applied by the shared :class:`_FlipCoordinator` at
        the end of the current instant, so simultaneous events land in
        a canonical order regardless of scheduler insertion.  The
        return value answers "will this flip happen?" against the
        staged state, exactly as the immediate version answered it
        against the live state.
        """
        return self._flips.request(self, self._canon(key), up, cause)

    def _apply_flip(self, key: LinkKey, up: bool, cause: str) -> None:
        """Coordinator callback: actually flip the link and log it."""
        link = self.network.link_between(*key)
        if link.up == up:
            # A same-instant sibling already left the link here (e.g. a
            # staged repair superseded by a staged fail); nothing to log.
            return
        link.set_up(up)
        self.events.append(
            ChaosEvent(
                time=self.sim.now,
                kind="repair" if up else "fail",
                link=key,
                cause=cause,
            )
        )

    # -- reporting ------------------------------------------------------
    def digest(self) -> str:
        return events_digest(self.events)

    def describe(self) -> str:
        fails = sum(1 for e in self.events if e.kind == "fail")
        repairs = sum(1 for e in self.events if e.kind == "repair")
        return (
            f"{type(self).__name__}: {len(self.events)} events "
            f"({fails} fail / {repairs} repair), digest {self.digest()}"
        )


class MtbfMttrChaos(ChaosInjector):
    """Independent exponential two-state process per eligible link.

    Each link draws time-to-failure from Exp(mean=*mtbf_s*) and
    time-to-repair from Exp(mean=*mttr_s*), from its own named stream —
    so adding or removing one link never perturbs another link's
    trajectory (the same variance-isolation property the deflection
    streams rely on).
    """

    stream_prefix = "chaos:mtbf"

    def __init__(
        self,
        network: Network,
        rng: RngRegistry,
        until: float,
        mtbf_s: float = 2.0,
        mttr_s: float = 0.5,
        **kwargs,
    ):
        super().__init__(network, rng, until, **kwargs)
        if mtbf_s <= 0 or mttr_s <= 0:
            raise ValueError(
                f"mtbf/mttr must be positive, got {mtbf_s}/{mttr_s}"
            )
        self.mtbf_s = mtbf_s
        self.mttr_s = mttr_s

    def _arm(self) -> None:
        for key in self.eligible:
            stream = self._stream(f"{key[0]}-{key[1]}")
            self._schedule_failure(key, stream)

    def _schedule_failure(self, key: LinkKey, stream: random.Random) -> None:
        at = self.sim.now + stream.expovariate(1.0 / self.mtbf_s)
        if at > self.until:
            return
        self.sim.schedule_at(at, self._fail, key, stream)

    def _fail(self, key: LinkKey, stream: random.Random) -> None:
        # The repair draw happens even when the budget skips the fault,
        # so one link's trajectory is independent of the others' state.
        downtime = stream.expovariate(1.0 / self.mttr_s)
        if self._budget_allows() and self._set_link(key, False, "mtbf"):
            self.sim.schedule(downtime, self._repair, key, stream)
        else:
            self._schedule_failure(key, stream)

    def _repair(self, key: LinkKey, stream: random.Random) -> None:
        self._set_link(key, True, "mttr")
        self._schedule_failure(key, stream)


class SrlgChaos(ChaosInjector):
    """Correlated failures via shared-risk link groups.

    Links are partitioned at random into three SRLGs (explicit *groups*
    override the partition).  Group failures arrive as a Poisson
    process with mean inter-arrival *group_mtbf_s*; a strike downs every
    up member at once and repairs them together after Exp(mttr).
    """

    stream_prefix = "chaos:srlg"

    def __init__(
        self,
        network: Network,
        rng: RngRegistry,
        until: float,
        group_mtbf_s: float = 1.5,
        mttr_s: float = 0.5,
        groups: Optional[Sequence[Sequence[LinkKey]]] = None,
        **kwargs,
    ):
        super().__init__(network, rng, until, **kwargs)
        if group_mtbf_s <= 0 or mttr_s <= 0:
            raise ValueError(
                f"group mtbf/mttr must be positive, got "
                f"{group_mtbf_s}/{mttr_s}"
            )
        self.group_mtbf_s = group_mtbf_s
        self.mttr_s = mttr_s
        if groups is not None:
            self.groups: List[List[LinkKey]] = [
                [self._canon(k) for k in g] for g in groups if g
            ]
            for group in self.groups:
                for key in group:
                    network.link_between(*key)
            if not self.groups:
                raise ValueError("explicit SRLG list is empty")
        else:
            self.groups = self._partition(min(3, len(self.eligible)))

    def _partition(self, count: int) -> List[List[LinkKey]]:
        shuffled = list(self.eligible)
        self._stream("partition").shuffle(shuffled)
        groups: List[List[LinkKey]] = [[] for _ in range(count)]
        for i, key in enumerate(shuffled):
            groups[i % count].append(key)
        return groups

    def _arm(self) -> None:
        self._clock = self._stream("clock")
        self._schedule_strike()

    def _schedule_strike(self) -> None:
        at = self.sim.now + self._clock.expovariate(1.0 / self.group_mtbf_s)
        if at > self.until:
            return
        self.sim.schedule_at(at, self._strike)

    def _strike(self) -> None:
        group_id = self._clock.randrange(len(self.groups))
        group = self.groups[group_id]
        victims = [
            key for key in group if self.network.link_between(*key).up
        ]
        if victims and self._budget_allows(extra=len(victims)):
            cause = f"srlg-{group_id}"
            for key in victims:
                self._set_link(key, False, cause)
            downtime = self._clock.expovariate(1.0 / self.mttr_s)
            self.sim.schedule(downtime, self._repair_group, victims, cause)
        self._schedule_strike()

    def _repair_group(self, victims: List[LinkKey], cause: str) -> None:
        for key in victims:
            self._set_link(key, True, cause)


class AdversarialChaos(ChaosInjector):
    """Strikes the link the traffic is actually using.

    Every *interval_s* the injector ranks eligible up links by packets
    carried since the last look (both directions) and fails the hottest
    one, repairing it *hold_s* later.  Deflection concentrates a flow
    onto its current detour, so this adversary chases the flow from
    detour to detour — the worst case Chiesa et al.'s adversarial model
    asks about, applied online.
    """

    stream_prefix = "chaos:adversarial"

    def __init__(
        self,
        network: Network,
        rng: RngRegistry,
        until: float,
        interval_s: float = 0.5,
        hold_s: float = 0.4,
        **kwargs,
    ):
        super().__init__(network, rng, until, **kwargs)
        if interval_s <= 0 or hold_s <= 0:
            raise ValueError(
                f"interval/hold must be positive, got {interval_s}/{hold_s}"
            )
        self.interval_s = interval_s
        self.hold_s = hold_s
        self._last_tx: Dict[LinkKey, int] = {}

    def _carried(self, key: LinkKey) -> int:
        link = self.network.link_between(*key)
        return link.stats_ab.tx_packets + link.stats_ba.tx_packets

    def _arm(self) -> None:
        self._tiebreak = self._stream("tiebreak")
        for key in self.eligible:
            self._last_tx[key] = self._carried(key)
        self.sim.schedule(self.interval_s, self._tick)

    def _tick(self) -> None:
        if self.sim.now > self.until:
            return
        deltas: List[Tuple[int, LinkKey]] = []
        for key in self.eligible:
            carried = self._carried(key)
            delta = carried - self._last_tx[key]
            self._last_tx[key] = carried
            if delta > 0 and self.network.link_between(*key).up:
                deltas.append((delta, key))
        if deltas and self._budget_allows():
            top = max(d for d, _ in deltas)
            hottest = [key for d, key in deltas if d == top]
            victim = self._tiebreak.choice(sorted(hottest))
            self._set_link(victim, False, f"hot:{top}pkts")
            self.sim.schedule(self.hold_s, self._set_link, victim, True,
                              "hold-expired")
        self.sim.schedule(self.interval_s, self._tick)


class DynamicLinkChaos(ChaosInjector):
    """Oblivious dynamic adversary: seeded fail+recover strikes.

    Dai & Foerster show that failover schemes proven resilient against
    *static* failure sets can still lose packets when links fail **and
    recover while packets are in flight**.  *strikes* strike times are
    drawn uniformly over (0, *until*), each with a victim link and a
    down duration uniform in [*min_down_s*, *max_down_s*] — short
    enough that links come back while the packets they stranded are
    still walking.  The whole schedule is drawn up front from the
    ``schedule:<schedule_seed>`` stream, so the adversary cannot peek
    at the traffic, two runs with the same (seed, schedule_seed)
    produce bit-identical event logs, and
    :func:`~repro.experiments.frontier.search_worst_schedule` can sweep
    *schedule_seed* without perturbing any other stream.
    """

    stream_prefix = "chaos:dynamic"

    def __init__(
        self,
        network: Network,
        rng: RngRegistry,
        until: float,
        strikes: int = 32,
        min_down_s: float = 0.002,
        max_down_s: float = 0.03,
        schedule_seed: int = 0,
        **kwargs,
    ):
        super().__init__(network, rng, until, **kwargs)
        if strikes < 1:
            raise ValueError(f"strikes must be >= 1, got {strikes}")
        if not 0.0 < min_down_s <= max_down_s:
            raise ValueError(
                f"down window must satisfy 0 < min <= max, got "
                f"{min_down_s}/{max_down_s}"
            )
        self.strikes = strikes
        self.min_down_s = min_down_s
        self.max_down_s = max_down_s
        self.schedule_seed = schedule_seed

    def _arm(self) -> None:
        stream = self._stream(f"schedule:{self.schedule_seed}")
        schedule: List[Tuple[float, int, LinkKey, float]] = []
        for i in range(self.strikes):
            at = stream.uniform(0.0, self.until)
            victim = stream.choice(self.eligible)
            down_s = stream.uniform(self.min_down_s, self.max_down_s)
            schedule.append((at, i, victim, down_s))
        for at, i, victim, down_s in sorted(schedule):
            self.sim.schedule_at(at, self._strike, i, victim, down_s)

    def _strike(self, index: int, victim: LinkKey, down_s: float) -> None:
        if self._budget_allows() and self._set_link(
            victim, False, f"strike{index}"
        ):
            self.sim.schedule(down_s, self._set_link, victim, True,
                              f"strike{index}")


class ControllerOutageChaos(ChaosInjector):
    """Takes the controller's re-encode service down for random windows.

    Exercises the edge's hardened degradation path (timeout, bounded
    retries with backoff, drop-with-reason) instead of the dataplane.
    The *controller* only needs a ``set_reachable(bool)`` method —
    :class:`~repro.controller.controller.KarController` provides it.
    """

    stream_prefix = "chaos:controller"

    def __init__(
        self,
        network: Network,
        rng: RngRegistry,
        until: float,
        controller: object = None,
        outage_mtbf_s: float = 2.0,
        outage_s: float = 0.5,
        **kwargs,
    ):
        super().__init__(network, rng, until, **kwargs)
        if controller is None or not hasattr(controller, "set_reachable"):
            raise ValueError(
                "ControllerOutageChaos needs a controller with set_reachable()"
            )
        if outage_mtbf_s <= 0 or outage_s <= 0:
            raise ValueError(
                f"outage mtbf/duration must be positive, got "
                f"{outage_mtbf_s}/{outage_s}"
            )
        self.controller = controller
        self.outage_mtbf_s = outage_mtbf_s
        self.outage_s = outage_s

    def _arm(self) -> None:
        self._clock = self._stream("clock")
        self._schedule_outage()

    def _schedule_outage(self) -> None:
        at = self.sim.now + self._clock.expovariate(1.0 / self.outage_mtbf_s)
        if at > self.until:
            return
        self.sim.schedule_at(at, self._outage_start)

    def _outage_start(self) -> None:
        duration = self._clock.expovariate(1.0 / self.outage_s)
        self.controller.set_reachable(False)
        self.events.append(
            ChaosEvent(self.sim.now, "ctrl-down",
                       ("<controller>", "<controller>"), "outage")
        )
        self.sim.schedule(duration, self._outage_end)

    def _outage_end(self) -> None:
        self.controller.set_reachable(True)
        self.events.append(
            ChaosEvent(self.sim.now, "ctrl-up",
                       ("<controller>", "<controller>"), "outage")
        )
        self._schedule_outage()


#: CLI/experiment mode name -> injector class (controller outages are
#: composed on top via --ctrl-outage, not a standalone mode).
CHAOS_MODES = {
    "mtbf": MtbfMttrChaos,
    "srlg": SrlgChaos,
    "adversarial": AdversarialChaos,
    "dynamic": DynamicLinkChaos,
}
