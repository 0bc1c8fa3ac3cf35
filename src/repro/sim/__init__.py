"""Packet-level discrete-event network simulator.

This package is the substrate that replaces the paper's Mininet/OVS
emulation environment: an event engine (:mod:`~repro.sim.engine`),
links with serialization/queueing/propagation/failure
(:mod:`~repro.sim.link`), port-based nodes (:mod:`~repro.sim.node`),
network assembly (:mod:`~repro.sim.network`), scripted failure
injection (:mod:`~repro.sim.failures`), generative chaos fault
injection (:mod:`~repro.sim.chaos`), runtime invariant checking
(:mod:`~repro.sim.invariants`), seeded randomness
(:mod:`~repro.sim.rng`) and packet tracing (:mod:`~repro.sim.trace`).
"""

from repro.sim.chaos import (
    CHAOS_MODES,
    AdversarialChaos,
    ChaosEvent,
    ChaosInjector,
    ControllerOutageChaos,
    DynamicLinkChaos,
    MtbfMttrChaos,
    SrlgChaos,
    events_digest,
)
from repro.sim.engine import EventHandle, SimError, Simulator
from repro.sim.failures import FailureEvent, FailureSchedule
from repro.sim.invariants import InvariantChecker, InvariantViolation, Violation
from repro.sim.link import Channel, ChannelStats, Link
from repro.sim.network import Network
from repro.sim.node import Node, NodeError
from repro.sim.packet import DEFAULT_TTL, KarHeader, Packet
from repro.sim.rng import RngRegistry
from repro.sim.trace import DropRecord, HopRecord, PacketTracer

__all__ = [
    "ChaosEvent",
    "ChaosInjector",
    "MtbfMttrChaos",
    "SrlgChaos",
    "AdversarialChaos",
    "DynamicLinkChaos",
    "ControllerOutageChaos",
    "CHAOS_MODES",
    "events_digest",
    "InvariantChecker",
    "InvariantViolation",
    "Violation",
    "Simulator",
    "SimError",
    "EventHandle",
    "Link",
    "Channel",
    "ChannelStats",
    "Node",
    "NodeError",
    "Network",
    "Packet",
    "KarHeader",
    "DEFAULT_TTL",
    "RngRegistry",
    "PacketTracer",
    "HopRecord",
    "DropRecord",
    "FailureSchedule",
    "FailureEvent",
]
