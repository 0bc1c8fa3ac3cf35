"""Pseudocode transcriptions vs the real strategy implementations.

The strategy oracle samples this space randomly; these tests sweep it
*exhaustively* for small switches — every up-set, input port, computed
port (including out-of-range) and deflected flag for 2..4 ports — so
any semantic gap between :mod:`repro.verify.pseudocode` and
:mod:`repro.switches.deflection` fails deterministically here: in the
scalar ``decide`` and in the two array statements it is built from,
read the way the flat epoch kernel reads them.
"""

import itertools
import random

import numpy as np
import pytest

from repro.analysis.walk import _CandidateSet
from repro.sim.vector import _rank_ports
from repro.switches.deflection import (
    STRATEGY_NAMES,
    NotInputPort,
    strategy_by_name,
)
from repro.verify.pseudocode import PSEUDOCODE


def _small_states():
    """Every (num_ports, up, in_port, computed, deflected) for n<=4."""
    for num_ports in (2, 3, 4):
        ports = range(num_ports)
        for r in range(num_ports + 1):
            for up in itertools.combinations(ports, r):
                for in_port in ports:
                    for computed in range(num_ports + 2):
                        for deflected in (False, True):
                            yield num_ports, up, in_port, computed, deflected


class TestPseudocodeRegistry:
    def test_covers_every_strategy(self):
        assert tuple(sorted(PSEUDOCODE)) == tuple(sorted(STRATEGY_NAMES))


@pytest.mark.parametrize("name", STRATEGY_NAMES)
class TestExhaustiveAgreement:
    def test_decide_matches_pseudocode(self, name):
        impl = strategy_by_name(name)
        spec = PSEUDOCODE[name]
        for num_ports, up, in_port, computed, deflected in _small_states():
            rng_spec = random.Random(99)
            want = spec(
                num_ports, frozenset(up), in_port, computed, deflected,
                rng_spec,
            )
            rng_impl = random.Random(99)
            got = impl.decide(up, in_port, computed, deflected, rng_impl)
            state = (num_ports, up, in_port, computed, deflected)
            assert got == want, state
            assert rng_impl.getstate() == rng_spec.getstate(), state

    def test_array_forms_match_pseudocode(self, name):
        # One batch of every state, through the kernel's own port
        # tables.  ``_CandidateSet`` makes the pseudocode hand back the
        # list it would draw from instead of drawing.
        impl = strategy_by_name(name)
        spec = PSEUDOCODE[name]
        states = list(_small_states())
        up = np.zeros((len(states), 4), dtype=bool)
        for row, (_, healthy, *_) in enumerate(states):
            up[row, list(healthy)] = True
        in_port, computed, deflected = (
            np.array(column) for column in list(zip(*states))[2:]
        )
        rows = np.arange(len(states))
        usable = np.array([state[3] in state[1] for state in states])
        happy = impl.happy_mask(usable, in_port, computed, deflected)
        up_ports, kth_up, up_below = _rank_ports(up)
        count, skip = impl.fallback_ports(up_ports, up[rows, in_port])
        for row, state in enumerate(states):
            num_ports, healthy, own, port, flag = state
            want = spec(
                num_ports, frozenset(healthy), own, port, flag,
                _CandidateSet(),
            )
            # the mask is exactly "forward on computed, no draw"
            assert bool(happy[row]) == (want == (port, False)), state
            if happy[row]:
                continue
            # off it, the candidates rng.choice would get
            listed = [
                int(kth_up[row, r + (skip[row] and r >= up_below[row, own])])
                for r in range(count[row])
            ]
            assert want == ((listed, True) if listed else (None, False)), (
                state
            )


class TestCandidateSets:
    """``analysis.coverage`` reads exact candidate sets out of
    ``NotInputPort.decide`` through an RNG stand-in that returns the
    list instead of drawing; hold those sets equal to Algorithm 1's."""

    def test_nip_candidate_sets_match_algorithm_one(self):
        nip, spec, rng = NotInputPort(), PSEUDOCODE["nip"], _CandidateSet()
        states = 0
        for num_ports in range(2, 6):
            ports = range(num_ports)
            for r in range(num_ports + 1):
                for up in itertools.combinations(ports, r):
                    for in_port in ports:
                        for computed in range(num_ports + 2):
                            got = nip.decide(up, in_port, computed, False, rng)
                            want = spec(
                                num_ports, frozenset(up), in_port, computed,
                                False, rng,
                            )
                            state = (num_ports, up, in_port, computed)
                            assert got == want, state
                            if computed == in_port:
                                # coverage's "unencoded switch" input:
                                # never forwarded on, always the fallback.
                                assert got[0] is None or got[1], state
                            states += 1
        assert states > 1500


class TestAlgorithmOneSpecifics:
    """Pin the Algorithm 1 lines the NIP transcription encodes."""

    def test_computed_equal_input_forces_repick(self):
        want = PSEUDOCODE["nip"](3, {0, 1, 2}, 2, 2, False, random.Random(1))
        assert want[1] is True and want[0] != 2

    def test_random_candidates_exclude_input(self):
        # Only non-input healthy port left: the draw is forced.
        port, deflected = PSEUDOCODE["nip"](
            3, {0, 2}, 0, 1, False, random.Random(1)
        )
        assert (port, deflected) == (2, True)

    def test_empty_candidate_set_drops(self):
        assert PSEUDOCODE["nip"](
            2, {1}, 1, 0, False, random.Random(1)
        ) == (None, False)
