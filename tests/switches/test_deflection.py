"""Unit tests for the deflection techniques (Section 2.1 / Algorithm 1)."""

import ast
import inspect
import random

import pytest

import repro.switches.deflection as deflection
from repro.baselines import ArborescenceFailoverStrategy, FastFailoverStrategy
from repro.switches.deflection import (
    STRATEGY_NAMES,
    AnyValidPort,
    HotPotato,
    NoDeflection,
    NotInputPort,
    strategy_by_name,
)


def up(num_ports, down=()):
    """The healthy tuple of a switch with ports 0..n-1 minus *down*."""
    return tuple(p for p in range(num_ports) if p not in down)


@pytest.fixture
def rng():
    return random.Random(7)


class TestNoDeflection:
    def test_forwards_computed(self, rng):
        assert NoDeflection().decide(up(4), 0, 2, False, rng) == (2, False)

    def test_drops_on_down_port(self, rng):
        port, _ = NoDeflection().decide(up(4, down={2}), 0, 2, False, rng)
        assert port is None

    def test_drops_on_invalid_port(self, rng):
        port, _ = NoDeflection().decide(up(3), 0, 7, False, rng)
        assert port is None


class TestHotPotato:
    def test_undeflected_follows_route(self, rng):
        assert HotPotato().decide(up(4), 0, 2, False, rng) == (2, False)

    def test_first_deflection_random(self, rng):
        port, deflected = HotPotato().decide(up(4, down={2}), 0, 2, False, rng)
        assert deflected and port in {0, 1, 3}

    def test_flagged_packet_random_walks_even_on_valid_port(self):
        # Once deflected, HP ignores the computed port entirely.
        seen = set()
        for seed in range(40):
            port, deflected = HotPotato().decide(
                up(4), 0, 2, True, random.Random(seed)
            )
            assert deflected
            seen.add(port)
        assert seen == {0, 1, 2, 3}  # includes the input port

    def test_no_ports_drops(self, rng):
        assert HotPotato().decide((), 0, 0, True, rng) == (None, False)


class TestAnyValidPort:
    def test_computed_port_even_if_input(self, rng):
        # AVP may send a packet back out the port it came in on.
        assert AnyValidPort().decide(up(4), 2, 2, False, rng) == (2, False)

    def test_random_includes_input(self):
        seen = set()
        for seed in range(40):
            port, deflected = AnyValidPort().decide(
                up(3, down={1}), 0, 1, False, random.Random(seed)
            )
            assert deflected
            seen.add(port)
        assert seen == {0, 2}

    def test_deflected_flag_does_not_randomize(self, rng):
        # Unlike HP, AVP keeps using the modulo even after a deflection.
        assert AnyValidPort().decide(up(4), 0, 2, True, rng) == (2, False)


class TestNotInputPort:
    def test_computed_equal_input_rejected(self):
        # Algorithm 1 line 4: output == in_port forces a re-pick.
        seen = set()
        for seed in range(40):
            port, deflected = NotInputPort().decide(
                up(3), 2, 2, False, random.Random(seed)
            )
            assert deflected
            assert port != 2
            seen.add(port)
        assert seen == {0, 1}

    def test_random_excludes_input(self):
        for seed in range(40):
            port, _ = NotInputPort().decide(
                up(3, down={1}), 0, 1, False, random.Random(seed)
            )
            assert port == 2  # only non-input healthy port

    def test_no_candidates_drops(self, rng):
        port, _ = NotInputPort().decide(up(2, down={1}), 0, 1, False, rng)
        assert port is None

    def test_valid_non_input_forwarded(self, rng):
        assert NotInputPort().decide(up(4), 0, 2, False, rng) == (2, False)


class MinimalRng:
    """A random.Random stand-in exposing only the documented API.

    No ``_randbelow``: the fallback draw must go through the public
    ``choice``, so an RNG without CPython's private helpers still works
    (regression test for an AttributeError on exactly that).
    """

    def __init__(self, seed):
        self._inner = random.Random(seed)

    def choice(self, seq):
        return self._inner.choice(seq)

    def random(self):
        return self._inner.random()

    def getstate(self):
        return self._inner.getstate()


class TestRandomFromSeqFallback:
    """The random fallback: one public ``choice`` over the candidates."""

    def test_minimal_rng_uses_choice_fallback(self):
        for seed in range(20):
            port, deflected = HotPotato().decide(
                up(4, down={2}), 0, 2, False, MinimalRng(seed)
            )
            assert deflected and port in {0, 1, 3}

    def test_minimal_rng_is_stream_identical_to_random(self):
        # One draw from the same candidate sequence, so a full Random
        # and the minimal wrapper stay in lockstep — the property the
        # strategy oracle checks.
        healthy = up(5, down={1})
        for seed in range(20):
            minimal = MinimalRng(seed)
            full = random.Random(seed)
            got = NotInputPort().decide(healthy, 0, 1, False, minimal)
            want = NotInputPort().decide(healthy, 0, 1, False, full)
            assert got == want
            assert minimal.getstate() == full.getstate()

    def test_empty_candidates_never_touch_the_rng(self):
        class ExplodingRng:
            def __getattr__(self, name):
                raise AssertionError("RNG consulted for an empty draw")

        assert HotPotato().decide((), 0, 0, True, ExplodingRng()) == (
            None, False
        )


class TestKernelTakesPlainValues:
    """The decision is a function of plain values, so every engine —
    DES switch, epoch loops, graph walk — calls the same method without
    faking a ``Packet`` or a switch."""

    def test_module_imports_only_the_standard_library(self):
        # No repro.sim (the rule is not welded to the DES node) and no
        # numpy (CI's verify-smoke box has none).
        tree = ast.parse(inspect.getsource(deflection))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert imported == {"__future__", "random", "typing"}

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_techniques_are_two_statements(self, name):
        # ``decide`` is written once, in the base class, from these two.
        own = vars(type(strategy_by_name(name)))
        assert "decide" not in own
        assert {"happy_mask", "fallback_ports"} <= set(own)

    @pytest.mark.parametrize("cls", [
        NoDeflection, HotPotato, AnyValidPort, NotInputPort,
        FastFailoverStrategy, ArborescenceFailoverStrategy,
    ])
    def test_decide_signature_and_result_are_plain(self, cls):
        params = list(inspect.signature(cls().decide).parameters)
        assert params == ["healthy", "in_port", "computed", "deflected", "rng"]
        port, deflected = cls().decide((0, 2), 0, 1, False, random.Random(1))
        assert port is None or type(port) is int
        assert type(deflected) is bool


class TestRegistry:
    def test_names(self):
        assert STRATEGY_NAMES == ("none", "hp", "avp", "nip")

    @pytest.mark.parametrize("name,cls", [
        ("none", NoDeflection), ("hp", HotPotato),
        ("avp", AnyValidPort), ("nip", NotInputPort),
    ])
    def test_lookup(self, name, cls):
        assert isinstance(strategy_by_name(name), cls)

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            strategy_by_name("magic")

    @pytest.mark.parametrize("name", [None, 3, "NIP", ""])
    def test_rejected(self, name):
        # The lookup is exact, one rule with EpochWorkload's: a non-str
        # is the same ValueError, not an AttributeError, and "NIP" is
        # not "nip".
        with pytest.raises(ValueError, match="unknown") as err:
            strategy_by_name(name)
        assert str(list(STRATEGY_NAMES)) in str(err.value)
